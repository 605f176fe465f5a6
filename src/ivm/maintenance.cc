#include "ivm/maintenance.h"

#include <algorithm>
#include <string>
#include <utility>

#include "ivm/partition.h"
#include "storage/wal_segment.h"

namespace rollview {

const char* DriverHealthName(DriverHealth health) {
  switch (health) {
    case DriverHealth::kStopped:
      return "stopped";
    case DriverHealth::kRunning:
      return "running";
    case DriverHealth::kShedding:
      return "shedding";
    case DriverHealth::kDegraded:
      return "degraded";
    case DriverHealth::kFailed:
      return "failed";
  }
  return "?";
}

const char* SheddingReasonName(SheddingReason reason) {
  switch (reason) {
    case SheddingReason::kNone:
      return "none";
    case SheddingReason::kWalFull:
      return "wal_full";
    case SheddingReason::kStaleness:
      return "staleness";
  }
  return "?";
}

MaintenanceService::MaintenanceService(ViewManager* views, View* view,
                                       Options options)
    : views_(views), view_(view), options_(options) {
  if (options_.interval_mode == Options::IntervalMode::kAdaptive) {
    controller_ = std::make_unique<IntervalController>(options_.controller);
    last_lock_stats_ = views_->db()->lock_manager()->GetStats();
  }
  if (options_.trace_journal_capacity > 0) {
    journal_ =
        std::make_unique<obs::TraceJournal>(options_.trace_journal_capacity);
    propagate_tracer_.set_journal(journal_.get());
    apply_tracer_.set_journal(journal_.get());
  }
  if (options_.freshness != nullptr) {
    // Seed visibility at the current MV position: commits already applied
    // predate tracking and never enter the histograms.
    freshness_ch_ =
        options_.freshness->RegisterView(view_->name, view_->mv->csn());
    if (options_.freshness_slo.target_staleness_nanos > 0) {
      slo_ = std::make_unique<obs::FreshnessSlo>(options_.freshness_slo);
    }
  }

  // Partitionability is a property of the view's join shape; check it
  // separately so a non-partitionable view runs one strip, while durable
  // cursors that conflict with the strip count refuse to run (resuming
  // mismatched chains could double-propagate; see partition_error_).
  ParallelRollingOptions popts;
  popts.rolling.runner = options_.runner;
  popts.partitions = std::max<uint32_t>(options_.propagate_partitions, 1);
  if (popts.partitions > 1) {
    Result<std::vector<size_t>> cols = ResolvePartitionColumns(view->resolved);
    if (!cols.ok()) {
      partition_fallback_ = cols.status();
      popts.partitions = 1;
    }
  }
  auto make_policies = [&]() {
    std::vector<std::unique_ptr<IntervalPolicy>> policies;
    for (size_t i = 0; i < view->resolved.num_terms(); ++i) {
      if (controller_ != nullptr) {
        policies.push_back(
            std::make_unique<AdaptiveContentionInterval>(controller_.get()));
      } else {
        policies.push_back(std::make_unique<TargetRowsInterval>(
            options_.target_rows_per_query));
      }
    }
    return policies;
  };
  Result<std::unique_ptr<PartitionedRollingPropagator>> built =
      PartitionedRollingPropagator::Create(views, view, make_policies,
                                           std::move(popts));
  if (!built.ok()) {
    partition_error_ = built.status();
  } else {
    propagator_ = std::move(built).value();
    if (journal_ != nullptr) {
      std::vector<obs::StepTracer*> tracers;
      for (uint32_t p = 0; p < propagator_->partitions(); ++p) {
        strip_tracers_.push_back(std::make_unique<obs::StepTracer>());
        strip_tracers_.back()->set_journal(journal_.get());
        tracers.push_back(strip_tracers_.back().get());
      }
      propagator_->SetTracers(tracers);
    }
    if (freshness_ch_ != nullptr) {
      propagator_->set_hwm_hook([this](Csn hwm) { PublishHwm(hwm); });
    }
  }

  ApplierOptions aopts;
  aopts.prune_view_delta = options_.prune_view_delta;
  applier_ = std::make_unique<Applier>(views, view, aopts);
  if (options_.checkpoint_every_steps > 0) {
    CheckpointManager::Options copts;
    copts.every_steps = options_.checkpoint_every_steps;
    checkpointer_ = std::make_unique<CheckpointManager>(views->db(), view,
                                                        copts);
  }
  if (options_.scrub_every_steps > 0) {
    scrubber_ = std::make_unique<Scrubber>(views, view, options_.scrub);
  }
}

MaintenanceService::~MaintenanceService() {
  // The final error (if any) stays readable through last_error() until
  // destruction; Stop()'s return value here has nowhere to go.
  Stop().ok();
  if (registry_ != nullptr) registry_->DropOwner(this);
}

RunnerStats MaintenanceService::runner_stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return runner_mirror_;
}

Status MaintenanceService::PropagateStep(bool* advanced) {
  // A requested partitioning that conflicts with durable state never runs:
  // permanent error, so the supervisor fails the driver on the first step.
  ROLLVIEW_RETURN_NOT_OK(partition_error_);
  if (journal_ != nullptr) {
    // Supervision context for the trace the propagator is about to open: a
    // retried step carries its position in the failure streak and the
    // health the supervisor reported when scheduling it. Every strip of the
    // round runs under the same supervision context.
    const uint64_t streak = static_cast<uint64_t>(
        propagate_driver_.consecutive.load(std::memory_order_relaxed));
    const char* health = DriverHealthName(propagate_health());
    const int64_t target =
        controller_ != nullptr
            ? static_cast<int64_t>(controller_->target_rows())
            : static_cast<int64_t>(options_.target_rows_per_query);
    for (const auto& tracer : strip_tracers_) {
      tracer->SetNextStepContext(streak, health, target);
    }
  }
  // Freshness pickup stamp: the strip's start time, taken before the step
  // runs so time spent inside the strip counts as propagation, not pickup.
  // The boundary it consumed up to is only known when PublishHwm runs.
  if (freshness_ch_ != nullptr) {
    strip_start_nanos_.store(freshness_ch_->Now(), std::memory_order_relaxed);
  }
  Status s = [&]() -> Status {
    ROLLVIEW_ASSIGN_OR_RETURN(*advanced, propagator_->Step());
    if (!*advanced) {
      // Settle the tail so the HWM can reach the frontier at quiescence.
      ROLLVIEW_RETURN_NOT_OK(propagator_->TryFinish().status());
    }
    if (*advanced && checkpointer_ != nullptr) {
      // On the propagate driver thread, between steps: exactly the
      // threading contract WriteViewCheckpoint requires.
      uint64_t before = checkpointer_->checkpoints_written();
      Status cs = checkpointer_->OnStep();
      if (journal_ != nullptr &&
          (!cs.ok() || checkpointer_->checkpoints_written() != before)) {
        // Cadence checkpoints run between step traces, not inside them, so
        // a fired (or failed) checkpoint gets its own root-level trace.
        propagate_tracer_.BeginStep(obs::SpanKind::kCheckpoint, view_->id,
                                    view_->name,
                                    checkpointer_->checkpoints_written());
        propagate_tracer_.EndStep(
            cs.ok() ? obs::StepOutcome::kOk
                    : (cs.IsTransient() ? obs::StepOutcome::kTransientError
                                        : obs::StepOutcome::kPermanentError),
            cs.ok() ? std::string() : cs.ToString());
      }
      ROLLVIEW_RETURN_NOT_OK(cs);
    }
    return Status::OK();
  }();

  // Scrub cadence: counted over every successful iteration -- advanced or
  // idle -- so a quiescent system still gets scrubbed. Runs here, on the
  // thread driving PropagateStep between steps (the WriteViewCheckpoint /
  // RecoverView threading contract). Scrub errors are recorded for
  // last_error() and telemetry but never returned as the step's status: a
  // broken scrub must not take down propagation.
  if (s.ok() && scrubber_ != nullptr &&
      ++steps_since_scrub_ >= options_.scrub_every_steps) {
    steps_since_scrub_ = 0;
    ScrubOutcome outcome = ScrubOutcome::kClean;
    Status sc = scrubber_->Pass(&outcome);
    if (journal_ != nullptr) {
      // Like cadence checkpoints, a scrub pass gets its own root-level
      // trace between step traces.
      propagate_tracer_.BeginStep(obs::SpanKind::kScrub, view_->id,
                                  view_->name,
                                  scrubber_->GetStats().passes);
      propagate_tracer_.Attr(1, "outcome", static_cast<int64_t>(outcome));
      propagate_tracer_.EndStep(
          sc.ok() ? obs::StepOutcome::kOk
                  : (sc.IsTransient() ? obs::StepOutcome::kTransientError
                                      : obs::StepOutcome::kPermanentError),
          sc.ok() ? std::string() : sc.ToString());
    }
    if (!sc.ok()) {
      scrub_errors_.fetch_add(1, std::memory_order_relaxed);
      RecordError(sc, /*terminal=*/false);
    }
  }

  {
    // Mirror the strips' stats for cross-thread metric scrapes (the hot
    // structs are unsynchronized by design). The round barrier has passed,
    // so the strips are quiescent and safe to aggregate here.
    std::lock_guard<std::mutex> lk(stats_mu_);
    runner_mirror_ = propagator_->runner_stats();
    compute_delta_mirror_ = propagator_->compute_delta_stats();
    rolling_mirror_ = propagator_->rolling_stats();
  }

  if (controller_ != nullptr) {
    if (!s.ok() && s.IsTransient()) {
      // Shrink *before* the supervisor's retry: the step re-runs with the
      // smaller interval instead of re-colliding at the old size.
      controller_->OnTransientStepFailure();
    } else if (s.ok() && *advanced) {
      ObserveContention();
      // Contention pacing: space the next strip out in time. At the row
      // floor this is the controller's only remaining lever against
      // lock-order collisions with foreground transactions; it decays to
      // zero within a few calm windows.
      std::chrono::microseconds pause = controller_->recommended_pause();
      if (pause.count() > 0) InterruptibleSleep(pause);
    }
  }

  // Time-domain SLO, the staleness input of shedding: evaluated every
  // iteration -- advanced, idle or failed, since a stalled pipeline is
  // exactly when staleness grows -- on the thread driving PropagateStep,
  // where the strips are quiescent and shedding transitions are race-free
  // (the ApplyShedding contract).
  if (slo_ != nullptr &&
      slo_->Observe(freshness_ch_->StalenessNanos(), freshness_ch_->Now())) {
    UpdateShedding();
  }
  return s;
}

void MaintenanceService::PublishHwm(Csn hwm) {
  // A re-publish of the current mark (idle settles, parallel re-folds)
  // stamps nothing; the channel also dedups racing folds.
  if (hwm > view_->high_water_mark()) {
    freshness_ch_->OnStripStart(
        strip_start_nanos_.load(std::memory_order_relaxed), hwm);
    freshness_ch_->OnHwmAdvance(hwm, freshness_ch_->Now());
  }
  view_->delta_hwm.Advance(hwm);
}

void MaintenanceService::ObserveContention() {
  // Saturating deltas: a concurrent ResetStats (benchmarks do this between
  // phases) must not produce wrapped-around windows.
  auto delta = [](uint64_t now, uint64_t then) {
    return now >= then ? now - then : now;
  };
  LockManager::Stats now = views_->db()->lock_manager()->GetStats();
  const LockManager::ClassStats& o = now.cls(TxnClass::kOltp);
  const LockManager::ClassStats& m = now.cls(TxnClass::kMaintenance);
  const LockManager::ClassStats& o0 = last_lock_stats_.cls(TxnClass::kOltp);
  const LockManager::ClassStats& m0 =
      last_lock_stats_.cls(TxnClass::kMaintenance);

  ContentionSnapshot snap;
  snap.oltp_waits = delta(o.waits, o0.waits);
  snap.oltp_timeouts = delta(o.timeouts, o0.timeouts);
  snap.maintenance_deadlock_victims =
      delta(m.deadlock_victims, m0.deadlock_victims);
  last_lock_stats_ = now;

  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    const uint64_t transient = propagate_driver_.stats.transient_errors;
    snap.step_transient_failures =
        delta(transient, last_window_transient_errors_);
    last_window_transient_errors_ = transient;
  }

  snap.backlog_rows = propagator_->BacklogRows();
  backlog_gauge_.Set(static_cast<int64_t>(snap.backlog_rows));
  controller_->Observe(snap);
}

void MaintenanceService::UpdateShedding() {
  SheddingReason reason = SheddingReason::kNone;
  if (wal_full_) {
    reason = SheddingReason::kWalFull;
  } else if (slo_ != nullptr && slo_->shedding()) {
    reason = SheddingReason::kStaleness;
  }
  const SheddingReason was =
      shedding_reason_.exchange(reason, std::memory_order_acq_rel);
  const bool on = reason != SheddingReason::kNone;
  if (on != (was != SheddingReason::kNone)) ApplyShedding(on);
}

void MaintenanceService::ApplyShedding(bool on) {
  if (checkpointer_ != nullptr) {
    checkpointer_->set_every_steps(
        on ? options_.checkpoint_every_steps * kSheddingCheckpointStretch
           : options_.checkpoint_every_steps);
  }
  // Reflect the mode in health immediately (the driver loop also refreshes
  // after every successful step). Do not mask kDegraded/kFailed.
  DriverHealth cur =
      propagate_driver_.health.load(std::memory_order_acquire);
  if (cur == DriverHealth::kRunning || cur == DriverHealth::kShedding) {
    propagate_driver_.health.store(
        on ? DriverHealth::kShedding : DriverHealth::kRunning,
        std::memory_order_release);
  }
  if (options_.on_shedding) options_.on_shedding(on);
}

bool MaintenanceService::WalOutOfSpace() const {
  Wal* wal = views_->db()->wal();
  return wal->durable() && wal->store()->out_of_space();
}

DriverHealth MaintenanceService::SteadyHealth(const Driver* driver) const {
  if (driver == &propagate_driver_ && shedding()) {
    return DriverHealth::kShedding;
  }
  return DriverHealth::kRunning;
}

Status MaintenanceService::ApplyStep(bool* advanced) {
  Csn hwm = view_->high_water_mark();
  if (hwm <= view_->mv->csn()) {
    *advanced = false;
    return Status::OK();
  }
  *advanced = true;
  const Applier::Stats& astats = applier_->stats();
  if (journal_ != nullptr) {
    uint64_t rows_before = astats.rows_selected;
    apply_tracer_.SetNextStepContext(
        static_cast<uint64_t>(
            apply_driver_.consecutive.load(std::memory_order_relaxed)),
        DriverHealthName(apply_health()), /*target_rows=*/0);
    apply_tracer_.BeginStep(obs::SpanKind::kApply, view_->id, view_->name,
                            astats.rolls + 1);
    apply_tracer_.Attr(1, "t_a", static_cast<int64_t>(view_->mv->csn()));
    apply_tracer_.Attr(1, "t_b", static_cast<int64_t>(hwm));
    Status s = applier_->RollTo(hwm);
    apply_tracer_.AddStepRows(astats.rows_selected - rows_before);
    if (s.ok() && freshness_ch_ != nullptr) {
      // Close the freshness loop inside the apply trace: the commit range
      // that just became visible, decomposed into the stage histograms.
      obs::ViewFreshness::VisibleReport rep =
          freshness_ch_->OnVisible(view_->mv->csn());
      uint32_t span = apply_tracer_.OpenSpan(obs::SpanKind::kFreshness);
      apply_tracer_.Attr(span, "commits",
                         static_cast<int64_t>(rep.commits));
      apply_tracer_.Attr(span, "evicted",
                         static_cast<int64_t>(rep.evicted));
      apply_tracer_.Attr(span, "max_e2e_us",
                         static_cast<int64_t>(rep.max_e2e_nanos / 1000));
      apply_tracer_.CloseSpan(span, true);
    }
    if (s.ok()) applied_.Advance(view_->mv->csn());
    apply_tracer_.EndStep(
        s.ok() ? obs::StepOutcome::kOk
               : (s.IsTransient() ? obs::StepOutcome::kTransientError
                                  : obs::StepOutcome::kPermanentError),
        s.ok() ? std::string() : s.ToString());
    std::lock_guard<std::mutex> lk(stats_mu_);
    apply_mirror_ = astats;
    return s;
  }
  Status s = applier_->RollTo(hwm);
  if (s.ok()) {
    if (freshness_ch_ != nullptr) freshness_ch_->OnVisible(view_->mv->csn());
    applied_.Advance(view_->mv->csn());
  }
  std::lock_guard<std::mutex> lk(stats_mu_);
  apply_mirror_ = astats;
  return s;
}

void MaintenanceService::RecordError(const Status& s, bool terminal) {
  std::lock_guard<std::mutex> lk(error_mu_);
  last_error_ = s;
  if (terminal && error_.ok()) error_ = s;
}

void MaintenanceService::InterruptibleSleep(std::chrono::nanoseconds d) {
  std::unique_lock<std::mutex> lk(wake_mu_);
  wake_cv_.wait_for(lk, d, [&] {
    return !running_.load(std::memory_order_relaxed);
  });
}

void MaintenanceService::DriverLoop(Driver* driver,
                                    const std::function<Status(bool*)>& step,
                                    uint64_t salt, CsnFrontier* upstream) {
  Rng jitter_rng(options_.backoff_seed ^ salt);
  const BackoffPolicy& policy = options_.backoff;
  std::chrono::nanoseconds backoff =
      std::chrono::duration_cast<std::chrono::nanoseconds>(policy.initial);
  const std::chrono::nanoseconds backoff_cap =
      std::chrono::duration_cast<std::chrono::nanoseconds>(policy.max);
  int consecutive_failures = 0;
  driver->consecutive.store(0, std::memory_order_relaxed);
  auto stopped = [this] { return !running_.load(std::memory_order_relaxed); };

  while (running_.load(std::memory_order_relaxed)) {
    {
      // Check the pause flag and claim the step under one lock: a Pause()
      // either finds this step in flight and waits for it, or keeps it
      // from starting.
      std::unique_lock<std::mutex> lk(wake_mu_);
      wake_cv_.wait(lk, [&] {
        return !running_.load(std::memory_order_relaxed) ||
               !driver->paused.load(std::memory_order_relaxed);
      });
      if (!running_.load(std::memory_order_relaxed)) break;
      driver->stepping = true;
    }

    // Read before stepping: an upstream advance that lands while the step
    // runs ends the idle wait below at once instead of being missed.
    const Csn seen = upstream->value();
    bool advanced = false;
    Status s = step(&advanced);
    bool pausing;
    {
      std::lock_guard<std::mutex> lk(wake_mu_);
      driver->stepping = false;
      pausing = driver->paused.load(std::memory_order_relaxed);
    }
    if (pausing) wake_cv_.notify_all();

    if (s.ok()) {
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        driver->stats.steps++;
        if (consecutive_failures > 0) driver->stats.recoveries++;
      }
      consecutive_failures = 0;
      driver->consecutive.store(0, std::memory_order_relaxed);
      backoff =
          std::chrono::duration_cast<std::chrono::nanoseconds>(policy.initial);
      if (driver == &propagate_driver_ && wal_full_ && !WalOutOfSpace()) {
        // Space came back and a step went through: the pressure input
        // clears (the staleness input may still hold shedding on).
        wal_full_ = false;
        UpdateShedding();
      }
      driver->health.store(SteadyHealth(driver), std::memory_order_release);
      if (!advanced) {
        upstream->WaitPast(
            seen, CsnFrontier::Clock::now() + kPipelineHeartbeat, stopped);
      }
      continue;
    }

    ++consecutive_failures;
    driver->consecutive.store(consecutive_failures,
                              std::memory_order_relaxed);
    // A full WAL device is an environmental stall, not a driver defect:
    // the flusher retries while space is reclaimed, so the failure streak
    // must never trip the kFailed latch (which would strand the view after
    // the disk drains). Shed load and keep retrying instead.
    bool wal_full = WalOutOfSpace();
    bool terminal =
        !s.IsTransient() ||
        (!wal_full && options_.failed_after > 0 &&
         consecutive_failures >= options_.failed_after);
    RecordError(s, terminal);
    if (terminal) {
      driver->health.store(DriverHealth::kFailed, std::memory_order_release);
      return;
    }
    if (wal_full && driver == &propagate_driver_ && !wal_full_) {
      wal_full_ = true;
      UpdateShedding();
    }

    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      driver->stats.transient_errors++;
      if (s.IsTxnAborted()) {
        driver->stats.errors_aborted++;
      } else {
        driver->stats.errors_busy++;
      }
    }
    if (consecutive_failures >= options_.degraded_after &&
        driver->health.load(std::memory_order_relaxed) !=
            DriverHealth::kDegraded) {
      driver->health.store(DriverHealth::kDegraded,
                           std::memory_order_release);
      std::lock_guard<std::mutex> lk(stats_mu_);
      driver->stats.degraded_entries++;
    }

    double factor =
        1.0 + policy.jitter * (2.0 * jitter_rng.NextDouble() - 1.0);
    auto delay = std::chrono::nanoseconds(static_cast<int64_t>(
        static_cast<double>(backoff.count()) * factor));
    if (delay < std::chrono::nanoseconds(1)) delay = std::chrono::nanoseconds(1);
    {
      std::lock_guard<std::mutex> lk(stats_mu_);
      driver->stats.backoff_nanos += static_cast<uint64_t>(delay.count());
    }
    InterruptibleSleep(delay);
    backoff = std::min(
        backoff_cap,
        std::chrono::nanoseconds(static_cast<int64_t>(
            static_cast<double>(backoff.count()) * policy.multiplier)));
  }
  driver->health.store(DriverHealth::kStopped, std::memory_order_release);
}

void MaintenanceService::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  if (controller_ != nullptr &&
      propagate_driver_.health.load(std::memory_order_acquire) ==
          DriverHealth::kFailed) {
    // Restart after a terminal failure: the backoff streak resets below,
    // and the AIMD controller must reset with it -- its row target and
    // pacing were tuned for (or collapsed by) the regime that killed the
    // driver, and resuming them would start the new run throttled for no
    // observed reason. Cumulative controller stats survive, so the
    // restart stays visible in telemetry.
    controller_->Reset();
  }
  {
    // A restarted service must not report a previous run's error.
    std::lock_guard<std::mutex> lk(error_mu_);
    error_ = Status::OK();
    last_error_ = Status::OK();
  }
  // The shedding state and its applied actions carry over: both inputs
  // keep being evaluated, and whichever clears last unwinds the actions
  // through UpdateShedding.
  propagate_driver_.health.store(SteadyHealth(&propagate_driver_),
                                 std::memory_order_release);
  propagate_thread_ = std::thread([this] {
    DriverLoop(&propagate_driver_,
               [this](bool* advanced) { return PropagateStep(advanced); },
               /*salt=*/0x70726f70ULL,  // "prop"
               views_->DeltaReadyFrontier());
  });
  if (options_.apply_continuously) {
    apply_driver_.health.store(DriverHealth::kRunning,
                               std::memory_order_release);
    apply_thread_ = std::thread([this] {
      DriverLoop(&apply_driver_,
                 [this](bool* advanced) { return ApplyStep(advanced); },
                 /*salt=*/0x6170706cULL,  // "appl"
                 &view_->delta_hwm);
    });
  }
}

Status MaintenanceService::Stop() {
  if (running_.exchange(false, std::memory_order_relaxed)) {
    // Only a running service wakes anything: a stopped one may outlive the
    // engine whose frontiers its drivers slept on.
    {
      std::lock_guard<std::mutex> lk(wake_mu_);
    }
    wake_cv_.notify_all();
    views_->DeltaReadyFrontier()->WakeAll();
    view_->delta_hwm.WakeAll();
  }
  if (propagate_thread_.joinable()) propagate_thread_.join();
  if (apply_thread_.joinable()) apply_thread_.join();
  std::lock_guard<std::mutex> lk(error_mu_);
  return error_;
}

void MaintenanceService::Pause(Driver* driver) {
  std::unique_lock<std::mutex> lk(wake_mu_);
  driver->paused.store(true);
  wake_cv_.wait(lk, [driver] { return !driver->stepping; });
}

void MaintenanceService::Resume(Driver* driver) {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    driver->paused.store(false);
  }
  wake_cv_.notify_all();
}

DriverHealth MaintenanceService::Health() const {
  auto rank = [](DriverHealth h) {
    switch (h) {
      case DriverHealth::kFailed:
        return 4;
      case DriverHealth::kDegraded:
        return 3;
      case DriverHealth::kShedding:
        return 2;
      case DriverHealth::kRunning:
        return 1;
      case DriverHealth::kStopped:
        return 0;
    }
    return 0;
  };
  DriverHealth p = propagate_health();
  DriverHealth a = apply_health();
  return rank(p) >= rank(a) ? p : a;
}

Status MaintenanceService::last_error() const {
  std::lock_guard<std::mutex> lk(error_mu_);
  return last_error_;
}

DriverStats MaintenanceService::propagate_driver_stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return propagate_driver_.stats;
}

DriverStats MaintenanceService::apply_driver_stats() const {
  std::lock_guard<std::mutex> lk(stats_mu_);
  return apply_driver_.stats;
}

void MaintenanceService::RegisterMetrics(obs::MetricsRegistry* registry) {
  registry_ = registry;
  const std::string& v = view_->name;
  const void* owner = this;

  // Supervision: per-driver step outcomes and recovery bookkeeping. The
  // DriverStats accessors copy under stats_mu_, so every callback here is
  // safe from any scraping thread.
  struct DriverSource {
    const char* name;
    std::function<DriverStats()> stats;
    const Driver* driver;
  };
  const DriverSource drivers[] = {
      {"propagate", [this] { return propagate_driver_stats(); },
       &propagate_driver_},
      {"apply", [this] { return apply_driver_stats(); }, &apply_driver_},
  };
  for (const DriverSource& d : drivers) {
    const std::string dn = d.name;
    auto get = d.stats;
    registry->RegisterCounterFn(
        "rollview_step_total", {{"view", v}, {"driver", dn}, {"outcome", "ok"}},
        [get] { return get().steps; }, owner);
    registry->RegisterCounterFn(
        "rollview_step_total",
        {{"view", v}, {"driver", dn}, {"outcome", "transient_error"}},
        [get] { return get().transient_errors; }, owner);
    registry->RegisterCounterFn(
        "rollview_driver_errors_total",
        {{"view", v}, {"driver", dn}, {"cause", "aborted"}},
        [get] { return get().errors_aborted; }, owner);
    registry->RegisterCounterFn(
        "rollview_driver_errors_total",
        {{"view", v}, {"driver", dn}, {"cause", "busy"}},
        [get] { return get().errors_busy; }, owner);
    registry->RegisterCounterFn(
        "rollview_driver_recoveries_total", {{"view", v}, {"driver", dn}},
        [get] { return get().recoveries; }, owner);
    registry->RegisterCounterFn(
        "rollview_driver_degraded_total", {{"view", v}, {"driver", dn}},
        [get] { return get().degraded_entries; }, owner);
    registry->RegisterCounterFn(
        "rollview_driver_backoff_nanos_total", {{"view", v}, {"driver", dn}},
        [get] { return get().backoff_nanos; }, owner);
    const Driver* drv = d.driver;
    registry->RegisterGaugeFn(
        "rollview_driver_health", {{"view", v}, {"driver", dn}},
        [drv] {
          return static_cast<int64_t>(
              drv->health.load(std::memory_order_acquire));
        },
        owner);
  }

  // Derived per-view gauges: how stale the view is and why.
  const obs::Labels lv{{"view", v}};
  registry->RegisterGaugeFn(
      "rollview_view_staleness_csn", lv,
      [this] {
        Csn stable = views_->db()->stable_csn();
        Csn hwm = view_->high_water_mark();
        return static_cast<int64_t>(stable > hwm ? stable - hwm : 0);
      },
      owner);
  registry->RegisterGaugeFn(
      "rollview_view_hwm_csn", lv,
      [this] { return static_cast<int64_t>(view_->high_water_mark()); },
      owner);
  registry->RegisterGaugeFn(
      "rollview_view_mv_csn", lv,
      [this] { return static_cast<int64_t>(view_->mv->csn()); }, owner);
  registry->RegisterGaugeFn(
      "rollview_view_target_rows", lv,
      [this] {
        return controller_ != nullptr
                   ? static_cast<int64_t>(controller_->target_rows())
                   : static_cast<int64_t>(options_.target_rows_per_query);
      },
      owner);
  // Sampled at contention observations (kAdaptive only); stays 0 otherwise.
  registry->RegisterGauge("rollview_view_backlog_rows", lv, &backlog_gauge_,
                          owner);
  // Shedding as a state set: one series per reason, the current one 1.
  for (SheddingReason r : {SheddingReason::kNone, SheddingReason::kWalFull,
                           SheddingReason::kStaleness}) {
    registry->RegisterGaugeFn(
        "rollview_shedding_reason",
        {{"view", v}, {"reason", SheddingReasonName(r)}},
        [this, r] { return static_cast<int64_t>(shedding_reason() == r); },
        owner);
  }

  // Propagation-side counters, read from the post-step mirrors.
  auto runner = [this] {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return runner_mirror_;
  };
  registry->RegisterCounterFn(
      "rollview_queries_total", {{"view", v}, {"kind", "forward"}},
      [runner] { return runner().forward_queries; }, owner);
  registry->RegisterCounterFn(
      "rollview_queries_total", {{"view", v}, {"kind", "compensation"}},
      [runner] { return runner().comp_queries; }, owner);
  registry->RegisterCounterFn(
      "rollview_query_retries_total", {{"view", v}, {"cause", "aborted"}},
      [runner] { return runner().retries_aborted; }, owner);
  registry->RegisterCounterFn(
      "rollview_query_retries_total", {{"view", v}, {"cause", "busy"}},
      [runner] { return runner().retries_busy; }, owner);
  registry->RegisterCounterFn(
      "rollview_view_delta_rows_total", lv,
      [runner] { return runner().rows_appended; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_rows_total", {{"view", v}, {"dir", "in"}},
      [runner] { return runner().exec.input_rows; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_rows_total", {{"view", v}, {"dir", "out"}},
      [runner] { return runner().exec.output_rows; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_index_probes_total", lv,
      [runner] { return runner().exec.index_probes; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_pushdown_filtered_total", lv,
      [runner] { return runner().exec.pushdown_filtered; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_rows_moved_total", {{"view", v}, {"path", "copied"}},
      [runner] { return runner().exec.rows_copied; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_rows_moved_total", {{"view", v}, {"path", "borrowed"}},
      [runner] { return runner().exec.rows_borrowed; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_bytes_moved_total", {{"view", v}, {"path", "copied"}},
      [runner] { return runner().exec.bytes_copied; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_bytes_moved_total", {{"view", v}, {"path", "borrowed"}},
      [runner] { return runner().exec.bytes_borrowed; }, owner);
  registry->RegisterCounterFn(
      "rollview_exec_nanos_total", lv,
      [runner] { return runner().exec.exec_nanos; }, owner);

  auto compute = [this] {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return compute_delta_mirror_;
  };
  registry->RegisterCounterFn(
      "rollview_compute_delta_total", {{"view", v}, {"event", "invocation"}},
      [compute] { return compute().invocations; }, owner);
  registry->RegisterCounterFn(
      "rollview_compute_delta_total", {{"view", v}, {"event", "query_issued"}},
      [compute] { return compute().queries_issued; }, owner);
  registry->RegisterCounterFn(
      "rollview_compute_delta_total", {{"view", v}, {"event", "query_skipped"}},
      [compute] { return compute().queries_skipped; }, owner);
  registry->RegisterGaugeFn(
      "rollview_compute_delta_max_depth", lv,
      [compute] { return static_cast<int64_t>(compute().max_depth); }, owner);

  auto roll = [this] {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return rolling_mirror_;
  };
  registry->RegisterCounterFn(
      "rollview_rolling_forward_total", {{"view", v}, {"outcome", "executed"}},
      [roll] { return roll().forward_queries; }, owner);
  registry->RegisterCounterFn(
      "rollview_rolling_forward_total", {{"view", v}, {"outcome", "skipped"}},
      [roll] { return roll().forward_skipped; }, owner);
  registry->RegisterCounterFn(
      "rollview_rolling_compensation_segments_total", lv,
      [roll] { return roll().compensation_segments; }, owner);

  if (propagator_ != nullptr) {
    // Strip count and each strip's published local mark. The view-level
    // hwm gauge above is the minimum over these; a straggler partition
    // shows up as the slot pinning that minimum.
    PartitionedRollingPropagator* par = propagator_.get();
    registry->RegisterGaugeFn(
        "rollview_view_partitions", lv,
        [par] { return static_cast<int64_t>(par->partitions()); }, owner);
    for (uint32_t p = 0; p < par->partitions(); ++p) {
      registry->RegisterGaugeFn(
          "rollview_view_partition_hwm_csn",
          {{"view", v}, {"partition", std::to_string(p)}},
          [par, p] { return static_cast<int64_t>(par->partition_hwm(p)); },
          owner);
    }
  }

  auto apply = [this] {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return apply_mirror_;
  };
  registry->RegisterCounterFn(
      "rollview_apply_rolls_total", lv, [apply] { return apply().rolls; },
      owner);
  registry->RegisterCounterFn(
      "rollview_apply_rows_total", {{"view", v}, {"event", "selected"}},
      [apply] { return apply().rows_selected; }, owner);
  registry->RegisterCounterFn(
      "rollview_apply_rows_total", {{"view", v}, {"event", "pruned"}},
      [apply] { return apply().rows_pruned; }, owner);

  if (checkpointer_ != nullptr) {
    CheckpointManager* cp = checkpointer_.get();
    registry->RegisterCounterFn(
        "rollview_checkpoints_total", lv,
        [cp] { return cp->checkpoints_written(); }, owner);
  }

  // Scrub / quarantine health. The gauge registers regardless of the scrub
  // cadence: a view can also be quarantined by an out-of-band Scrubber.
  registry->RegisterGaugeFn(
      "rollview_view_quarantined", lv,
      [this] { return static_cast<int64_t>(view_->quarantined() ? 1 : 0); },
      owner);
  if (scrubber_ != nullptr) {
    Scrubber* sc = scrubber_.get();
    registry->RegisterCounterFn(
        "rollview_scrub_passes_total", lv,
        [sc] { return sc->GetStats().passes; }, owner);
    registry->RegisterCounterFn(
        "rollview_scrub_buckets_checked_total", lv,
        [sc] { return sc->GetStats().buckets_checked; }, owner);
    registry->RegisterCounterFn(
        "rollview_scrub_mismatches_total", lv,
        [sc] { return sc->GetStats().mismatches; }, owner);
    registry->RegisterCounterFn(
        "rollview_scrub_deep_checks_total", lv,
        [sc] { return sc->GetStats().deep_checks; }, owner);
    registry->RegisterCounterFn(
        "rollview_scrub_quarantines_total", lv,
        [sc] { return sc->GetStats().quarantines; }, owner);
    registry->RegisterCounterFn(
        "rollview_scrub_repairs_total", {{"view", v}, {"kind", "digest_reset"}},
        [sc] { return sc->GetStats().digest_resets; }, owner);
    registry->RegisterCounterFn(
        "rollview_scrub_repairs_total", {{"view", v}, {"kind", "replay"}},
        [sc] { return sc->GetStats().repairs; }, owner);
    registry->RegisterCounterFn(
        "rollview_scrub_repairs_total", {{"view", v}, {"kind", "rebuild"}},
        [sc] { return sc->GetStats().rebuilds; }, owner);
    registry->RegisterCounterFn(
        "rollview_scrub_repairs_total", {{"view", v}, {"kind", "failed"}},
        [sc] { return sc->GetStats().repair_failures; }, owner);
    registry->RegisterCounterFn(
        "rollview_scrub_errors_total", lv,
        [this] { return scrub_errors_.load(std::memory_order_relaxed); },
        owner);
  }
  if (journal_ != nullptr) {
    obs::TraceJournal* j = journal_.get();
    registry->RegisterCounterFn(
        "rollview_trace_steps_total", lv, [j] { return j->recorded(); },
        owner);
  }
  if (freshness_ch_ != nullptr) {
    // End-to-end commit-to-visibility latency plus the four-stage
    // decomposition (docs/ALGORITHMS.md §15). The histograms are owned by
    // the channel, which outlives this service (it lives on the tracker);
    // borrowed registration, dropped with the rest of `owner`.
    obs::ViewFreshness* ch = freshness_ch_;
    registry->RegisterHistogram("rollview_freshness_e2e_nanos", lv,
                                ch->e2e_hist(), owner);
    for (size_t i = 0; i < obs::kFreshnessStageCount; ++i) {
      const obs::FreshnessStage stage = static_cast<obs::FreshnessStage>(i);
      registry->RegisterHistogram(
          "rollview_freshness_stage_nanos",
          {{"view", v}, {"stage", obs::FreshnessStageName(stage)}},
          ch->stage_hist(stage), owner);
    }
    registry->RegisterHistogram("rollview_read_staleness_nanos", lv,
                                ch->read_staleness_hist(), owner);
    registry->RegisterCounterFn(
        "rollview_freshness_commits_total", lv,
        [ch] { return ch->commits_total(); }, owner);
    registry->RegisterCounterFn(
        "rollview_freshness_evicted_total", lv,
        [ch] { return ch->evicted_total(); }, owner);
    // Time-domain sibling of rollview_view_staleness_csn (microseconds:
    // gauges are integral and sub-second lags are the interesting regime).
    registry->RegisterGaugeFn(
        "rollview_view_staleness_usec", lv,
        [ch] { return ch->StalenessMicros(); }, owner);
  }
  if (slo_ != nullptr) {
    const obs::FreshnessSlo* slo = slo_.get();
    registry->RegisterGaugeFn(
        "rollview_slo_target_usec", lv,
        [slo] {
          return static_cast<int64_t>(
              slo->options().target_staleness_nanos / 1000);
        },
        owner);
    registry->RegisterGaugeFn(
        "rollview_slo_burn_x1000", lv, [slo] { return slo->burn_x1000(); },
        owner);
    registry->RegisterGaugeFn(
        "rollview_slo_breaching", lv,
        [slo] { return static_cast<int64_t>(slo->breaching() ? 1 : 0); },
        owner);
    struct SloEvent {
      const char* name;
      uint64_t obs::FreshnessSlo::Stats::* field;
    };
    const SloEvent slo_events[] = {
        {"eval", &obs::FreshnessSlo::Stats::evals},
        {"violation", &obs::FreshnessSlo::Stats::violations},
        {"shed_entry", &obs::FreshnessSlo::Stats::shed_entries},
        {"shed_exit", &obs::FreshnessSlo::Stats::shed_exits},
    };
    for (const SloEvent& e : slo_events) {
      auto field = e.field;
      registry->RegisterCounterFn(
          "rollview_slo_events_total", {{"view", v}, {"event", e.name}},
          [slo, field] { return slo->stats().*field; }, owner);
    }
  }
  if (controller_ != nullptr) {
    // AIMD events (GetStats copies under the controller's own mutex).
    const IntervalController* ic = controller_.get();
    struct IcEvent {
      const char* name;
      uint64_t IntervalController::Stats::* field;
    };
    const IcEvent events[] = {
        {"observation", &IntervalController::Stats::observations},
        {"shrink", &IntervalController::Stats::shrinks},
        {"grow", &IntervalController::Stats::grows},
        {"transient_shrink", &IntervalController::Stats::transient_shrinks},
        {"pace_escalation", &IntervalController::Stats::pace_escalations},
    };
    for (const IcEvent& e : events) {
      auto field = e.field;
      registry->RegisterCounterFn(
          "rollview_interval_events_total", {{"view", v}, {"event", e.name}},
          [ic, field] { return ic->GetStats().*field; }, owner);
    }
  }
}

Status MaintenanceService::CheckDrainProgress(const Driver& driver) {
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    ROLLVIEW_RETURN_NOT_OK(error_);
  }
  if (driver.health.load(std::memory_order_acquire) ==
      DriverHealth::kFailed) {
    std::lock_guard<std::mutex> lk(error_mu_);
    if (!error_.ok()) return error_;
    if (!last_error_.ok()) return last_error_;
    return Status::Internal(std::string(driver.name) + " driver failed");
  }
  if (driver.paused.load(std::memory_order_relaxed)) {
    return Status::Busy(std::string("drain cannot make progress: ") +
                        driver.name + " driver is paused");
  }
  return Status::OK();
}

template <typename CurrentFn>
Status MaintenanceService::AwaitDriver(const Driver& driver,
                                       CsnFrontier* wake, Csn target,
                                       CurrentFn current) {
  for (;;) {
    const Csn seen = wake->value();
    if (current() >= target) return Status::OK();
    ROLLVIEW_RETURN_NOT_OK(CheckDrainProgress(driver));
    wake->WaitPast(seen, CsnFrontier::Clock::now() + kPipelineHeartbeat);
  }
}

Status MaintenanceService::Drain(Csn target) {
  bool was_running = running_.load(std::memory_order_relaxed);
  if (was_running) {
    // Let the background drivers do the work; wait for them. Bail out with
    // Busy instead of livelocking if the driver is paused, and with the
    // driver's error if it died.
    ROLLVIEW_RETURN_NOT_OK(AwaitDriver(
        propagate_driver_, &view_->delta_hwm, target,
        [this] { return view_->high_water_mark(); }));
  } else {
    // Synchronous drain: drive the same PropagateStep the background driver
    // runs, so the checkpoint cadence fires and step counts accrue exactly
    // as they would under Start().
    ROLLVIEW_RETURN_NOT_OK(views_->StepUntil(
        target, [this] { return view_->high_water_mark(); },
        [this](bool* advanced) {
          Status s = PropagateStep(advanced);
          if (s.ok() && *advanced) {
            std::lock_guard<std::mutex> lk(stats_mu_);
            propagate_driver_.stats.steps++;
          }
          return s;
        }));
  }
  if (!options_.apply_continuously) return Status::OK();
  if (was_running) {
    return AwaitDriver(apply_driver_, &applied_, target,
                       [this] { return view_->mv->csn(); });
  }
  Status s = applier_->RollTo(view_->high_water_mark());
  if (s.ok() && freshness_ch_ != nullptr) {
    freshness_ch_->OnVisible(view_->mv->csn());
  }
  return s;
}

void RetentionService::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] {
    auto stopped = [this] { return !running_.load(std::memory_order_relaxed); };
    while (!stopped()) {
      if (paused_.load(std::memory_order_relaxed)) {
        skipped_.fetch_add(1, std::memory_order_relaxed);
      } else {
        manager_.PruneOnce();
        passes_.fetch_add(1, std::memory_order_relaxed);
      }
      std::unique_lock<std::mutex> lk(stop_mu_);
      stop_cv_.wait_for(lk, period_, stopped);
    }
  });
}

void RetentionService::Stop() {
  {
    // Flipped under the mutex the periodic thread waits with, so the
    // wakeup cannot slip between its predicate check and its wait.
    std::lock_guard<std::mutex> lk(stop_mu_);
    if (!running_.exchange(false)) return;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace rollview
