#include "ivm/shared_propagate.h"

#include <algorithm>

namespace rollview {

Result<std::unique_ptr<SharedViewGroup>> SharedViewGroup::Create(
    ViewManager* views, const std::string& name, SpjViewDef carrier_def,
    Options options) {
  if (carrier_def.selection != nullptr || !carrier_def.projection.empty()) {
    return Status::InvalidArgument(
        "the carrier must be the unfiltered, unprojected join");
  }
  ROLLVIEW_ASSIGN_OR_RETURN(View* carrier,
                            views->CreateView(name, carrier_def));
  auto group =
      std::unique_ptr<SharedViewGroup>(new SharedViewGroup(views, carrier));
  group->options_ = options;
  return group;
}

Result<View*> SharedViewGroup::AddMember(const std::string& name,
                                         SpjViewDef def) {
  const SpjViewDef& base = carrier_->resolved.def();
  if (def.tables != base.tables) {
    return Status::InvalidArgument("member tables differ from the carrier");
  }
  if (def.joins.size() != base.joins.size()) {
    return Status::InvalidArgument("member joins differ from the carrier");
  }
  for (size_t i = 0; i < def.joins.size(); ++i) {
    const EquiJoin& a = def.joins[i];
    const EquiJoin& b = base.joins[i];
    if (a.left_term != b.left_term || a.left_col != b.left_col ||
        a.right_term != b.right_term || a.right_col != b.right_col) {
      return Status::InvalidArgument("member joins differ from the carrier");
    }
  }
  ROLLVIEW_ASSIGN_OR_RETURN(View* member, views_->CreateView(name, def));
  members_.push_back(member);
  return member;
}

DeltaRows SharedViewGroup::DeriveMemberRows(
    const View* member, const DeltaRows& carrier_rows) const {
  const SpjViewDef& def = member->resolved.def();
  DeltaRows out;
  out.reserve(carrier_rows.size());
  for (const DeltaRow& row : carrier_rows) {
    if (def.selection != nullptr && !def.selection->EvalBool(row.tuple)) {
      continue;
    }
    if (def.projection.empty()) {
      out.push_back(row);
    } else {
      Tuple projected;
      projected.reserve(def.projection.size());
      for (size_t idx : def.projection) projected.push_back(row.tuple[idx]);
      out.emplace_back(std::move(projected), row.count, row.ts);
    }
  }
  return out;
}

Status SharedViewGroup::MaterializeAll() {
  ROLLVIEW_RETURN_NOT_OK(views_->Materialize(carrier_));
  // The propagator snapshots the carrier's propagation origin at
  // construction, so it must be created only now -- a propagator built
  // before materialization would start its frontiers at CSN 0 and
  // re-propagate the entire initial bulk load on its first strips.
  std::vector<std::unique_ptr<IntervalPolicy>> policies;
  for (size_t i = 0; i < carrier_->resolved.num_terms(); ++i) {
    policies.push_back(std::make_unique<TargetRowsInterval>(256));
  }
  propagator_ = std::make_unique<RollingPropagator>(views_, carrier_,
                                                    std::move(policies));
  Csn csn = carrier_->mv->csn();
  DeltaRows carrier_rows = carrier_->mv->AsDeltaRows();
  for (View* member : members_) {
    member->mv->Replace(ToCountMap(DeriveMemberRows(member, carrier_rows)),
                        csn);
    member->propagate_from.store(csn, std::memory_order_release);
    member->delta_hwm.Reset(csn);
  }
  distributed_to_ = csn;
  return Status::OK();
}

Status SharedViewGroup::Distribute(Csn up_to) {
  if (up_to <= distributed_to_) return Status::OK();
  // Rows in (distributed_to_, up_to] are final: the carrier's mark passed
  // up_to, and no future propagation query emits timestamps at or below it.
  DeltaRows window =
      carrier_->view_delta->Scan(CsnRange{distributed_to_, up_to});
  stats_.carrier_rows_distributed += window.size();
  for (View* member : members_) {
    DeltaRows rows = DeriveMemberRows(member, window);
    stats_.member_rows_emitted += rows.size();
    member->view_delta->AppendBatch(std::move(rows));
    member->delta_hwm.Advance(up_to);
  }
  distributed_to_ = up_to;
  if (options_.prune_carrier_delta) {
    carrier_->view_delta->Prune(up_to);
  }
  return Status::OK();
}

Result<bool> SharedViewGroup::Step() {
  if (propagator_ == nullptr) {
    return Status::InvalidArgument("call MaterializeAll before Step");
  }
  ROLLVIEW_ASSIGN_OR_RETURN(bool advanced, propagator_->Step());
  ROLLVIEW_RETURN_NOT_OK(Distribute(carrier_->high_water_mark()));
  return advanced;
}

Status SharedViewGroup::RunUntil(Csn target) {
  if (propagator_ == nullptr) {
    return Status::InvalidArgument("call MaterializeAll before RunUntil");
  }
  ROLLVIEW_RETURN_NOT_OK(propagator_->RunUntil(target));
  return Distribute(carrier_->high_water_mark());
}

}  // namespace rollview
