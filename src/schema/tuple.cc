#include "schema/tuple.h"

namespace rollview {

size_t TupleApproxBytes(const Tuple& t) {
  size_t bytes = sizeof(Tuple) + t.size() * sizeof(Value);
  for (const Value& v : t) {
    if (v.type() == ValueType::kString) bytes += v.AsString().size();
  }
  return bytes;
}

size_t HashTuple(const Tuple& t) {
  size_t h = 0x243f6a8885a308d3ULL;
  for (const Value& v : t) {
    // boost::hash_combine-style mixing.
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::string TupleToString(const Tuple& t) {
  std::string out = "[";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += t[i].ToString();
  }
  out += "]";
  return out;
}

std::string DeltaRow::ToString() const {
  std::string out = "{";
  out += TupleToString(tuple);
  out += ", count=" + std::to_string(count);
  out += ", ts=";
  out += (ts == kNullCsn) ? "null" : std::to_string(ts);
  out += "}";
  return out;
}

}  // namespace rollview
