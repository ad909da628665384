#include "core/mark.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mra {

double mark_of(MarkPolicy policy, std::span<const CounterValue> counters) {
  switch (policy) {
    case MarkPolicy::kAverageNonZero: {
      double sum = 0.0;
      std::size_t n = 0;
      for (CounterValue c : counters) {
        if (c != 0) {
          sum += static_cast<double>(c);
          ++n;
        }
      }
      return n == 0 ? 0.0 : sum / static_cast<double>(n);
    }
    case MarkPolicy::kMaxValue: {
      CounterValue m = 0;
      for (CounterValue c : counters) m = std::max(m, c);
      return static_cast<double>(m);
    }
    case MarkPolicy::kSumNonZero: {
      double s = 0.0;
      for (CounterValue c : counters) s += static_cast<double>(c);
      return s;
    }
    case MarkPolicy::kMinNonZero: {
      CounterValue m = std::numeric_limits<CounterValue>::max();
      bool any = false;
      for (CounterValue c : counters) {
        if (c != 0) {
          m = std::min(m, c);
          any = true;
        }
      }
      return any ? static_cast<double>(m) : 0.0;
    }
  }
  throw std::invalid_argument("unknown MarkPolicy");
}

double average_non_zero(const CounterVector& v) {
  return mark_of(MarkPolicy::kAverageNonZero, v);
}

const char* to_string(MarkPolicy policy) {
  switch (policy) {
    case MarkPolicy::kAverageNonZero: return "avg-nonzero";
    case MarkPolicy::kMaxValue: return "max";
    case MarkPolicy::kSumNonZero: return "sum";
    case MarkPolicy::kMinNonZero: return "min-nonzero";
  }
  return "?";
}

MarkFunction make_mark_function(MarkPolicy policy) {
  (void)mark_of(policy, {});  // an unknown policy throws here, not per call
  return [policy](const CounterVector& v) { return mark_of(policy, v); };
}

}  // namespace mra
