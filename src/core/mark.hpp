// The paper's scheduling-policy function A : IN^M -> IR (§3.3.2).
//
// A transforms a request's counter vector into a real "mark"; requests are
// totally ordered by (mark, site id). A is a parameter of the algorithm and
// effectively selects the scheduling policy; liveness requires that every
// pending request eventually has the smallest mark (hypothesis 6). The
// paper's evaluation uses the average of the non-zero entries.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace mra {

/// Counter vector of one request: entry r is the counter value obtained for
/// resource r, or 0 when r was not requested (the paper's convention).
using CounterVector = std::vector<CounterValue>;

/// Signature of the paper's function A.
using MarkFunction = std::function<double(const CounterVector&)>;

/// Built-in mark functions (all starvation-free except where noted).
enum class MarkPolicy {
  kAverageNonZero,  ///< paper's choice: mean of non-zero entries
  kMaxValue,        ///< max entry: favours requests that queued early on all
  kSumNonZero,      ///< sum of entries: biases against large requests
  kMinNonZero,      ///< min non-zero entry: biases toward large requests
};

[[nodiscard]] const char* to_string(MarkPolicy policy);

/// A(counters) under `policy`. Every policy skips zero entries or adds them
/// as +0.0, so a request's own counters, in ascending resource order, give
/// the same double as its dense counter vector. Throws
/// std::invalid_argument for a value outside the enum.
[[nodiscard]] double mark_of(MarkPolicy policy,
                             std::span<const CounterValue> counters);

/// Returns the function implementing `policy` (mark_of over the vector).
[[nodiscard]] MarkFunction make_mark_function(MarkPolicy policy);

/// Applies the paper's default A (average of non-zero entries).
[[nodiscard]] double average_non_zero(const CounterVector& v);

/// The paper's total order `/` over requests: (mark, site) lexicographic.
/// Returns true when request (mark_a, site_a) precedes (mark_b, site_b).
[[nodiscard]] constexpr bool request_precedes(double mark_a, SiteId site_a,
                                              double mark_b, SiteId site_b) {
  if (mark_a != mark_b) return mark_a < mark_b;
  return site_a < site_b;
}

}  // namespace mra
