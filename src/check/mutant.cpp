#include "check/mutant.hpp"

#include <cstring>
#include <initializer_list>

namespace mra::check {

const char* to_string(Mutant m) {
  switch (m) {
    case Mutant::kNone: return "none";
    case Mutant::kLassPrematureEntry: return "lass-premature-entry";
    case Mutant::kLassDropRelease: return "lass-drop-release";
    case Mutant::kLassSkipCounterReply: return "lass-skip-counter-reply";
    case Mutant::kIncrementalReversedAcquire:
      return "incremental-reversed-acquire";
    case Mutant::kNetFifoViolation: return "net-fifo-violation";
    case Mutant::kMutexNtDropToken: return "mutex-nt-drop-token";
    case Mutant::kBlControlTokenLoss: return "bl-control-token-loss";
    case Mutant::kMaddiTimestampRegression:
      return "maddi-timestamp-regression";
    case Mutant::kCmForkBottleConfusion: return "cm-fork-bottle-confusion";
  }
  return "?";
}

Mutant mutant_from_name(const char* name) {
  for (Mutant m : {Mutant::kLassPrematureEntry, Mutant::kLassDropRelease,
                   Mutant::kLassSkipCounterReply,
                   Mutant::kIncrementalReversedAcquire,
                   Mutant::kNetFifoViolation, Mutant::kMutexNtDropToken,
                   Mutant::kBlControlTokenLoss,
                   Mutant::kMaddiTimestampRegression,
                   Mutant::kCmForkBottleConfusion}) {
    if (std::strcmp(name, to_string(m)) == 0) return m;
  }
  return Mutant::kNone;
}

}  // namespace mra::check
