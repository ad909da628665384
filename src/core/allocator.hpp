// Public interface of every multi-resource allocation protocol in the
// library: the §1 problem statement (exclusive access to a set of
// resources) exposed through the paper's §4.1 per-process state machine.
// The scenario driver (src/scenario/runner.hpp) talks to protocols
// exclusively through this interface, so algorithms are interchangeable in
// examples, tests and benches.
#pragma once

#include <functional>

#include "core/resource_set.hpp"
#include "core/types.hpp"
#include "net/node.hpp"

namespace mra::check {
class Observer;
}  // namespace mra::check

namespace mra {

/// States of the paper's per-process state machine (§4.1).
enum class ProcessState {
  kIdle,    ///< not requesting
  kWaitS,   ///< waiting for counter values
  kWaitCS,  ///< waiting for the right to access all requested resources
  kInCS,    ///< executing the critical section
};

[[nodiscard]] constexpr const char* to_string(ProcessState s) {
  switch (s) {
    case ProcessState::kIdle: return "Idle";
    case ProcessState::kWaitS: return "waitS";
    case ProcessState::kWaitCS: return "waitCS";
    case ProcessState::kInCS: return "inCS";
  }
  return "?";
}

/// A multi-resource allocator endpoint living on one site.
///
/// Usage protocol (one outstanding request per site, per the paper's
/// hypothesis 4):
///   1. request(D)  — asynchronously acquire exclusive access to all of D;
///   2. the allocator invokes the grant callback when every resource in D is
///      held (entry into CS);
///   3. release()   — leave the CS and hand resources to waiting sites.
class AllocatorNode : public net::Node {
 public:
  /// Invoked on CS entry. `request_seq` is the per-site request number.
  using GrantCallback = std::function<void(RequestId request_seq)>;

  /// Registers the grant callback (the workload driver does this once).
  void set_grant_callback(GrantCallback cb) { grant_cb_ = std::move(cb); }

  /// Attaches a conformance observer (src/check/): request/CS-entry/release
  /// events are emitted around the protocol calls. Null detaches; detached
  /// cost is one branch per lifecycle transition.
  void set_observer(check::Observer* observer) { observer_ = observer; }
  [[nodiscard]] check::Observer* check_observer() const { return observer_; }

  /// Begins acquiring exclusive access to `resources` (non-empty).
  /// Precondition: state() == kIdle. Template method: emits the kRequest
  /// conformance event (with the seq the implementation is about to assign —
  /// every implementation increments request_seq_ exactly once, a convention
  /// the drivers also rely on), then dispatches to do_request().
  void request(const ResourceSet& resources) {
    if (observer_ != nullptr) observe_request(resources);
    do_request(resources);
  }

  /// Releases all resources of the current request.
  /// Precondition: state() == kInCS. Emits kRelease *before* the protocol
  /// hands resources on, so a subsequent grant of the same resources at the
  /// same instant is observed in the correct order.
  void release() {
    if (observer_ != nullptr) observe_release();
    do_release();
  }

  /// Current protocol state of this site.
  [[nodiscard]] virtual ProcessState state() const = 0;

  /// Resources of the in-flight request (empty when idle).
  [[nodiscard]] const ResourceSet& current_request() const { return current_; }

  /// Sequence number of the latest request issued by this site.
  [[nodiscard]] RequestId current_request_id() const { return request_seq_; }

 protected:
  /// Protocol implementations (the paper's state machine transitions).
  virtual void do_request(const ResourceSet& resources) = 0;
  virtual void do_release() = 0;

  void notify_granted() {
    if (observer_ != nullptr) observe_acquire();
    if (grant_cb_) grant_cb_(request_seq_);
  }

  /// Emits a kHold event: this site obtained exclusive custody of `r` before
  /// the full request is granted. Only algorithms with genuinely exclusive
  /// per-resource custody during acquisition call this (Incremental's
  /// per-resource locks); it is what lets the deadlock oracle see partial
  /// hold-and-wait states.
  void observe_hold(ResourceId r);

  ResourceSet current_;
  RequestId request_seq_ = 0;

 private:
  // Out of line (core/allocator.cpp): they need the network for the clock
  // and the check event definitions.
  void observe_request(const ResourceSet& resources);
  void observe_acquire();
  void observe_release();

  GrantCallback grant_cb_;
  check::Observer* observer_ = nullptr;
};

}  // namespace mra
