// The conformance-event vocabulary: the typed events every instrumented
// layer (sim, net, core/allocator, algo) emits towards an attached
// check::Observer, and the Observer interface itself.
//
// This header is deliberately a *leaf*: it depends only on core identifier
// types and sim time, so the low layers (sim::Simulator, net::Network,
// AllocatorNode) can reference the observer through a forward declaration in
// their headers and include this file from their .cpp only. When no observer
// is attached every hook is a single null-pointer branch, so the engine and
// network hot paths stay unchanged.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/types.hpp"
#include "sim/time.hpp"

namespace mra {
class ResourceSet;
}  // namespace mra

namespace mra::check {

/// What happened. CS-lifecycle events come from the AllocatorNode template
/// methods (core/allocator.hpp); kHold additionally from algorithms with
/// observable per-resource custody (Incremental's per-lock grants); message
/// events from net::Network.
enum class EventType : std::uint8_t {
  kRequest,  ///< site issued request(D); resources = D, seq = request id
  kHold,     ///< site obtained exclusive custody of one resource (`resource`)
  kAcquire,  ///< CS entry: site holds every resource of its request
  kRelease,  ///< CS exit: site frees every resource of its request
  kSend,     ///< message handed to the network; site = src, peer = dst
  kDeliver,  ///< message delivered to peer; seq pairs it with its kSend
};

[[nodiscard]] constexpr const char* to_string(EventType t) {
  switch (t) {
    case EventType::kRequest: return "request";
    case EventType::kHold: return "hold";
    case EventType::kAcquire: return "acquire";
    case EventType::kRelease: return "release";
    case EventType::kSend: return "send";
    case EventType::kDeliver: return "deliver";
  }
  return "?";
}

/// One observed event. `resources` is borrowed, valid only for the duration
/// of the Observer::on_event call — observers copy what they need
/// (check::Monitor keeps a bounded ring of compact copies). `kind` is a
/// message type's static label (net::Message::kind()), so a copy may keep
/// the view.
struct Event {
  EventType type = EventType::kRequest;
  sim::SimTime at = 0;
  SiteId site = kNoSite;  ///< requester / holder / sender
  SiteId peer = kNoSite;  ///< destination site (kSend / kDeliver only)
  /// Request sequence number (CS events) or network message id (message
  /// events; a kDeliver carries the id its kSend was emitted with).
  std::int64_t seq = 0;
  ResourceId resource = kNoResource;        ///< kHold only
  const ResourceSet* resources = nullptr;   ///< kRequest/kAcquire/kRelease
  std::string_view kind = {};               ///< message kind (message events)
  std::uint32_t bytes = 0;                  ///< wire size incl. envelope
};

/// Hook interface the instrumented layers call into. One observer per
/// simulation (fan-out to oracles happens inside check::Monitor).
class Observer {
 public:
  virtual ~Observer() = default;

  /// Every typed event, in emission order (which is simulation order).
  virtual void on_event(const Event& event) = 0;

  /// The simulator's clock advanced to a new instant (called once per
  /// distinct time, before that instant's events fire). Lets time-based
  /// oracles (bounded waiting) detect a passed deadline online instead of
  /// only at the next CS event.
  virtual void on_advance(sim::SimTime now) { (void)now; }
};

}  // namespace mra::check
