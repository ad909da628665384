// Naimi-Tréhel token-based mutual exclusion (ICDCS 1987).
//
// The classic O(log N)-message algorithm: sites form a dynamic logical tree
// of `father` pointers whose root is the last requester; a distributed queue
// of `next` pointers strings pending requests together. Used here as:
//   * the per-resource lock of the Incremental baseline (M instances/site),
//   * the control-token transport of Bouabdallah-Laforest (payload-carrying).
//
// The engine is deliberately *not* a net::Node: a site may host many
// instances (one per resource), so the host node multiplexes messages to
// engines via the `instance` tag carried by every engine message.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "check/mutant.hpp"
#include "core/types.hpp"
#include "net/message.hpp"

namespace mra::mutex {

/// Payload for plain mutual exclusion (token carries nothing).
struct NoPayload {
  [[nodiscard]] static std::size_t wire_size() { return 0; }
};

/// Request message: carries the original requester through forwarding hops.
struct NtRequestMsg final : net::Message {
  int instance = 0;
  SiteId requester = kNoSite;

  static constexpr std::string_view kKind = "NT.Request";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 12; }
};

/// Token message; carries the instance tag and the payload.
template <typename Payload>
struct NtTokenMsg final : net::Message {
  int instance = 0;
  Payload payload{};

  static constexpr std::string_view kKind = "NT.Token";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + payload.wire_size();
  }
};

/// One Naimi-Tréhel instance.
///
/// The host provides a `send` hook and a grant callback. All message
/// callbacks must be invoked by the host from its on_message().
template <typename Payload = NoPayload>
class NaimiTrehelEngine {
 public:
  using SendFn = std::function<void(SiteId dst, std::unique_ptr<net::Message>)>;
  using GrantFn = std::function<void()>;

  /// `self`: this site; `elected`: initial token holder; `instance`: tag used
  /// to multiplex several engines on one host node.
  NaimiTrehelEngine(SiteId self, SiteId elected, int instance, SendFn send,
                    GrantFn on_granted)
      : self_(self),
        instance_(instance),
        send_(std::move(send)),
        on_granted_(std::move(on_granted)) {
    if (self == elected) {
      father_ = kNoSite;
      has_token_ = true;
    } else {
      father_ = elected;
    }
  }

  /// Requests the critical section. Precondition: not already requesting.
  /// May invoke the grant callback synchronously (token already here).
  void request() {
    assert(!requesting_ && "NT: nested request");
    requesting_ = true;
    if (father_ == kNoSite) {
      assert(has_token_);
      in_cs_ = true;
      on_granted_();
    } else {
      auto msg = std::make_unique<NtRequestMsg>();
      msg->instance = instance_;
      msg->requester = self_;
      const SiteId dst = father_;
      father_ = kNoSite;  // we will be the new root
      send_(dst, std::move(msg));
    }
  }

  /// Releases the critical section; forwards the token to `next` if queued.
  void release() {
    assert(in_cs_ && "NT: release outside CS");
    in_cs_ = false;
    requesting_ = false;
    if (next_ != kNoSite) {
      if (!check::mutant_enabled(check::Mutant::kMutexNtDropToken)) {
        // Seeded bug (when skipped): the token is never forwarded and the
        // queued requester waits forever (deadlock oracle, explorer mutex
        // mode).
        send_token(next_);
      }
      next_ = kNoSite;
    }
  }

  /// Host dispatch: a request (original requester `msg.requester`) arrived.
  void on_request(const NtRequestMsg& msg) {
    const SiteId requester = msg.requester;
    if (father_ == kNoSite) {
      if (requesting_) {
        next_ = requester;
      } else {
        assert(has_token_);
        send_token(requester);
      }
    } else {
      auto fwd = std::make_unique<NtRequestMsg>();
      fwd->instance = instance_;
      fwd->requester = requester;
      send_(father_, std::move(fwd));
    }
    father_ = requester;
  }

  /// Host dispatch: the token arrived.
  void on_token(const NtTokenMsg<Payload>& msg) {
    assert(!has_token_);
    has_token_ = true;
    payload_ = msg.payload;
    assert(requesting_ && "NT: unsolicited token");
    in_cs_ = true;
    on_granted_();
  }

  [[nodiscard]] bool has_token() const { return has_token_; }
  [[nodiscard]] bool requesting() const { return requesting_; }
  [[nodiscard]] bool in_cs() const { return in_cs_; }
  [[nodiscard]] SiteId father() const { return father_; }
  [[nodiscard]] SiteId next() const { return next_; }
  [[nodiscard]] int instance() const { return instance_; }

  /// Token payload; mutate only while holding the token.
  [[nodiscard]] Payload& payload() {
    assert(has_token_);
    return payload_;
  }
  [[nodiscard]] const Payload& payload() const {
    assert(has_token_);
    return payload_;
  }

 private:
  void send_token(SiteId dst) {
    assert(has_token_);
    auto msg = std::make_unique<NtTokenMsg<Payload>>();
    msg->instance = instance_;
    msg->payload = std::move(payload_);
    payload_ = Payload{};
    has_token_ = false;
    send_(dst, std::move(msg));
  }

  SiteId self_;
  int instance_;
  SendFn send_;
  GrantFn on_granted_;

  SiteId father_ = kNoSite;  ///< probable owner; kNoSite = (future) root
  SiteId next_ = kNoSite;    ///< next site in the distributed queue
  bool requesting_ = false;
  bool has_token_ = false;
  bool in_cs_ = false;
  Payload payload_{};
};

}  // namespace mra::mutex
