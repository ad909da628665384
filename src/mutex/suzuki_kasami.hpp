// Suzuki-Kasami broadcast token-based mutual exclusion (TOCS 1985).
//
// Every request is broadcast (N-1 messages); the token carries LN, the
// sequence number of the last satisfied request per site, plus a FIFO queue.
// Used as the per-resource building block of the Maddi baseline (§2 of the
// paper: "multiple instances of Suzuki-Kasami") and as a reference algorithm
// in tests.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/types.hpp"
#include "net/message.hpp"

namespace mra::mutex {

struct SkRequestMsg final : net::Message {
  int instance = 0;
  SiteId requester = kNoSite;
  std::int64_t seq = 0;

  static constexpr std::string_view kKind = "SK.Request";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 20; }
};

struct SkTokenMsg final : net::Message {
  int instance = 0;
  std::vector<std::int64_t> last_granted;  // LN
  std::deque<SiteId> queue;

  static constexpr std::string_view kKind = "SK.Token";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + last_granted.size() * 8 + queue.size() * 4;
  }
};

/// One Suzuki-Kasami instance (multiplexed on a host node via `instance`).
class SuzukiKasamiEngine {
 public:
  using SendFn = std::function<void(SiteId dst, std::unique_ptr<net::Message>)>;
  using GrantFn = std::function<void()>;

  /// `n`: number of sites; `elected` initially holds the token.
  SuzukiKasamiEngine(SiteId self, SiteId elected, int n, int instance,
                     SendFn send, GrantFn on_granted);

  /// Requests the CS; returns the list of destinations that must receive a
  /// broadcast request (empty when the token is already local). The caller
  /// sends because only it knows how to batch broadcasts.
  void request();

  void release();

  void on_request(const SkRequestMsg& msg);
  void on_token(const SkTokenMsg& msg);

  [[nodiscard]] bool has_token() const { return has_token_; }
  [[nodiscard]] bool in_cs() const { return in_cs_; }
  [[nodiscard]] bool requesting() const { return requesting_; }
  [[nodiscard]] int instance() const { return instance_; }

 private:
  void send_token_to(SiteId dst);
  void broadcast_request();

  SiteId self_;
  int n_;
  int instance_;
  SendFn send_;
  GrantFn on_granted_;

  std::vector<std::int64_t> rn_;            // highest request seq seen per site
  std::vector<std::int64_t> token_ln_;      // valid while holding token
  std::deque<SiteId> token_queue_;          // valid while holding token
  bool has_token_ = false;
  bool requesting_ = false;
  bool in_cs_ = false;
};

}  // namespace mra::mutex
