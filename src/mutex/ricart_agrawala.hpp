// Ricart-Agrawala permission-based mutual exclusion (CACM 1981).
//
// 2(N-1) messages per CS: broadcast a timestamped request, enter after
// collecting N-1 replies; defer replies to lower-priority concurrent
// requests. Included as a reference/single-resource baseline exercised by the
// test suite (it provides an algorithm-independent oracle for the mutual
// exclusion invariant checks).
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/types.hpp"
#include "net/message.hpp"

namespace mra::mutex {

struct RaRequestMsg final : net::Message {
  int instance = 0;
  SiteId requester = kNoSite;
  std::int64_t clock = 0;

  static constexpr std::string_view kKind = "RA.Request";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 20; }
};

struct RaReplyMsg final : net::Message {
  int instance = 0;

  static constexpr std::string_view kKind = "RA.Reply";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

/// One Ricart-Agrawala instance (multiplexed via `instance`).
class RicartAgrawalaEngine {
 public:
  using SendFn = std::function<void(SiteId dst, std::unique_ptr<net::Message>)>;
  using GrantFn = std::function<void()>;

  RicartAgrawalaEngine(SiteId self, int n, int instance, SendFn send,
                       GrantFn on_granted);

  void request();
  void release();

  void on_request(SiteId from, const RaRequestMsg& msg);
  void on_reply(const RaReplyMsg& msg);

  [[nodiscard]] bool in_cs() const { return in_cs_; }
  [[nodiscard]] bool requesting() const { return requesting_; }

 private:
  void send_reply(SiteId dst);

  SiteId self_;
  int n_;
  int instance_;
  SendFn send_;
  GrantFn on_granted_;

  std::int64_t clock_ = 0;
  std::int64_t my_request_clock_ = 0;
  int replies_pending_ = 0;
  bool requesting_ = false;
  bool in_cs_ = false;
  std::vector<bool> deferred_;
};

}  // namespace mra::mutex
