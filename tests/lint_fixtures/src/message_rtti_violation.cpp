// Lint fixture: receivers dispatch on the kind label with net::message_cast;
// a dynamic_cast to a message type walks the class hierarchy per delivery.
// Never compiled — input for scripts/mra_lint.py via run_fixture_test.py.
// LINT-EXPECT: message-rtti
// LINT-EXPECT: message-rtti
// (two findings: a one-line cast and a template cast split over lines;
// message_cast and a dynamic_cast to a non-message type stay clean)
#include <string_view>

#include "net/message.hpp"
#include "net/node.hpp"

namespace fixture {

struct PingMsg final : mra::net::Message {
  static constexpr std::string_view kKind = "Ping";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
};

template <typename Payload>
struct TokenMsg final : mra::net::Message {
  static constexpr std::string_view kKind = "Token";
  [[nodiscard]] std::string_view kind() const override { return kKind; }
};

struct Host : mra::net::Node {
  void on_message(mra::SiteId /*from*/, const mra::net::Message& msg) override {
    if (dynamic_cast<const PingMsg*>(&msg) != nullptr) return;  // first
    if (const auto* tok = dynamic_cast<
            const TokenMsg<int>*>(&msg)) {  // second: split over lines
      (void)tok;
    }
    const std::string_view kind = msg.kind();
    if (mra::net::message_cast<PingMsg>(msg, kind) != nullptr) return;  // ok
  }
};

bool is_host(const mra::net::Node& node) {
  return dynamic_cast<const Host*>(&node) != nullptr;  // not a message: ok
}

}  // namespace fixture
