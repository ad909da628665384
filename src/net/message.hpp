// Polymorphic message base for all protocols.
//
// Messages are heap-allocated, owned by unique_ptr, and handed to the
// destination node by reference. `kind()` is a label used for per-type
// message statistics (the paper's "message complexity" discussions) and for
// the receiver's dispatch (message_cast below), and `wire_size()`
// approximates the serialized size in bytes so benches can report byte
// counts as well as message counts.
#pragma once

#include <cassert>
#include <cstddef>
#include <string_view>

namespace mra::net {

class Message {
 public:
  virtual ~Message() = default;

  /// Messages churn at simulator rates, so their storage goes through the
  /// thread-local recycling pool (net/message_pool.hpp) instead of the
  /// system allocator. Only the sized deallocation function is declared:
  /// the deleting destructor always knows the dynamic size, and the pool
  /// needs it to return the block to the right size class.
  static void* operator new(std::size_t bytes);
  static void operator delete(void* p, std::size_t bytes) noexcept;

  /// Stable label for stats and dispatch, e.g. "Lass.Req", "NT.Request".
  /// The contract, which message_cast relies on:
  /// * A label identifies one type among the messages one protocol's nodes
  ///   exchange. Two protocols may share a label (BL's control token and
  ///   the Incremental locks' token are both "NT.Token"); they never share
  ///   a network, and Network::stats_by_kind() merges their counts.
  /// * Each type declares its label as `static constexpr std::string_view
  ///   kKind` and returns it here, so the view points at static storage
  ///   that outlives every network: the network keeps the views it counts,
  ///   and check::Event carries them to observers.
  [[nodiscard]] virtual std::string_view kind() const = 0;

  /// Approximate serialized size in bytes (headers excluded; a fixed
  /// per-message envelope is added by the network).
  [[nodiscard]] virtual std::size_t wire_size() const { return 16; }
};

/// `msg` as a `T`, or nullptr; `kind` is `msg.kind()`, read once by the
/// caller for its whole dispatch chain. One label compare replaces an RTTI
/// hierarchy walk per delivery; it is sound among the messages of one
/// protocol by the kind() contract, which the tests check for every
/// protocol (pairwise distinct labels, exactly one accepted type), and the
/// Debug build re-checks every cast.
template <typename T>
[[nodiscard]] const T* message_cast(const Message& msg, std::string_view kind) {
  if (kind != T::kKind) return nullptr;
  assert(dynamic_cast<const T*>(&msg) != nullptr);
  return static_cast<const T*>(&msg);
}

}  // namespace mra::net
