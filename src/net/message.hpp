// Polymorphic message base for all protocols.
//
// Messages are heap-allocated, owned by unique_ptr, and handed to the
// destination node by reference. `kind()` is a free-form label used for
// per-type message statistics (the paper's "message complexity" discussions),
// and `wire_size()` approximates the serialized size in bytes so benches can
// report byte counts as well as message counts.
#pragma once

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

  /// Stable label for stats, e.g. "ReqCnt", "Token", "NT.Request". Each
  /// message type must return its own label, distinct from every other
  /// type's: receivers may dispatch on it and static_cast (LASS does, see
  /// algo/lass/messages.hpp as_bundle), so a reused label is a wrong cast.
  [[nodiscard]] virtual std::string_view kind() const = 0;

  /// Approximate serialized size in bytes (headers excluded; a fixed
  /// per-message envelope is added by the network).
  [[nodiscard]] virtual std::size_t wire_size() const { return 16; }
};

}  // namespace mra::net
