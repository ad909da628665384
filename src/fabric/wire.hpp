// Exact wire encoding for the distributed sweep fabric (DESIGN.md §15).
//
// Every value that crosses a process boundary must survive the round trip
// bit-identically, or the coordinator's merged output stops matching the
// single-process run_sweep reference: doubles are printed with %.17g (exact
// through any correctly-rounded parser — note the final merged output still
// goes through experiment/json.cpp's lossy %.10g, so an exact intermediate
// format keeps the end result byte-identical), non-finite values become the
// quoted tokens "inf"/"-inf"/"nan", and strings use the JSON escapes of
// experiment::json_escape. Payload lines are valid single-line JSON objects
// with a fixed key order, so parsing is a strict linear scan, not a general
// JSON parser.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mra::fabric::wire {

/// Appends a double as %.17g, or a quoted "inf"/"-inf"/"nan" token.
void append_double(std::string& out, double v);

/// Appends a JSON-escaped, quoted string.
void append_string(std::string& out, std::string_view s);

/// Strict scanner over a fixed-key-order serialized line. Every mismatch
/// throws std::invalid_argument — a malformed payload must fail the merge,
/// never silently produce a default-constructed field.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  /// Consumes `lit` exactly; throws on mismatch.
  void expect(std::string_view lit);
  /// True when the next character is `c` (no consumption).
  [[nodiscard]] bool peek(char c) const;
  /// Consumes `lit` if present; returns whether it did.
  bool consume(std::string_view lit);

  std::uint64_t read_u64();
  std::int64_t read_i64();
  /// Parses a number or one of the quoted non-finite tokens.
  double read_double();
  /// Parses a quoted string, undoing append_string's escapes.
  std::string read_string();
  /// Captures a balanced {...} object verbatim, string-literal-aware (used
  /// to slice out the embedded RunningStats / QuantileSketch blobs).
  std::string read_object();

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  /// Throws unless the whole text has been consumed.
  void expect_end();
  [[nodiscard]] std::size_t pos() const { return pos_; }

 private:
  [[noreturn]] void fail(const std::string& what) const;

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace mra::fabric::wire
