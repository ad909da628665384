// The one text codec (DESIGN.md §15). Every serialized boundary escapes its
// strings, prints its exact doubles, scans its text and parses its whole
// decimal tokens here: the fabric's payloads and manifests, the metrics
// accumulators they embed, the explorer's violation reports, the JSON result
// export and progress files, trace files and CLI flags.
//
// Doubles are printed with %.17g, exact through any correctly-rounded parser
// (the final merged output still goes through experiment/json.cpp's lossy
// %.10g, so an exact intermediate format keeps the end result
// byte-identical); non-finite values become the quoted tokens
// "inf"/"-inf"/"nan". Strings escape '"', '\\', '\n', '\r' and '\t' by name
// and every other byte below 0x20 as \u00XX, and read_string accepts exactly
// those escapes. Serialized lines are valid single-line JSON objects with a
// fixed key order, so reading them is a strict linear scan, not a general
// JSON parser.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace mra::wire {

/// Appends a double as %.17g, or a quoted "inf"/"-inf"/"nan" token.
void append_double(std::string& out, double v);

/// Appends a JSON-escaped, quoted string.
void append_string(std::string& out, std::string_view s);

/// `s` JSON-escaped as append_string escapes it, without the quotes: for
/// stream writers, and for text that goes inside a larger string.
[[nodiscard]] std::string escape(std::string_view s);

/// One whole decimal token of T: std::from_chars must consume all of
/// `token`, so a sign '+', spaces, "0x" or trailing bytes are refused, as is
/// a value that does not fit in T. Returns nullopt for any of these; each
/// caller names the error in its own terms.
template <typename T>
[[nodiscard]] std::optional<T> parse_whole(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Strict scanner over serialized text. Every mismatch throws
/// std::invalid_argument "<boundary>: <what> at offset <n>": a malformed
/// input must fail by name, never silently produce a default-constructed
/// field.
class Cursor {
 public:
  /// `boundary` names the input in every error ("fabric wire").
  Cursor(std::string_view text, std::string_view boundary)
      : text_(text), boundary_(boundary) {}

  /// Consumes `lit` exactly; throws on mismatch.
  void expect(std::string_view lit);
  /// True when the next character is `c` (no consumption).
  [[nodiscard]] bool peek(char c) const;
  /// Consumes `lit` if present; returns whether it did.
  bool consume(std::string_view lit);
  /// Skips spaces, tabs, newlines, '\v', '\f' and '\r'.
  void skip_ws();
  /// Consumes and returns the number-shaped token at the cursor: the
  /// longest run of digits, signs, '.', 'e' and 'E' (possibly empty).
  std::string_view number_token();

  std::uint64_t read_u64();
  std::int64_t read_i64();
  /// Parses a number or one of the quoted non-finite tokens.
  double read_double();
  /// Parses a quoted string, undoing append_string's escapes. Any other
  /// escape is refused.
  std::string read_string();

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  /// Throws unless the whole text has been consumed.
  void expect_end();

  /// Throws the boundary's std::invalid_argument, naming the offset.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  template <typename T>
  T read_number(const char* want);

  std::string_view text_;
  std::string_view boundary_;
  std::size_t pos_ = 0;
};

}  // namespace mra::wire
