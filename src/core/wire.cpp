#include "core/wire.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace mra::wire {
namespace {

/// The escape append_string writes for `c`, or "" when it writes `c` as is.
/// read_string accepts an escape only if this returns exactly its text.
std::string_view escape_of(char c, std::array<char, 8>& buf) {
  switch (c) {
    case '"': return "\\\"";
    case '\\': return "\\\\";
    case '\n': return "\\n";
    case '\r': return "\\r";
    case '\t': return "\\t";
    default: break;
  }
  if (static_cast<unsigned char>(c) >= 0x20) return {};
  std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
  return {buf.data(), 6};
}

}  // namespace

void append_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "\"nan\"";
  } else if (std::isinf(v)) {
    out += v > 0.0 ? "\"inf\"" : "\"-inf\"";
  } else {
    std::array<char, 32> buf{};
    const int n = std::snprintf(buf.data(), buf.size(), "%.17g", v);
    out.append(buf.data(), static_cast<std::size_t>(n));
  }
}

void append_string(std::string& out, std::string_view s) {
  out += '"';
  out += escape(s);
  out += '"';
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  std::array<char, 8> buf{};
  for (const char c : s) {
    const std::string_view e = escape_of(c, buf);
    if (e.empty()) {
      out += c;
    } else {
      out += e;
    }
  }
  return out;
}

void Cursor::fail(const std::string& what) const {
  throw std::invalid_argument(std::string(boundary_) + ": " + what +
                              " at offset " + std::to_string(pos_));
}

void Cursor::expect(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) != lit) {
    fail("expected '" + std::string(lit) + "'");
  }
  pos_ += lit.size();
}

void Cursor::expect_end() {
  if (!at_end()) fail("trailing bytes");
}

bool Cursor::peek(char c) const {
  return pos_ < text_.size() && text_[pos_] == c;
}

bool Cursor::consume(std::string_view lit) {
  if (text_.substr(pos_, lit.size()) != lit) return false;
  pos_ += lit.size();
  return true;
}

void Cursor::skip_ws() {
  pos_ = std::min(text_.find_first_not_of(" \t\n\v\f\r", pos_), text_.size());
}

std::string_view Cursor::number_token() {
  const std::size_t start = pos_;
  pos_ = std::min(text_.find_first_not_of("0123456789+-.eE", pos_),
                  text_.size());
  return text_.substr(start, pos_ - start);
}

template <typename T>
T Cursor::read_number(const char* want) {
  T v{};
  const auto [end, ec] =
      std::from_chars(text_.data() + pos_, text_.data() + text_.size(), v);
  if (ec != std::errc{}) fail(std::string("expected ") + want);
  pos_ = static_cast<std::size_t>(end - text_.data());
  return v;
}

std::uint64_t Cursor::read_u64() {
  return read_number<std::uint64_t>("unsigned integer");
}

std::int64_t Cursor::read_i64() {
  return read_number<std::int64_t>("integer");
}

double Cursor::read_double() {
  if (peek('"')) {
    const std::string tok = read_string();
    if (tok == "inf") return std::numeric_limits<double>::infinity();
    if (tok == "-inf") return -std::numeric_limits<double>::infinity();
    if (tok == "nan") return std::numeric_limits<double>::quiet_NaN();
    fail("unknown non-finite token '" + tok + "'");
  }
  return read_number<double>("number");
}

std::string Cursor::read_string() {
  expect("\"");
  std::string out;
  std::array<char, 8> buf{};
  while (true) {
    const std::size_t stop = text_.find_first_of("\"\\", pos_);
    if (stop == std::string_view::npos) fail("unterminated string");
    out.append(text_.substr(pos_, stop - pos_));
    pos_ = stop + 1;
    if (text_[stop] == '"') return out;
    // Decode the escape's byte, then accept the escape only if it is the
    // one append_string writes for that byte.
    char c = 0;
    switch (pos_ < text_.size() ? text_[pos_] : '\0') {
      case '"': c = '"'; break;
      case '\\': c = '\\'; break;
      case 'n': c = '\n'; break;
      case 'r': c = '\r'; break;
      case 't': c = '\t'; break;
      case 'u': {
        const std::string_view hex = text_.substr(pos_ + 1, 4);
        const char* hex_end = hex.data() + hex.size();
        unsigned code = 0;
        const auto [end, ec] = std::from_chars(hex.data(), hex_end, code, 16);
        if (hex.size() != 4 || ec != std::errc{} || end != hex_end ||
            code >= 0x20) {
          fail("unsupported \\u escape");
        }
        c = static_cast<char>(code);
        break;
      }
      default: fail("unknown escape");
    }
    const std::string_view written = escape_of(c, buf);
    if (text_.substr(stop, written.size()) != written) {
      fail("unsupported escape");
    }
    out += c;
    pos_ = stop + written.size();
  }
}

}  // namespace mra::wire
