#include "fabric/wire.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace mra::fabric::wire {

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
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", c);
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Cursor::fail(const std::string& what) const {
  throw std::invalid_argument("fabric wire: " + what + " at offset " +
                              std::to_string(pos_));
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

std::uint64_t Cursor::read_u64() {
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text_.data() + pos_, text_.data() + text_.size(), v);
  if (ec != std::errc{}) fail("expected unsigned integer");
  pos_ = static_cast<std::size_t>(end - text_.data());
  return v;
}

std::int64_t Cursor::read_i64() {
  std::int64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text_.data() + pos_, text_.data() + text_.size(), v);
  if (ec != std::errc{}) fail("expected integer");
  pos_ = static_cast<std::size_t>(end - text_.data());
  return v;
}

double Cursor::read_double() {
  if (peek('"')) {
    const std::string tok = read_string();
    if (tok == "inf") return std::numeric_limits<double>::infinity();
    if (tok == "-inf") return -std::numeric_limits<double>::infinity();
    if (tok == "nan") return std::numeric_limits<double>::quiet_NaN();
    fail("unknown non-finite token '" + tok + "'");
  }
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(text_.data() + pos_, text_.data() + text_.size(), v);
  if (ec != std::errc{}) fail("expected number");
  pos_ = static_cast<std::size_t>(end - text_.data());
  return v;
}

std::string Cursor::read_string() {
  expect("\"");
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("dangling escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        const auto [end, ec] = std::from_chars(
            text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
        if (ec != std::errc{} || end != text_.data() + pos_ + 4 ||
            code > 0x7F) {
          // append_string only emits \u00XX for control bytes; anything
          // else is not ours.
          fail("unsupported \\u escape");
        }
        out += static_cast<char>(code);
        pos_ += 4;
        break;
      }
      default: fail("unknown escape");
    }
  }
}

std::string Cursor::read_object() {
  if (!peek('{')) fail("expected object");
  const std::size_t start = pos_;
  int depth = 0;
  bool in_string = false;
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (in_string) {
      if (c == '\\') {
        if (pos_ < text_.size()) ++pos_;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth == 0) {
        return std::string(text_.substr(start, pos_ - start));
      }
    }
  }
  fail("unbalanced object");
}

}  // namespace mra::fabric::wire
