#include "check/violation.hpp"

#include <cctype>
#include <charconv>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "experiment/json.hpp"

namespace mra::check {

namespace {

void write_string_array(std::ostream& os, const std::vector<std::string>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << experiment::json_escape(v[i]) << '"';
  }
  os << "]";
}

template <typename Int>
void write_int_array(std::ostream& os, const std::vector<Int>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ", ";
    os << v[i];
  }
  os << "]";
}

// ---------------------------------------------------------------------------
// Minimal JSON reader — exactly the subset write_violations_json produces.
// ---------------------------------------------------------------------------
class Reader {
 public:
  explicit Reader(const std::string& text) : s_(text) {}

  /// The one array the input holds; only whitespace may follow it.
  std::vector<Violation> parse() {
    std::vector<Violation> out = parse_array();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes after the array");
    return out;
  }

 private:
  std::vector<Violation> parse_array() {
    skip_ws();
    expect('[');
    std::vector<Violation> out;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parse_violation());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' after violation object");
    }
    return out;
  }

  Violation parse_violation() {
    Violation v;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      if (key == "oracle") {
        v.oracle = parse_string();
      } else if (key == "at_ns") {
        v.at = parse_int<sim::SimTime>(key);  // SimTime can exceed 2^53
      } else if (key == "sites") {
        v.sites = parse_int_array<SiteId>(key);
      } else if (key == "resources") {
        v.resources = parse_int_array<ResourceId>(key);
      } else if (key == "detail") {
        v.detail = parse_string();
      } else if (key == "recent_events") {
        v.recent_events = parse_string_array();
      } else {
        skip_value();  // unknown / redundant key (at_ms)
      }
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in violation object");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            // json_escape only emits \u00XX for control characters.
            if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
            int code = 0;
            try {
              code = std::stoi(s_.substr(pos_, 4), nullptr, 16);
            } catch (const std::exception&) {
              fail("bad \\u escape");
            }
            pos_ += 4;
            out += static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  /// The number-shaped token at the cursor (what parse_number() reads).
  std::string_view number_token() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return std::string_view(s_).substr(start, pos_ - start);
  }

  /// One whole decimal integer of type Int, as write_violations_json
  /// writes ids and times; anything else ("2.7", "1e300", an out-of-range
  /// value) is an error naming the key and the token.
  template <typename Int>
  Int parse_int(const std::string& key) {
    const std::string_view token = number_token();
    Int value{};
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || ec != std::errc{} || ptr != end) {
      fail("bad " + key + " \"" + std::string(token) + "\"");
    }
    return value;
  }

  template <typename Int>
  std::vector<Int> parse_int_array(const std::string& key) {
    std::vector<Int> out;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      out.push_back(parse_int<Int>(key));
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in " + key);
    }
    return out;
  }

  double parse_number() {
    const std::string_view token = number_token();
    if (token.empty()) fail("expected number");
    try {
      return std::stod(std::string(token));
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  std::vector<std::string> parse_string_array() {
    std::vector<std::string> out;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      out.push_back(parse_string());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in string array");
    }
    return out;
  }

  void skip_value() {
    skip_ws();
    const char c = peek();
    if (c == '"') {
      (void)parse_string();
    } else if (c == '[') {
      ++pos_;
      int depth = 1;
      bool in_string = false;
      while (pos_ < s_.size() && depth > 0) {
        const char k = s_[pos_++];
        if (in_string) {
          if (k == '\\') {
            ++pos_;
          } else if (k == '"') {
            in_string = false;
          }
        } else if (k == '"') {
          in_string = true;
        } else if (k == '[') {
          ++depth;
        } else if (k == ']') {
          --depth;
        }
      }
    } else {
      (void)parse_number();
    }
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  [[nodiscard]] char peek() const {
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  char next() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_++];
  }
  void expect(char c) {
    if (next() != c) {
      fail(std::string("expected '") + c + "'");
    }
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("violation JSON: " + what + " at offset " +
                             std::to_string(pos_));
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

void write_violations_json(std::ostream& os,
                           const std::vector<Violation>& violations,
                           int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2 = pad + "  ";
  os << "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    os << (i == 0 ? "\n" : ",\n") << pad2 << "{";
    os << "\"oracle\": \"" << experiment::json_escape(v.oracle) << "\", ";
    os << "\"at_ns\": " << v.at << ", ";
    os << "\"at_ms\": " << sim::to_ms(v.at) << ", ";
    os << "\"sites\": ";
    write_int_array(os, v.sites);
    os << ", \"resources\": ";
    write_int_array(os, v.resources);
    os << ", \"detail\": \"" << experiment::json_escape(v.detail) << "\", ";
    os << "\"recent_events\": ";
    write_string_array(os, v.recent_events);
    os << "}";
  }
  if (!violations.empty()) os << "\n" << pad;
  os << "]";
}

std::vector<Violation> read_violations_json(const std::string& text) {
  Reader reader(text);
  return reader.parse();
}

std::vector<Violation> read_violations_json(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  return read_violations_json(text);
}

}  // namespace mra::check
