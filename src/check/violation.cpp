#include "check/violation.hpp"

#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "core/wire.hpp"

namespace mra::check {

namespace {

void write_string_array(std::ostream& os, const std::vector<std::string>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << wire::escape(v[i]) << '"';
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
// Reader: exactly the subset write_violations_json writes, on the shared
// wire::Cursor. Keys may come in any order with whitespace between tokens,
// and a key the reader does not keep (at_ms) is skipped.
// ---------------------------------------------------------------------------

/// Reads `open item (, item)* close` or an empty `open close`, whitespace
/// allowed around every token.
template <typename Item>
void read_list(wire::Cursor& c, std::string_view open, std::string_view close,
               Item&& item) {
  c.skip_ws();
  c.expect(open);
  c.skip_ws();
  if (c.consume(close)) return;
  do {
    c.skip_ws();
    item();
    c.skip_ws();
  } while (c.consume(","));
  c.expect(close);
}

/// One whole decimal integer of type Int, as the writer prints ids and
/// times; anything else ("2.7", "1e300", an out-of-range value) is an error
/// naming the key and the token.
template <typename Int>
Int read_int(wire::Cursor& c, const std::string& key) {
  const std::string_view token = c.number_token();
  const std::optional<Int> value = wire::parse_whole<Int>(token);
  if (!value) c.fail("bad " + key + " \"" + std::string(token) + "\"");
  return *value;
}

template <typename T>
std::vector<T> read_array(wire::Cursor& c, const std::string& key) {
  std::vector<T> out;
  read_list(c, "[", "]", [&] {
    if constexpr (std::is_same_v<T, std::string>) {
      out.push_back(c.read_string());
    } else {
      out.push_back(read_int<T>(c, key));
    }
  });
  return out;
}

/// Skips a value the reader does not keep: a string, a number, or an array
/// of values nested at most kMaxDepth deep.
void skip_value(wire::Cursor& c, int depth = 0) {
  constexpr int kMaxDepth = 16;
  if (c.peek('"')) {
    (void)c.read_string();
  } else if (c.peek('[')) {
    if (depth == kMaxDepth) c.fail("arrays nested too deep");
    read_list(c, "[", "]", [&] { skip_value(c, depth + 1); });
  } else if (!wire::parse_whole<double>(c.number_token())) {
    c.fail("expected a string, a number or an array");
  }
}

Violation read_violation(wire::Cursor& c) {
  Violation v;
  read_list(c, "{", "}", [&] {
    const std::string key = c.read_string();
    c.skip_ws();
    c.expect(":");
    c.skip_ws();
    if (key == "oracle") {
      v.oracle = c.read_string();
    } else if (key == "at_ns") {
      v.at = read_int<sim::SimTime>(c, key);  // SimTime can exceed 2^53
    } else if (key == "sites") {
      v.sites = read_array<SiteId>(c, key);
    } else if (key == "resources") {
      v.resources = read_array<ResourceId>(c, key);
    } else if (key == "detail") {
      v.detail = c.read_string();
    } else if (key == "recent_events") {
      v.recent_events = read_array<std::string>(c, key);
    } else {
      skip_value(c);
    }
  });
  return v;
}

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
    os << "\"oracle\": \"" << wire::escape(v.oracle) << "\", ";
    os << "\"at_ns\": " << v.at << ", ";
    os << "\"at_ms\": " << sim::to_ms(v.at) << ", ";
    os << "\"sites\": ";
    write_int_array(os, v.sites);
    os << ", \"resources\": ";
    write_int_array(os, v.resources);
    os << ", \"detail\": \"" << wire::escape(v.detail) << "\", ";
    os << "\"recent_events\": ";
    write_string_array(os, v.recent_events);
    os << "}";
  }
  if (!violations.empty()) os << "\n" << pad;
  os << "]";
}

std::vector<Violation> read_violations_json(const std::string& text) {
  wire::Cursor c(text, "violation JSON");
  try {
    std::vector<Violation> out;
    read_list(c, "[", "]", [&] { out.push_back(read_violation(c)); });
    c.skip_ws();  // a report file ends with a newline
    c.expect_end();
    return out;
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());  // the reader's documented type
  }
}

std::vector<Violation> read_violations_json(std::istream& is) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string text = buf.str();
  return read_violations_json(text);
}

}  // namespace mra::check
