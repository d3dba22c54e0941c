// Minimal recursive-descent JSON reader shared by the validators and the
// stats toolchain.
//
// This started life inside trace_event.cpp as the Chrome-trace validator's
// private parser; the metrics snapshot validator and rispp_stats need the
// same thing, so it lives here now. It is a *reader* for trusted-ish tool
// input, not a general JSON library: numbers become double, \u escapes are
// kept verbatim (no UTF-8 decoding), and object keys preserve file order so
// duplicate keys stay visible to callers that care.
#pragma once

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rispp::jsonmini {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

struct JsonParser {
  /// Deepest array/object nesting accepted. Parsing recurses once per level,
  /// so an unbounded depth would let a hostile file overflow the stack.
  static constexpr int kMaxDepth = 256;

  explicit JsonParser(const std::string& input) : text(input) {}

  const std::string& text;
  std::size_t pos = 0;
  std::string error;
  int depth = 0;

  bool fail(const std::string& message) {
    if (error.empty())
      error = message + " at offset " + std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth)
        return fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      ++depth;
      const bool ok = c == '{' ? parse_object(out) : parse_array(out);
      --depth;
      return ok;
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.string);
    }
    if (c == 't' || c == 'f') {
      const bool value = c == 't';
      const char* word = value ? "true" : "false";
      if (text.compare(pos, std::strlen(word), word) != 0) return fail("invalid literal");
      pos += std::strlen(word);
      out.kind = JsonValue::Kind::kBool;
      out.boolean = value;
      return true;
    }
    if (c == 'n') {
      if (text.compare(pos, 4, "null") != 0) return fail("invalid literal");
      pos += 4;
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    char* end = nullptr;
    const double number = std::strtod(text.c_str() + pos, &end);
    if (end == text.c_str() + pos) return fail("invalid value");
    pos = static_cast<std::size_t>(end - text.c_str());
    out.kind = JsonValue::Kind::kNumber;
    out.number = number;
    return true;
  }

  bool parse_string(std::string& out) {
    if (text[pos] != '"') return fail("expected string");
    ++pos;
    out.clear();
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) break;
        const char esc = text[pos];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos + 4 >= text.size()) return fail("truncated \\u escape");
            // Validation only: keep the raw escape, no UTF-8 decoding.
            out += "\\u";
            out.append(text, pos + 1, 4);
            pos += 4;
            break;
          }
          default: return fail("invalid escape");
        }
        ++pos;
        continue;
      }
      out += c;
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos;  // '['
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated array");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == ']') {
        ++pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos;  // '{'
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (pos >= text.size() || text[pos] != '"') return fail("expected object key");
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') return fail("expected ':'");
      ++pos;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (pos >= text.size()) return fail("unterminated object");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == '}') {
        ++pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

/// Parses `text` as exactly one JSON document. Returns true on success;
/// otherwise `error` describes the failure (including trailing garbage).
inline bool parse_document(const std::string& text, JsonValue& out, std::string& error) {
  JsonParser parser(text);
  if (!parser.parse_value(out)) {
    error = parser.error;
    return false;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    error = "trailing garbage after the JSON value";
    return false;
  }
  return true;
}

}  // namespace rispp::jsonmini
