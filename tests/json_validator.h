// Strict JSON checks shared by the trace-export tests: a minimal RFC 8259
// validator and a substring tally for counting exported events.
#pragma once

#include <cctype>
#include <cstddef>
#include <string>

namespace nttpim::test_json {

// Minimal strict JSON parser (no DOM) — accepting exactly the RFC 8259
// grammar is the point: an exported trace must be loadable by any real
// JSON parser, not just tolerant ones.
class JsonValidator {
 public:
  static bool valid(const std::string& text) {
    JsonValidator v(text);
    v.skip_ws();
    if (!v.value()) return false;
    v.skip_ws();
    return v.pos_ == text.size();
  }

 private:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  bool consume(char c) {
    if (eof() || peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r'))
      ++pos_;
  }

  bool value() {
    if (eof()) return false;
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c)
      if (!consume(*c)) return false;
    return true;
  }

  bool object() {
    if (!consume('{')) return false;
    skip_ws();
    if (consume('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return false;
    }
  }

  bool array() {
    if (!consume('[')) return false;
    skip_ws();
    if (consume(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return false;
    }
  }

  bool string() {
    if (!consume('"')) return false;
    while (!eof()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (eof()) return false;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i)
            if (eof() || !std::isxdigit(static_cast<unsigned char>(
                             text_[pos_++])))
              return false;
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      }
    }
    return false;
  }

  bool number() {
    consume('-');
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
      return false;
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        return false;
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

inline std::size_t count_occurrences(const std::string& text,
                                     const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++count;
  return count;
}

}  // namespace nttpim::test_json
