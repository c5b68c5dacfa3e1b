#pragma once

// obs::json — a minimal recursive-descent JSON reader for the post-run
// analysis tools (fedclust_report ingests journal JSONL, metrics JSONL,
// and Chrome trace JSON), plus the string escaping the JSON writers (Chrome
// trace export, run manifests) share. The reader is compiled into
// fedclust_obs_report next to the run report (obs/report.h); escape()
// stays header-only, so the writers need no link to it.
//
// Scope: full JSON values (null/bool/number/string/array/object) with
// standard escapes; numbers parse as double (the journal's uint64 fields
// are all well inside the 2^53 exact-integer range). Object keys keep
// their source order. Not a streaming parser — inputs are whole files of
// run-report size.

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace fedclust::obs::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // source order

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  // Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  // Convenience accessors with defaults (returned when the key is absent
  // or of the wrong kind).
  double number_or(const std::string& key, double def) const;
  std::string string_or(const std::string& key,
                        const std::string& def) const;
};

// Parses one JSON document; throws std::runtime_error with a byte offset
// on malformed input. Trailing whitespace is allowed, trailing garbage is
// not.
Value parse(const std::string& text);

// Parses JSONL: one document per non-empty line. Throws like parse(),
// naming the offending line.
std::vector<Value> parse_lines(const std::string& text);

// `s` escaped for use inside a JSON string literal (quotes not included).
// Inline so JSON writers do not link the reader.
inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace fedclust::obs::json
