// A small JSON reader for pcbench's own files: BENCHMARK.json and the
// result objects pcbench writes.  Recursive descent into a plain value
// tree; numbers are doubles, \u escapes outside ASCII decode to UTF-8.

#ifndef PATHCACHE_BENCH_E2E_JSON_VALUE_H_
#define PATHCACHE_BENCH_E2E_JSON_VALUE_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pathcache {
namespace pcbench {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  /// The member named `key`, or nullptr (also when this is no object).
  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  /// Parses exactly one JSON value spanning `text` (surrounding whitespace
  /// allowed).  On failure returns false and describes the first error.
  static bool Parse(std::string_view text, JsonValue* out, std::string* err) {
    JsonParser p(text);
    if (!p.Value(out, 0)) {
      *err = p.err_ + " at byte " + std::to_string(p.pos_);
      return false;
    }
    p.SkipSpace();
    if (p.pos_ != text.size()) {
      *err = "trailing bytes at byte " + std::to_string(p.pos_);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(std::string_view text) : s_(text) {}

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const char* why) {
    err_ = why;
    return false;
  }

  bool Literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return Fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipSpace();
    if (pos_ >= s_.size()) return Fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return String(&out->str);
    }
    if (c == 't' || c == 'f') {
      out->type = JsonValue::Type::kBool;
      out->boolean = c == 't';
      return Literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->type = JsonValue::Type::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  bool Number(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::string_view("+-0123456789.eE").find(s_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) return Fail("unexpected character");
    const std::string num(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Fail("bad number");
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("short \\u escape");
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<uint32_t>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<uint32_t>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<uint32_t>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool Array(JsonValue* out, int depth) {
    ++pos_;
    out->type = JsonValue::Type::kArray;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      out->items.emplace_back();
      if (!Value(&out->items.back(), depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return Fail("unterminated array");
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (s_[pos_++] != ',') return Fail("expected , or ]");
    }
  }

  bool Object(JsonValue* out, int depth) {
    ++pos_;
    out->type = JsonValue::Type::kObject;
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected key");
      std::string key;
      if (!String(&key)) return false;
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_++] != ':') return Fail("expected :");
      out->members.emplace_back(std::move(key), JsonValue{});
      if (!Value(&out->members.back().second, depth + 1)) return false;
      SkipSpace();
      if (pos_ >= s_.size()) return Fail("unterminated object");
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (s_[pos_++] != ',') return Fail("expected , or }");
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
  std::string err_;
};

/// Reads and parses `path`; on failure prints why to stderr.
inline bool LoadJson(const std::string& path, JsonValue* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::string text;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string err;
  if (!JsonParser::Parse(text, out, &err)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  return true;
}

/// One metric as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  double bound = 0.0;  // end-to-end only: allowed worsening, share of median
};

struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

/// Loads the workload and metric lists from a BENCHMARK.json.
inline bool LoadBenchmarkSpec(const std::string& path, BenchmarkSpec* out) {
  JsonValue root;
  if (!LoadJson(path, &root)) return false;
  auto metrics = [&](const char* key, std::vector<MetricSpec>* list) {
    const JsonValue* arr = root.Find(key);
    if (arr == nullptr || arr->type != JsonValue::Type::kArray) return false;
    for (const JsonValue& m : arr->items) {
      const JsonValue* name = m.Find("name");
      const JsonValue* unit = m.Find("unit");
      const JsonValue* better = m.Find("better");
      if (name == nullptr || unit == nullptr || better == nullptr) return false;
      MetricSpec spec{name->str, unit->str, better->str == "higher", 0.0};
      if (const JsonValue* bound = m.Find("bound")) spec.bound = bound->number;
      list->push_back(std::move(spec));
    }
    return true;
  };
  const JsonValue* workloads = root.Find("workloads");
  if (workloads == nullptr || !metrics("end_to_end", &out->end_to_end) ||
      !metrics("per_layer", &out->per_layer)) {
    std::fprintf(stderr, "%s: not a benchmark description\n", path.c_str());
    return false;
  }
  for (const JsonValue& w : workloads->items) {
    if (const JsonValue* name = w.Find("name")) {
      out->workloads.push_back(name->str);
    }
  }
  return true;
}

}  // namespace pcbench
}  // namespace pathcache

#endif  // PATHCACHE_BENCH_E2E_JSON_VALUE_H_
