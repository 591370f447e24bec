#include "common/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace vadalink {

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Int(int64_t v) {
  Json j;
  j.type_ = Type::kInt;
  j.int_ = v;
  return j;
}

Json Json::Double(double v) {
  Json j;
  j.type_ = Type::kDouble;
  j.dbl_ = v;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::MakeArray() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::MakeObject() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

const Json* Json::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = std::lower_bound(
      obj_.begin(), obj_.end(), key,
      [](const auto& kv, const std::string& k) { return kv.first < k; });
  if (it == obj_.end() || it->first != key) return nullptr;
  return &it->second;
}

void Json::Set(const std::string& key, Json value) {
  if (!is_object()) return;
  auto it = std::lower_bound(
      obj_.begin(), obj_.end(), key,
      [](const auto& kv, const std::string& k) { return kv.first < k; });
  if (it != obj_.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    obj_.insert(it, {key, std::move(value)});
  }
}

void Json::Append(Json value) {
  if (!is_array()) return;
  arr_.push_back(std::move(value));
}

namespace {

/// Appends `s` as a JSON string literal (including the quotes).
void AppendEscaped(std::string_view s, std::string* out) {
  *out += '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (c < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          *out += "\\u00";
          *out += kHex[c >> 4];
          *out += kHex[c & 0xf];
        } else {
          *out += static_cast<char>(c);
        }
    }
  }
  *out += '"';
}

void DumpTo(const Json& j, std::string* out) {
  switch (j.type()) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += j.AsBool() ? "true" : "false";
      break;
    case Json::Type::kInt:
      *out += std::to_string(j.AsInt());
      break;
    case Json::Type::kDouble: {
      double v = j.AsDouble();
      if (!std::isfinite(v)) {
        *out += "null";  // JSON has no NaN/Inf; null is the least-bad spelling
        break;
      }
      // Shortest form that parses back to the same double.
      char buf[32];
      auto res = std::to_chars(buf, buf + sizeof(buf), v);
      out->append(buf, res.ptr);
      break;
    }
    case Json::Type::kString:
      AppendEscaped(j.AsString(), out);
      break;
    case Json::Type::kArray: {
      *out += '[';
      bool first = true;
      for (const Json& e : j.AsArray()) {
        if (!first) *out += ',';
        first = false;
        DumpTo(e, out);
      }
      *out += ']';
      break;
    }
    case Json::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [k, v] : j.AsObject()) {
        if (!first) *out += ',';
        first = false;
        AppendEscaped(k, out);
        *out += ':';
        DumpTo(v, out);
      }
      *out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    SkipWs();
    VL_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Err(const std::string& what) const {
    return Status::ParseError(what + " at byte " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        VL_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json::Str(std::move(s));
      }
      case 't':
        if (ConsumeWord("true")) return Json::Bool(true);
        return Err("invalid literal");
      case 'f':
        if (ConsumeWord("false")) return Json::Bool(false);
        return Err("invalid literal");
      case 'n':
        if (ConsumeWord("null")) return Json::Null();
        return Err("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    Json obj = Json::MakeObject();
    SkipWs();
    if (Consume('}')) return obj;
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key string");
      }
      VL_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (!Consume(':')) return Err("expected ':' after object key");
      SkipWs();
      VL_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      obj.Set(key, std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Err("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray(int depth) {
    ++pos_;  // '['
    Json arr = Json::MakeArray();
    SkipWs();
    if (Consume(']')) return arr;
    while (true) {
      SkipWs();
      VL_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Err("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Err("unterminated string");
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Err("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_ + i];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Err("bad hex digit in \\u escape");
          }
          pos_ += 4;
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through as-is; the protocol only needs ASCII round trips).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_float = false;
    if (Consume('.')) {
      is_float = true;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_float = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") return Err("invalid number");
    if (!is_float) {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && ptr == tok.data() + tok.size()) {
        return Json::Int(v);
      }
      // Fall through to double on overflow.
    }
    std::string buf(tok);
    char* end = nullptr;
    double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size()) return Err("invalid number");
    return Json::Double(v);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  Parser p(text);
  return p.ParseDocument();
}

Status WriteJsonFile(const std::string& path, const Json& doc) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << doc.Dump() << '\n';
  if (!out.flush()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace vadalink
