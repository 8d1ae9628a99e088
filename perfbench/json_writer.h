// Minimal streaming JSON writer for the benchmark's raw-measurement dump.
// Doubles are written with 17 significant digits so run.py sees every
// digit the clock produced; non-finite doubles become null.

#ifndef PERFBENCH_JSON_WRITER_H_
#define PERFBENCH_JSON_WRITER_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  /// Emits `"key":` inside an object; the next value call completes it.
  JsonWriter& Key(const std::string& key) {
    Separate();
    String(key);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  JsonWriter& Value(const std::string& v) {
    Separate();
    String(v);
    return *this;
  }
  JsonWriter& Value(const char* v) { return Value(std::string(v)); }
  JsonWriter& Value(bool v) {
    Separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& Value(int64_t v) {
    Separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(int v) { return Value(static_cast<int64_t>(v)); }
  JsonWriter& Value(double v) {
    Separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
    return *this;
  }

  template <typename T>
  JsonWriter& Field(const std::string& key, const T& v) {
    Key(key);
    return Value(v);
  }

  template <typename T>
  JsonWriter& Array(const std::string& key, const std::vector<T>& values) {
    Key(key);
    BeginArray();
    for (const T& v : values) Value(v);
    return EndArray();
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void String(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_WRITER_H_
