// In-memory measurement record of one benchmark run, written as JSON at
// exit: per-request rows, the benchmark's own spans around each public
// call it makes, correctness checks and free-form sections.
//
// Spans are kept in a vector (never streamed while timing) and carry the
// request they belong to, so run.py can compute each layer's self time.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Minimal JSON object builder: values are appended pre-serialized.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof buf, "%.17g", v);
    else
      std::snprintf(buf, sizeof buf, "null");
    return raw(k, buf);
  }
  JsonObject& integer(const std::string& k, long long v) {
    return raw(k, std::to_string(v));
  }
  JsonObject& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  JsonObject& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(k) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

  [[nodiscard]] static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

[[nodiscard]] inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ",\n  " : "\n  ") + items[i];
  return out + (items.empty() ? "]" : "\n]");
}

[[nodiscard]] inline std::string json_map(const std::map<std::string, double>& m) {
  JsonObject o;
  for (const auto& [k, v] : m) o.num(k, v);
  return o.dump();
}

/// One timed interval of a public call the benchmark made.
struct SpanRecord {
  std::string name;   ///< the call, e.g. "ScenarioEngine::run_case"
  std::string layer;  ///< module: scenario, core, tune, dist, simnet, ...
  long long request = -1;  ///< request id, -1 outside requests
  double t0_s = 0.0;       ///< start, seconds since the recorder began
  double dur_s = 0.0;
};

class Recorder {
 public:
  Recorder() : epoch_(Clock::now()) {}

  /// RAII span; records on destruction.
  class Span {
   public:
    Span(Recorder& r, std::string name, std::string layer, long long request)
        : r_(r), t0_(Clock::now()) {
      rec_.name = std::move(name);
      rec_.layer = std::move(layer);
      rec_.request = request;
    }
    ~Span() { finish(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span now and returns its duration.
    double finish() {
      if (!done_) {
        rec_.t0_s = std::chrono::duration<double>(t0_ - r_.epoch_).count();
        rec_.dur_s = seconds_since(t0_);
        r_.spans_.push_back(rec_);
        done_ = true;
      }
      return rec_.dur_s;
    }

   private:
    Recorder& r_;
    Clock::time_point t0_;
    SpanRecord rec_;
    bool done_ = false;
  };

  void add_request(const JsonObject& row) { requests_.push_back(row.dump()); }
  void add_check(const std::string& what, bool ok, const std::string& detail) {
    checks_.push_back(
        JsonObject().str("what", what).boolean("ok", ok).str("detail", detail).dump());
    if (!ok) {
      ++failed_checks_;
      std::fprintf(stderr, "perfbench: CHECK FAILED %s: %s\n", what.c_str(),
                   detail.c_str());
    }
  }
  void set_section(const std::string& name, std::string json) {
    sections_[name] = std::move(json);
  }
  [[nodiscard]] int failed_checks() const { return failed_checks_; }

  [[nodiscard]] std::string dump() const {
    JsonObject o;
    for (const auto& [k, v] : sections_) o.raw(k, v);
    o.raw("requests", json_array(requests_));
    o.raw("checks", json_array(checks_));
    std::vector<std::string> spans;
    spans.reserve(spans_.size());
    for (const SpanRecord& s : spans_)
      spans.push_back(JsonObject()
                          .str("name", s.name)
                          .str("layer", s.layer)
                          .integer("request", s.request)
                          .num("t0_s", s.t0_s)
                          .num("dur_s", s.dur_s)
                          .dump());
    o.raw("spans", json_array(spans));
    return o.dump();
  }

 private:
  Clock::time_point epoch_;
  std::vector<std::string> requests_;
  std::vector<std::string> checks_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::string> sections_;
  int failed_checks_ = 0;
};

}  // namespace perfbench
