// Spans, summary statistics and JSON output for the repository benchmark.
//
// The traced run wraps every public library call it times in a ScopedSpan.
// Spans are kept in memory (one mutex-guarded vector; the benchmark records
// a few thousand at most) and written out when the run ends.  Each span has
// a name "<layer>.<call>" (layers are the src/ modules), a parent (the span
// open on the same thread when it started) and a key shared by every span
// of one target or request.  A layer's self time is its spans' durations
// minus the part of each interval its child spans cover.
//
// With tracing off, ScopedSpan records nothing; the timed runs use plain
// NowMs() differences instead.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v` (mean of the middle pair for even sizes; 0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile that still has at least ten samples beyond it,
/// with the percentile it sits at and the sample count.  Below 40 samples
/// that percentile falls under p75, so the maximum is reported instead, at
/// percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  int64_t n = 0;
};

inline Tail TailOf(std::vector<double> v) {
  Tail t;
  t.n = static_cast<int64_t>(v.size());
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  if (v.size() < 40) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  const size_t i = v.size() - 11;  // Exactly ten samples lie beyond v[i].
  t.value = v[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) /
                 static_cast<double>(v.size());
  return t;
}

// ---------------------------------------------------------------------------
// JSON output.
// ---------------------------------------------------------------------------

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
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
  return out + "\"";
}

/// Every digit of `v` (round-trip exact); non-finite values become null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// An insertion-ordered JSON object built from already-encoded values.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Obj(const std::string& key, const JsonObject& v) {
    return Raw(key, v.str());
  }
  std::string str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

inline std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i)
    out += (i > 0 ? ", " : "") + items[i];
  return out + "]";
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

struct Span {
  std::string name;     ///< "<layer>.<call>".
  int64_t id = -1;
  int64_t parent = -1;  ///< Enclosing span on the same thread; -1 = root.
  int64_t key = -1;     ///< Target / request id; -1 = none.
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Parent argument meaning "the span open on this thread".
  static constexpr int64_t kThreadParent = -2;

  /// Opens a span and returns its id (-1 when tracing is off).  A span
  /// started on another thread than its cause (a driver worker's target)
  /// names that cause as `parent` explicitly.
  int64_t Begin(const std::string& name, int64_t key,
                int64_t parent = kThreadParent) {
    if (!enabled_) return -1;
    std::vector<int64_t>& stack = ThreadStack();
    Span s;
    s.name = name;
    s.parent = parent != kThreadParent ? parent
               : stack.empty()        ? -1
                                      : stack.back();
    s.key = key;
    s.start_ms = NowMs();
    std::lock_guard<std::mutex> lock(mu_);
    s.id = static_cast<int64_t>(spans_.size());
    spans_.push_back(s);
    stack.push_back(s.id);
    return s.id;
  }

  void End(int64_t id) {
    if (id < 0) return;
    const double now = NowMs();
    std::vector<int64_t>& stack = ThreadStack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ms = now;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.end_ms - s.start_ms);
    return out;
  }

  /// Per-span self time: duration minus the union of its children's
  /// intervals (clipped to the span), indexed by span id.
  std::vector<double> SelfTimes() const {
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<double, double>>> kids(all.size());
    for (const Span& s : all)
      if (s.parent >= 0)
        kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ms, s.end_ms);
    std::vector<double> self(all.size(), 0.0);
    for (size_t i = 0; i < all.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0.0;
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (const auto& [lo0, hi0] : iv) {
        const double lo = std::max(lo0, all[i].start_ms);
        const double hi = std::min(hi0, all[i].end_ms);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      self[i] = (all[i].end_ms - all[i].start_ms) - covered;
    }
    return self;
  }

  /// Total self time per layer (the name's prefix before the first '.').
  std::map<std::string, double> LayerSelfMs() const {
    const std::vector<Span> all = spans();
    const std::vector<double> self = SelfTimes();
    std::map<std::string, double> out;
    for (size_t i = 0; i < all.size(); ++i)
      out[all[i].name.substr(0, all[i].name.find('.'))] += self[i];
    return out;
  }

  /// The span tree as a JSON array, times relative to `origin_ms`.
  std::string ToJson(double origin_ms) const {
    const std::vector<Span> all = spans();
    const std::vector<double> self = SelfTimes();
    std::vector<std::string> items;
    items.reserve(all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      JsonObject o;
      o.Str("name", all[i].name)
          .Int("id", all[i].id)
          .Int("parent", all[i].parent)
          .Int("key", all[i].key)
          .Num("start_ms", all[i].start_ms - origin_ms)
          .Num("end_ms", all[i].end_ms - origin_ms)
          .Num("self_ms", self[i]);
      items.push_back(o.str());
    }
    return JsonArray(items);
  }

 private:
  static std::vector<int64_t>& ThreadStack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t key = -1,
             int64_t parent = Tracer::kThreadParent)
      : tracer_(tracer), id_(tracer->Begin(name, key, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
