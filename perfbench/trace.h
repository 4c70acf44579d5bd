// Span recording for the benchmark's traced runs.
//
// A span covers one call the benchmark makes into a library module
// (json, lsm, storage, query, index), or one whole timed operation (its
// root span, named "op.<type>"). Each span records its name, start and
// end (steady-clock nanoseconds), its parent span, the operation it
// belongs to, and the deltas of a fixed set of counters (BufferCache and
// DatasetStats) across it. Spans stay in memory until the run ends and
// are then written as a flat binary file that perfbench/stats.py reads.
//
// When tracing is off every call is a branch on `enabled()` and nothing
// is recorded, so the untraced and traced runs execute identical library
// calls.

#ifndef LSMCOL_PERFBENCH_TRACE_H_
#define LSMCOL_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace lsmcol::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counters sampled at every span boundary. The order is the on-disk
/// field order after the six fixed span fields (see Tracer::Write).
struct Counters {
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_bytes_read = 0;
  int64_t flushes = 0;
  int64_t merges = 0;
  int64_t merge_us = 0;

  static constexpr int kFields = 7;
  static const char* const* Names() {
    static const char* const kNames[kFields] = {
        "cache_hits", "cache_misses", "cache_evictions", "cache_bytes_read",
        "flushes",    "merges",       "merge_us"};
    return kNames;
  }
  int64_t Get(int i) const {
    const int64_t v[kFields] = {cache_hits, cache_misses, cache_evictions,
                                cache_bytes_read, flushes, merges, merge_us};
    return v[i];
  }
  Counters operator-(const Counters& o) const {
    return {cache_hits - o.cache_hits,
            cache_misses - o.cache_misses,
            cache_evictions - o.cache_evictions,
            cache_bytes_read - o.cache_bytes_read,
            flushes - o.flushes,
            merges - o.merges,
            merge_us - o.merge_us};
  }
  Counters& operator+=(const Counters& o) {
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    cache_evictions += o.cache_evictions;
    cache_bytes_read += o.cache_bytes_read;
    flushes += o.flushes;
    merges += o.merges;
    merge_us += o.merge_us;
    return *this;
  }
};

class Tracer {
 public:
  /// `read` samples the workload's counters; called only while enabled.
  explicit Tracer(std::function<Counters()> read) : read_(std::move(read)) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(int64_t op_id) { op_id_ = op_id; }

  /// Interned span-name id (names are few and fixed per workload).
  int Name(const std::string& name) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    names_.push_back(name);
    return static_cast<int>(names_.size() - 1);
  }
  const std::vector<std::string>& names() const { return names_; }

  /// Opens a span as a child of the innermost open one; returns its index.
  int64_t Begin(int name) {
    Span s;
    s.op = op_id_;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.name = name;
    s.at_begin = read_();
    s.start = NowNs();
    spans_.push_back(s);
    const int64_t idx = static_cast<int64_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }

  void End(int64_t idx) {
    Span& s = spans_[static_cast<size_t>(idx)];
    s.end = NowNs();
    s.delta = read_() - s.at_begin;
    stack_.pop_back();
  }

  /// Binary layout, one record per span, all little-endian int64:
  /// op, id, parent, name, start_ns, end_ns, then Counters::kFields deltas.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::vector<int64_t> rec(6 + Counters::kFields);
    bool ok = true;
    for (size_t i = 0; i < spans_.size() && ok; ++i) {
      const Span& s = spans_[i];
      rec[0] = s.op;
      rec[1] = static_cast<int64_t>(i);
      rec[2] = s.parent;
      rec[3] = s.name;
      rec[4] = s.start;
      rec[5] = s.end;
      for (int c = 0; c < Counters::kFields; ++c) rec[6 + c] = s.delta.Get(c);
      ok = std::fwrite(rec.data(), sizeof(int64_t), rec.size(), f) ==
           rec.size();
    }
    return std::fclose(f) == 0 && ok;
  }

 private:
  struct Span {
    int64_t op = 0;
    int64_t parent = -1;
    int name = 0;
    int64_t start = 0;
    int64_t end = 0;
    Counters at_begin;
    Counters delta;
  };

  std::function<Counters()> read_;
  bool enabled_ = false;
  int64_t op_id_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

/// RAII span; records nothing when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int name)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        idx_(tracer_ != nullptr ? tracer_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t idx_;
};

}  // namespace lsmcol::perfbench

#endif  // LSMCOL_PERFBENCH_TRACE_H_
