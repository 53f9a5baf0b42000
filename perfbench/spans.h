// Spans the benchmark records around its calls into the program when run
// with --trace 1: name, start, end, parent span and request id, kept in
// per-thread memory while the run measures and written out at exit.
// Nothing here runs in an untraced run.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/common/mutex.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = a root span.
  uint64_t request = 0;  ///< Shared by every span of one request.
  uint64_t arg = 0;      ///< Span-specific (epoch, blob bytes, frame CRC).
};

/// One thread's spans. Only its owning thread appends.
class SpanBuffer {
 public:
  void Add(const SpanRecord& s) { spans_.push_back(s); }
  std::vector<SpanRecord>& spans() { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
};

/// Hands out span ids and per-thread buffers; collects them at the end.
class Tracer {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// A buffer for one thread; stays valid for the tracer's lifetime.
  SpanBuffer* NewBuffer() {
    ldphh::MutexLock lock(&mu_);
    buffers_.emplace_back();
    return &buffers_.back();
  }

  /// Every span recorded so far, ordered by start time.
  std::vector<SpanRecord> All() {
    ldphh::MutexLock lock(&mu_);
    std::vector<SpanRecord> all;
    for (SpanBuffer& b : buffers_) {
      all.insert(all.end(), b.spans().begin(), b.spans().end());
    }
    std::sort(all.begin(), all.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return a.start < b.start;
              });
    return all;
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  ldphh::Mutex mu_;
  std::deque<SpanBuffer> buffers_ GUARDED_BY(mu_);
};

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover (children overlapping each other count once).
inline std::map<uint64_t, double> SelfTimesMs(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<Clock::time_point,
                                           Clock::time_point>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<uint64_t, double> self;
  for (const SpanRecord& s : spans) {
    Clock::duration covered{0};
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      Clock::time_point cur_lo{}, cur_hi{};
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[s.id] = Ms(s.end - s.start - covered);
  }
  return self;
}

/// Writes \p spans as JSON lines (times in µs from \p origin, self time in
/// ms) to \p path. Returns false if the file cannot be written.
inline bool WriteSpans(const std::string& path,
                       const std::vector<SpanRecord>& spans,
                       Clock::time_point origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::map<uint64_t, double> self = SelfTimesMs(spans);
  auto us = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"self_ms\":%.6f,\"arg\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), us(s.start),
                 us(s.end), self.at(s.id),
                 static_cast<unsigned long long>(s.arg));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
