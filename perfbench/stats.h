// Statistics the serving benchmark reports, kept apart from the workloads so
// stats_test.cc can check them on synthetic input:
//
//   - the percentile rule: a timing is reported at the median and at the
//     highest percentile of a fixed ladder that has at least ten samples
//     beyond it (fewer samples would let one outlier set the figure);
//   - the steady estimators: a run is cut into intervals and a figure is
//     the median of its per-interval values;
//   - the open-loop due-time accounting: a request is timed from when it
//     was due, not from when the generator got round to sending it, so a
//     stall in the system shows up in the latency of every request queued
//     behind it.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr uint64_t kMinSamplesBeyond = 10;

/// Samples strictly above the nearest-rank position of percentile \p p
/// (0 < p < 100) in a sample of \p n.
inline uint64_t SamplesBeyond(uint64_t n, double p) {
  // The epsilon keeps binary rounding (0.999 * 10000 = 9990.000000000002)
  // from pushing an exact rank up by one.
  const uint64_t rank = static_cast<uint64_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return n > rank ? n - rank : 0;
}

/// Whether a sample of \p n supports reporting percentile \p p.
inline bool SupportsPercentile(uint64_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

/// The highest percentile of {50, 90, 95, 99, 99.9} that a sample of \p n
/// supports, or 0 when not even the median has ten samples beyond it.
inline double HighestSupportedPercentile(uint64_t n) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 50};
  for (double p : kLadder) {
    if (SupportsPercentile(n, p)) return p;
  }
  return 0;
}

/// Nearest-rank percentile of \p values (sorted in place); 0 when empty.
inline double Percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

/// Median of \p values (nearest rank; sorted in place).
inline double Median(std::vector<double>& values) {
  return Percentile(values, 50);
}

/// A measured value (a latency, or the reports a request carried) and when
/// its request completed, in seconds from the start of the timed phase.
struct TimedSample {
  double at_s = 0;
  double value = 0;
};

/// Intervals a timed phase is cut into for the steady estimators below.
/// Odd, so the nearest-rank median is the middle interval's figure.
inline constexpr int kIntervals = 5;

/// Samples per interval of [0, run_s); a sample at or past run_s (a flush
/// after the deadline) counts in the last interval.
inline std::vector<std::vector<double>> SplitIntervals(
    const std::vector<TimedSample>& samples, double run_s, int intervals) {
  std::vector<std::vector<double>> out(static_cast<size_t>(intervals));
  for (const TimedSample& s : samples) {
    int i = static_cast<int>(s.at_s / run_s * intervals);
    i = std::clamp(i, 0, intervals - 1);
    out[static_cast<size_t>(i)].push_back(s.value);
  }
  return out;
}

/// A percentile estimated steadily: the median over kIntervals intervals
/// of each interval's percentile, so one stall (a compaction, a noisy
/// neighbour) moves one interval and not the figure. Falls back to the
/// whole-run percentile when some interval has too few samples for it.
struct SteadyEstimate {
  double value = 0;
  uint64_t samples = 0;               ///< In the whole run.
  uint64_t min_interval_samples = 0;  ///< In the thinnest interval.
  bool by_interval = false;
};

inline SteadyEstimate SteadyPercentile(const std::vector<TimedSample>& samples,
                                       double run_s, double p) {
  SteadyEstimate e;
  e.samples = samples.size();
  std::vector<std::vector<double>> parts =
      SplitIntervals(samples, run_s, kIntervals);
  e.min_interval_samples = UINT64_MAX;
  for (const auto& part : parts) {
    e.min_interval_samples = std::min<uint64_t>(e.min_interval_samples,
                                                part.size());
  }
  if (SupportsPercentile(e.min_interval_samples, p)) {
    std::vector<double> per;
    for (auto& part : parts) per.push_back(Percentile(part, p));
    e.value = Median(per);
    e.by_interval = true;
  } else {
    std::vector<double> all;
    for (const TimedSample& s : samples) all.push_back(s.value);
    e.value = Percentile(all, p);
  }
  return e;
}

/// Median over kIntervals intervals of the per-second sum of the samples'
/// values (reports or queries completed).
inline double SteadyRate(const std::vector<TimedSample>& samples,
                         double run_s) {
  std::vector<std::vector<double>> parts =
      SplitIntervals(samples, run_s, kIntervals);
  std::vector<double> rates;
  for (const auto& part : parts) {
    double sum = 0;
    for (double v : part) sum += v;
    rates.push_back(sum / (run_s / kIntervals));
  }
  return Median(rates);
}

/// One request of an open-loop generator: when it was due, when the
/// generator actually started it, and when the system answered.
struct OpenLoopSample {
  double latency_ms = 0;  ///< due -> done
  double late_ms = 0;     ///< due -> start (how late the generator sent)
  double done_s = 0;      ///< start of the loop -> done
};

/// Drives \p count requests of an open loop whose request k is due at
/// `start + offset + k * period`: waits until each is due (never skipping
/// one that is already late), runs \p op, and records due->done latency and
/// generator lateness into \p out. \p stop ends the loop early (the
/// deadline of a timed run). The clock and the wait are parameters so the
/// accounting can be tested against a simulated stall; the benchmark passes
/// steady_clock and sleep_until.
template <typename Clock, typename SleepUntil, typename Op, typename Stop>
uint64_t RunOpenLoop(typename Clock::time_point start,
                     typename Clock::duration offset,
                     typename Clock::duration period, uint64_t count,
                     SleepUntil sleep_until, Op op, Stop stop,
                     std::vector<OpenLoopSample>* out) {
  uint64_t done = 0;
  for (uint64_t k = 0; k < count; ++k) {
    const typename Clock::time_point due =
        start + offset + period * static_cast<int64_t>(k);
    if (stop(due)) break;
    sleep_until(due);
    const typename Clock::time_point began = Clock::now();
    if (!op(k)) break;
    const typename Clock::time_point finished = Clock::now();
    OpenLoopSample s;
    s.latency_ms =
        std::chrono::duration<double, std::milli>(finished - due).count();
    s.late_ms = std::chrono::duration<double, std::milli>(began - due).count();
    s.done_s = std::chrono::duration<double>(finished - start).count();
    out->push_back(s);
    ++done;
  }
  return done;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
