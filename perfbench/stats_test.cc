// Self-tests of the benchmark's own statistics (stats.h) and span self
// time (spans.h). run.py runs this
// binary after every build and refuses to benchmark if it fails.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/stats.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void TestPercentileRule() {
  // p99 of 1000 samples sits at rank 990: exactly ten beyond it.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(SupportsPercentile(1000, 99));
  EXPECT(!SupportsPercentile(999, 99));
  EXPECT(HighestSupportedPercentile(1000) == 99);
  EXPECT(HighestSupportedPercentile(999) == 95);
  // p95 needs 200, p90 needs 100, the median 20.
  EXPECT(HighestSupportedPercentile(200) == 95);
  EXPECT(HighestSupportedPercentile(199) == 90);
  EXPECT(HighestSupportedPercentile(100) == 90);
  EXPECT(HighestSupportedPercentile(99) == 50);
  EXPECT(HighestSupportedPercentile(20) == 50);
  EXPECT(HighestSupportedPercentile(19) == 0);
  EXPECT(HighestSupportedPercentile(10000) == 99.9);
  EXPECT(HighestSupportedPercentile(0) == 0);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(Percentile(v, 50) == 50);
  EXPECT(Percentile(v, 95) == 95);
  EXPECT(Percentile(v, 99) == 99);
  EXPECT(Percentile(v, 100) == 100);
  std::vector<double> one = {7};
  EXPECT(Median(one) == 7);
  std::vector<double> none;
  EXPECT(Percentile(none, 50) == 0);
}

void TestSteadyEstimators() {
  // Five 1-second intervals of 1000 samples; interval 2 stalls at 100 ms.
  std::vector<TimedSample> samples;
  for (int i = 0; i < 5000; ++i) {
    const double at = i / 1000.0;
    samples.push_back({at, (i >= 2000 && i < 3000) ? 100.0 : 1.0 + i % 10});
  }
  const SteadyEstimate p99 = SteadyPercentile(samples, 5.0, 99);
  EXPECT(p99.by_interval);
  EXPECT(p99.samples == 5000);
  EXPECT(p99.min_interval_samples == 1000);
  EXPECT(p99.value == 10);  // The stalled interval does not set the figure.
  std::vector<double> all;
  for (const TimedSample& s : samples) all.push_back(s.value);
  EXPECT(Percentile(all, 99) == 100);  // The whole-run p99 would.

  // Too few samples per interval for p99: the whole-run percentile.
  std::vector<TimedSample> thin(samples.begin(), samples.begin() + 1500);
  const SteadyEstimate fallback = SteadyPercentile(thin, 5.0, 99);
  EXPECT(!fallback.by_interval);
  EXPECT(fallback.min_interval_samples == 0);

  // A sample past the run's end counts in the last interval.
  EXPECT(SplitIntervals({{5.2, 1}}, 5.0, 5).back().size() == 1);

  // 1000 reports/s, except a slow interval at 200/s.
  std::vector<TimedSample> acks;
  for (int i = 0; i < 5000; ++i) {
    if (i >= 1000 && i < 2000 && i % 5 != 0) continue;
    acks.push_back({i / 1000.0, 1});
  }
  EXPECT(std::fabs(SteadyRate(acks, 5.0) - 1000) < 1e-9);
}

// A simulated clock: the "system" advances it by each request's service
// time, and waiting advances it to the due time.
struct FakeClock {
  using duration = std::chrono::microseconds;
  using time_point = std::chrono::time_point<FakeClock, duration>;
  static time_point current;
  static time_point now() { return current; }
};
FakeClock::time_point FakeClock::current{};

void TestOpenLoopCountsStalls() {
  using std::chrono::milliseconds;
  FakeClock::current = FakeClock::time_point{};
  const FakeClock::time_point start = FakeClock::now();
  // One request every 10 ms, each served in 1 ms, except request 3 whose
  // sink stalls for 45 ms.
  std::vector<OpenLoopSample> samples;
  const uint64_t done = RunOpenLoop<FakeClock>(
      start, FakeClock::duration(0), milliseconds(10), 8,
      [](FakeClock::time_point due) {
        FakeClock::current = std::max(FakeClock::current, due);
      },
      [](uint64_t k) {
        FakeClock::current += milliseconds(k == 3 ? 45 : 1);
        return true;
      },
      [](FakeClock::time_point) { return false; }, &samples);
  EXPECT(done == 8);
  EXPECT(samples.size() == 8);
  // Before the stall: served on time.
  EXPECT(std::fabs(samples[2].latency_ms - 1) < 1e-9);
  EXPECT(std::fabs(samples[2].late_ms) < 1e-9);
  EXPECT(std::fabs(samples[3].latency_ms - 45) < 1e-9);
  // Request 4 was due at 40 ms but could only start at 75 ms: its latency
  // counts the 35 ms it waited behind the stall, not just its 1 ms.
  EXPECT(std::fabs(samples[4].late_ms - 35) < 1e-9);
  EXPECT(std::fabs(samples[4].latency_ms - 36) < 1e-9);
  // Due at 50 ms, started at 76 ms.
  EXPECT(std::fabs(samples[5].latency_ms - 27) < 1e-9);
  // The backlog drains by request 7 (due 70 ms, started 78 ms).
  EXPECT(std::fabs(samples[7].latency_ms - 9) < 1e-9);

  // A closed loop timed from the send would have hidden the stall from
  // every later request; the open-loop p99 must not.
  std::vector<double> latencies;
  for (const OpenLoopSample& s : samples) latencies.push_back(s.latency_ms);
  EXPECT(Percentile(latencies, 75) >= 27);
}

void TestOpenLoopStopsAtDeadline() {
  using std::chrono::milliseconds;
  FakeClock::current = FakeClock::time_point{};
  const FakeClock::time_point start = FakeClock::now();
  const FakeClock::time_point deadline = start + milliseconds(35);
  std::vector<OpenLoopSample> samples;
  const uint64_t done = RunOpenLoop<FakeClock>(
      start, milliseconds(5), milliseconds(10), 100,
      [](FakeClock::time_point due) {
        FakeClock::current = std::max(FakeClock::current, due);
      },
      [](uint64_t) {
        FakeClock::current += milliseconds(1);
        return true;
      },
      [deadline](FakeClock::time_point due) { return due >= deadline; },
      &samples);
  // Due at 5, 15, 25 ms; the request due at 35 ms is past the deadline.
  EXPECT(done == 3);
}

void TestSelfTime() {
  using std::chrono::milliseconds;
  const Clock::time_point t0{};
  auto at = [t0](int ms) { return t0 + milliseconds(ms); };
  // A 10 ms span whose children cover [1, 5) (two overlapping children,
  // counted once), [8, 9), and [9, 12) clipped to [9, 10).
  const std::vector<SpanRecord> spans = {
      {"parent", at(0), at(10), 1, 0, 1, 0},
      {"child", at(1), at(3), 2, 1, 1, 0},
      {"child", at(2), at(5), 3, 1, 1, 0},
      {"child", at(8), at(9), 4, 1, 1, 0},
      {"child", at(9), at(12), 5, 1, 1, 0},
      {"grandchild", at(2), at(3), 6, 3, 1, 0},
  };
  const std::map<uint64_t, double> self = SelfTimesMs(spans);
  EXPECT(std::fabs(self.at(1) - 4) < 1e-9);  // 10 - (4 + 1 + 1)
  EXPECT(std::fabs(self.at(3) - 2) < 1e-9);  // 3 - 1
  EXPECT(std::fabs(self.at(5) - 3) < 1e-9);  // No children.
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentileRule();
  perfbench::TestSteadyEstimators();
  perfbench::TestOpenLoopCountsStalls();
  perfbench::TestOpenLoopStopsAtDeadline();
  perfbench::TestSelfTime();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench stats self-test: %d failure(s)\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench stats self-test: ok\n");
  return 0;
}
