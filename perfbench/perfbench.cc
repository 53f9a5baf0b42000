// The serving benchmark: drives the durable report pipeline
// (src/net -> src/server -> src/protocols -> src/store) through its public
// API from one process and measures it end to end and layer by layer.
//
//   perfbench --workload <ingest|query|mixed> --seed <n> --seconds <s>
//             --trace <0|1> --work-dir <dir>
//
// run.py builds this binary from the repository's sources and is the
// command to run; see BENCHMARK.json for the metrics and their bounds.
//
// The server side runs at code defaults except for deployment settings: a
// store directory, an ephemeral loopback port and `sink_threads = 1`
// (EpochManager's control surface is single-threaded). Only encoded
// reports and queries reach the program. Every correctness check runs
// outside the timed region; a failed check names itself and the run exits
// non-zero.
//
// With --trace 0 the run is timed and prints the end-to-end metrics. With
// --trace 1 it makes an untraced pass and then a traced pass over fresh
// set-ups, records spans around every call into the program (spans.h),
// writes them to <work-dir>/traces/, snapshots the registry through the
// public obs API, and prints the per-layer metrics.

#include <cpuid.h>
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/stats.h"
#include "src/common/mutex.h"
#include "src/common/random.h"
#include "src/net/report_client.h"
#include "src/obs/json_reader.h"
#include "src/obs/json_writer.h"
#include "src/obs/metrics.h"
#include "src/protocols/registry.h"
#include "src/server/epoch_manager.h"
#include "src/server/report_codec.h"
#include "src/server/report_server.h"
#include "src/store/checkpoint_store.h"
#include "src/workload/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;

namespace perfbench {
namespace {

using ldphh::Aggregator;
using ldphh::CheckpointStore;
using ldphh::CheckpointStoreOptions;
using ldphh::DomainItem;
using ldphh::EpochManager;
using ldphh::EpochManagerOptions;
using ldphh::HeavyHitterEntry;
using ldphh::Mutex;
using ldphh::MutexLock;
using ldphh::ProtocolConfig;
using ldphh::ReportServer;
using ldphh::Rng;
using ldphh::Status;
using ldphh::StatusOr;
using ldphh::WireReport;
using ldphh::net::ReportClient;

// ------------------------------------------------------------- settings --

/// Generator threads and connections per workload never exceed this: the
/// vCPU count of the box the bounds were set on.
constexpr int kMaxGeneratorThreads = 4;
/// Reports encoded per set-up. Frames are cut from this fixed pool and
/// replayed in a seeded order, so set-up cost does not grow with run length.
constexpr uint64_t kPoolReports = 1 << 18;
constexpr size_t kTopK = 10;
/// Set-ups per timed run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// A run still going after this long fails, naming its phase.
constexpr std::chrono::seconds kRunDeadline{150};
/// Window sizes (in epochs) of every windowed query.
constexpr uint64_t kWindowSizes[] = {1, 8, 64};

// Workload `ingest` loads the write path and bypasses the read path: a
// closed loop of 2 pipelined TCP ReportClients feeding PES reports into a
// durable EpochManager, no queries. Frame -> decode -> shard queue ->
// Aggregate -> epoch close -> store append/fsync. Layers: net.send_us_p50,
// net.busy_retry_ratio, server.frame_us_p50, server.close_frame_ms_*,
// server.sink_busy_frac, server.decode_us_p50, server.aggregate_us_p50,
// store.bytes_per_report, store.compactions.
/// PES at its defaults: n_hint 65536 is also the default epoch size.
constexpr char kPesConfig[] = "private_expander_sketch(domain_bits=32,eps=4)";
constexpr int kPesDomainBits = 32;
constexpr uint64_t kZipfItems = 4096;
constexpr double kZipfExponent = 1.1;
constexpr size_t kIngestFrameReports = 512;
constexpr int kIngestClients = 2;

// Workload `query` loads the read path and bypasses the write path: 2
// closed-loop threads run WindowedQuery + EstimateTopK(10) over PES epochs
// persisted during set-up. Windows of {1, 8, 64} epochs end at seeded
// epochs, so windows recur. Merge-bound: store Get, RestoreState and Merge
// (and any cache of immutable closed epochs). Layers:
// server.window_merge_ms_p50, store.get_us_p50,
// protocols.state_bytes_per_epoch, harness.repeat_window_frac.
// BENCHMARK.json does not list it: on a shared 4-vCPU box its median
// latency moved by 29-45% and its peak RSS by 25% (quartile spread over ten
// seeds) between runs of the same code, wider than any bound the gate
// allows; the query latency within a run splits into modes (a 64-epoch
// merge took about 12 or about 20 ms) whose mix changes from run to run.
// `mixed` measures the same read-path layers under the gate.
/// PES sized for one epoch (n_hint = reports per epoch), as a deployment
/// closing epochs of this size would configure it.
constexpr char kQueryPesConfig[] =
    "private_expander_sketch(domain_bits=32,eps=4,n_hint=4096)";
constexpr size_t kQueryFrameReports = 512;
constexpr uint64_t kQueryEpochReports = 4096;
constexpr uint64_t kQueryEpochs = 128;
constexpr int kQueryThreads = 2;
/// Each query thread's answers at these query indices are compared with
/// references built at set-up.
constexpr uint64_t kSampledQueryStride = 8;
constexpr uint64_t kSampledQueriesPerThread = 8;

// Workload `mixed` puts writes beside reads: hashtogram over a 2^14
// domain, where the EstimateTopK domain scan dominates the merge. Ingest
// arrives open-loop at a fixed rate (about half what the box sustains) on
// 2 connections, queries open-loop at a fixed rate on 2 threads, windows
// of {1, 8, 64} always ending at the newest closed epoch. Epoch closes and
// fsyncs compete with decode CPU, and every query sees a newer epoch than
// a memoised answer would hold. With 2048-report frames and the default
// 2^16-report epoch, 1 frame in 32 (3.1%) closes an epoch, so ack p99
// lands inside the epoch-close mode (near its 70th percentile). Durable
// hashtogram ingest runs at about 0.8-0.95M reports/s on a 4-vCPU 2.0 GHz
// Xeon; the offered rate is half that. Epochs close about 6 times a
// second against 10 queries, so some windows recur
// (harness.repeat_window_frac); smaller epochs close more often but make
// the store's compactions rewrite more and the ack tail unsteady. Layers: server.frame_us_p50,
// server.close_frame_ms_*, store.syncs_per_epoch, store.sync_ms_p50,
// store.bytes_per_report, protocols.topk_ms_p50, harness.gen_late_p99_ms.
constexpr char kHashtogramConfig[] = "hashtogram(domain_bits=14,eps=2)";
constexpr int kHashtogramDomainBits = 14;
constexpr size_t kMixedFrameReports = 2048;
/// Epochs persisted at set-up so a 64-epoch window exists from the start.
constexpr uint64_t kMixedPrefillEpochs = 64;
constexpr int kMixedSenders = 2;
constexpr int kMixedQueryThreads = 2;
constexpr double kMixedReportsPerSecond = 400000;
constexpr double kMixedQueriesPerSecond = 10;

// ------------------------------------------------------------- helpers --

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;
};

/// Kills a run that outlives its deadline, naming the phase it was in.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : deadline_(Clock::now() + limit), thread_([this] { Loop(); }) {}
  ~Watchdog() {
    {
      MutexLock lock(&mu_);
      stop_ = true;
      cv_.SignalAll();
    }
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void Phase(const char* phase) { phase_.store(phase); }

 private:
  void Loop() {
    MutexLock lock(&mu_);
    while (!stop_) {
      if (Clock::now() >= deadline_) {
        std::fprintf(stderr,
                     "perfbench: watchdog: run past its deadline in phase "
                     "'%s'\n",
                     phase_.load());
        std::fflush(stderr);
        std::_Exit(3);
      }
      cv_.TimedWait(std::chrono::milliseconds(200));
    }
  }

  const Clock::time_point deadline_;
  std::atomic<const char*> phase_{"start"};
  Mutex mu_;
  ldphh::CondVar cv_{&mu_};
  bool stop_ GUARDED_BY(mu_) = false;
  std::thread thread_;  ///< Declared last: starts after the state it reads.
};

Watchdog* g_watchdog = nullptr;
void Phase(const char* phase) {
  if (g_watchdog != nullptr) g_watchdog->Phase(phase);
}

/// Correctness checks of one pass; any failure fails the run.
class Checks {
 public:
  void Expect(bool ok, const std::string& name, const std::string& detail) {
    if (ok) return;
    std::fprintf(stderr, "perfbench: check failed: %s: %s\n", name.c_str(),
                 detail.c_str());
    failed_.push_back(name);
  }
  void ExpectOk(const Status& s, const std::string& name) {
    Expect(s.ok(), name, s.ToString());
  }
  const std::vector<std::string>& failed() const { return failed_; }

 private:
  std::vector<std::string> failed_;
};

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

template <typename T>
T ValueOrDie(StatusOr<T> v, const std::string& what) {
  if (!v.ok()) Die(what, v.status());
  return std::move(v).value();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

bool SameTopK(const std::vector<HeavyHitterEntry>& a,
              const std::vector<HeavyHitterEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].item == b[i].item) || a[i].estimate != b[i].estimate) {
      return false;
    }
  }
  return true;
}

/// Seeded sequence of window sizes: each block of three is a permutation
/// of kWindowSizes, so every run queries the same mix.
std::vector<uint64_t> WindowSizeSequence(Rng& rng, size_t n) {
  std::vector<uint64_t> sizes;
  sizes.reserve(n + 3);
  while (sizes.size() < n) {
    std::vector<uint64_t> block(std::begin(kWindowSizes),
                                std::end(kWindowSizes));
    for (size_t i = block.size(); i > 1; --i) {
      std::swap(block[i - 1], block[rng.UniformU64(i)]);
    }
    sizes.insert(sizes.end(), block.begin(), block.end());
  }
  sizes.resize(n);
  return sizes;
}

std::vector<size_t> SeededPermutation(size_t n, Rng& rng) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.UniformU64(i)]);
  return p;
}

/// The batch header's CRC of a frame's payload: what the sink sees, so a
/// sink span can be linked to the frame that carried it.
uint32_t FrameCrc(std::string_view frame) {
  uint32_t crc = 0;
  if (frame.size() >= ldphh::kReportBatchHeaderSize) {
    std::memcpy(&crc, frame.data() + ldphh::kReportBatchHeaderSize - 4, 4);
  }
  return crc;
}

// ---------------------------------------------------------------- pool --

/// Pre-encoded frames of one set-up.
struct Pool {
  ProtocolConfig config;
  std::vector<std::string> frames;
  std::vector<std::vector<WireReport>> frame_reports;
  DomainItem heaviest;
  double encode_ns_per_report = 0;
};

/// Encodes \p workload's database with up to kMaxGeneratorThreads threads
/// (each a fixed slice with its own seeded Rng, so the pool depends on the
/// seed only) and cuts it into frames of \p per_frame reports.
Pool BuildPool(const std::string& config_text, const ldphh::Workload& workload,
               size_t per_frame, uint64_t seed, Tracer* tracer) {
  Phase("setup.encode");
  Pool pool;
  pool.config = ValueOrDie(ProtocolConfig::FromText(config_text), "config");
  pool.heaviest = workload.heavy.front().first;
  const uint16_t wire_id = ValueOrDie(
      ldphh::ProtocolRegistry::Global().WireIdOf(pool.config.protocol()),
      "wire id");
  const size_t n = workload.database.size();
  std::vector<WireReport> reports(n);
  std::vector<double> thread_ns(kMaxGeneratorThreads, 0);
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  const uint64_t request = tracer != nullptr ? tracer->NewId() : 0;
  for (int t = 0; t < kMaxGeneratorThreads; ++t) {
    SpanBuffer* spans = tracer != nullptr ? tracer->NewBuffer() : nullptr;
    threads.emplace_back([&, t, spans] {
      auto client = ldphh::CreateAggregator(pool.config);
      if (!client.ok()) {
        ok.store(false);
        return;
      }
      Rng rng(seed * 1000003 + static_cast<uint64_t>(t));
      const size_t lo = n * static_cast<size_t>(t) / kMaxGeneratorThreads;
      const size_t hi = n * static_cast<size_t>(t + 1) / kMaxGeneratorThreads;
      const Clock::time_point start = Clock::now();
      for (size_t i = lo; i < hi; ++i) {
        auto r = client.value()->Encode(i, workload.database[i], rng);
        if (!r.ok()) {
          ok.store(false);
          return;
        }
        reports[i] = r.value();
      }
      const Clock::time_point end = Clock::now();
      thread_ns[static_cast<size_t>(t)] =
          std::chrono::duration<double, std::nano>(end - start).count();
      if (spans != nullptr) {
        spans->Add({"protocols.encode", start, end, tracer->NewId(), 0,
                    request, hi - lo});
      }
    });
  }
  for (std::thread& th : threads) th.join();
  if (!ok.load()) Die("encode", Status::Internal("Encode failed"));
  double total_ns = 0;
  for (double ns : thread_ns) total_ns += ns;
  pool.encode_ns_per_report = total_ns / static_cast<double>(n);
  for (size_t lo = 0; lo < n; lo += per_frame) {
    const size_t hi = std::min(n, lo + per_frame);
    pool.frame_reports.emplace_back(reports.begin() + lo, reports.begin() + hi);
    pool.frames.push_back(
        ldphh::EncodeReportBatch(pool.frame_reports.back(), wire_id));
  }
  return pool;
}

/// Single-threaded direct aggregation of frames \p counts[i] times each:
/// the reference every served answer must equal bit for bit.
std::vector<HeavyHitterEntry> DirectTopK(const ProtocolConfig& config,
                                         const Pool& pool,
                                         const std::vector<uint64_t>& counts) {
  auto agg = ValueOrDie(ldphh::CreateAggregator(config), "reference");
  for (size_t f = 0; f < counts.size(); ++f) {
    for (uint64_t c = 0; c < counts[f]; ++c) {
      for (const WireReport& r : pool.frame_reports[f]) {
        Status s = agg->Aggregate(r);
        if (!s.ok()) Die("reference aggregate", s);
      }
    }
  }
  return ValueOrDie(agg->EstimateTopK(kTopK), "reference top-k");
}

// ----------------------------------------------------------- the stack --

/// Wraps EpochManager::SubmitWire as the server's sink. Runs only on the
/// single sink thread, which is EpochManager's control thread; publishes
/// the newest closed epoch for the query threads. Traced, it also times
/// every call and records a server.submit_wire span.
class SinkProbe {
 public:
  SinkProbe(EpochManager* manager, Tracer* tracer)
      : manager_(manager),
        tracer_(tracer),
        spans_(tracer != nullptr ? tracer->NewBuffer() : nullptr) {
    Publish();
  }

  Status operator()(std::string_view payload) {
    if (tracer_ == nullptr) {
      Status s = manager_->SubmitWire(payload);
      Publish();
      return s;
    }
    const uint64_t before = manager_->current_epoch();
    const Clock::time_point start = Clock::now();
    Status s = manager_->SubmitWire(payload);
    const Clock::time_point end = Clock::now();
    const bool rolled = manager_->current_epoch() != before;
    Publish();
    spans_->Add({rolled ? "server.submit_wire.close" : "server.submit_wire",
                 start, end, tracer_->NewId(), 0, 0, FrameCrc(payload)});
    return s;
  }

  /// The open epoch as of the last frame, readable from any thread.
  uint64_t current_epoch() const {
    return current_epoch_.load(std::memory_order_acquire);
  }
  /// Newest closed epoch (kNone before the first close).
  static constexpr uint64_t kNone = UINT64_MAX;
  uint64_t newest_closed() const {
    const uint64_t current = current_epoch();
    return current == 0 ? kNone : current - 1;
  }

 private:
  void Publish() {
    current_epoch_.store(manager_->current_epoch(), std::memory_order_release);
  }

  EpochManager* const manager_;
  Tracer* const tracer_;
  SpanBuffer* const spans_;
  std::atomic<uint64_t> current_epoch_{0};
};

/// Store, epoch manager and (optionally) the TCP server of one set-up.
/// Teardown runs server -> EpochManager -> CheckpointStore and removes the
/// directory only after the store is closed: a store whose directory is
/// deleted while it is open can hang in its destructor.
struct Stack {
  std::string dir;
  std::unique_ptr<CheckpointStore> store;
  std::unique_ptr<EpochManager> manager;
  std::unique_ptr<SinkProbe> probe;
  std::unique_ptr<ReportServer> server;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { Teardown(); }

  void Teardown() {
    Phase("teardown.server");
    if (server != nullptr) server->Stop();
    server.reset();
    probe.reset();
    Phase("teardown.manager");
    manager.reset();
    Phase("teardown.store");
    store.reset();
    Phase("teardown.dir");
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
      dir.clear();
    }
  }
};

void OpenStack(Stack* stack, const std::string& dir) {
  Phase("setup.store");
  std::error_code ec;
  fs::remove_all(dir, ec);  // Left behind by a run the watchdog ended.
  stack->dir = dir;
  stack->store = ValueOrDie(
      CheckpointStore::Open(dir, CheckpointStoreOptions{}), "store open");
}

/// Starts an EpochManager over the stack's store (code defaults except
/// the epoch size when \p reports_per_epoch is non-zero).
void StartManager(Stack* stack, const ProtocolConfig& config,
                  uint64_t reports_per_epoch) {
  Phase("setup.manager");
  EpochManagerOptions options;
  if (reports_per_epoch != 0) options.reports_per_epoch = reports_per_epoch;
  stack->manager = ValueOrDie(
      EpochManager::Create(config, stack->store.get(), options), "manager");
  Status s = stack->manager->Start();
  if (!s.ok()) Die("manager start", s);
}

void StartServer(Stack* stack, Tracer* tracer) {
  Phase("setup.server");
  stack->probe = std::make_unique<SinkProbe>(stack->manager.get(), tracer);
  ReportServer::Options options;
  options.port = 0;
  options.sink_threads = 1;
  SinkProbe* probe = stack->probe.get();
  stack->server = ValueOrDie(
      ReportServer::Create(options,
                           [probe](std::string_view p) { return (*probe)(p); }),
      "server");
  Status s = stack->server->Start();
  if (!s.ok()) Die("server start", s);
}

/// Submits frames in process (set-up only), checking every one.
void Prefill(EpochManager* manager, const Pool& pool,
             const std::vector<size_t>& order) {
  Phase("setup.prefill");
  for (size_t f : order) {
    Status s = manager->SubmitWire(pool.frames[f]);
    if (!s.ok()) Die("prefill", s);
  }
}

// ------------------------------------------------------------ registry --

/// Family totals of the registry instruments the per-layer metrics read,
/// through the public JSON dump (labelled instances summed by base name).
struct RegistrySnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, std::map<uint64_t, uint64_t>> buckets;  // le->count
};

RegistrySnapshot SnapshotRegistry() {
  RegistrySnapshot snap;
  ldphh::obs::JsonValue root;
  Status s = ldphh::obs::ParseJson(
      ldphh::obs::MetricsRegistry::Global().DumpJson(), &root);
  if (!s.ok()) Die("registry snapshot", s);
  const ldphh::obs::JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr || !metrics->is_array()) return snap;
  for (const ldphh::obs::JsonValue& m : metrics->array) {
    const ldphh::obs::JsonValue* name = m.Find("name");
    const ldphh::obs::JsonValue* type = m.Find("type");
    if (name == nullptr || type == nullptr) continue;
    const std::string base(ldphh::obs::BaseName(name->string_value));
    if (type->string_value == "histogram") {
      const ldphh::obs::JsonValue* buckets = m.Find("buckets");
      if (buckets == nullptr) continue;
      for (const ldphh::obs::JsonValue& b : buckets->array) {
        const ldphh::obs::JsonValue* le = b.Find("le");
        const ldphh::obs::JsonValue* count = b.Find("count");
        if (le == nullptr || count == nullptr) continue;
        snap.buckets[base][static_cast<uint64_t>(le->number_value)] +=
            static_cast<uint64_t>(count->number_value);
      }
    } else {
      const ldphh::obs::JsonValue* value = m.Find("value");
      if (value != nullptr) snap.counters[base] += value->number_value;
    }
  }
  return snap;
}

double CounterDelta(const RegistrySnapshot& before,
                    const RegistrySnapshot& after, const std::string& name) {
  auto value = [&name](const RegistrySnapshot& s) {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

/// Observations of histogram \p name between two snapshots, and their
/// quantile \p q (bucket midpoint, as the registry's own dump estimates).
struct HistogramDelta {
  uint64_t count = 0;
  double quantile = 0;
};

HistogramDelta HistogramDeltaQuantile(const RegistrySnapshot& before,
                                      const RegistrySnapshot& after,
                                      const std::string& name, double q) {
  HistogramDelta out;
  std::map<uint64_t, uint64_t> delta;
  auto a = after.buckets.find(name);
  if (a == after.buckets.end()) return out;
  auto b = before.buckets.find(name);
  for (const auto& [le, count] : a->second) {
    uint64_t prior = 0;
    if (b != before.buckets.end()) {
      auto it = b->second.find(le);
      if (it != b->second.end()) prior = it->second;
    }
    if (count > prior) {
      delta[le] = count - prior;
      out.count += count - prior;
    }
  }
  if (out.count == 0) return out;
  const double target = q * static_cast<double>(out.count);
  uint64_t cumulative = 0;
  for (const auto& [le, count] : delta) {
    cumulative += count;
    if (static_cast<double>(cumulative) >= target) {
      const int index = ldphh::obs::Histogram::BucketOf(le);
      const double lower =
          static_cast<double>(ldphh::obs::Histogram::BucketLower(index));
      out.quantile = (lower + static_cast<double>(le)) / 2;
      break;
    }
  }
  return out;
}

// -------------------------------------------------------------- passes --

/// One measured pass of a workload (a timed run makes one; a traced run
/// makes an untraced and a traced one).
struct PassResult {
  double setup_s = 0;
  /// End-to-end metrics under the names the workloads define them by.
  std::map<std::string, std::pair<double, std::string>> e2e;
  /// Per-layer metrics (filled on traced passes).
  std::map<std::string, double> layer;
  /// Sample count behind each reported percentile.
  std::map<std::string, uint64_t> samples;
  /// How each percentile was estimated (stats.h SteadyPercentile).
  std::map<std::string, std::string> estimators;
  /// The gated metric set of BENCHMARK.json, which every workload reports:
  /// its work rate and the median and tail latency of its gated operation
  /// (ingest: frame acks; query and mixed: queries). The workloads' own
  /// names for these figures are in `e2e`.
  double ops_per_s = 0;
  double op_p50_ms = 0;
  double op_tail_ms = 0;
  std::string op_tail_name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Peak RSS at the end of the timed phase, before the checks allocate.
  double peak_rss_mb = 0;
  std::vector<std::string> failed_checks;
  std::vector<std::pair<std::string, std::string>> meta;
  /// The workload's primary metric and its direction, for the tracing
  /// overhead.
  double primary = 0;
  bool primary_higher_is_better = true;
};

void SetE2e(PassResult* r, const std::string& name, double value,
            const std::string& unit) {
  r->e2e[name] = {value, unit};
}

/// Records a steady latency percentile (stats.h) with its sample counts; a
/// percentile the whole run cannot support fails the run (the run lengths
/// and rates are sized so that it never should).
double ReportPercentile(PassResult* r, Checks* checks, const std::string& name,
                        const std::vector<TimedSample>& samples, double run_s,
                        double p) {
  const SteadyEstimate e = SteadyPercentile(samples, run_s, p);
  r->samples[name] = e.samples;
  r->samples[name + ".min_per_interval"] = e.min_interval_samples;
  char ladder[48];
  std::snprintf(ladder, sizeof(ladder), "; highest supported p%g",
                HighestSupportedPercentile(e.samples));
  r->estimators[name] =
      std::string(e.by_interval ? "interval_median" : "whole_run") + ladder;
  checks->Expect(SupportsPercentile(e.samples, p), "percentile_support",
                 name + " from " + std::to_string(e.samples) +
                     " samples has fewer than 10 beyond it");
  return e.value;
}

/// Times \p setup kSetupRepeats (or once) and keeps the last result.
template <typename Fixture, typename SetupFn>
std::unique_ptr<Fixture> TimedSetup(int repeats, SetupFn setup,
                                    double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < repeats; ++i) {
    if (fixture != nullptr) {
      fixture.reset();  // Orderly teardown of the previous set-up.
      // Hand the freed set-up back to the OS, so the peak RSS is that of
      // one set-up and its run, not of heap left over from the last one.
      malloc_trim(0);
    }
    const Clock::time_point start = Clock::now();
    fixture = setup();
    times.push_back(SecondsSince(start));
  }
  *setup_s = Median(times);
  return fixture;
}

/// Full-window checks after the stack is closed: every persisted report
/// accounted for, the served answer equal to direct aggregation, and the
/// heaviest item on top.
void CheckFullWindow(EpochManager* manager, const Pool& pool,
                     const std::vector<uint64_t>& frame_counts,
                     Checks* checks) {
  Phase("check.full_window");
  uint64_t expected_reports = 0;
  for (size_t f = 0; f < frame_counts.size(); ++f) {
    expected_reports += frame_counts[f] * pool.frame_reports[f].size();
  }
  const std::vector<uint64_t> epochs = manager->PersistedEpochs();
  if (epochs.empty()) {
    checks->Expect(false, "reports_persisted", "no epoch persisted");
    return;
  }
  checks->Expect(epochs.back() - epochs.front() + 1 == epochs.size(),
                 "reports_persisted", "persisted epochs are not contiguous");
  auto merged = manager->WindowedQuery(epochs.front(), epochs.back());
  if (!merged.ok()) {
    checks->ExpectOk(merged.status(), "full_window_query");
    return;
  }
  checks->Expect(merged.value()->ReportCount() == expected_reports,
                 "reports_persisted",
                 std::to_string(merged.value()->ReportCount()) +
                     " reports persisted, " +
                     std::to_string(expected_reports) + " sent");
  auto served = merged.value()->EstimateTopK(kTopK);
  if (!served.ok()) {
    checks->ExpectOk(served.status(), "full_window_query");
    return;
  }
  Phase("check.direct_aggregation");
  const std::vector<HeavyHitterEntry> direct =
      DirectTopK(manager->config(), pool, frame_counts);
  checks->Expect(SameTopK(served.value(), direct), "exact_full_window",
                 "full-window top-k differs from direct aggregation");
  checks->Expect(!served.value().empty() &&
                     served.value().front().item == pool.heaviest,
                 "top1_heaviest", "heaviest item is not top-1");
}

/// Reads back per-layer figures of the traced spans.
struct SpanStats {
  std::map<std::string, std::vector<double>> durations_ms;
  std::map<std::string, std::vector<double>> self_ms;
  std::map<std::string, std::vector<double>> args;
};

SpanStats LinkAndSummarize(Tracer* tracer, const std::string& path,
                           Clock::time_point origin,
                           std::vector<std::pair<std::string, std::string>>*
                               meta) {
  std::vector<SpanRecord> spans = tracer->All();
  // Frames are replayed from a fixed pool, so a sink span is linked to its
  // frame by the batch CRC: the n-th sink call carrying a CRC belongs to
  // the n-th frame sent with it.
  std::map<uint64_t, std::vector<SpanRecord*>> frames_by_crc;
  for (SpanRecord& s : spans) {
    if (std::strcmp(s.name, "gen.frame") == 0) {
      frames_by_crc[s.arg].push_back(&s);
    }
  }
  std::map<uint64_t, size_t> next;
  uint64_t linked = 0, unlinked = 0;
  for (SpanRecord& s : spans) {
    if (std::strncmp(s.name, "server.submit_wire", 18) != 0) continue;
    auto it = frames_by_crc.find(s.arg);
    size_t& n = next[s.arg];
    if (it == frames_by_crc.end() || n >= it->second.size()) {
      ++unlinked;
      continue;
    }
    s.parent = it->second[n]->id;
    s.request = it->second[n]->request;
    ++n;
    ++linked;
  }
  SpanStats stats;
  const std::map<uint64_t, double> self = SelfTimesMs(spans);
  for (const SpanRecord& s : spans) {
    stats.durations_ms[s.name].push_back(Ms(s.end - s.start));
    stats.self_ms[s.name].push_back(self.at(s.id));
    stats.args[s.name].push_back(static_cast<double>(s.arg));
  }
  meta->emplace_back("trace_file", path);
  meta->emplace_back("trace_spans", std::to_string(spans.size()));
  meta->emplace_back("trace_sink_spans_linked", std::to_string(linked));
  meta->emplace_back("trace_sink_spans_unlinked", std::to_string(unlinked));
  if (!WriteSpans(path, spans, origin)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  return stats;
}

double P50(std::map<std::string, std::vector<double>>& m,
           const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : Median(it->second);
}

/// Peak resident set of this process, MiB.
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------ write-path layers --

/// Per-layer figures shared by the two ingesting workloads, from the sink
/// spans, the client stats and a registry delta around the timed phase.
void WritePathLayers(PassResult* r, SpanStats& spans,
                     const RegistrySnapshot& before,
                     const RegistrySnapshot& after, double wall_s,
                     uint64_t reports, uint64_t epochs_closed,
                     uint64_t compactions, uint64_t busy_retries,
                     uint64_t frames_acked, const Pool& pool,
                     const ProtocolConfig& config) {
  std::vector<double>& frame = spans.durations_ms["server.submit_wire"];
  std::vector<double>& close = spans.durations_ms["server.submit_wire.close"];
  double busy_ms = 0;
  for (double v : frame) busy_ms += v;
  for (double v : close) busy_ms += v;
  r->layer["server.frame_us_p50"] = Median(frame) * 1000;
  r->layer["server.close_frame_ms_p50"] = Median(close);
  r->layer["server.close_frame_ms_max"] =
      close.empty() ? 0 : *std::max_element(close.begin(), close.end());
  r->samples["server.frame_us_p50"] = frame.size();
  r->samples["server.close_frame_ms_p50"] = close.size();
  r->layer["server.sink_busy_frac"] = busy_ms / 1000 / wall_s;
  r->layer["net.busy_retry_ratio"] =
      frames_acked == 0 ? 0
                        : static_cast<double>(busy_retries) /
                              static_cast<double>(frames_acked);

  const HistogramDelta decode = HistogramDeltaQuantile(
      before, after, "ldphh_ingest_wire_decode_duration_ns", 0.5);
  if (decode.count > 0) {
    r->layer["server.decode_us_p50"] = decode.quantile / 1000;
    r->meta.emplace_back("decode_source",
                         "registry ldphh_ingest_wire_decode_duration_ns");
  } else {
    // EpochManager::SubmitWire decodes without observing the registry's
    // decode histogram (only ShardedAggregator::SubmitWire does), so time
    // the same public decode call on the pool's frames instead.
    std::vector<double> us;
    const uint16_t wire_id = ValueOrDie(
        ldphh::ProtocolRegistry::Global().WireIdOf(config.protocol()), "id");
    for (const std::string& f : pool.frames) {
      std::vector<WireReport> out;
      out.reserve(pool.frame_reports.front().size());
      const Clock::time_point start = Clock::now();
      Status s = ldphh::DecodeReportBatchFor(f, wire_id, config.protocol(),
                                             &out);
      us.push_back(Ms(Clock::now() - start) * 1000);
      if (!s.ok()) Die("decode", s);
    }
    r->layer["server.decode_us_p50"] = Median(us);
    r->meta.emplace_back(
        "decode_source",
        "DecodeReportBatchFor timed on the pool frames: the registry decode "
        "histogram saw no observations on this path");
  }
  const HistogramDelta aggregate = HistogramDeltaQuantile(
      before, after, "ldphh_ingest_batch_aggregate_duration_ns", 0.5);
  r->layer["server.aggregate_us_p50"] = aggregate.quantile / 1000;
  r->samples["server.aggregate_us_p50"] = aggregate.count;

  const HistogramDelta sync = HistogramDeltaQuantile(
      before, after, "ldphh_log_sync_duration_ns", 0.5);
  r->layer["store.sync_ms_p50"] = sync.quantile / 1e6;
  r->layer["store.syncs_per_epoch"] =
      epochs_closed == 0 ? 0
                         : static_cast<double>(sync.count) /
                               static_cast<double>(epochs_closed);
  r->samples["store.sync_ms_p50"] = sync.count;
  r->layer["store.bytes_per_report"] =
      reports == 0 ? 0
                   : CounterDelta(before, after,
                                  "ldphh_store_appended_bytes_total") /
                         static_cast<double>(reports);
  r->layer["store.compactions"] = static_cast<double>(compactions);
}

// -------------------------------------------------------------- ingest --

/// What the ingesting workloads set up: the frame pool and a serving stack.
struct ServingFixture {
  Pool pool;
  Stack stack;
};

PassResult RunIngest(const Options& opt, bool traced, int setup_repeats) {
  PassResult r;
  Checks checks;
  Tracer tracer;
  Tracer* t = traced ? &tracer : nullptr;
  const std::string dir = opt.work_dir + "/ingest-store";
  auto fx = TimedSetup<ServingFixture>(
      setup_repeats,
      [&] {
        auto f = std::make_unique<ServingFixture>();
        const ldphh::Workload w = ldphh::MakeZipfWorkload(
            kPoolReports, kPesDomainBits, kZipfItems, kZipfExponent, opt.seed);
        f->pool = BuildPool(kPesConfig, w, kIngestFrameReports, opt.seed, t);
        OpenStack(&f->stack, dir);
        StartManager(&f->stack, f->pool.config, 0);
        StartServer(&f->stack, t);
        return f;
      },
      &r.setup_s);
  const Pool& pool = fx->pool;
  const uint16_t port = fx->stack.server->port();
  const uint64_t first_epoch = fx->stack.manager->current_epoch();
  const uint64_t compactions_before = fx->stack.store->Stats().compactions;

  struct Client {
    std::vector<TimedSample> ack_ms;
    std::vector<TimedSample> acked_reports;
    std::vector<uint64_t> sent;  // frame index per send
    uint64_t frames_acked = 0, busy_retries = 0, rejected = 0, reconnects = 0;
    Status status;
  };
  std::vector<Client> clients(kIngestClients);
  Phase("run.ingest");
  const RegistrySnapshot before = traced ? SnapshotRegistry() : RegistrySnapshot{};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(opt.seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < kIngestClients; ++c) {
    SpanBuffer* spans = traced ? tracer.NewBuffer() : nullptr;
    threads.emplace_back([&, c, spans] {
      Client& me = clients[static_cast<size_t>(c)];
      Rng rng(opt.seed * 7919 + static_cast<uint64_t>(c));
      const std::vector<size_t> order =
          SeededPermutation(pool.frames.size(), rng);
      auto client_or =
          ReportClient::ConnectTcp("127.0.0.1", port, ReportClient::Options{});
      if (!client_or.ok()) {
        me.status = client_or.status();
        return;
      }
      auto client = std::move(client_or).value();
      std::vector<Clock::time_point> sent_at;
      std::vector<uint64_t> frame_ids;
      sent_at.reserve(1 << 16);
      me.ack_ms.reserve(1 << 16);
      size_t stamped = 0;
      // Acks arrive in send order, so when frames_acked reaches k every
      // frame before k has its ack; it is stamped at the first return from
      // the client after that (within one Send of the true ack).
      auto stamp = [&](Clock::time_point now) {
        const uint64_t acked = client->stats().frames_acked;
        for (; stamped < acked && stamped < sent_at.size(); ++stamped) {
          const double at_s = std::chrono::duration<double>(now - start).count();
          me.ack_ms.push_back({at_s, Ms(now - sent_at[stamped])});
          me.acked_reports.push_back(
              {at_s, static_cast<double>(
                         pool.frame_reports[me.sent[stamped]].size())});
          if (spans != nullptr) {
            const size_t f = me.sent[stamped];
            spans->Add({"gen.frame", sent_at[stamped], now,
                        frame_ids[stamped], 0, frame_ids[stamped],
                        FrameCrc(pool.frames[f])});
          }
        }
      };
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        const size_t f = order[i % order.size()];
        const Clock::time_point t0 = Clock::now();
        sent_at.push_back(t0);
        me.sent.push_back(f);
        if (spans != nullptr) frame_ids.push_back(tracer.NewId());
        me.status = client->Send(pool.frames[f]);
        const Clock::time_point t1 = Clock::now();
        if (spans != nullptr) {
          spans->Add({"net.send", t0, t1, tracer.NewId(), frame_ids.back(),
                      frame_ids.back(), 0});
        }
        if (!me.status.ok()) break;
        stamp(t1);
      }
      if (me.status.ok()) me.status = client->Flush();
      stamp(Clock::now());
      me.frames_acked = client->stats().frames_acked;
      me.busy_retries = client->stats().busy_retries;
      me.rejected = client->stats().frames_rejected;
      me.reconnects = client->stats().reconnects;
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall_s = SecondsSince(start);
  r.peak_rss_mb = PeakRssMb();
  const RegistrySnapshot after = traced ? SnapshotRegistry() : RegistrySnapshot{};
  const uint64_t epochs_closed =
      fx->stack.probe->current_epoch() - first_epoch;
  const uint64_t compactions =
      fx->stack.store->Stats().compactions - compactions_before;

  Phase("check.acks");
  std::vector<TimedSample> ack_ms, acked_reports;
  std::vector<uint64_t> frame_counts(pool.frames.size(), 0);
  uint64_t sent = 0, acked = 0, busy = 0, rejected = 0, reconnects = 0;
  for (Client& c : clients) {
    checks.ExpectOk(c.status, "client_status");
    ack_ms.insert(ack_ms.end(), c.ack_ms.begin(), c.ack_ms.end());
    acked_reports.insert(acked_reports.end(), c.acked_reports.begin(),
                         c.acked_reports.end());
    for (uint64_t f : c.sent) ++frame_counts[f];
    sent += c.sent.size();
    acked += c.frames_acked;
    busy += c.busy_retries;
    rejected += c.rejected;
    reconnects += c.reconnects;
  }
  checks.Expect(acked == sent && rejected == 0 && reconnects == 0,
                "every_frame_acked",
                std::to_string(acked) + " of " + std::to_string(sent) +
                    " frames acked, " + std::to_string(rejected) +
                    " rejected, " + std::to_string(reconnects) +
                    " reconnects");
  uint64_t reports = 0;
  for (size_t f = 0; f < frame_counts.size(); ++f) {
    reports += frame_counts[f] * pool.frame_reports[f].size();
  }
  r.attempted = sent;
  r.failed = sent > acked ? sent - acked : 0;

  const double reports_per_s = SteadyRate(acked_reports, wall_s);
  SetE2e(&r, "ingest_reports_per_s", reports_per_s, "reports/s");
  r.ops_per_s = reports_per_s;
  // Every frame in flight waits out the epoch closes (one per 128 frames)
  // that happen during its ~50 ms round trip, so the closed-loop ack p99
  // follows the slowest closes and their compactions: it moved by 37%
  // (quartile spread over ten seeds) between runs of the same code on a
  // shared 4-vCPU box. The gate reads p90; p99 is reported.
  r.op_p50_ms =
      ReportPercentile(&r, &checks, "ack_p50_ms", ack_ms, wall_s, 50);
  r.op_tail_ms =
      ReportPercentile(&r, &checks, "ack_p90_ms", ack_ms, wall_s, 90);
  r.op_tail_name = "ack_p90_ms (sent->ack, closed loop)";
  SetE2e(&r, "ack_p50_ms", r.op_p50_ms, "ms");
  SetE2e(&r, "ack_p90_ms", r.op_tail_ms, "ms");
  SetE2e(&r, "ack_p99_ms",
         ReportPercentile(&r, &checks, "ack_p99_ms", ack_ms, wall_s, 99), "ms");
  r.primary = reports_per_s;
  r.primary_higher_is_better = true;
  r.meta.emplace_back("clients", std::to_string(kIngestClients));
  r.meta.emplace_back("connections", std::to_string(kIngestClients));
  r.meta.emplace_back("pipeline_window",
                      std::to_string(ReportClient::Options{}.pipeline_window));
  r.meta.emplace_back("reports_per_frame", std::to_string(kIngestFrameReports));
  r.meta.emplace_back("reports_per_epoch",
                      std::to_string(EpochManagerOptions{}.reports_per_epoch));
  r.meta.emplace_back("protocol", fx->stack.manager->config().ToText());
  r.meta.emplace_back("epochs_closed", std::to_string(epochs_closed));

  Phase("teardown.server");
  fx->stack.server->Stop();
  Phase("check.close");
  checks.ExpectOk(fx->stack.manager->Close(), "manager_close");
  CheckFullWindow(fx->stack.manager.get(), pool, frame_counts, &checks);

  if (traced) {
    Phase("trace.summarize");
    SpanStats spans = LinkAndSummarize(
        &tracer, opt.work_dir + "/traces/ingest-seed" +
                     std::to_string(opt.seed) + ".jsonl",
        start, &r.meta);
    r.layer["net.send_us_p50"] = P50(spans.durations_ms, "net.send") * 1000;
    r.samples["net.send_us_p50"] = spans.durations_ms["net.send"].size();
    WritePathLayers(&r, spans, before, after, wall_s, reports, epochs_closed,
                    compactions, busy, acked, pool, fx->stack.manager->config());
  }
  r.layer["protocols.encode_ns_per_report"] = pool.encode_ns_per_report;
  fx.reset();
  r.failed_checks = checks.failed();
  return r;
}

// --------------------------------------------------------------- query --

/// One windowed query, timed and (traced) split into its layers.
struct QueryOutcome {
  Status status;
  std::vector<HeavyHitterEntry> top;
};

/// WindowedQuery + EstimateTopK(10). Traced, the merge runs through
/// MergeEpochWindow (what WindowedQuery calls) with each store Get timed
/// inside the get callback.
QueryOutcome RunOneQuery(EpochManager* manager, CheckpointStore* store,
                         uint64_t first, uint64_t last, Tracer* tracer,
                         SpanBuffer* spans, uint64_t query_id,
                         Clock::time_point query_start) {
  QueryOutcome out;
  if (tracer == nullptr) {
    auto merged = manager->WindowedQuery(first, last);
    if (!merged.ok()) {
      out.status = merged.status();
      return out;
    }
    auto top = merged.value()->EstimateTopK(kTopK);
    out.status = top.status();
    if (top.ok()) out.top = std::move(top).value();
    return out;
  }
  const uint64_t merge_id = tracer->NewId();
  const Clock::time_point merge_start = Clock::now();
  auto merged = ldphh::MergeEpochWindow(
      [&](uint64_t epoch, std::string* blob) {
        const Clock::time_point t0 = Clock::now();
        Status s = store->Get(epoch, blob);
        spans->Add({"store.get", t0, Clock::now(), tracer->NewId(), merge_id,
                    query_id, blob->size()});
        return s;
      },
      first, last, &manager->config());
  const Clock::time_point merge_end = Clock::now();
  spans->Add({"server.window_merge", merge_start, merge_end, merge_id,
              query_id, query_id, last - first + 1});
  if (!merged.ok()) {
    out.status = merged.status();
    return out;
  }
  const Clock::time_point topk_start = Clock::now();
  auto top = merged.value()->EstimateTopK(kTopK);
  const Clock::time_point topk_end = Clock::now();
  spans->Add({"protocols.estimate_topk", topk_start, topk_end, tracer->NewId(),
              query_id, query_id, 0});
  spans->Add({"query", query_start, topk_end, query_id, 0, query_id,
              last - first + 1});
  out.status = top.status();
  if (top.ok()) out.top = std::move(top).value();
  return out;
}

/// Share of queries whose window was already queried earlier in the run.
double RepeatWindowFrac(
    std::vector<std::pair<Clock::time_point, std::pair<uint64_t, uint64_t>>>
        windows) {
  std::sort(windows.begin(), windows.end());
  std::set<std::pair<uint64_t, uint64_t>> seen;
  uint64_t repeats = 0;
  for (const auto& w : windows) {
    if (!seen.insert(w.second).second) ++repeats;
  }
  return windows.empty() ? 0
                         : static_cast<double>(repeats) /
                               static_cast<double>(windows.size());
}

/// Read-path layers from the traced query spans.
void ReadPathLayers(PassResult* r, SpanStats& spans) {
  // Merge self time: MergeEpochWindow wall time minus the timed Gets, that
  // is restore + merge.
  r->layer["server.window_merge_ms_p50"] =
      P50(spans.self_ms, "server.window_merge");
  r->samples["server.window_merge_ms_p50"] =
      spans.self_ms["server.window_merge"].size();
  r->layer["store.get_us_p50"] = P50(spans.durations_ms, "store.get") * 1000;
  r->samples["store.get_us_p50"] = spans.durations_ms["store.get"].size();
  r->layer["protocols.topk_ms_p50"] =
      P50(spans.durations_ms, "protocols.estimate_topk");
  r->samples["protocols.topk_ms_p50"] =
      spans.durations_ms["protocols.estimate_topk"].size();
  // A store.get span's arg is the blob size it returned.
  r->layer["protocols.state_bytes_per_epoch"] = P50(spans.args, "store.get");
}

struct QueryFixture {
  Pool pool;
  Stack stack;
  /// Frames (pool indices) aggregated into each persisted epoch.
  std::vector<std::vector<size_t>> epoch_frames;
  /// Per query thread: the window sequence, and references for the
  /// sampled queries.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> windows;
  std::vector<std::vector<std::vector<HeavyHitterEntry>>> references;
};

PassResult RunQuery(const Options& opt, bool traced, int setup_repeats) {
  PassResult r;
  Checks checks;
  Tracer tracer;
  Tracer* t = traced ? &tracer : nullptr;
  const std::string dir = opt.work_dir + "/query-store";
  // Long enough for any run: closed-loop queries never outrun this many.
  constexpr size_t kWindowsPerThread = 1 << 17;
  auto fx = TimedSetup<QueryFixture>(
      setup_repeats,
      [&] {
        auto f = std::make_unique<QueryFixture>();
        const ldphh::Workload w = ldphh::MakeZipfWorkload(
            kPoolReports, kPesDomainBits, kZipfItems, kZipfExponent, opt.seed);
        f->pool =
            BuildPool(kQueryPesConfig, w, kQueryFrameReports, opt.seed, t);
        OpenStack(&f->stack, dir);
        StartManager(&f->stack, f->pool.config, kQueryEpochReports);
        Rng rng(opt.seed * 31337);
        const size_t per_epoch = kQueryEpochReports / kQueryFrameReports;
        std::vector<size_t> order;
        while (order.size() < kQueryEpochs * per_epoch) {
          std::vector<size_t> pass = SeededPermutation(f->pool.frames.size(), rng);
          order.insert(order.end(), pass.begin(), pass.end());
        }
        order.resize(kQueryEpochs * per_epoch);
        Prefill(f->stack.manager.get(), f->pool, order);
        for (uint64_t e = 0; e < kQueryEpochs; ++e) {
          f->epoch_frames.emplace_back(order.begin() + e * per_epoch,
                                       order.begin() + (e + 1) * per_epoch);
        }
        Phase("setup.references");
        for (int q = 0; q < kQueryThreads; ++q) {
          const std::vector<uint64_t> sizes =
              WindowSizeSequence(rng, kWindowsPerThread);
          std::vector<std::pair<uint64_t, uint64_t>> seq;
          seq.reserve(sizes.size());
          for (uint64_t size : sizes) {
            const uint64_t last =
                size - 1 + rng.UniformU64(kQueryEpochs - size + 1);
            seq.emplace_back(last + 1 - size, last);
          }
          std::vector<std::vector<HeavyHitterEntry>> refs;
          for (uint64_t i = 0; i < kSampledQueriesPerThread; ++i) {
            const auto [first, last] = seq[i * kSampledQueryStride];
            std::vector<uint64_t> counts(f->pool.frames.size(), 0);
            for (uint64_t e = first; e <= last; ++e) {
              for (size_t fr : f->epoch_frames[e]) ++counts[fr];
            }
            refs.push_back(DirectTopK(f->pool.config, f->pool, counts));
          }
          f->windows.push_back(std::move(seq));
          f->references.push_back(std::move(refs));
        }
        return f;
      },
      &r.setup_s);
  EpochManager* manager = fx->stack.manager.get();
  CheckpointStore* store = fx->stack.store.get();

  struct Worker {
    std::vector<TimedSample> latency_ms;
    std::vector<std::pair<Clock::time_point, std::pair<uint64_t, uint64_t>>>
        windows;
    std::vector<std::vector<HeavyHitterEntry>> sampled;
    uint64_t failed = 0;
  };
  std::vector<Worker> workers(kQueryThreads);
  Phase("run.query");
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::seconds(opt.seconds);
  std::vector<std::thread> threads;
  for (int q = 0; q < kQueryThreads; ++q) {
    SpanBuffer* spans = traced ? tracer.NewBuffer() : nullptr;
    threads.emplace_back([&, q, spans] {
      Worker& me = workers[static_cast<size_t>(q)];
      const auto& seq = fx->windows[static_cast<size_t>(q)];
      me.latency_ms.reserve(1 << 15);
      for (size_t i = 0; i < seq.size() && Clock::now() < deadline; ++i) {
        const auto [first, last] = seq[i];
        const Clock::time_point t0 = Clock::now();
        QueryOutcome out =
            RunOneQuery(manager, store, first, last, t, spans,
                        traced ? tracer.NewId() : 0, t0);
        const Clock::time_point t1 = Clock::now();
        me.windows.push_back({t0, {first, last}});
        if (!out.status.ok()) {
          ++me.failed;
          continue;
        }
        me.latency_ms.push_back(
            {std::chrono::duration<double>(t1 - start).count(), Ms(t1 - t0)});
        if (i % kSampledQueryStride == 0 &&
            i / kSampledQueryStride < kSampledQueriesPerThread) {
          me.sampled.push_back(std::move(out.top));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall_s = SecondsSince(start);
  r.peak_rss_mb = PeakRssMb();

  Phase("check.sampled_answers");
  std::vector<TimedSample> latency_ms;
  std::vector<std::pair<Clock::time_point, std::pair<uint64_t, uint64_t>>>
      windows;
  uint64_t failed = 0;
  for (int q = 0; q < kQueryThreads; ++q) {
    Worker& w = workers[static_cast<size_t>(q)];
    latency_ms.insert(latency_ms.end(), w.latency_ms.begin(),
                      w.latency_ms.end());
    windows.insert(windows.end(), w.windows.begin(), w.windows.end());
    failed += w.failed;
    const auto& refs = fx->references[static_cast<size_t>(q)];
    checks.Expect(w.sampled.size() == refs.size(), "sampled_answers",
                  "only " + std::to_string(w.sampled.size()) +
                      " sampled queries ran");
    for (size_t i = 0; i < std::min(w.sampled.size(), refs.size()); ++i) {
      checks.Expect(SameTopK(w.sampled[i], refs[i]), "sampled_answers",
                    "thread " + std::to_string(q) + " query " +
                        std::to_string(i * kSampledQueryStride) +
                        " differs from its reference");
    }
  }
  checks.Expect(failed == 0, "queries_ok",
                std::to_string(failed) + " queries failed");
  r.attempted = windows.size();
  r.failed = failed;
  std::vector<TimedSample> answered;
  for (const TimedSample& x : latency_ms) answered.push_back({x.at_s, 1});
  const double queries_per_s = SteadyRate(answered, wall_s);
  SetE2e(&r, "queries_per_s", queries_per_s, "1/s");
  r.ops_per_s = queries_per_s;
  r.op_p50_ms =
      ReportPercentile(&r, &checks, "query_p50_ms", latency_ms, wall_s, 50);
  r.op_tail_ms =
      ReportPercentile(&r, &checks, "query_p95_ms", latency_ms, wall_s, 95);
  r.op_tail_name = "query_p95_ms (start->top-k, closed loop)";
  SetE2e(&r, "query_p50_ms", r.op_p50_ms, "ms");
  SetE2e(&r, "query_p95_ms", r.op_tail_ms, "ms");
  r.primary = r.op_p50_ms;
  r.primary_higher_is_better = false;
  r.meta.emplace_back("query_threads", std::to_string(kQueryThreads));
  r.meta.emplace_back("connections", "0");
  r.meta.emplace_back("persisted_epochs", std::to_string(kQueryEpochs));
  r.meta.emplace_back("reports_per_epoch", std::to_string(kQueryEpochReports));
  r.meta.emplace_back("protocol", manager->config().ToText());
  r.layer["harness.repeat_window_frac"] = RepeatWindowFrac(windows);

  std::vector<uint64_t> frame_counts(fx->pool.frames.size(), 0);
  for (const auto& frames : fx->epoch_frames) {
    for (size_t f : frames) ++frame_counts[f];
  }
  CheckFullWindow(manager, fx->pool, frame_counts, &checks);

  if (traced) {
    Phase("trace.summarize");
    SpanStats spans = LinkAndSummarize(
        &tracer, opt.work_dir + "/traces/query-seed" +
                     std::to_string(opt.seed) + ".jsonl",
        start, &r.meta);
    ReadPathLayers(&r, spans);
  }
  r.layer["protocols.encode_ns_per_report"] = fx->pool.encode_ns_per_report;
  fx.reset();
  r.failed_checks = checks.failed();
  return r;
}

// --------------------------------------------------------------- mixed --

PassResult RunMixed(const Options& opt, bool traced, int setup_repeats) {
  PassResult r;
  Checks checks;
  Tracer tracer;
  Tracer* t = traced ? &tracer : nullptr;
  const std::string dir = opt.work_dir + "/mixed-store";
  std::vector<size_t> prefill_order;
  auto fx = TimedSetup<ServingFixture>(
      setup_repeats,
      [&] {
        auto f = std::make_unique<ServingFixture>();
        const ldphh::Workload w = ldphh::MakePlantedWorkload(
            kPoolReports, kHashtogramDomainBits, {0.08, 0.04, 0.02, 0.01},
            opt.seed);
        f->pool = BuildPool(kHashtogramConfig, w, kMixedFrameReports, opt.seed,
                            t);
        OpenStack(&f->stack, dir);
        // Prefill 64 one-frame epochs, then reopen the epoch clock at the
        // run's epoch size.
        StartManager(&f->stack, f->pool.config, kMixedFrameReports);
        Rng rng(opt.seed * 65537);
        prefill_order = SeededPermutation(f->pool.frames.size(), rng);
        prefill_order.resize(kMixedPrefillEpochs);
        Prefill(f->stack.manager.get(), f->pool, prefill_order);
        Status s = f->stack.manager->Close();
        if (!s.ok()) Die("prefill close", s);
        f->stack.manager.reset();
        StartManager(&f->stack, f->pool.config, 0);
        StartServer(&f->stack, t);
        return f;
      },
      &r.setup_s);
  const Pool& pool = fx->pool;
  EpochManager* manager = fx->stack.manager.get();
  CheckpointStore* store = fx->stack.store.get();
  SinkProbe* probe = fx->stack.probe.get();
  const uint16_t port = fx->stack.server->port();
  const uint64_t first_epoch = manager->current_epoch();
  const uint64_t compactions_before = store->Stats().compactions;

  struct Sender {
    std::vector<OpenLoopSample> samples;
    std::vector<uint64_t> sent;
    uint64_t frames_acked = 0, busy_retries = 0, rejected = 0, reconnects = 0;
    Status status;
  };
  struct Querier {
    std::vector<OpenLoopSample> samples;
    std::vector<std::pair<Clock::time_point, std::pair<uint64_t, uint64_t>>>
        windows;
    uint64_t failed = 0;
  };
  std::vector<Sender> senders(kMixedSenders);
  std::vector<Querier> queriers(kMixedQueryThreads);
  using Dur = Clock::duration;
  const Dur frame_period = std::chrono::duration_cast<Dur>(
      std::chrono::duration<double>(kMixedSenders * kMixedFrameReports /
                                    kMixedReportsPerSecond));
  const Dur query_period = std::chrono::duration_cast<Dur>(
      std::chrono::duration<double>(kMixedQueryThreads /
                                    kMixedQueriesPerSecond));
  auto sleep_until = [](Clock::time_point due) {
    std::this_thread::sleep_until(due);
  };

  Phase("run.mixed");
  const RegistrySnapshot before = traced ? SnapshotRegistry() : RegistrySnapshot{};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point deadline = start + std::chrono::seconds(opt.seconds);
  // An overloaded system leaves a backlog of due requests; past the hard
  // deadline the generators give up on it and the unsent ones count as
  // failed.
  const Clock::time_point hard_deadline =
      deadline + std::chrono::seconds(opt.seconds) / 2;
  auto stop = [deadline, hard_deadline](Clock::time_point due) {
    return due >= deadline || Clock::now() >= hard_deadline;
  };
  // Requests of an open loop due before the deadline.
  auto due_count = [&](Dur offset, Dur period) {
    const Dur span = deadline - start - offset;
    return static_cast<uint64_t>((span + period - Dur(1)) / period);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kMixedSenders; ++c) {
    SpanBuffer* spans = traced ? tracer.NewBuffer() : nullptr;
    threads.emplace_back([&, c, spans] {
      Sender& me = senders[static_cast<size_t>(c)];
      Rng rng(opt.seed * 7919 + static_cast<uint64_t>(c));
      const std::vector<size_t> order =
          SeededPermutation(pool.frames.size(), rng);
      ReportClient::Options options;
      options.pipeline_window = 1;  // Send returns once this frame is acked.
      auto client_or = ReportClient::ConnectTcp("127.0.0.1", port, options);
      if (!client_or.ok()) {
        me.status = client_or.status();
        return;
      }
      auto client = std::move(client_or).value();
      me.samples.reserve(1 << 15);
      RunOpenLoop<Clock>(
          start, frame_period * c / kMixedSenders, frame_period, UINT64_MAX,
          sleep_until,
          [&](uint64_t k) {
            const size_t f = order[k % order.size()];
            me.sent.push_back(f);
            const Clock::time_point t0 = Clock::now();
            me.status = client->Send(pool.frames[f]);
            if (spans != nullptr) {
              const Clock::time_point due =
                  start + frame_period * c / kMixedSenders +
                  frame_period * static_cast<int64_t>(k);
              const uint64_t id = tracer.NewId();
              const Clock::time_point t1 = Clock::now();
              spans->Add({"gen.frame", due, t1, id, 0, id,
                          FrameCrc(pool.frames[f])});
              spans->Add({"net.send", t0, t1, tracer.NewId(), id, id, 0});
            }
            return me.status.ok();
          },
          stop, &me.samples);
      if (me.status.ok()) me.status = client->Flush();
      me.frames_acked = client->stats().frames_acked;
      me.busy_retries = client->stats().busy_retries;
      me.rejected = client->stats().frames_rejected;
      me.reconnects = client->stats().reconnects;
    });
  }
  for (int q = 0; q < kMixedQueryThreads; ++q) {
    SpanBuffer* spans = traced ? tracer.NewBuffer() : nullptr;
    threads.emplace_back([&, q, spans] {
      Querier& me = queriers[static_cast<size_t>(q)];
      Rng rng(opt.seed * 104729 + static_cast<uint64_t>(q));
      const std::vector<uint64_t> sizes = WindowSizeSequence(rng, 1 << 14);
      RunOpenLoop<Clock>(
          start, query_period * q / kMixedQueryThreads, query_period,
          sizes.size(), sleep_until,
          [&](uint64_t k) {
            const uint64_t last = probe->newest_closed();
            const uint64_t first = last + 1 - sizes[k];
            const Clock::time_point t0 = Clock::now();
            me.windows.push_back({t0, {first, last}});
            QueryOutcome out =
                RunOneQuery(manager, store, first, last, t, spans,
                            traced ? tracer.NewId() : 0, t0);
            if (!out.status.ok()) ++me.failed;
            return true;
          },
          stop, &me.samples);
    });
  }
  for (std::thread& th : threads) th.join();
  const double wall_s = SecondsSince(start);
  r.peak_rss_mb = PeakRssMb();
  const RegistrySnapshot after = traced ? SnapshotRegistry() : RegistrySnapshot{};
  const uint64_t epochs_closed = probe->current_epoch() - first_epoch;
  const uint64_t compactions = store->Stats().compactions - compactions_before;

  Phase("check.acks");
  std::vector<TimedSample> ack_ms, late_ms, query_ms;
  std::vector<uint64_t> frame_counts(pool.frames.size(), 0);
  for (size_t f : prefill_order) ++frame_counts[f];
  uint64_t sent = 0, acked = 0, busy = 0, rejected = 0, reconnects = 0;
  uint64_t run_reports = 0;
  for (Sender& s : senders) {
    checks.ExpectOk(s.status, "client_status");
    for (const OpenLoopSample& x : s.samples) {
      ack_ms.push_back({x.done_s, x.latency_ms});
      late_ms.push_back({x.done_s, x.late_ms});
    }
    for (uint64_t f : s.sent) {
      ++frame_counts[f];
      run_reports += pool.frame_reports[f].size();
    }
    sent += s.sent.size();
    acked += s.frames_acked;
    busy += s.busy_retries;
    rejected += s.rejected;
    reconnects += s.reconnects;
  }
  checks.Expect(acked == sent && rejected == 0 && reconnects == 0,
                "every_frame_acked",
                std::to_string(acked) + " of " + std::to_string(sent) +
                    " frames acked, " + std::to_string(rejected) +
                    " rejected, " + std::to_string(reconnects) +
                    " reconnects");
  std::vector<std::pair<Clock::time_point, std::pair<uint64_t, uint64_t>>>
      windows;
  uint64_t query_failed = 0;
  for (Querier& q : queriers) {
    for (const OpenLoopSample& x : q.samples) {
      query_ms.push_back({x.done_s, x.latency_ms});
    }
    windows.insert(windows.end(), q.windows.begin(), q.windows.end());
    query_failed += q.failed;
  }
  checks.Expect(query_failed == 0, "queries_ok",
                std::to_string(query_failed) + " queries failed");
  uint64_t frames_due = 0, queries_due = 0;
  for (int c = 0; c < kMixedSenders; ++c) {
    frames_due += due_count(frame_period * c / kMixedSenders, frame_period);
  }
  for (int q = 0; q < kMixedQueryThreads; ++q) {
    queries_due +=
        due_count(query_period * q / kMixedQueryThreads, query_period);
  }
  checks.Expect(sent == frames_due && windows.size() == queries_due,
                "every_request_sent",
                std::to_string(sent) + " of " + std::to_string(frames_due) +
                    " due frames and " + std::to_string(windows.size()) +
                    " of " + std::to_string(queries_due) +
                    " due queries sent");
  r.attempted = frames_due + queries_due;
  r.failed = (frames_due > acked ? frames_due - acked : 0) + query_failed +
             (queries_due > windows.size() ? queries_due - windows.size() : 0);

  const double run_s = std::chrono::duration<double>(deadline - start).count();
  // The offered rate is fixed, so per-interval rates are quantised to whole
  // frames; the whole run (start -> last ack) shows a pipeline falling
  // behind just as well.
  const double reports_per_s = static_cast<double>(run_reports) / wall_s;
  SetE2e(&r, "ingest_reports_per_s", reports_per_s, "reports/s");
  r.ops_per_s = reports_per_s;
  // The gated latencies are the queries' (reads beside writes). The ack
  // percentiles are reported but not gated: the ack p99 sits in the
  // epoch-close mode, whose fsyncs and compactions gave it a quartile
  // spread of about 20% over ten seeds on a shared 4-vCPU box (30-65% with
  // the smaller epochs tried first), too near the largest bound allowed.
  SetE2e(&r, "ack_p50_ms",
         ReportPercentile(&r, &checks, "ack_p50_ms", ack_ms, run_s, 50), "ms");
  SetE2e(&r, "ack_p99_ms",
         ReportPercentile(&r, &checks, "ack_p99_ms", ack_ms, run_s, 99), "ms");
  r.op_p50_ms =
      ReportPercentile(&r, &checks, "query_p50_ms", query_ms, run_s, 50);
  r.op_tail_ms =
      ReportPercentile(&r, &checks, "query_p95_ms", query_ms, run_s, 95);
  r.op_tail_name = "query_p95_ms (due->top-k, open loop)";
  SetE2e(&r, "query_p50_ms", r.op_p50_ms, "ms");
  SetE2e(&r, "query_p95_ms", r.op_tail_ms, "ms");
  r.primary = r.op_p50_ms;
  r.primary_higher_is_better = false;
  r.layer["harness.gen_late_p99_ms"] = ReportPercentile(
      &r, &checks, "harness.gen_late_p99_ms", late_ms, run_s, 99);
  r.layer["harness.repeat_window_frac"] = RepeatWindowFrac(windows);
  r.meta.emplace_back("senders", std::to_string(kMixedSenders));
  r.meta.emplace_back("connections", std::to_string(kMixedSenders));
  r.meta.emplace_back("query_threads", std::to_string(kMixedQueryThreads));
  r.meta.emplace_back("offered_reports_per_s",
                      ldphh::obs::JsonWriter::FormatDouble(
                          kMixedReportsPerSecond));
  r.meta.emplace_back("offered_queries_per_s",
                      ldphh::obs::JsonWriter::FormatDouble(
                          kMixedQueriesPerSecond));
  r.meta.emplace_back("reports_per_frame", std::to_string(kMixedFrameReports));
  r.meta.emplace_back("reports_per_epoch",
                      std::to_string(EpochManagerOptions{}.reports_per_epoch));
  r.meta.emplace_back("protocol", manager->config().ToText());
  r.meta.emplace_back("epochs_closed", std::to_string(epochs_closed));

  Phase("teardown.server");
  fx->stack.server->Stop();
  Phase("check.close");
  checks.ExpectOk(manager->Close(), "manager_close");
  CheckFullWindow(manager, pool, frame_counts, &checks);

  if (traced) {
    Phase("trace.summarize");
    SpanStats spans = LinkAndSummarize(
        &tracer, opt.work_dir + "/traces/mixed-seed" +
                     std::to_string(opt.seed) + ".jsonl",
        start, &r.meta);
    r.layer["net.send_us_p50"] = P50(spans.durations_ms, "net.send") * 1000;
    r.samples["net.send_us_p50"] = spans.durations_ms["net.send"].size();
    WritePathLayers(&r, spans, before, after, wall_s, run_reports,
                    epochs_closed, compactions, busy, acked, pool,
                    manager->config());
    ReadPathLayers(&r, spans);
  }
  r.layer["protocols.encode_ns_per_report"] = pool.encode_ns_per_report;
  fx.reset();
  r.failed_checks = checks.failed();
  return r;
}

// -------------------------------------------------------------- output --

/// The per-layer metrics of BENCHMARK.json, in its order.
const char* const kLayerMetrics[] = {
    "net.send_us_p50",
    "net.busy_retry_ratio",
    "server.frame_us_p50",
    "server.close_frame_ms_p50",
    "server.close_frame_ms_max",
    "server.sink_busy_frac",
    "server.decode_us_p50",
    "server.aggregate_us_p50",
    "server.window_merge_ms_p50",
    "store.get_us_p50",
    "store.syncs_per_epoch",
    "store.sync_ms_p50",
    "store.bytes_per_report",
    "store.compactions",
    "protocols.encode_ns_per_report",
    "protocols.topk_ms_p50",
    "protocols.state_bytes_per_epoch",
    "harness.gen_late_p99_ms",
    "harness.repeat_window_frac",
    "harness.trace_overhead_frac",
};

std::string LayerUnit(const std::string& name) {
  auto ends_with = [&name](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_us_p50")) return "us";
  if (ends_with("_ms_p50") || ends_with("_ms_max") || ends_with("_ms")) {
    return "ms";
  }
  if (ends_with("_ns_per_report")) return "ns";
  if (ends_with("bytes_per_report")) return "B/report";
  if (ends_with("state_bytes_per_epoch")) return "B";
  if (name == "store.syncs_per_epoch") return "syncs/epoch";
  if (name == "store.compactions") return "count";
  return "ratio";
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                &regs[i * 4 + 2], &regs[i * 4 + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();
  const size_t lo = model.find_first_not_of(' ');
  return lo == std::string::npos ? "unknown" : model.substr(lo);
}

void PrintResult(const Options& opt, const PassResult& r,
                 const PassResult* untraced) {
  const bool correct = r.failed_checks.empty() &&
                       (untraced == nullptr || untraced->failed_checks.empty());
  ldphh::obs::JsonWriter meta;
  meta.BeginObject();
  meta.Key("workload").String(opt.workload);
  meta.Key("seed").Uint(opt.seed);
  meta.Key("seconds").Int(opt.seconds);
  meta.Key("trace").Bool(opt.trace);
  meta.Key("nproc").Uint(std::thread::hardware_concurrency());
  meta.Key("cpu_model").String(CpuModel());
  meta.Key("compiler").String(__VERSION__);
  meta.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  meta.Key("setup_repeats").Int(opt.trace ? 1 : kSetupRepeats);
  for (const auto& [k, v] : r.meta) meta.Key(k).String(v);
  meta.Key("op_tail").String(r.op_tail_name);
  meta.Key("failed_ops_frac")
      .Double(r.attempted == 0 ? 0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted));
  meta.Key("failed_checks").BeginArray();
  for (const std::string& c : r.failed_checks) meta.String(c);
  meta.EndArray();
  meta.Key("percentile_samples").BeginObject();
  for (const auto& [k, v] : r.samples) meta.Key(k).Uint(v);
  meta.EndObject();
  // interval_median: median over the run's 5 intervals of the per-interval
  // figure; whole_run where an interval has too few samples for it.
  meta.Key("percentile_estimators").BeginObject();
  for (const auto& [k, v] : r.estimators) meta.Key(k).String(v);
  meta.EndObject();
  meta.Key("end_to_end").BeginObject();
  for (const auto& [k, v] : r.e2e) {
    meta.Key(k).BeginObject().Key("value").Double(v.first).Key("unit").String(
        v.second).EndObject();
  }
  meta.EndObject();
  if (opt.trace) {
    meta.Key("per_layer_not_run").BeginArray();
    for (const char* name : kLayerMetrics) {
      if (r.layer.count(name) == 0) meta.String(name);
    }
    meta.EndArray();
  }
  meta.EndObject();
  std::printf("perfbench meta %s\n", meta.str().c_str());

  ldphh::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").Uint(r.attempted);
  w.Key("failed").Uint(r.failed);
  w.Key("metrics").BeginObject();
  auto metric = [&w](const std::string& name, double value,
                     const std::string& unit) {
    w.Key(name).BeginObject().Key("value").Double(value).Key("unit").String(
        unit).EndObject();
  };
  if (!opt.trace) {
    metric("setup_s", r.setup_s, "s");
    metric("peak_rss_mb", r.peak_rss_mb, "MiB");
    metric("ops_per_s", r.ops_per_s, "1/s");
    metric("op_p50_ms", r.op_p50_ms, "ms");
    metric("op_tail_ms", r.op_tail_ms, "ms");
  } else {
    // Layers a workload does not run read 0 and are listed in the meta
    // line's per_layer_not_run.
    for (const char* name : kLayerMetrics) {
      auto it = r.layer.find(name);
      metric(name, it == r.layer.end() ? 0 : it->second, LayerUnit(name));
    }
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.work_dir.empty() || opt.seconds < 1) {
    std::fprintf(stderr, "perfbench: need --work-dir and --seconds >= 1\n");
    return 2;
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a Debug build\n");
    return 2;
  }
  std::function<PassResult(const Options&, bool, int)> run;
  if (opt.workload == "ingest") {
    run = RunIngest;
  } else if (opt.workload == "query") {
    run = RunQuery;
  } else if (opt.workload == "mixed") {
    run = RunMixed;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  std::error_code ec;
  fs::create_directories(opt.work_dir + "/traces", ec);
  Watchdog watchdog(kRunDeadline);
  g_watchdog = &watchdog;

  PassResult result;
  if (!opt.trace) {
    result = run(opt, false, kSetupRepeats);
    PrintResult(opt, result, nullptr);
  } else {
    const PassResult plain = run(opt, false, 1);
    result = run(opt, true, 1);
    const double base = plain.primary;
    result.layer["harness.trace_overhead_frac"] =
        base == 0 ? 0
                  : (result.primary_higher_is_better
                         ? (base - result.primary) / base
                         : (result.primary - base) / base);
    for (const std::string& c : plain.failed_checks) {
      result.failed_checks.push_back("untraced." + c);
    }
    PrintResult(opt, result, &plain);
  }
  Phase("exit");
  g_watchdog = nullptr;
  return result.failed_checks.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
