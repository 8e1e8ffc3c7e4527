// Tests for the observability layer: histogram quantiles, the metrics
// registry, trace recording/merging, the Chrome trace_event export, and —
// most load-bearing — the disabled-path contract: executions are
// bit-identical with and without a recorder/registry installed.
#include "serpentine/obs/histogram.h"
#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/drive/metered_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/drive/tracing_drive.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/replicate.h"

namespace serpentine::obs {
namespace {

using tape::Dlt4000LocateModel;
using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::TapeGeometry;

Dlt4000LocateModel MakeModel(int32_t seed = 1) {
  return Dlt4000LocateModel(
      TapeGeometry::Generate(Dlt4000TapeParams(), seed), Dlt4000Timings());
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyQuantileIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 0.0);
}

TEST(HistogramTest, SingleValueQuantileStaysInItsBucket) {
  Histogram h;
  h.Add(3.0);  // bucket [2, 4) s
  EXPECT_EQ(h.count(), 1);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_GE(h.Quantile(q), 2.0) << "q=" << q;
    EXPECT_LE(h.Quantile(q), 4.0) << "q=" << q;
  }
}

TEST(HistogramTest, QuantilesAreMonotone) {
  Histogram h;
  Lrand48 rng(7);
  for (int i = 0; i < 1000; ++i) {
    h.Add(0.001 * static_cast<double>(1 + rng.NextBounded(100000)));
  }
  double p50 = h.Quantile(0.50);
  double p95 = h.Quantile(0.95);
  double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(HistogramTest, ZeroAndNegativeLandInUnderflowBucket) {
  Histogram h;
  h.Add(0.0);
  h.Add(-1.0);  // defensive: durations should never be negative
  h.Add(1e-9);
  EXPECT_EQ(h.bucket(0), 3);
  EXPECT_LE(h.Quantile(0.99), Histogram::BucketFloorSeconds(1));
}

TEST(HistogramTest, HugeValueClampsToOverflowBucket) {
  Histogram h;
  h.Add(1e12);
  EXPECT_EQ(h.bucket(Histogram::kBuckets - 1), 1);
  // A single sample is its own quantile for every q — the recorded-max
  // clamp beats the overflow bucket's nominal ceiling.
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1e12);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1e12);
}

TEST(HistogramTest, BucketEdgesArePowersOfTwo) {
  EXPECT_DOUBLE_EQ(Histogram::BucketFloorSeconds(Histogram::kZeroBucket), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketCeilSeconds(Histogram::kZeroBucket), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::BucketFloorSeconds(0), 0.0);
}

TEST(HistogramTest, MergeAddsCountsExactly) {
  Histogram a;
  Histogram b;
  a.Add(0.5);
  a.Add(3.0);
  b.Add(3.5);
  b.Add(100.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4);
  EXPECT_DOUBLE_EQ(a.total_seconds(), 107.0);
  int64_t total_buckets = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) total_buckets += a.bucket(i);
  EXPECT_EQ(total_buckets, 4);
}

TEST(HistogramTest, QuantileNeverExceedsRecordedMax) {
  // Bucket interpolation alone would report up to the bucket ceiling
  // (e.g. 4.0 for a sample at 2.1); the min/max envelope pins it down.
  Histogram h;
  h.Add(0.7);
  h.Add(1.3);
  h.Add(2.1);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 2.1);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 0.7);
  for (double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_LE(h.Quantile(q), 2.1) << "q=" << q;
    EXPECT_GE(h.Quantile(q), 0.7) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.1);
}

TEST(HistogramTest, TailQuantilesStayOrderedThroughP999) {
  Histogram h;
  Lrand48 rng(11);
  for (int i = 0; i < 20000; ++i) {
    h.Add(0.01 * static_cast<double>(1 + rng.NextBounded(1000000)));
  }
  double p50 = h.Quantile(0.50);
  double p95 = h.Quantile(0.95);
  double p99 = h.Quantile(0.99);
  double p999 = h.Quantile(0.999);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, h.max_seconds());
}

TEST(HistogramTest, MergeWidensTheMinMaxEnvelope) {
  Histogram a;
  Histogram b;
  a.Add(5.0);
  b.Add(0.25);
  b.Add(300.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.min_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(a.max_seconds(), 300.0);
  EXPECT_DOUBLE_EQ(a.Quantile(1.0), 300.0);

  // Merging an empty histogram must not disturb the envelope.
  Histogram empty;
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.min_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(a.max_seconds(), 300.0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, SnapshotCarriesTailQuantilesAndMax) {
  MetricsRegistry registry;
  for (int i = 1; i <= 1000; ++i) {
    registry.histogram("latency").Observe(0.001 * i);
  }
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& h = snap.histograms[0].second;
  EXPECT_LE(h.p50, h.p95);
  EXPECT_LE(h.p95, h.p99);
  EXPECT_LE(h.p99, h.p999);
  EXPECT_LE(h.p999, h.max);
  EXPECT_DOUBLE_EQ(h.max, 1.0);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"max\""), std::string::npos);
}

TEST(MetricsRegistryTest, MetricsHaveStableIdentity) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  a.Increment(2);
  b.Increment(3);
  EXPECT_EQ(registry.counter("x").value(), 5);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.counter("zebra").Increment();
  registry.counter("alpha").Increment();
  registry.gauge("mid").Set(1.5);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "zebra");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 1.5);
}

TEST(MetricsRegistryTest, ToJsonCarriesEveryMetric) {
  MetricsRegistry registry;
  registry.counter("ops").Increment(7);
  registry.gauge("depth").Set(3.0);
  registry.histogram("lat").Observe(1.5);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"ops\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(MetricsRegistryTest, CountersAreExactUnderContention) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int i = 0; i < kIncrements; ++i) {
        registry.counter("contended").Increment();
        registry.histogram("obs").Observe(0.5);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(registry.counter("contended").value(), kThreads * kIncrements);
  EXPECT_EQ(registry.histogram("obs").snapshot().count(),
            kThreads * kIncrements);
}

TEST(MetricsRegistryTest, DestructionDeactivates) {
  EXPECT_EQ(MetricsRegistry::active(), nullptr);
  {
    MetricsRegistry registry;
    MetricsRegistry::SetActive(&registry);
    EXPECT_EQ(MetricsRegistry::active(), &registry);
    IncrementCounter("via.hook");
    EXPECT_EQ(registry.counter("via.hook").value(), 1);
  }
  EXPECT_EQ(MetricsRegistry::active(), nullptr);
  IncrementCounter("dropped");  // must be a safe no-op
}

// ---------------------------------------------------------------------------
// TraceRecorder.
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, RecordsAndCounts) {
  TraceRecorder recorder;
  recorder.CompleteEvent(TraceClock::kVirtual, "test", "outer", 0.0, 10.0);
  recorder.CompleteEvent(TraceClock::kVirtual, "test", "inner", 2.0, 5.0);
  recorder.InstantEvent(TraceClock::kVirtual, "test", "mark", 3.0);
  recorder.CounterEvent(TraceClock::kVirtual, "depth", 4.0, 2.0);
  recorder.AsyncBegin(TraceClock::kVirtual, "test", "req", 42, 1.0);
  recorder.AsyncEnd(TraceClock::kVirtual, "test", "req", 42, 9.0);
  EXPECT_EQ(recorder.event_count(), 6);
}

TEST(TraceRecorderTest, ScopedSpanUsesAmbientRecorder) {
  {
    ScopedSpan noop("test", "no recorder installed");
  }  // must not crash with no recorder
  TraceRecorder recorder;
  TraceRecorder::SetActive(&recorder);
  {
    ScopedSpan outer("test", "outer");
    ScopedSpan inner("test", "inner");
  }
  TraceRecorder::SetActive(nullptr);
  EXPECT_EQ(recorder.event_count(), 2);
}

TEST(TraceRecorderTest, DestructionDeactivates) {
  EXPECT_EQ(TraceRecorder::active(), nullptr);
  {
    TraceRecorder recorder;
    TraceRecorder::SetActive(&recorder);
    EXPECT_EQ(TraceRecorder::active(), &recorder);
  }
  EXPECT_EQ(TraceRecorder::active(), nullptr);
  TraceInstant(TraceClock::kWall, "test", "dropped", 0.0);  // safe no-op
}

TEST(TraceRecorderTest, MergesPerThreadBuffersDeterministically) {
  TraceRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kEvents = 250;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&recorder, t] {
      for (int i = 0; i < kEvents; ++i) {
        double at = static_cast<double>(i);
        recorder.CompleteEvent(TraceClock::kVirtual, "mt",
                               "t" + std::to_string(t), at, at + 0.5);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(recorder.event_count(), kThreads * kEvents);

  std::string json = recorder.ToJson();
  // Every thread's events survive the merge.
  for (int t = 0; t < kThreads; ++t) {
    std::string name = "\"name\":\"t" + std::to_string(t) + "\"";
    int seen = 0;
    for (size_t pos = json.find(name); pos != std::string::npos;
         pos = json.find(name, pos + 1)) {
      ++seen;
    }
    EXPECT_EQ(seen, kEvents) << "thread " << t;
  }
  // The merge sorts by timestamp: "ts" fields are nondecreasing.
  int64_t last_ts = -1;
  for (size_t pos = json.find("\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ts\":", pos + 5)) {
    int64_t ts = std::atoll(json.c_str() + pos + 5);
    EXPECT_GE(ts, last_ts);
    last_ts = ts;
  }
}

// ---------------------------------------------------------------------------
// Chrome trace_event export: structural round-trip.
// ---------------------------------------------------------------------------

// Minimal structural JSON scan: validates quoting/brace balance and
// collects the top-level objects of the "traceEvents" array.
struct ParsedTrace {
  bool valid = false;
  std::vector<std::string> events;
};

ParsedTrace ParseTraceJson(const std::string& json) {
  ParsedTrace out;
  size_t array = json.find("\"traceEvents\":[");
  if (array == std::string::npos) return out;
  int depth = 0;
  bool in_string = false;
  size_t object_start = 0;
  for (size_t i = array + 14; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) object_start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth < 0) return out;
      if (depth == 0) {
        out.events.push_back(json.substr(object_start, i - object_start + 1));
      }
    } else if (c == ']' && depth == 0) {
      out.valid = true;
      return out;
    }
  }
  return out;
}

// Extracts an integer field ("ts", "dur", "pid") from one event object.
int64_t IntField(const std::string& event, const std::string& key) {
  size_t pos = event.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(event.c_str() + pos + key.size() + 3);
}

std::string StringField(const std::string& event, const std::string& key) {
  size_t pos = event.find("\"" + key + "\":\"");
  if (pos == std::string::npos) return "";
  size_t start = pos + key.size() + 4;
  size_t end = event.find('"', start);
  return event.substr(start, end - start);
}

TEST(TraceExportTest, TracingDriveProducesValidNestedChromeTrace) {
  Dlt4000LocateModel model = MakeModel();
  Lrand48 rng(11);
  std::vector<sched::Request> requests = sim::GenerateUniformRequests(
      rng, 64, model.geometry().total_segments());
  auto schedule =
      sched::BuildSchedule(model, 0, requests, sched::Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());

  TraceRecorder recorder;
  TraceRecorder::SetActive(&recorder);
  drive::ModelDrive base(model);
  drive::TracingDrive traced(&base);
  sched::EstimateOptions options;
  options.rewind_at_end = true;
  sim::ExecuteSchedule(traced, *schedule, options);
  TraceRecorder::SetActive(nullptr);

  ParsedTrace trace = ParseTraceJson(recorder.ToJson());
  ASSERT_TRUE(trace.valid);
  // All recorded events plus the two process_name metadata records.
  EXPECT_EQ(static_cast<int64_t>(trace.events.size()),
            recorder.event_count() + 2);

  // Every complete span carries name/ts/dur; phase children ("op:phase")
  // nest inside their op span; the virtual-clock process id is 2.
  std::vector<std::string> spans;
  int phase_children = 0;
  for (const std::string& e : trace.events) {
    if (StringField(e, "ph") != "X") continue;
    spans.push_back(e);
    EXPECT_EQ(IntField(e, "pid"), 2) << e;
    EXPECT_GE(IntField(e, "ts"), 0) << e;
    EXPECT_GE(IntField(e, "dur"), 0) << e;
    EXPECT_FALSE(StringField(e, "name").empty()) << e;
    if (StringField(e, "name").find(':') != std::string::npos) {
      ++phase_children;
    }
  }
  // 64 locates + 64 reads + 1 rewind, each with >= 1 phase child.
  EXPECT_GE(static_cast<int>(spans.size()), 129 * 2);
  EXPECT_GE(phase_children, 129);

  // Nesting check per track: sweeping spans in (ts asc, dur desc) order
  // with an interval stack, every span must fit inside the enclosing one.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const std::string& a, const std::string& b) {
                     int64_t ta = IntField(a, "ts");
                     int64_t tb = IntField(b, "ts");
                     if (ta != tb) return ta < tb;
                     return IntField(a, "dur") > IntField(b, "dur");
                   });
  std::vector<std::pair<int64_t, int64_t>> stack;  // (ts, end)
  for (const std::string& e : spans) {
    int64_t ts = IntField(e, "ts");
    int64_t end = ts + IntField(e, "dur");
    while (!stack.empty() && ts >= stack.back().second) stack.pop_back();
    if (!stack.empty()) {
      EXPECT_LE(end, stack.back().second)
          << "span overlaps its enclosing span: " << e;
    }
    stack.emplace_back(ts, end);
  }
}

// ---------------------------------------------------------------------------
// Disabled-path contract: recording never changes execution.
// ---------------------------------------------------------------------------

TEST(DisabledPathTest, TracingDriveLeavesExecutionBitIdentical) {
  Dlt4000LocateModel model = MakeModel();
  Lrand48 rng(3);
  std::vector<sched::Request> requests = sim::GenerateUniformRequests(
      rng, 64, model.geometry().total_segments());
  auto schedule =
      sched::BuildSchedule(model, 0, requests, sched::Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  sched::EstimateOptions options;
  options.rewind_at_end = true;

  // Reference: the model shim (no decorators at all).
  sim::ExecutionResult expected =
      sim::ExecuteSchedule(model, *schedule, options);

  auto run_traced = [&] {
    drive::ModelDrive base(model);
    drive::MeteredDrive metered(&base);
    drive::TracingDrive traced(&metered);
    return sim::ExecuteSchedule(traced, *schedule, options);
  };

  // Null-recorder path.
  ASSERT_EQ(TraceRecorder::active(), nullptr);
  sim::ExecutionResult disabled = run_traced();
  EXPECT_EQ(disabled.total_seconds, expected.total_seconds);
  EXPECT_EQ(disabled.locate_seconds, expected.locate_seconds);
  EXPECT_EQ(disabled.read_seconds, expected.read_seconds);
  EXPECT_EQ(disabled.rewind_seconds, expected.rewind_seconds);
  EXPECT_EQ(disabled.locates, expected.locates);
  EXPECT_EQ(disabled.segments_read, expected.segments_read);
  EXPECT_EQ(disabled.final_position, expected.final_position);

  // Active-recorder path: identical numbers, spans on the side.
  TraceRecorder recorder;
  MetricsRegistry registry;
  TraceRecorder::SetActive(&recorder);
  MetricsRegistry::SetActive(&registry);
  sim::ExecutionResult enabled = run_traced();
  TraceRecorder::SetActive(nullptr);
  MetricsRegistry::SetActive(nullptr);
  EXPECT_EQ(enabled.total_seconds, expected.total_seconds);
  EXPECT_EQ(enabled.locate_seconds, expected.locate_seconds);
  EXPECT_EQ(enabled.read_seconds, expected.read_seconds);
  EXPECT_EQ(enabled.rewind_seconds, expected.rewind_seconds);
  EXPECT_EQ(enabled.locates, expected.locates);
  EXPECT_EQ(enabled.segments_read, expected.segments_read);
  EXPECT_EQ(enabled.final_position, expected.final_position);
  EXPECT_GT(recorder.event_count(), 0);
}

TEST(DisabledPathTest, RecoveringExecutorUnchangedByObservation) {
  Dlt4000LocateModel model = MakeModel();
  Lrand48 rng(5);
  std::vector<sched::Request> requests = sim::GenerateUniformRequests(
      rng, 48, model.geometry().total_segments());
  auto schedule =
      sched::BuildSchedule(model, 0, requests, sched::Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());

  auto run = [&] {
    drive::FaultInjector injector(drive::FaultProfile::Heavy());
    drive::ModelDrive base(model);
    drive::FaultDrive faulty(&base, &injector);
    drive::TracingDrive traced(&faulty);
    sim::RecoveryOptions recovery;
    recovery.estimate.rewind_at_end = true;
    sim::RecoveringExecutor executor(traced, model, recovery);
    return executor.Execute(*schedule);
  };

  sim::RecoveringExecutionResult plain = run();

  TraceRecorder recorder;
  MetricsRegistry registry;
  TraceRecorder::SetActive(&recorder);
  MetricsRegistry::SetActive(&registry);
  sim::RecoveringExecutionResult observed = run();
  TraceRecorder::SetActive(nullptr);
  MetricsRegistry::SetActive(nullptr);

  EXPECT_EQ(observed.total_seconds, plain.total_seconds);
  EXPECT_EQ(observed.locate_seconds, plain.locate_seconds);
  EXPECT_EQ(observed.read_seconds, plain.read_seconds);
  EXPECT_EQ(observed.recovery_seconds, plain.recovery_seconds);
  EXPECT_EQ(observed.retries, plain.retries);
  EXPECT_EQ(observed.reschedules, plain.reschedules);
  EXPECT_EQ(observed.transient_read_errors, plain.transient_read_errors);
  EXPECT_EQ(observed.locate_overshoots, plain.locate_overshoots);
  EXPECT_EQ(observed.drive_resets, plain.drive_resets);
  EXPECT_EQ(observed.permanent_errors, plain.permanent_errors);
  EXPECT_EQ(observed.final_position, plain.final_position);
  // Faults struck, so the observed run produced recovery counters.
  if (plain.retries > 0) {
    EXPECT_EQ(registry.counter("recover.retries").value(), plain.retries);
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance: replicated simulations publish the same totals
// for any worker count.
// ---------------------------------------------------------------------------

TEST(ThreadInvarianceTest, ReplicatedQueueSimPublishesSameTotals) {
  Dlt4000LocateModel model = MakeModel();
  sim::OnlineServerConfig config;
  config.arrival_rate_per_hour = 120.0;
  config.total_requests = 40;
  config.dispatch_min_batch = 4;
  config.seed = 9;

  auto totals = [&](int threads) {
    MetricsRegistry registry;
    MetricsRegistry::SetActive(&registry);
    auto run = [&](int32_t seed) {
      sim::OnlineServerConfig replica = config;
      replica.seed = seed;
      return sim::RunOnlineServer(model, replica).value();
    };
    EXPECT_TRUE(Replicate("RunOnlineServer", config.seed,
                          /*replications=*/6, threads,
                          model.SupportsConcurrentUse(), run)
                    .ok());
    MetricsRegistry::SetActive(nullptr);
    return registry.Snapshot();
  };

  MetricsSnapshot one = totals(1);
  MetricsSnapshot many = totals(3);

  ASSERT_FALSE(one.counters.empty());
  ASSERT_EQ(one.counters.size(), many.counters.size());
  for (size_t i = 0; i < one.counters.size(); ++i) {
    EXPECT_EQ(one.counters[i].first, many.counters[i].first);
    EXPECT_EQ(one.counters[i].second, many.counters[i].second)
        << one.counters[i].first;
  }
  ASSERT_EQ(one.histograms.size(), many.histograms.size());
  for (size_t i = 0; i < one.histograms.size(); ++i) {
    EXPECT_EQ(one.histograms[i].first, many.histograms[i].first);
    const Histogram& a = one.histograms[i].second.histogram;
    const Histogram& b = many.histograms[i].second.histogram;
    EXPECT_EQ(a.count(), b.count()) << one.histograms[i].first;
    for (int bucket = 0; bucket < Histogram::kBuckets; ++bucket) {
      EXPECT_EQ(a.bucket(bucket), b.bucket(bucket))
          << one.histograms[i].first << " bucket " << bucket;
    }
  }
  // 6 replications x 40 arrivals each.
  EXPECT_EQ(one.counters[0].second, 240);
}

}  // namespace
}  // namespace serpentine::obs
