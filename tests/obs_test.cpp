// Observability layer: histogram math, metrics registry, tracer ring
// buffer + span pairing, Chrome-trace export, and end-to-end guarantees
// (deterministic traces, zero behavioural impact when disabled).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/runner.h"

namespace mykil {
namespace {

// --------------------------------------------------------------- histograms

TEST(Histogram, EmptyIsAllZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
  obs::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(Histogram, BucketIndexIsBitWidth) {
  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(7);
  h.record(8);
  EXPECT_EQ(h.bucket_count(0), 1u);  // 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1
  EXPECT_EQ(h.bucket_count(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket_count(3), 2u);  // 4..7
  EXPECT_EQ(h.bucket_count(4), 1u);  // 8..15
}

TEST(Histogram, ExactStatsAndRepeatedValuePercentiles) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(7);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 700u);
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
  // Interpolation is clamped to the observed min/max, so a single-valued
  // histogram reports that value exactly at every percentile.
  EXPECT_DOUBLE_EQ(h.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 7.0);
}

TEST(Histogram, UniformRangePercentilesLandNearTruth) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  // Log-bucketed: ~2x worst-case relative error, much better with the
  // in-bucket interpolation for dense data.
  EXPECT_NEAR(h.percentile(50), 500.0, 60.0);
  EXPECT_GE(h.percentile(95), h.percentile(50));
  EXPECT_GE(h.percentile(99), h.percentile(95));
  EXPECT_LE(h.percentile(99), 1000.0);
  EXPECT_EQ(h.percentile(0), 1.0);
  EXPECT_EQ(h.percentile(100), 1000.0);
}

TEST(Histogram, SummaryMatchesAccessors) {
  obs::Histogram h;
  for (std::uint64_t v : {10u, 20u, 30u, 40u, 1000u}) h.record(v);
  obs::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, 10u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean, 220.0);
  EXPECT_DOUBLE_EQ(s.p50, h.percentile(50));
  EXPECT_DOUBLE_EQ(s.p99, h.percentile(99));
}

// ----------------------------------------------------------------- registry

TEST(MetricsRegistry, CountersGaugesAndLookups) {
  obs::MetricsRegistry m;
  EXPECT_EQ(m.find_counter("x"), nullptr);
  EXPECT_EQ(m.find_histogram("x"), nullptr);
  m.counter("x").inc();
  m.counter("x").inc(4);
  m.gauge("g").set(-3);
  m.gauge("g").add(1);
  m.histogram("h").record(42);
  ASSERT_NE(m.find_counter("x"), nullptr);
  EXPECT_EQ(m.find_counter("x")->value(), 5u);
  EXPECT_EQ(m.find_gauge("g")->value(), -2);
  EXPECT_EQ(m.find_histogram("h")->count(), 1u);
  EXPECT_EQ(m.size(), 3u);
}

TEST(MetricsRegistry, ReferencesStayValidAcrossInserts) {
  obs::MetricsRegistry m;
  obs::Counter& c = m.counter("first");
  obs::Histogram& h = m.histogram("h.first");
  for (int i = 0; i < 100; ++i) {
    m.counter("c" + std::to_string(i)).inc();
    m.histogram("h" + std::to_string(i)).record(i);
  }
  c.inc(7);
  h.record(9);
  EXPECT_EQ(m.find_counter("first")->value(), 7u);
  EXPECT_EQ(m.find_histogram("h.first")->count(), 1u);
}

TEST(MetricsRegistry, JsonSnapshotHasAllSeriesAndPercentiles) {
  obs::MetricsRegistry m;
  m.counter("joins").inc(3);
  m.gauge("depth").set(12);
  m.histogram("latency").record(100);
  m.histogram("latency").record(200);
  std::string json = m.to_json("unit");
  EXPECT_NE(json.find("\"suite\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"joins\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');
}

TEST(MetricsRegistry, SampleCollectsCumulativeTimeSeries) {
  obs::MetricsRegistry m;
  m.counter("joins").inc(3);
  m.gauge("depth").set(2);
  m.histogram("lat").record(100);
  m.sample(1'000'000);
  m.counter("joins").inc(2);
  m.histogram("lat").record(300);
  m.sample(2'000'000);
  EXPECT_EQ(m.sample_count(), 2u);

  std::string jsonl = m.samples_jsonl();
  // One JSON object per line, each carrying the schema tag.
  std::size_t lines = 0, pos = 0;
  while ((pos = jsonl.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, 2u);
  std::size_t tag = 0;
  pos = 0;
  while ((pos = jsonl.find("\"schema\": \"mykil-metrics-v1\"", pos)) !=
         std::string::npos) {
    ++tag;
    pos += 10;
  }
  EXPECT_EQ(tag, 2u);
  // Sequence numbers and virtual timestamps are monotone; values are
  // cumulative (second sample shows the running totals, not deltas).
  EXPECT_NE(jsonl.find("\"seq\": 0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"seq\": 1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"ts_us\": 1000000"), std::string::npos);
  EXPECT_NE(jsonl.find("\"ts_us\": 2000000"), std::string::npos);
  EXPECT_NE(jsonl.find("\"joins\": 3"), std::string::npos);
  EXPECT_NE(jsonl.find("\"joins\": 5"), std::string::npos);
}

TEST(MetricsRegistry, WriteJsonlRoundTripsTheSampleLog) {
  obs::MetricsRegistry m;
  m.counter("c").inc();
  m.sample(42);
  const std::string path = "obs_test_samples.jsonl";
  ASSERT_TRUE(m.write_jsonl(path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), m.samples_jsonl());
}

// ------------------------------------------------------------------- tracer

TEST(Tracer, RingBufferOverwritesOldestWithinAStripe) {
  // Capacity splits evenly across the kStripes tid-keyed rings; events from
  // one tid all land in one stripe, so that stripe's share (32/8 = 4) is
  // the effective ring for them.
  obs::Tracer t(32);
  for (std::uint64_t i = 0; i < 6; ++i)
    t.instant(obs::EventKind::kCrash, 0, i * 10, i);
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 2u);  // surfaced in the export header
  std::vector<net::SimTime> ts;
  t.for_each([&](const obs::TraceEvent& ev) { ts.push_back(ev.ts); });
  EXPECT_EQ(ts, (std::vector<net::SimTime>{20, 30, 40, 50}));
}

TEST(Tracer, SpanPairingReturnsElapsedVirtualTime) {
  obs::Tracer t;
  t.span_begin(obs::EventKind::kJoin, 42, 1, 100);
  EXPECT_EQ(t.open_spans(), 1u);
  auto d = t.span_end(obs::EventKind::kJoin, 42, 1, 350);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 250u);
  EXPECT_EQ(t.open_spans(), 0u);
  // Unmatched end: recorded, but no latency.
  EXPECT_FALSE(t.span_end(obs::EventKind::kJoin, 42, 1, 400).has_value());
  // Same id under a different kind is a different span.
  t.span_begin(obs::EventKind::kRejoin, 42, 1, 500);
  EXPECT_FALSE(t.span_end(obs::EventKind::kJoin, 42, 1, 600).has_value());
  EXPECT_EQ(t.open_spans(), 1u);
}

TEST(Tracer, RetriedSpanMeasuresFromLatestBegin) {
  obs::Tracer t;
  t.span_begin(obs::EventKind::kJoin, 7, 1, 100);
  t.span_begin(obs::EventKind::kJoin, 7, 1, 300);  // watchdog retry
  auto d = t.span_end(obs::EventKind::kJoin, 7, 1, 450);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 150u);
}

TEST(Tracer, ChromeTraceShape) {
  obs::Tracer t;
  t.span_begin(obs::EventKind::kJoin, 1, 3, 10);
  t.span_end(obs::EventKind::kJoin, 1, 3, 20);
  t.instant(obs::EventKind::kRekeyEmit, 2, 30, 512, 9);
  t.instant(obs::EventKind::kDrop, 4, 40, 100, 0, "mykil-data");
  std::string json = t.to_chrome_trace();
  // Object format: viewers read traceEvents and ignore otherData.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[\n", 0), 0u);
  EXPECT_NE(json.find("],\"otherData\":{"), std::string::npos);
  EXPECT_NE(json.find("\"schema\":\"mykil-trace-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"join\",\"cat\":\"mykil\",\"ph\":\"b\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rekey-emit\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"bytes\":512,\"members\":9}"),
            std::string::npos);
  EXPECT_NE(json.find("\"label\":\"mykil-data\""), std::string::npos);
  // Span events carry the correlation id.
  EXPECT_NE(json.find("\"id\":1"), std::string::npos);
}

TEST(Tracer, EmptyExportIsStillValidObjectFormat) {
  obs::Tracer t;
  std::string json = t.to_chrome_trace();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[\n", 0), 0u);
  EXPECT_NE(json.find("\"events\":0"), std::string::npos);
  EXPECT_NE(json.find("\"trace_events_dropped\":0"), std::string::npos);
}

TEST(Tracer, FlowEventsBindByCategoryNameAndId) {
  obs::Tracer t;
  t.flow_start(obs::EventKind::kFlow, 77, 1, 10, "mykil-rejoin");
  t.flow_step(obs::EventKind::kFlow, 77, 2, 20, 64);
  t.flow_end(obs::EventKind::kFlow, 77, 3, 30, "mykil-rejoin");
  std::string json = t.to_chrome_trace();
  // All three phases export under the same (cat, name, id) triple — that
  // is what Chrome/Perfetto use to draw one connected arrow chain.
  EXPECT_NE(json.find("\"name\":\"op-flow\",\"cat\":\"flow\",\"ph\":\"s\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op-flow\",\"cat\":\"flow\",\"ph\":\"t\""),
            std::string::npos);
  // Flow end carries the binding-point attribute.
  EXPECT_NE(
      json.find("\"name\":\"op-flow\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\""),
      std::string::npos);
  std::size_t id_hits = 0, pos = 0;
  while ((pos = json.find("\"id\":77", pos)) != std::string::npos) {
    ++id_hits;
    pos += 7;
  }
  EXPECT_EQ(id_hits, 3u);
}

TEST(Tracer, DroppedCountSurfacesInExportHeader) {
  obs::Tracer t(8);  // one slot per stripe: every tid-0 repeat overwrites
  for (std::uint64_t i = 0; i < 5; ++i)
    t.instant(obs::EventKind::kCrash, 0, i * 10, i);
  EXPECT_EQ(t.dropped(), 4u);
  std::string json = t.to_chrome_trace();
  EXPECT_NE(json.find("\"trace_events_dropped\":4"), std::string::npos);
  EXPECT_NE(json.find("\"events\":1"), std::string::npos);
}

// ----------------------------------------------------- end-to-end guarantees

struct ChurnOutcome {
  workload::RunReport report;
  std::string trace_json;
  std::string metrics_json;
};

/// One fixed churn scenario, with or without observability attached.
/// Everything else (seeds, schedule, topology) is identical.
ChurnOutcome run_churn(bool with_obs) {
  net::NetworkConfig ncfg;
  ncfg.jitter = 0;
  ncfg.seed = 5;
  net::Network net(ncfg);
  obs::Tracer tracer(1 << 18);
  obs::MetricsRegistry metrics;
  if (with_obs) {
    net.set_tracer(&tracer);
    net.set_metrics(&metrics);
  }
  core::GroupOptions opts;
  opts.seed = 13;
  opts.config.enable_timers = true;
  opts.config.batching = true;
  opts.config.skip_cohort_check = true;
  opts.config.t_idle = net::msec(500);
  opts.config.t_active = net::sec(2);
  core::MykilGroup group(net, opts);
  group.add_area();
  group.add_area(0);
  group.finalize();

  workload::ChurnRunner runner(group, 777);
  crypto::Prng sprng(888);
  workload::ChurnSchedule sched =
      workload::ChurnSchedule::poisson(net::sec(15), 0.8, 0.4, 1.0, 0.2, sprng);
  ChurnOutcome out;
  out.report = runner.run(sched, net::sec(5));
  out.trace_json = tracer.to_chrome_trace();
  out.metrics_json = metrics.to_json("test");
  return out;
}

TEST(ObsEndToEnd, TracedRunsAreByteIdenticalUnderAFixedSeed) {
  ChurnOutcome a = run_churn(true);
  ChurnOutcome b = run_churn(true);
  EXPECT_GT(a.trace_json.size(), 100u);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(ObsEndToEnd, NullTracerLeavesRunReportCountersUnchanged) {
  ChurnOutcome traced = run_churn(true);
  ChurnOutcome plain = run_churn(false);
  EXPECT_EQ(traced.report.joins_attempted, plain.report.joins_attempted);
  EXPECT_EQ(traced.report.leaves_attempted, plain.report.leaves_attempted);
  EXPECT_EQ(traced.report.moves_attempted, plain.report.moves_attempted);
  EXPECT_EQ(traced.report.data_sent, plain.report.data_sent);
  EXPECT_EQ(traced.report.final_members, plain.report.final_members);
  EXPECT_EQ(traced.report.rekey_multicasts, plain.report.rekey_multicasts);
  EXPECT_EQ(traced.report.rekey_bytes, plain.report.rekey_bytes);
  EXPECT_EQ(traced.report.data_bytes, plain.report.data_bytes);
  EXPECT_EQ(traced.report.alive_bytes, plain.report.alive_bytes);
  EXPECT_EQ(traced.report.in_sync, plain.report.in_sync);
  EXPECT_EQ(traced.report.out_of_sync, plain.report.out_of_sync);
  // The un-instrumented run reports empty distributions...
  EXPECT_EQ(plain.report.join_latency.count, 0u);
  // ...while the instrumented one filled them from the same behaviour.
  EXPECT_GT(traced.report.join_latency.count, 0u);
  EXPECT_LE(traced.report.join_latency.count, traced.report.joins_attempted);
  EXPECT_GT(traced.report.join_latency.p50, 0.0);
  EXPECT_GE(traced.report.join_latency.p99, traced.report.join_latency.p50);
}

TEST(ObsEndToEnd, ChurnTraceHasBalancedJoinSpans) {
  ChurnOutcome traced = run_churn(true);
  std::size_t begins = 0, ends = 0, pos = 0;
  const std::string needle_b = "\"name\":\"join\",\"cat\":\"mykil\",\"ph\":\"b\"";
  const std::string needle_e = "\"name\":\"join\",\"cat\":\"mykil\",\"ph\":\"e\"";
  while ((pos = traced.trace_json.find(needle_b, pos)) != std::string::npos) {
    ++begins;
    pos += needle_b.size();
  }
  pos = 0;
  while ((pos = traced.trace_json.find(needle_e, pos)) != std::string::npos) {
    ++ends;
    pos += needle_e.size();
  }
  EXPECT_GT(ends, 0u);
  // Every end has a begin; begins may outnumber ends only by joins still
  // in flight when the run stopped.
  EXPECT_GE(begins, ends);
}

TEST(ObsEndToEnd, JoinAndRejoinSpansPairWithExactLatencies) {
  net::NetworkConfig ncfg;
  ncfg.jitter = 0;
  net::Network net(ncfg);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  net.set_tracer(&tracer);
  net.set_metrics(&metrics);

  core::GroupOptions opts;
  opts.seed = 20;
  opts.config.enable_timers = false;
  opts.config.batching = false;
  opts.config.disconnect_multiplier = 0;
  core::MykilGroup group(net, opts);
  group.add_area();
  group.add_area(0);
  group.finalize();

  auto member = group.make_member(1, net::sec(36000));
  group.join_member(*member, net::sec(36000));
  ASSERT_TRUE(member->joined());
  EXPECT_EQ(tracer.open_spans(), 0u) << "join span left open";

  core::AcId other = member->current_ac() == group.ac(0).ac_id()
                         ? group.ac(1).ac_id()
                         : group.ac(0).ac_id();
  member->rejoin(other);
  group.settle();
  ASSERT_EQ(member->current_ac(), other);
  EXPECT_EQ(tracer.open_spans(), 0u) << "rejoin span left open";

  const obs::Histogram* join_h = metrics.find_histogram("member.join_latency_us");
  const obs::Histogram* rejoin_h =
      metrics.find_histogram("member.rejoin_latency_us");
  ASSERT_NE(join_h, nullptr);
  ASSERT_NE(rejoin_h, nullptr);
  EXPECT_EQ(join_h->count(), 1u);
  EXPECT_EQ(rejoin_h->count(), 1u);
  // Single-sample percentiles clamp to the exact observed latency.
  EXPECT_DOUBLE_EQ(join_h->percentile(50),
                   static_cast<double>(*member->last_join_latency()));
  EXPECT_DOUBLE_EQ(rejoin_h->percentile(99),
                   static_cast<double>(*member->last_rejoin_latency()));
}

}  // namespace
}  // namespace mykil
