// Tests for the per-edge flow telemetry (src/obs/flow + src/obs/timeseries
// and their NetBulletin integration): the traffic matrix must obey the
// conservation law (per phase, flow messages == PhasePosts::delivered, with
// and without wire faults), two identical seeded runs must serialize a
// byte-identical "flow" report section, and the OBS_DISABLED build must
// compile the same call sites down to empty telemetry.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>

#include "circuit/workloads.hpp"
#include "common/json.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "obs/flow.hpp"
#include "obs/runtime.hpp"
#ifndef OBS_DISABLED
#include "obs/report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#endif

namespace yoso {
namespace {

using net::NetBulletin;
using net::NetConfig;
using net::PhasePosts;
using net::WireFaultPlan;
using obs::FlowCell;
using obs::FlowKey;
using obs::FlowMatrix;

constexpr unsigned kBits = 192;

std::vector<std::vector<mpz_class>> make_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(1 << 16))));
    }
  }
  return inputs;
}

struct FlowRun {
  bool completed = false;
  std::string report;
  std::array<PhasePosts, 3> posts{};
  std::map<FlowKey, FlowCell> edges;
  std::vector<std::string> violations;  // NetBulletin::conservation_violations()
};

FlowRun run_flow(std::uint64_t seed, NetConfig cfg) {
#ifndef OBS_DISABLED
  obs::set_enabled(true);
  obs::timeseries().reset();
#endif
  auto params = ProtocolParams::for_gap(5, 0.2, kBits);
  Circuit c = inner_product_circuit(3);
  auto inputs = make_inputs(c, seed);
  Ledger ledger;
  NetBulletin board(ledger, std::move(cfg));
  YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), seed, &board);
  FlowRun r;
  try {
    mpc.run(inputs);
    r.completed = true;
  } catch (const ProtocolAbort&) {
    r.completed = false;
  }
  r.edges = board.flow().edges();
  r.violations = board.conservation_violations();
  for (Phase p : {Phase::Setup, Phase::Offline, Phase::Online}) {
    r.posts[static_cast<std::size_t>(p)] = board.phase_posts(p);
  }
  r.report = board.report_json();
  return r;
}

// The board's own conservation check covers the flow law (per phase, flow
// messages == delivered); with the layer compiled out the matrix is empty.
void expect_conserved(const FlowRun& run) {
  for (const std::string& v : run.violations) ADD_FAILURE() << v;
#ifdef OBS_DISABLED
  EXPECT_TRUE(run.edges.empty());
#endif
}

// --- FlowMatrix unit --------------------------------------------------------

TEST(FlowMatrix, RecordResolveFinalize) {
  FlowMatrix fm;
  fm.record("alpha", "cat.a", 1, 100, 4);
  fm.record("alpha", "cat.a", 1, 50, 2);
  fm.record("beta", "cat.b", 2, 10, 1);
#ifndef OBS_DISABLED
  EXPECT_EQ(fm.pending(), 3u);
  EXPECT_TRUE(fm.edges().empty());

  fm.resolve("gamma");
  EXPECT_EQ(fm.pending(), 0u);
  ASSERT_EQ(fm.edges().size(), 2u);
  const FlowCell& merged = fm.edges().at(FlowKey{"alpha", "gamma", "cat.a", 1});
  EXPECT_EQ(merged.messages, 2u);
  EXPECT_EQ(merged.bytes, 150u);
  EXPECT_EQ(merged.elements, 6u);

  fm.record("gamma", "cat.c", 2, 7, 1);
  fm.finalize("observers");
  fm.finalize("observers");  // idempotent
  EXPECT_EQ(fm.edges().at(FlowKey{"gamma", "observers", "cat.c", 2}).messages, 1u);
  EXPECT_EQ(fm.phase_total(2).bytes, 17u);
  EXPECT_EQ(fm.phase_total(1).messages, 2u);

  fm.reset();
  EXPECT_TRUE(fm.edges().empty());
  EXPECT_EQ(fm.pending(), 0u);
#else
  // Compiled out: recording is a no-op and the matrix stays empty.
  EXPECT_EQ(fm.pending(), 0u);
  EXPECT_TRUE(fm.edges().empty());
  fm.resolve("gamma");
  fm.finalize("observers");
  EXPECT_EQ(fm.phase_total(1).messages, 0u);
#endif
}

TEST(FlowMatrix, WriteJsonIsSortedAndInsertionOrderFree) {
  FlowMatrix a, b;
  a.record("x", "c1", 0, 1, 1);
  a.record("a", "c2", 1, 2, 1);
  a.resolve("dst");
  b.record("a", "c2", 1, 2, 1);
  b.record("x", "c1", 0, 1, 1);
  b.resolve("dst");
  json::Writer wa, wb;
  a.write_json(wa);
  b.write_json(wb);
  const std::string ja = wa.take();
  EXPECT_EQ(ja, wb.take());
  const json::Value doc = json::parse(ja);
  ASSERT_TRUE(doc.is_array());
#ifndef OBS_DISABLED
  ASSERT_EQ(doc.items.size(), 2u);
  EXPECT_EQ(doc.items[0].str_or("src", ""), "a");  // sorted by key, not insertion
  EXPECT_EQ(doc.items[1].str_or("src", ""), "x");
  EXPECT_EQ(doc.items[0].u64_or("bytes", 0), 2u);
#else
  EXPECT_TRUE(doc.items.empty());
#endif
}

// --- NetBulletin integration ------------------------------------------------

TEST(FlowTest, ConservationOnCleanRun) {
  FlowRun run = run_flow(6101, NetConfig{});
  EXPECT_TRUE(run.completed);
  expect_conserved(run);
#ifndef OBS_DISABLED
  EXPECT_FALSE(run.edges.empty());
  // Every edge has a concrete consumer: the next committee or "observers".
  // With publish-time resolution only the final committee's output posts
  // fall through to the observers fallback; every other edge names the
  // next acting committee in the handover chain.
  std::size_t observer_edges = 0;
  for (const auto& [key, cell] : run.edges) {
    EXPECT_FALSE(key.dst.empty());
    EXPECT_GT(cell.messages, 0u);
    if (key.dst == "observers") {
      ++observer_edges;
      EXPECT_EQ(key.category, "online.output.pdec") << key.src;
    }
  }
  EXPECT_GT(run.edges.size(), 2 * observer_edges);
  EXPECT_GT(run.posts[1].delivered, 0u);
  EXPECT_GT(run.posts[2].delivered, 0u);
#endif
}

TEST(FlowTest, ConservationUnderGracedWireFaults) {
  NetConfig cfg;
  cfg.wire_faults.duplicate_prob = 0.3;
  cfg.wire_faults.late_prob = 0.2;
  cfg.wire_faults.late_delay_s = 1.0;
  cfg.wire_faults.seed = 61;
  cfg.grace_window_s = 2.0;  // late posts still land
  FlowRun run = run_flow(6102, cfg);
  EXPECT_TRUE(run.completed);
  expect_conserved(run);
#ifndef OBS_DISABLED
  // The injected duplicate copies were dropped by the board, so the flow
  // matrix must count strictly fewer messages than were originated.
  std::uint64_t originated = 0, flow_total = 0;
  for (const auto& pp : run.posts) originated += pp.originated;
  for (const auto& [key, cell] : run.edges) flow_total += cell.messages;
  EXPECT_LT(flow_total, originated);
#endif
}

TEST(FlowTest, ConservationUnderLossyWireFaults) {
  NetConfig cfg;
  cfg.wire_faults.bitflip_prob = 0.1;
  cfg.wire_faults.truncate_prob = 0.1;
  cfg.wire_faults.seed = 62;
  // The run may abort (dropped posts starve the protocol); the board's
  // accounting and the flow matrix must stay conserved regardless.
  FlowRun run = run_flow(6103, cfg);
  expect_conserved(run);
}

TEST(FlowTest, ReportSectionIsDeterministicAndComplete) {
  FlowRun a = run_flow(6104, NetConfig{});
  FlowRun b = run_flow(6104, NetConfig{});

  const json::Value doc_a = json::parse(a.report);
  const json::Value doc_b = json::parse(b.report);

  // The grace window is stated even when zero.
  const json::Value* grace = doc_a.find("grace_window_s");
  ASSERT_NE(grace, nullptr);
  EXPECT_EQ(grace->number, 0.0);

  const json::Value* flow_a = doc_a.find("flow");
  const json::Value* flow_b = doc_b.find("flow");
  ASSERT_NE(flow_a, nullptr);
  ASSERT_NE(flow_b, nullptr);
  json::Writer wa, wb;
  json::write(wa, *flow_a);
  json::write(wb, *flow_b);
  EXPECT_EQ(wa.take(), wb.take()) << "identical seeded runs must serialize identically";

  const json::Value* edges = flow_a->find("edges");
  const json::Value* series = flow_a->find("series");
  ASSERT_NE(edges, nullptr);
  ASSERT_NE(series, nullptr);
#ifndef OBS_DISABLED
  EXPECT_FALSE(edges->items.empty());
  // The virtual-clock series sampled at every round flush are in the report.
  EXPECT_NE(series->find("net.inflight.bytes"), nullptr);
  EXPECT_NE(series->find("net.queue.posts"), nullptr);
#else
  EXPECT_TRUE(edges->items.empty());
  EXPECT_TRUE(series->members.empty());
#endif
}

#ifndef OBS_DISABLED

// --- Time series ------------------------------------------------------------

TEST(TimeSeries, HandlesStayValidAcrossReset) {
  obs::set_enabled(true);
  auto& reg = obs::timeseries();
  reg.reset();
  obs::Series& s = reg.series("test.series");
  s.sample(1.0, 2.0);
  ASSERT_EQ(s.points().size(), 1u);
  reg.reset();
  EXPECT_TRUE(s.points().empty());  // same handle, cleared points
  s.sample(2.0, 3.0);
  EXPECT_EQ(&reg.series("test.series"), &s);
  reg.reset();
}

TEST(TimeSeries, SamplingIsMutedWhenDisabled) {
  auto& reg = obs::timeseries();
  reg.reset();
  obs::set_enabled(false);
  reg.series("test.muted").sample(1.0, 1.0);
  EXPECT_TRUE(reg.series("test.muted").points().empty());
  obs::set_enabled(true);
  reg.series("test.muted").sample(1.0, 1.0);
  EXPECT_EQ(reg.series("test.muted").points().size(), 1u);
  reg.reset();
}

TEST(TimeSeries, ReportOmitsEmptySeriesAndSortsNames) {
  obs::set_enabled(true);
  auto& reg = obs::timeseries();
  reg.reset();
  reg.series("zz.series").sample(1.0, 10.0);
  reg.series("aa.series").sample(0.5, 5.0);
  reg.series("empty.series");  // no samples: omitted
  const json::Value doc = json::parse(reg.report_json());
  ASSERT_EQ(doc.members.size(), 2u);
  EXPECT_EQ(doc.members[0].first, "aa.series");
  EXPECT_EQ(doc.members[1].first, "zz.series");
  ASSERT_EQ(doc.members[0].second.items.size(), 1u);
  EXPECT_EQ(doc.members[0].second.items[0].items[1].number, 5.0);
  reg.reset();
}

TEST(TimeSeries, SeriesBecomeCounterTracksInChromeTrace) {
  obs::set_enabled(true);
  obs::tracer().reset();
  auto& reg = obs::timeseries();
  reg.reset();
  {
    obs::Span span("covering", "test");
    reg.series("test.counter").sample(0.25, 42.0);
  }
  const std::string trace = obs::tracer().chrome_trace_json(false);
  EXPECT_NE(trace.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(trace.find("test.counter"), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::validate_trace_json(trace, &error)) << error;
  const json::Value doc = json::parse(trace);
  bool found = false;
  for (const auto& ev : doc.find("traceEvents")->items) {
    if (ev.str_or("ph", "") == "C" && ev.str_or("name", "") == "test.counter") {
      found = true;
      EXPECT_EQ(ev.num_or("ts", 0), 0.25 * 1e6);  // virtual seconds -> us
      const json::Value* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->num_or("value", 0), 42.0);
    }
  }
  EXPECT_TRUE(found);
  reg.reset();
  obs::tracer().reset();
}

#endif  // OBS_DISABLED

}  // namespace
}  // namespace yoso
