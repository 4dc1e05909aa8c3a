// Tests for the bench-file plumbing behind the performance observatory:
// the one-key-per-line BENCH_comm.json merge now goes through the
// json::parse funnel (round trips exactly, rejects malformed files instead
// of silently clobbering them), baselines flatten to suffix-toleranced
// metric maps, the JSONL history round-trips snapshots, and the `--sweep`
// list parser rejects malformed tokens before anything runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "perf/baseline.hpp"
#include "perf/benchfile.hpp"
#include "perf/history.hpp"
#include "perf/sweep.hpp"

namespace yoso {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
}

// --- merge_bench_json -------------------------------------------------------

TEST(BenchJson, MergeCreatesAndKeepsOneKeyPerLine) {
  const std::string path = temp_path("bench_create.json");
  spit(path, "");
  perf::merge_bench_json(path, "alpha", R"({"x":1})");
  perf::merge_bench_json(path, "beta", "[1,2,3]");
  const std::string text = slurp(path);
  EXPECT_EQ(text, "{\n\"alpha\": {\"x\":1},\n\"beta\": [1,2,3]\n}\n");

  // Replacing a key keeps the others and the layout.
  perf::merge_bench_json(path, "alpha", R"({"x":2})");
  EXPECT_EQ(slurp(path), "{\n\"alpha\": {\"x\":2},\n\"beta\": [1,2,3]\n}\n");
}

TEST(BenchJson, RoundTripsNestedValuesExactly) {
  const std::string path = temp_path("bench_roundtrip.json");
  spit(path, "");
  const std::string value =
      R"({"n4":{"ours":{"online":{"total":{"messages":18446744073709551615,"bytes":123}}},"s":"a\"b"}})";
  perf::merge_bench_json(path, "online_comm", value);
  auto entries = perf::read_bench_entries(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].first, "online_comm");
  // Integers survive exactly (u64 max would be mangled by a double round
  // trip) and escapes re-serialize canonically.
  EXPECT_EQ(entries[0].second, value);

  // A second merge cycle produces a byte-identical file.
  const std::string before = slurp(path);
  perf::merge_bench_json(path, "online_comm", entries[0].second);
  EXPECT_EQ(slurp(path), before);
}

TEST(BenchJson, RejectsMalformedFileAndValue) {
  const std::string path = temp_path("bench_malformed.json");
  spit(path, "{\"good\": 1\n");  // truncated object
  EXPECT_THROW(perf::merge_bench_json(path, "k", "1"), std::invalid_argument);
  // The malformed file was not clobbered by the failed merge.
  EXPECT_EQ(slurp(path), "{\"good\": 1\n");

  spit(path, "{}\n");
  EXPECT_THROW(perf::merge_bench_json(path, "k", "{broken"), std::invalid_argument);
  EXPECT_THROW(perf::merge_bench_json(path, "k", ""), std::invalid_argument);
}

TEST(BenchJson, MissingFileReadsEmpty) {
  EXPECT_TRUE(perf::read_bench_entries(temp_path("does_not_exist.json")).empty());
}

// --- baseline flatten + check -----------------------------------------------

TEST(Baseline, FlattensNumericLeavesAndSkipsCategories) {
  const json::Value doc = json::parse(
      R"({"online_comm":{"n4":{"ours":{"online":{"total":{"messages":10,"bytes":999},)"
      R"("categories":{"online.mult":{"bytes":1}}}},"label":"text"}},"ignored":{"x":1}})");
  auto metrics = perf::flatten_metrics(doc, {"online_comm"});
  EXPECT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics.at("online_comm.n4.ours.online.total.messages"), 10);
  EXPECT_EQ(metrics.at("online_comm.n4.ours.online.total.bytes"), 999);
  EXPECT_EQ(metrics.count("online_comm.n4.ours.online.categories.online.mult.bytes"), 0u);
}

TEST(Baseline, ToleranceBySuffix) {
  EXPECT_DOUBLE_EQ(perf::tolerance_for("a.b.bytes"), 0.10);
  EXPECT_DOUBLE_EQ(perf::tolerance_for("a.b.messages"), 0.0);
  EXPECT_DOUBLE_EQ(perf::tolerance_for("a.b.elements"), 0.0);
  EXPECT_DOUBLE_EQ(perf::tolerance_for("scaling_audit.n4.k"), 0.0);
  // Measured time gets the wide factor band; op call counts stay exact.
  EXPECT_DOUBLE_EQ(perf::tolerance_for("op_costs.n4.costs.ops.ct.powm_sec.self_us"), 4.0);
  EXPECT_DOUBLE_EQ(perf::tolerance_for("op_costs.n4.costs.ops.ct.powm_sec.count"), 0.0);
}

// The op_costs point payload: "ops" totals flatten (count exact, self_us
// factor-banded via the suffix above) while the per-phase breakdown — the
// cost model's input, not a gate — is skipped like "categories".
TEST(Baseline, FlattensOpCostsButSkipsByPhase) {
  const json::Value doc = json::parse(
      R"({"op_costs":{"n4":{"k":1,"costs":{"ops":{"ct.powm_sec":{"count":96,"self_us":1875.2}},)"
      R"("by_phase":{"setup":{"wall_us":9000,"ops":{"ct.powm_sec":{"count":40,"self_us":800}}}}}}}})");
  auto metrics = perf::flatten_metrics(doc, {"op_costs"});
  EXPECT_EQ(metrics.at("op_costs.n4.k"), 1);
  EXPECT_EQ(metrics.at("op_costs.n4.costs.ops.ct.powm_sec.count"), 96);
  EXPECT_DOUBLE_EQ(metrics.at("op_costs.n4.costs.ops.ct.powm_sec.self_us"), 1875.2);
  for (const auto& [key, value] : metrics) {
    EXPECT_EQ(key.find("by_phase"), std::string::npos) << key;
  }
}

TEST(Baseline, CheckFlagsRegressionsMissingAndPasses) {
  std::map<std::string, double> baseline = {
      {"x.bytes", 1000}, {"x.messages", 10}, {"gone.elements", 5}};
  std::map<std::string, double> current = {
      {"x.bytes", 1099}, {"x.messages", 10}, {"extra.bytes", 1}};
  perf::CheckResult ok = perf::check_against_baseline(
      {{"x.bytes", 1000}, {"x.messages", 10}}, current);
  EXPECT_TRUE(ok.pass());
  EXPECT_EQ(ok.checked, 2u);

  // +25% bytes is outside the +-10% band; a missing metric always fails.
  current["x.bytes"] = 1250;
  perf::CheckResult bad = perf::check_against_baseline(baseline, current);
  EXPECT_FALSE(bad.pass());
  ASSERT_EQ(bad.mismatches.size(), 2u);
  EXPECT_EQ(bad.mismatches[0].metric, "gone.elements");
  EXPECT_TRUE(bad.mismatches[0].missing);
  EXPECT_EQ(bad.mismatches[1].metric, "x.bytes");
  EXPECT_DOUBLE_EQ(bad.mismatches[1].tolerance, 0.10);

  // An exact metric fails on any drift, even a tiny one.
  current["x.bytes"] = 1000;
  current["x.messages"] = 11;
  EXPECT_FALSE(perf::check_against_baseline(baseline, current).pass());

  // An empty baseline never passes (it checks nothing).
  EXPECT_FALSE(perf::check_against_baseline({}, current).pass());
}

TEST(Baseline, ParsesFlatObjectIgnoringNonNumbers) {
  auto metrics =
      perf::parse_baseline(json::parse(R"({"a.bytes":10,"note":"text","b.messages":3})"));
  EXPECT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics.at("a.bytes"), 10);
}

// --- history ----------------------------------------------------------------

TEST(History, AppendsAndLoadsSnapshots) {
  const std::string path = temp_path("history_roundtrip.jsonl");
  spit(path, "");
  perf::HistorySnapshot a{"2026-08-06T00:00:00Z", "first", {{"m.bytes", 100}}};
  perf::HistorySnapshot b{"2026-08-06T01:00:00Z", "second", {{"m.bytes", 110}, {"m.new", 1}}};
  perf::append_history(path, a);
  perf::append_history(path, b);

  auto snaps = perf::load_history(path);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].timestamp, "2026-08-06T00:00:00Z");
  EXPECT_EQ(snaps[0].label, "first");
  EXPECT_EQ(snaps[0].metrics.at("m.bytes"), 100);
  EXPECT_EQ(snaps[1].metrics.size(), 2u);

  // One snapshot per line, parseable standalone.
  const std::string text = slurp(path);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

// History files straddle the introduction of the profiler: snapshots
// recorded before the "profile" / "op_costs" bench keys existed sit next to
// lines that carry the flattened op counts.  Both generations must load
// from one file, and the old lines simply have no op metrics — absence, not
// an error.
TEST(History, MixedGenerationLinesLoadTogether) {
  const std::string path = temp_path("history_compat.jsonl");
  // A pre-profiler line, exactly as older `perf record` builds wrote it.
  spit(path,
       R"({"timestamp":"2026-07-01T00:00:00Z","label":"pre-profiler",)"
       R"("metrics":{"online_comm.n4.ours.online.total.bytes":1234}})"
       "\n");
  perf::HistorySnapshot current{
      "2026-08-08T00:00:00Z",
      "with-profile",
      {{"online_comm.n4.ours.online.total.bytes", 1240},
       {"profile.n4.counts.ops.ct.powm_sec.count", 96},
       {"op_costs.n4.costs.ops.ct.powm_sec.self_us", 1875.2}}};
  perf::append_history(path, current);

  auto snaps = perf::load_history(path);
  ASSERT_EQ(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].label, "pre-profiler");
  EXPECT_EQ(snaps[0].metrics.size(), 1u);
  EXPECT_EQ(snaps[0].metrics.count("profile.n4.counts.ops.ct.powm_sec.count"), 0u);
  EXPECT_EQ(snaps[1].metrics.at("profile.n4.counts.ops.ct.powm_sec.count"), 96);
  // Round trip: the new-generation line re-parses bit-exactly.
  EXPECT_EQ(perf::snapshot_json(snaps[1]), perf::snapshot_json(current));
}

TEST(History, MalformedLineNamesItsLineNumber) {
  const std::string path = temp_path("history_malformed.jsonl");
  spit(path, perf::snapshot_json({"t", "l", {}}) + "\n{oops\n");
  try {
    perf::load_history(path);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// --- parse_sweep ------------------------------------------------------------

TEST(ParseSweep, ReadsCommaSeparatedPositiveIntegers) {
  EXPECT_EQ(perf::parse_sweep("4,8,12"), (std::vector<unsigned>{4, 8, 12}));
  EXPECT_EQ(perf::parse_sweep("16"), (std::vector<unsigned>{16}));
  EXPECT_EQ(perf::parse_sweep("007"), (std::vector<unsigned>{7}));
}

TEST(ParseSweep, RejectsAndNamesEachMalformedToken) {
  for (const std::string bad : {"x", "0", "-1", "4x", "", "+4", "4294967296"}) {
    const std::string arg = "4," + bad + ",8";
    try {
      perf::parse_sweep(arg);
      ADD_FAILURE() << "accepted --sweep " << arg;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + bad + "'"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(perf::parse_sweep(""), std::invalid_argument);
  EXPECT_THROW(perf::parse_sweep("4,"), std::invalid_argument);
}

}  // namespace
}  // namespace yoso
