// Validates the analytic cost model against the real protocol's ledger —
// the model must predict the measured element counts *exactly* (it mirrors
// the implementation's message schedule), which licenses the paper-scale
// extrapolations in the benches.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/cdn.hpp"
#include "circuit/workloads.hpp"
#include "mpc/protocol.hpp"
#include "sortition/costmodel.hpp"
#include "sortition/table1.hpp"

namespace yoso {
namespace {

std::vector<std::vector<mpz_class>> small_inputs(const Circuit& c, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<mpz_class>> inputs(c.num_clients());
  for (const auto& g : c.gates()) {
    if (g.kind == GateKind::Input) {
      inputs[g.client].push_back(mpz_class(static_cast<unsigned long>(rng.u64_below(100))));
    }
  }
  return inputs;
}

class CostModelVsMeasured : public ::testing::TestWithParam<int> {};

TEST_P(CostModelVsMeasured, PackedModelMatchesLedgerExactly) {
  Circuit c;
  switch (GetParam()) {
    case 0: c = wide_mul_circuit(4); break;
    case 1: c = inner_product_circuit(3); break;
    case 2: c = chain_circuit(2); break;
    default: c = statistics_circuit(3); break;
  }
  auto params = ProtocolParams::for_gap(5, 0.2, 128);
  YosoMpc mpc(params, c, AdversaryPlan::honest(params.n), 7600 + GetParam());
  mpc.run(small_inputs(c, GetParam()));

  auto shape = CircuitShape::of(c);
  auto model = packed_cost(params, shape);
  double measured_off =
      static_cast<double>(mpc.ledger().phase_total(Phase::Offline).elements);
  double measured_on = static_cast<double>(mpc.ledger().phase_total(Phase::Online).elements);
  EXPECT_DOUBLE_EQ(model.offline, measured_off);
  EXPECT_DOUBLE_EQ(model.online, measured_on);
}

INSTANTIATE_TEST_SUITE_P(Circuits, CostModelVsMeasured, ::testing::Values(0, 1, 2, 3));

TEST(CostModel, CdnModelMatchesLedgerExactly) {
  Circuit c = wide_mul_circuit(4);
  auto params = ProtocolParams::for_gap(5, 0.2, 128);
  CdnBaseline cdn(params, c, AdversaryPlan::honest(params.n), 7610);
  cdn.run(small_inputs(c, 99));
  auto model = cdn_cost(params, CircuitShape::of(c));
  EXPECT_DOUBLE_EQ(model.offline,
                   static_cast<double>(cdn.ledger().phase_total(Phase::Offline).elements));
  EXPECT_DOUBLE_EQ(model.online,
                   static_cast<double>(cdn.ledger().phase_total(Phase::Online).elements));
}

TEST(CostModel, OnlinePerGateIsNOverK) {
  auto params = ProtocolParams::for_gap(16, 0.25, 128);
  auto shape = CircuitShape::wide(160);
  auto model = packed_cost(params, shape);
  EXPECT_NEAR(model.online_per_gate, 16.0 / params.k, 0.01);
  auto cdn = cdn_cost(params, shape);
  EXPECT_DOUBLE_EQ(cdn.online_per_gate, 2.0 * 16);
}

TEST(CostModel, ShapeOfExtractsLayers) {
  Circuit c = chain_circuit(3);
  auto s = CircuitShape::of(c);
  EXPECT_EQ(s.depth(), 3u);
  EXPECT_EQ(s.mul_gates, 3u);
  EXPECT_EQ(s.batches(2), 3u);  // one gate per layer, never merged
  EXPECT_EQ(CircuitShape::wide(10).batches(4), 3u);
}

TEST(CostModel, ParamsFromAnalysisRespectsGod) {
  auto g = analyze_gap(SortitionConfig{1000, 0.05});
  ASSERT_TRUE(g.feasible);
  auto p = params_from_analysis(g, 2048);
  EXPECT_LE(p.recon_threshold(), p.n - p.t);
  EXPECT_GE(p.k, 1u);
  EXPECT_NEAR(static_cast<double>(p.n), g.c, 1.0);
}

TEST(CostModel, PaperScaleOrderingHolds) {
  // At every feasible Table 1 cell, the packed protocol's online cost per
  // gate beats the baseline's by a factor within [k/4, 4k] — the paper's
  // "improvement by a factor of k" up to small constants.
  for (const auto& row : generate_table1()) {
    if (!row.analysis.feasible || row.analysis.k < 4) continue;
    auto p = params_from_analysis(row.analysis, 2048);
    auto shape = CircuitShape::wide(static_cast<std::size_t>(4) * p.n);
    double ours = packed_cost(p, shape).online_per_gate;
    double theirs = cdn_cost(p, shape).online_per_gate;
    double ratio = theirs / ours;
    EXPECT_GE(ratio, row.analysis.k / 4.0) << "C=" << row.C << " f=" << row.f;
    EXPECT_LE(ratio, 4.0 * row.analysis.k) << "C=" << row.C << " f=" << row.f;
  }
}

TEST(CostModel, PaperScaleProjectionAtEveryTable1Cell) {
  // project_paper_scale is the one projection bench_paper_scale, E3 and
  // `perf audit` print: GOD holds at every feasible cell, and the two
  // ratios are exactly the model's ratios.
  std::size_t feasible = 0;
  for (const auto& row : generate_table1()) {
    const PaperScaleProjection proj = project_paper_scale(row.C, row.f);
    EXPECT_EQ(proj.feasible, row.analysis.feasible) << "C=" << row.C << " f=" << row.f;
    if (!proj.feasible) continue;
    ++feasible;
    EXPECT_LE(proj.ours_params.recon_threshold(), proj.ours_params.n - proj.ours_params.t)
        << "C=" << row.C << " f=" << row.f;
    EXPECT_EQ(proj.cdn_params.k, 1u);
    EXPECT_EQ(proj.shape.mul_gates, std::size_t{10} * proj.cdn_params.n);
    EXPECT_DOUBLE_EQ(proj.speedup, proj.cdn.online_per_gate / proj.ours.online_per_gate);
    EXPECT_DOUBLE_EQ(proj.offline_premium, proj.ours.offline / proj.cdn.offline);
  }
  EXPECT_EQ(feasible, paper_table1().size());

  // Pinned: the model prices the whole batches a 10 * c'-gate circuit
  // needs (ceil(59980 / 6633) = 10 at C=20000, f=0.05), not c/k per gate.
  const PaperScaleProjection big = project_paper_scale(20000, 0.05);
  EXPECT_EQ(big.shape.batches(big.ours_params.k), 10u);
  EXPECT_EQ(std::llround(big.speedup), 3735);
  const PaperScaleProjection headline = project_paper_scale(1000, 0.05);
  EXPECT_EQ(headline.ours_params.k, 28u);
  EXPECT_EQ(std::llround(headline.speedup), 53);
  EXPECT_GE(headline.speedup, 28.0);  // the paper's floor
  // Full execution (offline + online): ours ~3.1e9 vs CDN ~6.5e7 elements.
  EXPECT_NEAR(headline.ours.offline + headline.ours.online, 3.1e9, 0.05e9);
  EXPECT_NEAR(headline.cdn.offline + headline.cdn.online, 6.5e7, 0.05e7);
}

}  // namespace
}  // namespace yoso
