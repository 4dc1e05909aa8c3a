// Tests for the scaling-law auditor (src/obs/scaling + src/perf/audit):
// the log-log fitter must recover synthetic O(1) / O(n) / O(n log n)
// exponents with honest confidence bands, the band check must be inclusive
// and reject out-of-band slopes, and a synthetic sweep that violates the
// paper's claim — or that the cost model does not reproduce element for
// element — must fail the audit.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "common/json.hpp"
#include "obs/scaling.hpp"
#include "perf/audit.hpp"
#include "perf/baseline.hpp"

namespace yoso {
namespace {

using obs::check_exponent;
using obs::ExponentCheck;
using obs::fit_power_law;
using obs::LinearFit;

// --- fit_power_law ----------------------------------------------------------

TEST(PowerFit, RecoversPureQuadratic) {
  std::vector<double> x = {2, 4, 8, 16, 32};
  std::vector<double> y;
  for (double v : x) y.push_back(3.0 * v * v);
  LinearFit fit = fit_power_law(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, std::log(3.0), 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
  EXPECT_LT(fit.se_slope, 1e-9);
  EXPECT_LE(fit.ci_lo, fit.slope);
  EXPECT_GE(fit.ci_hi, fit.slope);
}

TEST(PowerFit, RecoversFlatSeries) {
  std::vector<double> x = {4, 6, 8, 12, 16};
  std::vector<double> y(x.size(), 5.0);  // O(1)
  LinearFit fit = fit_power_law(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.slope, 0.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);  // degenerate: no variance to explain
}

TEST(PowerFit, RecoversLinearSeries) {
  std::vector<double> x = {4, 6, 8, 12, 16};
  std::vector<double> y;
  for (double v : x) y.push_back(7.5 * v);  // O(n)
  LinearFit fit = fit_power_law(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.slope, 1.0, 1e-9);
}

TEST(PowerFit, NLogNFitsBetweenLinearAndQuadratic) {
  std::vector<double> x = {4, 8, 16, 32, 64};
  std::vector<double> y;
  for (double v : x) y.push_back(v * std::log2(v));  // O(n log n)
  LinearFit fit = fit_power_law(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_GT(fit.slope, 1.05);
  EXPECT_LT(fit.slope, 1.5);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(PowerFit, RejectsDegenerateInput) {
  EXPECT_FALSE(fit_power_law({1, 2}, {1, 2}).ok);            // too few points
  EXPECT_FALSE(fit_power_law({1, 2, 3}, {1, 2}).ok);         // length mismatch
  EXPECT_FALSE(fit_power_law({1, 2, 3}, {1, 0, 2}).ok);      // nonpositive y
  EXPECT_FALSE(fit_power_law({-1, 2, 3}, {1, 2, 3}).ok);     // nonpositive x
  EXPECT_FALSE(fit_power_law({2, 2, 2}, {1, 2, 3}).ok);      // no x variance
}

TEST(PowerFit, ConfidenceBandWidensWithNoise) {
  std::vector<double> x = {4, 6, 8, 12, 16};
  std::vector<double> clean, noisy;
  for (std::size_t i = 0; i < x.size(); ++i) {
    clean.push_back(10.0 * x[i]);
    noisy.push_back(10.0 * x[i] * (i % 2 == 0 ? 1.3 : 0.75));
  }
  LinearFit f_clean = fit_power_law(x, clean);
  LinearFit f_noisy = fit_power_law(x, noisy);
  ASSERT_TRUE(f_clean.ok);
  ASSERT_TRUE(f_noisy.ok);
  EXPECT_GT(f_noisy.ci_hi - f_noisy.ci_lo, f_clean.ci_hi - f_clean.ci_lo);
  EXPECT_LT(f_noisy.r2, f_clean.r2);
}

TEST(TCritical, MatchesStudentTable) {
  EXPECT_DOUBLE_EQ(obs::t_critical_975(0), 0.0);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(1), 12.706);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(3), 3.182);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(10), 2.228);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(11), 1.96);
  EXPECT_DOUBLE_EQ(obs::t_critical_975(1000), 1.96);
}

// --- check_exponent ---------------------------------------------------------

TEST(ExponentCheckTest, BandIsInclusiveAndRejectsOutliers) {
  std::vector<double> x = {4, 6, 8, 12, 16};
  std::vector<double> linear;
  for (double v : x) linear.push_back(2.0 * v);

  EXPECT_TRUE(check_exponent("lin", x, linear, {0.85, 1.25}).pass);
  EXPECT_TRUE(check_exponent("lin-edge", x, linear, {1.0, 1.25}).pass);   // lo == slope
  EXPECT_FALSE(check_exponent("lin-low", x, linear, {-0.15, 0.15}).pass);  // flat claim
  EXPECT_FALSE(check_exponent("lin-high", x, linear, {1.5, 2.5}).pass);

  ExponentCheck bad = check_exponent("degenerate", {1, 2}, {1, 2}, {0, 1});
  EXPECT_FALSE(bad.pass);  // unusable fit never passes
}

// --- audit_scaling on synthetic sweeps --------------------------------------

// A synthetic scaling_audit key: ours online bytes/gate grow as
// n^ours_exponent, CDN linear, offline linear — with coefficients shaped
// like the real measurements (ours n/k elements per gate, CDN 2 partials
// per gate per member), so the cost model reproduces every point exactly.
// `skewed_n` names a point whose ours online.mult element count is off by
// one.
json::Value audit_fixture(double ours_exponent, unsigned skewed_n = 0) {
  std::ostringstream ss;
  ss << "{\"scaling_audit\":{";
  bool first = true;
  for (unsigned n : {4u, 6u, 8u, 12u, 16u}) {
    const unsigned k = (n + 2) / 4 == 0 ? 1 : (n + 2) / 4;
    const unsigned gates = 4 * n;
    const double ours_bytes = 100.0 * std::pow(n, ours_exponent) * gates;
    const double ours_elems = static_cast<double>(n) / k * gates + (n == skewed_n ? 1 : 0);
    const double cdn_elems = 2.0 * n * gates;
    const double cdn_bytes = 32.0 * cdn_elems;
    const double offline_bytes = 1000.0 * n * gates;
    if (!first) ss << ",";
    first = false;
    ss << "\"n" << n << "\":{\"t\":1,\"k\":" << k << ",\"gates\":" << gates
       << ",\"ours\":{\"online\":{\"categories\":{\"online.mult\":{\"bytes\":" << ours_bytes
       << ",\"elements\":" << ours_elems << "}}},\"offline\":{\"total\":{\"bytes\":"
       << offline_bytes << "}}},\"cdn\":{\"online\":{\"categories\":{\"cdn.mult.pdec\":"
       << "{\"bytes\":" << cdn_bytes << ",\"elements\":" << cdn_elems << "}}}}}";
  }
  ss << "}}";
  return json::parse(ss.str());
}

TEST(AuditScaling, PassesOnClaimConformingSweep) {
  perf::AuditReport report = perf::audit_scaling(audit_fixture(0.0));
  EXPECT_TRUE(report.error.empty());
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_TRUE(report.checks[0].pass) << report.checks[0].fit.slope;  // ours ~flat
  EXPECT_TRUE(report.checks[1].pass) << report.checks[1].fit.slope;  // cdn ~linear
  EXPECT_TRUE(report.checks[2].pass) << report.checks[2].fit.slope;  // offline ~linear
  ASSERT_EQ(report.model_checks.size(), 5u);
  for (const perf::ModelPointCheck& check : report.model_checks) {
    EXPECT_TRUE(check.pass()) << check.point;
  }
  const PaperScaleProjection& proj = report.projection;
  ASSERT_TRUE(proj.feasible);
  EXPECT_EQ(proj.C, 1000);
  EXPECT_EQ(proj.f, 0.05);
  EXPECT_EQ(proj.ours_params.k, 28u);  // the paper's packing factor at C=1000, f=0.05
  EXPECT_GE(proj.speedup, report.speedup_floor);
  EXPECT_DOUBLE_EQ(proj.speedup, proj.cdn.online_per_gate / proj.ours.online_per_gate);
  EXPECT_GT(proj.offline_premium, 1.0);
  EXPECT_TRUE(report.pass);

  // The machine-readable verdict parses and agrees.
  const json::Value doc = json::parse(perf::audit_report_json(report));
  EXPECT_TRUE(doc.find("pass")->boolean);
  EXPECT_EQ(doc.find("checks")->items.size(), 3u);
  const json::Value* speedup = doc.find("speedup");
  ASSERT_NE(speedup, nullptr);
  EXPECT_DOUBLE_EQ(speedup->num_or("speedup", 0), proj.speedup);
  EXPECT_DOUBLE_EQ(speedup->num_or("offline_premium", 0), proj.offline_premium);
  EXPECT_EQ(speedup->find("model_checks")->items.size(), 5u);
}

TEST(AuditScaling, FailsWhenLedgerDisagreesWithModel) {
  // Every exponent stays in band, but one point's measured online.mult
  // elements are off by one from the cost model: the audit names it.
  perf::AuditReport report = perf::audit_scaling(audit_fixture(0.0, 12));
  ASSERT_EQ(report.checks.size(), 3u);
  for (const obs::ExponentCheck& check : report.checks) EXPECT_TRUE(check.pass) << check.name;
  ASSERT_EQ(report.model_checks.size(), 5u);
  for (const perf::ModelPointCheck& check : report.model_checks) {
    EXPECT_EQ(check.pass(), check.point != "n12") << check.point;
  }
  EXPECT_FALSE(report.pass);
  EXPECT_FALSE(json::parse(perf::audit_report_json(report)).find("pass")->boolean);
}

TEST(AuditScaling, FailsWhenOnlineCostGrows) {
  // A sweep where our online cost secretly grows as n^0.5 — the flat-claim
  // band [-0.15, 0.15] must catch it and fail the whole audit.
  perf::AuditReport report = perf::audit_scaling(audit_fixture(0.5));
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_FALSE(report.checks[0].pass);
  EXPECT_NEAR(report.checks[0].fit.slope, 0.5, 0.05);
  EXPECT_FALSE(report.pass);
  EXPECT_FALSE(json::parse(perf::audit_report_json(report)).find("pass")->boolean);
}

TEST(AuditScaling, ReportsUnusableData) {
  EXPECT_FALSE(perf::audit_scaling(json::parse("{}")).error.empty());
  EXPECT_FALSE(
      perf::audit_scaling(json::parse(R"({"scaling_audit":{"n4":{}}})")).error.empty());
}

}  // namespace
}  // namespace yoso
