#include "perf/critpath.hpp"

#include <algorithm>
#include <cstdlib>

#include "mpc/failure.hpp"
#include "mpc/protocol.hpp"
#include "net/net_bulletin.hpp"
#include "obs/dag/critpath.hpp"
#include "perf/sweep.hpp"

namespace yoso::perf {

CritpathPoint run_critpath_point(const CritpathOptions& opt) {
  CritpathPoint pt;
  pt.n = opt.n;
  const AuditSetup setup = audit_setup(opt.n);
  const Circuit& c = setup.circuit;
  pt.t = setup.params.t;
  pt.k = setup.params.k;
  pt.gates = c.num_mul_gates();

#ifndef OBS_DISABLED
  // Fresh profiler per point so the DAG's delta-snapshots start from a
  // clean cell (the recorder tolerates a nonzero base, but a clean one
  // keeps the reconciliation test in dag_test.cpp exact end to end).
  obs::profiler().reset();
#endif

  net::NetConfig cfg;
  cfg.faults.silence_per_committee = opt.silence;
  if (opt.churn_prob > 0) {
    cfg.churn.leave_prob = opt.churn_prob;
    cfg.churn.seed = opt.seed_base + opt.n;
  }
  Ledger ledger;
  net::NetBulletin board(ledger, cfg);

  YosoMpc ours(setup.params, c, AdversaryPlan::honest(opt.n), opt.seed_base + opt.n, &board);
  try {
    ours.run(sweep_inputs(c, opt.n));
  } catch (const ProtocolAbort&) {
    // Faulted runs may classify-abort; the DAG up to the abort still prices.
    pt.completed = false;
  }

#ifndef OBS_DISABLED
  const obs::dag::DagRecorder& dag = board.dag();
  const obs::dag::CritReport report =
      obs::dag::analyze(dag.nodes(), obs::dag::CostCoeffs::reference_table());
  pt.crit_json = obs::dag::crit_report_json(report);
  pt.dag_json = dag.report_json();
#else
  pt.crit_json = "{}";
  pt.dag_json = "{}";
#endif
  return pt;
}

std::string critpath_sweep_json(const std::vector<CritpathPoint>& pts) {
  json::Writer w;
  w.begin_object();
  for (const auto& pt : pts) {
    std::string key = "n";
    key += std::to_string(pt.n);
    w.key(key).begin_object();
    w.field("t", pt.t);
    w.field("k", pt.k);
    w.field("gates", static_cast<std::uint64_t>(pt.gates));
    w.field("completed", pt.completed);
    w.key("crit").raw(pt.crit_json);
    w.key("dag").raw(pt.dag_json);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::vector<CritpathCheck> check_critpath(const json::Value& bench, std::string* error) {
  std::vector<CritpathCheck> checks;
  const json::Value* cp = bench.find("critpath");
  if (cp == nullptr || !cp->is_object()) {
    if (error != nullptr) *error = "no critpath key; run `perf record` on an obs-enabled build";
    return checks;
  }
  for (const auto& [key, point] : cp->members) {
    if (key.size() < 2 || key[0] != 'n') continue;
    CritpathCheck check;
    check.point = key;
    const json::Value* crit = point.find("crit");
    if (crit == nullptr || !crit->is_object() || crit->find("forecast") == nullptr) {
      check.error = "point carries no forecast (OBS_DISABLED recording?)";
      checks.push_back(std::move(check));
      continue;
    }
    const double work = crit->num_or("work", 0);
    const double span = crit->num_or("span", 0);
    check.parallelism = span > 0 ? work / span : 1.0;

    // forecast is {"k1": speedup, "k2": ..., ...}; sort by numeric k.
    std::vector<std::pair<unsigned, double>> curve;
    for (const auto& [kkey, v] : crit->find("forecast")->members) {
      if (kkey.size() < 2 || kkey[0] != 'k' || !v.is_number()) continue;
      const unsigned k = static_cast<unsigned>(std::strtoul(kkey.c_str() + 1, nullptr, 10));
      if (k > 0) curve.emplace_back(k, v.number);
    }
    std::sort(curve.begin(), curve.end());
    if (curve.empty()) {
      check.error = "empty forecast curve";
      checks.push_back(std::move(check));
      continue;
    }
    constexpr double kEps = 1e-9;
    double prev = 0;
    for (const auto& [k, speedup] : curve) {
      if (speedup + kEps < prev) check.monotone = false;
      if (speedup > static_cast<double>(k) + kEps) check.bounded = false;
      if (speedup > check.parallelism + kEps) check.bounded = false;
      prev = speedup;
      check.max_speedup = speedup;
    }
    checks.push_back(std::move(check));
  }
  if (checks.empty() && error != nullptr) *error = "critpath has no usable points";
  return checks;
}

}  // namespace yoso::perf
