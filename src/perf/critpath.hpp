// Critical-path sweep points and the forecast-curve gate.
//
// run_critpath_point() runs the audit-regime setup (perf::audit_setup,
// seeds 9500 + n) over a NetBulletin so the board reconstructs the
// happens-before DAG (src/obs/dag), then prices it with the *reference*
// coefficient table: the resulting work/span figures and forecast speedup
// curve are a pure function of the seeded run — byte-identical across
// machines and replays, written to BENCH_comm.json by `perf record` (E16)
// and baseline-gated by `perf check`.
//
// Fault variants (silenced roles, background churn) show how fail-stop
// faults serialize the run: dropped posts become DAG leaves, the surviving
// roles' work concentrates on fewer parallel chains, and the forecast
// curve flattens (docs/OBSERVABILITY.md, "Causality & critical path").
//
// check_critpath() is the CI gate over a recorded "critpath" key:
// speedup(k) must be non-decreasing in k (the analyzer reports the
// running-min makespan, so a violation means the recording is corrupt or
// hand-edited), bounded by k, and bounded by the point's parallelism
// ceiling.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace yoso::perf {

struct CritpathOptions {
  unsigned n = 8;
  unsigned silence = 0;       // fail-stop roles per committee
  double churn_prob = 0;      // per-role departure probability per activation
  std::uint64_t seed_base = 9500;  // run seed = seed_base + n
};

struct CritpathPoint {
  unsigned n = 0, t = 0, k = 0;
  std::uint64_t gates = 0;
  bool completed = true;     // faulted runs may abort; the DAG so far still prices
  std::string crit_json;     // crit_report_json — deterministic (reference coeffs)
  std::string dag_json;      // DAG summary (nodes/edges/kinds)
};

CritpathPoint run_critpath_point(const CritpathOptions& opt);

// BENCH value for the "critpath" key: {"n4": {...}, "n8": {...}}.
std::string critpath_sweep_json(const std::vector<CritpathPoint>& pts);

// One gated point from a recorded critpath key.
struct CritpathCheck {
  std::string point;          // "n4", "n8", ...
  bool monotone = true;       // speedup(k) non-decreasing in k
  bool bounded = true;        // speedup(k) <= k and <= parallelism
  double parallelism = 0;     // work / span
  double max_speedup = 0;     // forecast at the largest k
  std::string error;
  bool pass() const { return monotone && bounded && error.empty(); }
};

// Empty result + *error when the key is missing/unusable (a note for the
// auditor, not a failure — pre-PR-10 bench files stay auditable).
std::vector<CritpathCheck> check_critpath(const json::Value& bench, std::string* error);

}  // namespace yoso::perf
