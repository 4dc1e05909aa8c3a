// The scaling-law audit: fitted exponents vs. the paper's claims.
//
// Consumes the "scaling_audit" key recorded by tools/perf (the controlled
// fixed-ratio sweep, see perf/sweep.hpp) and renders a verdict per series:
//
//   ours.online.mult.bytes_per_gate    claimed O(1)  — band [-0.15, 0.15]
//   cdn.online.pdec.bytes_per_gate     claimed O(n)  — band [ 0.85, 1.25]
//   ours.offline.total.bytes_per_gate  claimed O(n)  — band [ 0.85, 1.75]
//
// (The offline upper band is deliberately loose: on the small-n sweep the
// per-gate cost still carries Theta(n^2)-ish key-setup terms amortized
// over Theta(n) gates, so the measured exponent sits above 1 and tightens
// as n grows.)  The audit then checks the analytic cost model
// (sortition/costmodel.hpp) against every point: the model's online
// per-gate cost times the gate count must equal the measured online.mult
// and cdn.mult.pdec element counts exactly, and the model's paper-scale
// projection at C = 1000, f = 0.05 must clear the paper's 28x floor.
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/scaling.hpp"
#include "perf/critpath.hpp"
#include "perf/opcosts.hpp"
#include "sortition/costmodel.hpp"

namespace yoso::perf {

// The cost model at one scaling_audit point: online multiplication
// elements, measured by the ledger and predicted by packed_cost/cdn_cost.
struct ModelPointCheck {
  std::string point;  // the scaling_audit key, e.g. "n16"
  double ours_measured = 0, ours_model = 0;
  double cdn_measured = 0, cdn_model = 0;
  bool pass() const { return ours_measured == ours_model && cdn_measured == cdn_model; }
};

struct AuditReport {
  std::vector<obs::ExponentCheck> checks;
  std::vector<ModelPointCheck> model_checks;
  PaperScaleProjection projection;  // at C = 1000, f = 0.05
  double speedup_floor = 28.0;      // the paper's headline ratio
  // Per-phase compute cost model, fitted when the bench file carries an
  // op_costs section (perf/opcosts.hpp).  Absent data is a note, not a
  // failure — pre-PR-9 bench files stay auditable — but a fitted model
  // below its explained-fraction floor fails the audit.
  CostModel cost_model;
  // Forecast-curve checks over the "critpath" key (perf/critpath.hpp):
  // speedup(k) non-decreasing, <= k, <= the parallelism ceiling.  Same
  // absent-is-a-note policy as the cost model.
  std::vector<CritpathCheck> critpath;
  std::string critpath_note;
  bool pass = false;
  std::string error;  // non-empty when the bench data was unusable
};

// `bench` is the parsed bench file (the whole BENCH_comm.json document).
AuditReport audit_scaling(const json::Value& bench);

// Machine-readable verdict (fits, bands, model checks, projection) for reports/CI logs.
std::string audit_report_json(const AuditReport& report);

}  // namespace yoso::perf
