// Reproducible n-sweeps for the performance observatory.  `perf record`
// (tools/perf) is the only writer of the sweep keys in BENCH_comm.json:
// online_comm and offline_comm (E3/E4, protocol seeds 9000/9100/9200 + n),
// scaling_audit, profile and op_costs (the audit points below) and critpath
// (perf/critpath.hpp).  Every run draws its inputs from sweep_inputs(), so
// a recorded sweep is bit-identical to the committed numbers.
//
// The *audit* sweep is the controlled regime the scaling fitter consumes.
// ProtocolParams::for_gap lets the packing factor k drift sublinearly at
// small n (k = 1, 2, 2, 3, 4 over n = 4..16), which contaminates the
// online per-gate exponent with a spurious n/k trend; the audit regime
// pins k = max(1, (n+2)/4) so n/k stays (near) constant and the fitted
// slope measures the per-gate cost law itself.  Seeds 9300/9400 + n keep
// the audit runs distinct from the E3/E4 runs.
#pragma once

#include <gmpxx.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "mpc/params.hpp"

namespace yoso::perf {

// One point of the E3 online sweep: ours + CDN on wide_mul_circuit(4n).
struct OnlinePoint {
  unsigned n = 0, t = 0, k = 0;
  std::uint64_t gates = 0;
  double ours_mult_elems = 0;   // online.mult category, total elements
  double ours_total_elems = 0;  // online phase total, elements
  double cdn_mult_elems = 0;    // cdn.mult.pdec category, elements
  double cdn_total_elems = 0;   // CDN online phase total, elements
  std::string ours_report;      // full ledger JSON
  std::string cdn_report;
};

// One point of the E4 offline sweep: ours on wide_mul_circuit(n).
struct OfflinePoint {
  unsigned n = 0, t = 0, k = 0;
  std::uint64_t gates = 0;
  double offline_elems = 0;  // offline phase total, elements
  double offline_bytes = 0;
  std::string report;
};

// One point of the controlled fixed-ratio audit sweep: ours and CDN run
// once each under a freshly reset compute profiler, so the same point feeds
// scaling_audit (the ledgers), profile (op counts) and op_costs (counts plus
// measured self-times).
struct AuditPoint {
  unsigned n = 0, t = 0, k = 0;
  std::uint64_t gates = 0;
  double ours_mult_bytes = 0, ours_mult_elems = 0;  // online.mult category
  double cdn_mult_bytes = 0, cdn_mult_elems = 0;    // cdn.mult.pdec category
  double offline_bytes = 0, offline_elems = 0;      // ours offline phase total
  std::string ours_report;
  std::string cdn_report;
  std::string counts_json;  // {"ops":{...counts only...}} — deterministic
  std::string costs_json;   // counts + self_us + by_phase wall_us (perf/opcosts.hpp)
};

// The pinned packing factor of the audit regime: max(1, (n+2)/4), which
// ProtocolParams::validate() accepts for every n >= 4 at eps = 0.25.
unsigned audit_packing(unsigned n);

// The audit regime at committee size n: for_gap(n, 0.25, 128) with k pinned
// by audit_packing, on wide_mul_circuit(4n).  The audit and critpath points
// both run it.
struct AuditSetup {
  ProtocolParams params;
  Circuit circuit;
};
AuditSetup audit_setup(unsigned n);

// The inputs of every sweep run: Rng(seed) draws each client input below 2^20.
std::vector<std::vector<mpz_class>> sweep_inputs(const Circuit& c, std::uint64_t seed);

// Parses a `--sweep` list such as "4,8,12".  Throws std::invalid_argument
// naming the first token that is not a positive decimal integer that fits
// in an unsigned.
std::vector<unsigned> parse_sweep(const std::string& arg);

OnlinePoint run_online_point(unsigned n);
OfflinePoint run_offline_point(unsigned n);
AuditPoint run_audit_point(unsigned n);

// BENCH_comm.json values ({"n4": ..., "n6": ...}) for a recorded sweep.
std::string online_comm_json(const std::vector<OnlinePoint>& pts);
std::string offline_comm_json(const std::vector<OfflinePoint>& pts);
std::string scaling_audit_json(const std::vector<AuditPoint>& pts);

}  // namespace yoso::perf
