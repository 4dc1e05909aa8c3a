// Analytic communication-cost model of a full protocol execution.
//
// The ledger measures real runs at laptop-scale committees; this model
// expresses those counts as closed-form functions of (n, t, k, circuit),
// is *validated against the measured ledger* in the test suite and by
// `perf audit`, and then project_paper_scale() extrapolates it to the
// Table 1 committee sizes — the one end-to-end comparison (ours vs. the
// CDN baseline, offline + online) that bench_paper_scale, E3 and `perf
// audit` print.
//
// Counts are broadcast ring/group elements; a deployment multiplies by the
// element size for its modulus.
#pragma once

#include <cstddef>

#include "circuit/circuit.hpp"
#include "mpc/params.hpp"
#include "sortition/analysis.hpp"

namespace yoso {

struct CircuitShape {
  std::size_t mul_gates = 0;
  std::size_t inputs = 0;
  std::size_t outputs = 0;
  unsigned clients = 1;
  std::vector<std::size_t> per_layer;  // mul gates per multiplicative layer

  unsigned depth() const { return static_cast<unsigned>(per_layer.size()); }
  // Number of k-batches across all layers.
  std::size_t batches(unsigned k) const;

  static CircuitShape of(const Circuit& c);
  // A synthetic wide circuit: `width` independent products, one layer.
  static CircuitShape wide(std::size_t width, unsigned clients = 2);
};

// Elements broadcast by the packed protocol, per phase.
struct PackedCost {
  double offline = 0;
  double online = 0;
  double online_per_gate = 0;
};

// Elements broadcast by the CDN baseline (triples offline, two threshold
// decryptions per gate online).
struct CdnCost {
  double offline = 0;
  double online = 0;
  double online_per_gate = 0;
};

PackedCost packed_cost(const ProtocolParams& p, const CircuitShape& shape);
CdnCost cdn_cost(const ProtocolParams& p, const CircuitShape& shape);

// A Table 1 row turned into protocol parameters: n = round(c),
// t from the analysis, k the packing factor.
ProtocolParams params_from_analysis(const GapAnalysis& g, unsigned paillier_bits);

// One Table 1 cell projected to paper scale.  Ours runs at n = round(c)
// with the analysis's packing factor; the CDN baseline runs at its own
// committee n' = round(c') with k = 1; both evaluate the same wide
// circuit of 10 * n' multiplication gates.
struct PaperScaleProjection {
  bool feasible = false;  // the sortition analysis admits a gap at (C, f)
  double C = 0, f = 0;
  GapAnalysis gap;
  ProtocolParams ours_params, cdn_params;
  CircuitShape shape;
  PackedCost ours;
  CdnCost cdn;
  double speedup = 0;          // cdn.online_per_gate / ours.online_per_gate
  double offline_premium = 0;  // ours.offline / cdn.offline
};

PaperScaleProjection project_paper_scale(double C, double f);

}  // namespace yoso
