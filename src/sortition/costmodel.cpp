#include "sortition/costmodel.hpp"

#include <cmath>

namespace yoso {

std::size_t CircuitShape::batches(unsigned k) const {
  std::size_t total = 0;
  for (auto m : per_layer) total += (m + k - 1) / k;
  return total;
}

CircuitShape CircuitShape::of(const Circuit& c) {
  CircuitShape s;
  s.mul_gates = c.num_mul_gates();
  s.inputs = c.num_inputs();
  s.outputs = c.outputs().size();
  s.clients = c.num_clients();
  for (const auto& layer : c.mul_gates_by_layer()) s.per_layer.push_back(layer.size());
  return s;
}

CircuitShape CircuitShape::wide(std::size_t width, unsigned clients) {
  CircuitShape s;
  s.mul_gates = width;
  s.inputs = 2 * width;
  s.outputs = width;
  s.clients = clients;
  s.per_layer = {width};
  return s;
}

PackedCost packed_cost(const ProtocolParams& p, const CircuitShape& shape) {
  const double n = p.n;
  const double M = static_cast<double>(shape.mul_gates);
  const double I = static_cast<double>(shape.inputs);
  const double O = static_cast<double>(shape.outputs);
  const double B = static_cast<double>(shape.batches(p.k));
  const double L = std::max<double>(shape.depth(), 0);

  PackedCost c;
  // Offline: Beaver (3nM) + wire randomness n(I + M + 3tB) + eps/delta
  // decryptions (2nM) + re-encryption masks/partials (3n per value, values
  // = I + 3nB) + tsk hand-overs ((L + 1) * 2n^2).
  const double reenc_values = I + 3 * n * B;
  c.offline = 3 * n * M + n * (I + M + 3 * p.t * B) + 2 * n * M + 3 * n * reenc_values +
              (L + 1) * 2 * n * n;
  // Online: FKD masks/partials over L*n roles + clients (+ output pads),
  // inputs, one element per role per batch, output partials, final
  // hand-over.
  const double fkd = L * n + shape.clients;
  c.online = 2 * n * (fkd + O) + n * fkd + I + n * B + n * O + 2 * n * n;
  c.online_per_gate = M > 0 ? (n * B) / M : 0;
  return c;
}

CdnCost cdn_cost(const ProtocolParams& p, const CircuitShape& shape) {
  const double n = p.n;
  const double M = static_cast<double>(shape.mul_gates);
  const double I = static_cast<double>(shape.inputs);
  const double O = static_cast<double>(shape.outputs);
  const double L = std::max<double>(shape.depth(), 0);

  CdnCost c;
  c.offline = 3 * n * M;  // Beaver triples
  // Online: inputs + two threshold decryptions per gate + layer hand-overs
  // + output re-encryption (masks + partials).
  c.online = I + 2 * n * M + L * 2 * n * n + 3 * n * O;
  c.online_per_gate = M > 0 ? (2 * n * M) / M : 0;
  return c;
}

ProtocolParams params_from_analysis(const GapAnalysis& g, unsigned paillier_bits) {
  ProtocolParams p;
  p.n = static_cast<unsigned>(std::llround(g.c));
  p.t = static_cast<unsigned>(std::llround(g.t));
  p.k = std::max(1u, g.k);
  p.epsilon = g.eps;
  p.paillier_bits = paillier_bits;
  // Ensure the GOD constraint holds after rounding.
  while (p.k > 1 && p.recon_threshold() > p.n - p.t) --p.k;
  return p;
}

PaperScaleProjection project_paper_scale(double C, double f) {
  PaperScaleProjection proj;
  proj.C = C;
  proj.f = f;
  proj.gap = analyze_gap(SortitionConfig{C, f});
  if (!proj.gap.feasible) return proj;
  proj.ours_params = params_from_analysis(proj.gap, 2048);
  proj.cdn_params = proj.ours_params;
  proj.cdn_params.n = static_cast<unsigned>(std::llround(proj.gap.c_prime));
  proj.cdn_params.k = 1;
  proj.shape = CircuitShape::wide(std::size_t{10} * proj.cdn_params.n);
  proj.ours = packed_cost(proj.ours_params, proj.shape);
  proj.cdn = cdn_cost(proj.cdn_params, proj.shape);
  proj.speedup = proj.cdn.online_per_gate / proj.ours.online_per_gate;
  proj.offline_premium = proj.ours.offline / proj.cdn.offline;
  proj.feasible = true;
  return proj;
}

}  // namespace yoso
