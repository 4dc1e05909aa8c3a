// Committee-size analysis with a corruption "gap" (Section 6).
//
// Generalizes the Benhamouda et al. [6] cryptographic-sortition analysis:
// given the sortition parameter C (the expected committee size: each of the
// N machines self-selects with probability C/N) and a global corruption
// ratio f, find the corruption bound t, the guaranteed committee size
// c = t / (1/2 - eps), and the largest achievable gap eps > 0 — hence the
// packing factor k ~ c * eps the paper's protocol can exploit.
//
// Security parameters (defaults as in the paper): the adversary gets 2^k1
// sortition attempts; phi < t must hold except with prob. 2^-k2; the
// committee-size bound must hold except with prob. 2^-k3.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace yoso {

struct SortitionConfig {
  double C = 1000;      // expected committee size (sortition parameter)
  double f = 0.05;      // global corruption ratio
  unsigned k1 = 64;     // adversary's sortition grinding budget (bits)
  unsigned k2 = 128;    // corruption-bound failure probability (bits)
  unsigned k3 = 128;    // committee-size failure probability (bits)
};

struct GapAnalysis {
  bool feasible = false;  // delta_max > 1, i.e. some eps > 0 exists
  double eps1 = 0, eps2 = 0, eps3 = 0;  // the Chernoff slack parameters
  double delta_max = 0;   // largest delta = (1/2+eps)/(1/2-eps) satisfying Eq. 6
  double eps = 0;         // the gap
  double t = 0;           // corruption bound (B1 + B2 + 1)
  double c = 0;           // committee-size lower bound with the gap
  double c_prime = 0;     // committee-size lower bound at eps = 0 (i.e. 2t)
  unsigned k = 0;         // packing factor ~ c * eps
};

// Solves Eqs. (2)-(6) for the given configuration.
GapAnalysis analyze_gap(const SortitionConfig& cfg);

// Smallest eps1 satisfying Eq. (2), first term (closed form, Eq. (4)).
double solve_eps1(double C, double f, unsigned k1, unsigned k2);
// Smallest eps2 satisfying Eq. (2), second term (closed form, Eq. (5)).
double solve_eps2(double C, double f, unsigned k2);
// Smallest eps3 satisfying the left constraint of Eq. (6).
double solve_eps3(double C, double f, unsigned k3);

}  // namespace yoso
