#include "sortition/analysis.hpp"

#include <cmath>

namespace yoso {

namespace {
constexpr double kLn2 = 0.6931471805599453;
}

double solve_eps1(double C, double f, unsigned k1, unsigned k2) {
  // C = (k1 + k2 + 1)(2 + eps1) ln2 / (f eps1^2)  =>
  // f C eps1^2 - A eps1 - 2A = 0 with A = (k1 + k2 + 1) ln2.
  const double A = (k1 + k2 + 1) * kLn2;
  const double M = f * C;
  return (A + std::sqrt(A * A + 8.0 * A * M)) / (2.0 * M);
}

double solve_eps2(double C, double f, unsigned k2) {
  const double A = (k2 + 1) * kLn2;
  const double M = f * (1.0 - f) * C;
  return (A + std::sqrt(A * A + 8.0 * A * M)) / (2.0 * M);
}

double solve_eps3(double C, double f, unsigned k3) {
  return std::sqrt(2.0 * k3 * kLn2 / (C * (1.0 - f) * (1.0 - f)));
}

GapAnalysis analyze_gap(const SortitionConfig& cfg) {
  GapAnalysis out;
  out.eps1 = solve_eps1(cfg.C, cfg.f, cfg.k1, cfg.k2);
  out.eps2 = solve_eps2(cfg.C, cfg.f, cfg.k2);
  out.eps3 = solve_eps3(cfg.C, cfg.f, cfg.k3);
  if (out.eps3 >= 1.0) return out;  // committee too small for the k3 bound

  const double B1 = cfg.f * cfg.C * (1.0 + out.eps1);
  const double B2 = cfg.f * (1.0 - cfg.f) * cfg.C * (1.0 + out.eps2);
  out.t = B1 + B2 + 1.0;

  // Right inequality of Eq. (6):
  //   delta <= (1 - eps3)(1-f)^2 C / (B1 + B2).
  out.delta_max = (1.0 - out.eps3) * (1.0 - cfg.f) * (1.0 - cfg.f) * cfg.C / (B1 + B2);
  if (out.delta_max <= 1.0) return out;  // not even eps = 0 achievable

  out.feasible = true;
  // delta = (1/2 + eps)/(1/2 - eps)  =>  eps = (delta - 1) / (2 (delta + 1)).
  out.eps = (out.delta_max - 1.0) / (2.0 * (out.delta_max + 1.0));
  out.c = out.t / (0.5 - out.eps);
  out.c_prime = 2.0 * out.t;
  out.k = static_cast<unsigned>(std::floor(out.c * out.eps));
  return out;
}

}  // namespace yoso
