// Scaling-law auditor: turns the paper's asymptotic claims into measured,
// machine-checked exponents.
//
// The paper's headline numbers are slopes, not byte counts: online cost is
// O(1) per multiplication gate, offline is O(n), the CDN baseline's online
// cost is O(n).  fit_power_law() runs an ordinary least-squares fit on
// (log n, log y) and returns the fitted exponent with a 95% confidence
// band (Student-t on the slope's standard error), so an n-sweep of per-gate
// totals becomes a verdict: check_exponent() compares the fitted slope
// against a declared band and passes or fails.
//
// The paper-scale projection of the headline ratio lives with the cost
// model (sortition/costmodel.hpp), not here.
//
// This header is pure analysis — no protocol state, no recording — so it
// is NOT gated by OBS_DISABLED: tools/perf must audit no-obs builds too.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace yoso::obs {

// An ordinary least-squares fit y ~ a + b x.
struct LinearFit {
  bool ok = false;       // >= 3 points with nonzero x variance
  std::size_t points = 0;
  double slope = 0;      // b
  double intercept = 0;  // a
  double r2 = 0;
  double se_slope = 0;   // standard error of the slope
  double ci_lo = 0;      // 95% confidence band on the slope
  double ci_hi = 0;
};

// Plain (untransformed) OLS y ~ a + b x.  Used by the per-phase compute
// cost model: x = Σ count_p · µs_p predicted from per-op self-times,
// y = measured phase wall-clock; slope ≈ 1 with small residual means the
// primitive terms explain the phase (tools/perf audit, docs/PROFILING.md).
LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

// fit_linear on (log x, log y): slope is the exponent b in y ~ a * x^b and
// intercept is log(a).  Points with x <= 0 or y <= 0 are rejected (the fit
// reports ok = false rather than silently dropping them).
LinearFit fit_power_law(const std::vector<double>& x, const std::vector<double>& y);

// Two-sided 97.5% Student-t critical value for `df` degrees of freedom
// (exact table for df <= 10, 1.96 asymptote above).
double t_critical_975(std::size_t df);

struct ExponentBand {
  double lo = 0;
  double hi = 0;
};

struct ExponentCheck {
  std::string name;
  LinearFit fit;
  ExponentBand band;
  bool pass = false;  // fit ok and band.lo <= slope <= band.hi
};

ExponentCheck check_exponent(std::string name, const std::vector<double>& x,
                             const std::vector<double>& y, ExponentBand band);

}  // namespace yoso::obs
