#include "obs/scaling.hpp"

#include <cmath>

namespace yoso::obs {

double t_critical_975(std::size_t df) {
  // Two-sided 95% (upper 97.5% point).  df = m - 2 for a slope fit.
  static const double kTable[] = {0,     12.706, 4.303, 3.182, 2.776, 2.571,
                                  2.447, 2.365,  2.306, 2.262, 2.228};
  if (df == 0) return 0;
  if (df <= 10) return kTable[df];
  return 1.96;
}

LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y) {
  LinearFit fit;
  if (x.size() != y.size() || x.size() < 3) return fit;
  const std::size_t m = x.size();
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < m; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(m);
  my /= static_cast<double>(m);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < m; ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0) return fit;
  fit.points = m;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  double sse = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const double resid = y[i] - (fit.intercept + fit.slope * x[i]);
    sse += resid * resid;
  }
  fit.r2 = syy > 0 ? 1.0 - sse / syy : 1.0;
  const double df = static_cast<double>(m - 2);
  fit.se_slope = std::sqrt((sse / df) / sxx);
  const double t = t_critical_975(m - 2);
  fit.ci_lo = fit.slope - t * fit.se_slope;
  fit.ci_hi = fit.slope + t * fit.se_slope;
  fit.ok = true;
  return fit;
}

LinearFit fit_power_law(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 3) return {};
  std::vector<double> lx(x.size()), ly(y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] <= 0 || y[i] <= 0) return {};
    lx[i] = std::log(x[i]);
    ly[i] = std::log(y[i]);
  }
  return fit_linear(lx, ly);
}

ExponentCheck check_exponent(std::string name, const std::vector<double>& x,
                             const std::vector<double>& y, ExponentBand band) {
  ExponentCheck check;
  check.name = std::move(name);
  check.fit = fit_power_law(x, y);
  check.band = band;
  check.pass = check.fit.ok && check.fit.slope >= band.lo && check.fit.slope <= band.hi;
  return check;
}

}  // namespace yoso::obs
