#include "dsp/correlate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsp/simd.hpp"
#include "util/error.hpp"

namespace pab::dsp {

std::size_t correlation_length(std::size_t nx, std::size_t nt) {
  if (nt == 0 || nx < nt) return 0;
  return nx - nt + 1;
}

void cross_correlate_into(std::span<const std::complex<double>> x,
                          std::span<const std::complex<double>> t,
                          std::span<std::complex<double>> out) {
  require(out.size() == correlation_length(x.size(), t.size()),
          "cross_correlate_into: output size mismatch");
  // Sliding conjugate dot product through the dispatch layer: the scalar
  // table is the original accumulation loop verbatim.
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = simd::dot_conj(x.subspan(k, t.size()), t);
}

void cross_correlate_into(std::span<const double> x, std::span<const double> t,
                          std::span<double> out) {
  require(out.size() == correlation_length(x.size(), t.size()),
          "cross_correlate_into: output size mismatch");
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = simd::dot(x.subspan(k, t.size()), t);
}

std::vector<std::complex<double>> cross_correlate(
    std::span<const std::complex<double>> x,
    std::span<const std::complex<double>> t) {
  if (t.empty() || x.size() < t.size()) return {};
  std::vector<std::complex<double>> out(x.size() - t.size() + 1);
  cross_correlate_into(x, t, out);
  return out;
}

std::vector<double> cross_correlate(std::span<const double> x,
                                    std::span<const double> t) {
  if (t.empty() || x.size() < t.size()) return {};
  std::vector<double> out(x.size() - t.size() + 1);
  cross_correlate_into(x, t, out);
  return out;
}

void normalized_correlation_into(std::span<const std::complex<double>> x,
                                 std::span<const std::complex<double>> t,
                                 std::span<double> out) {
  require(out.size() == correlation_length(x.size(), t.size()),
          "normalized_correlation_into: output size mismatch");
  double t_energy = 0.0;
  for (const auto& v : t) t_energy += std::norm(v);
  const double t_norm = std::sqrt(t_energy);
  if (t_norm == 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }

  // Running window energy of x.
  double win_energy = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) win_energy += std::norm(x[i]);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::complex<double> acc = simd::dot_conj(x.subspan(k, t.size()), t);
    const double denom = std::sqrt(std::max(win_energy, 1e-300)) * t_norm;
    out[k] = std::abs(acc) / denom;
    if (k + t.size() < x.size())
      win_energy += std::norm(x[k + t.size()]) - std::norm(x[k]);
  }
}

std::vector<double> normalized_correlation(std::span<const std::complex<double>> x,
                                           std::span<const std::complex<double>> t) {
  if (t.empty() || x.size() < t.size()) return {};
  std::vector<double> out(x.size() - t.size() + 1);
  normalized_correlation_into(x, t, out);
  return out;
}

namespace {

// Template moments shared by the full kernel and the detector, so both see
// the same t_var bit for bit.
struct TemplateMoments {
  double sum;
  double var;
};

TemplateMoments template_moments(std::span<const double> t) {
  const auto n = static_cast<double>(t.size());
  double t_sum = 0.0, t_sq = 0.0;
  for (double v : t) { t_sum += v; t_sq += v * v; }
  return {t_sum, t_sq - t_sum * t_sum / n};
}

// Lag k of pearson_correlation_into.  Window statistics are computed fresh
// per window, centered on the window mean: cancellation-safe for small
// modulations on a large pedestal and free of running-sum drift.  With x
// centered, sum(xc) = 0, so the template's mean term drops out of the
// covariance.  Both passes run through dsp::simd (scalar dispatch reproduces
// the original loops bit-for-bit).
double pearson_at(std::span<const double> x, std::span<const double> t,
                  double t_var, std::size_t k) {
  const auto n = static_cast<double>(t.size());
  const auto window = x.subspan(k, t.size());
  const double x_mean = simd::sum(window) / n;
  const auto [cov, x_var] = simd::centered_cov_var(window, t, x_mean);
  return x_var > 1e-300 ? cov / std::sqrt(x_var * t_var) : 0.0;
}

// Unit roundoff and the classic gamma_n = n*u / (1 - n*u) of recursive
// summation analysis: a sum of n terms in any association order, with or
// without FMA, lies within gamma_{n-1} * sum|terms| of the exact sum.
constexpr double kUnitRoundoff = 0x1p-53;

double gamma(std::size_t n) {
  const double nu = static_cast<double>(n) * kUnitRoundoff;
  return nu / (1.0 - nu);
}

// The screen pays off only when a lag costs far fewer run terms than
// template samples.
constexpr std::size_t kMinMeanRunLength = 4;

}  // namespace

void pearson_correlation_into(std::span<const double> x,
                              std::span<const double> t, std::span<double> out) {
  require(t.size() >= 2, "pearson_correlation_into: template too short");
  require(out.size() == correlation_length(x.size(), t.size()),
          "pearson_correlation_into: output size mismatch");
  const double t_var = template_moments(t).var;
  if (t_var <= 0.0) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // Packet detection needs only the peak and goes through pearson_peak.
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = pearson_at(x, t, t_var, k);
}

bool pearson_screen_into(std::span<const double> x, std::span<const double> t,
                         std::span<double> fast, std::span<double> bound,
                         Arena& scratch) {
  const std::size_t m = t.size();
  const std::size_t lags = fast.size();
  require(m >= 2, "pearson_screen_into: template too short");
  require(bound.size() == lags && lags <= correlation_length(x.size(), m),
          "pearson_screen_into: output size mismatch");
  if (lags == 0) return true;
  const auto frame = scratch.frame();

  // Runs of equal template values: [run_start[j], run_start[j+1]) holds
  // run_value[j].
  std::size_t runs = 1;
  for (std::size_t i = 1; i < m; ++i) runs += t[i] != t[i - 1] ? 1 : 0;
  if (runs * kMinMeanRunLength > m) return false;
  const auto [t_sum, t_var] = template_moments(t);
  if (!(t_var > 0.0) || !std::isfinite(t_var)) return false;
  auto run_start = scratch.alloc<std::size_t>(runs + 1);
  auto run_value = scratch.alloc<double>(runs);
  double run_abs = 0.0, t_abs = 0.0, t_max = 0.0;  // sum |run value|, sum |t|
  for (std::size_t i = 0, j = 0; i < m; ++i) {
    if (i == 0 || t[i] != t[i - 1]) {
      run_start[j] = i;
      run_value[j] = t[i];
      run_abs += std::abs(t[i]);
      ++j;
    }
    t_abs += std::abs(t[i]);
    t_max = std::max(t_max, std::abs(t[i]));
  }
  run_start[runs] = m;

  // Prefix sums over the searched span, shifted by its mean r so the carrier
  // pedestal stays out of the sums.
  const std::size_t span = lags + m - 1;
  double r = 0.0;
  for (std::size_t i = 0; i < span; ++i) r += x[i];
  r /= static_cast<double>(span);
  auto p1 = scratch.alloc<double>(span + 1);
  auto p2 = scratch.alloc<double>(span + 1);
  p1[0] = p2[0] = 0.0;
  double y_abs = 0.0, x_max = 0.0;
  for (std::size_t i = 0; i < span; ++i) {
    const double y = x[i] - r;
    p1[i + 1] = p1[i] + y;
    p2[i + 1] = p2[i] + y * y;
    y_abs += std::abs(y);
    x_max = std::max(x_max, std::abs(x[i]));
  }
  if (!std::isfinite(p1[span]) || !std::isfinite(p2[span]) ||
      !std::isfinite(y_abs) || !std::isfinite(x_max))
    return false;

  // Error budget.  Reals without hats are exact: y_i = x_i - r, the window
  // sums sigma1 = sum y_i, sigma2 = sum y_i^2, the centred covariance
  // C = sum y_i t_i - sigma1 * sum(t) / m and variance V = sigma2 - sigma1^2/m
  // (shift invariant, so also those of x), and rho = C / sqrt(V * t_var)
  // with the kernel's own computed t_var.  Every bound below carries a
  // factor of 2 over the first-order term, which covers the second-order
  // terms the analysis drops.
  const double u = kUnitRoundoff;
  const double md = static_cast<double>(m);
  // |p1[j] - sum_{i<j} y_i| <= e1 and |p2[j] - sum_{i<j} y_i^2| <= e2 for
  // every j: rounding of x_i - r and of y_i^2, then recursive summation.
  const double e1 = 2.0 * gamma(span + 2) * y_abs;
  const double e2 = 2.0 * gamma(span + 4) * p2[span];
  // Template mean t_sum / m against the exact mean of t.
  const double t_mean = t_sum / md;
  const double e_tmean = 2.0 * (u * std::abs(t_mean) + gamma(m) * t_abs / md);
  // The exact kernel: its window mean lies within delta of the true mean,
  // its centred cov / var carry the summation error of m terms (in whatever
  // lane order the dispatch uses), and the divide adds a few roundings.
  const double delta = 2.0 * gamma(m + 2) * x_max;
  const double g_exact = gamma(m + 3);
  const double g_runs = gamma(runs + 3);  // the run products and their sum

  for (std::size_t k = 0; k < lags; ++k) {
    const double s1 = p1[k + m] - p1[k];
    const double s2 = p2[k + m] - p2[k];
    double d = 0.0, d_abs = 0.0;
    for (std::size_t j = 0; j < runs; ++j) {
      const double p = run_value[j] * (p1[k + run_start[j + 1]] - p1[k + run_start[j]]);
      d += p;
      d_abs += std::abs(p);
    }
    const double q = s1 * t_mean;
    const double c = d - q;
    const double s1_sq = s1 * s1 / md;
    const double v = s2 - s1_sq;

    // Fast-path errors against the exact C and V.
    const double e_s1 = 2.0 * e1 + 2.0 * u * std::abs(s1);
    const double e_s2 = 2.0 * e2 + 2.0 * u * std::abs(s2);
    const double e_d = 2.0 * e1 * run_abs + 2.0 * g_runs * d_abs;
    const double e_c = e_d + 2.0 * u * std::abs(q) + e_s1 * std::abs(t_mean) +
                       (std::abs(s1) + e_s1) * e_tmean + 2.0 * u * std::abs(c);
    const double e_v = e_s2 + 3.0 * u * s1_sq +
                       (2.0 * std::abs(s1) * e_s1 + e_s1 * e_s1) / md +
                       2.0 * u * std::abs(v);
    // Certify V >= v_lo >= v / 2 and keep the exact kernel's 1e-300
    // zero-variance branch decided: its computed variance is at least
    // v_lo * (1 - g_exact).  Uncertified lags compute garbage below and are
    // reported as fast 0, bound +inf.
    const double v_lo = v - e_v;
    const double z_exact = md * delta * delta / v_lo + 2.0 * g_exact;
    const double inv_lo = 1.01 / std::sqrt(v_lo * t_var);  // >= 1/sqrt(V t_var)
    const double rho_hi = (std::abs(c) + e_c) * inv_lo;    // >= |rho|
    const double f = c / std::sqrt(v * t_var);
    // |f - rho|: covariance error, variance error through the sqrt
    // (|sqrt(V/v) - 1| <= e_v / v), and the product/sqrt/divide roundings.
    const double e_fast = e_c * inv_lo + rho_hi * (e_v / v) + 4.0 * u * std::abs(f);
    // |exact - rho|: the exact mean's error delta shifts cov by at most
    // delta * sum|t| and var by m * delta^2; summation error is at most
    // g_exact * sum|x_i - mean||t_i| <= g_exact * t_max * sqrt(m * var).
    const double var_hi = v + e_v + md * delta * delta;
    const double e_cov = delta * t_abs + g_exact * t_max * std::sqrt(md * var_hi);
    const double e_exact = e_cov * inv_lo + rho_hi * z_exact + 8.0 * u * rho_hi;
    const double e = 1.25 * (e_fast + e_exact);
    const bool certified = v_lo >= 0.5 * v && v_lo > 1e-290 &&
                           z_exact <= 0.5 && std::isfinite(e) && std::isfinite(f);
    fast[k] = certified ? f : 0.0;
    bound[k] = certified ? e : std::numeric_limits<double>::infinity();
  }
  return true;
}

PearsonPeak pearson_peak(std::span<const double> x, std::span<const double> t,
                         std::size_t search_len, Arena& scratch) {
  require(t.size() >= 2, "pearson_peak: template too short");
  require(search_len >= 1 &&
              search_len <= correlation_length(x.size(), t.size()),
          "pearson_peak: search length out of range");
  const auto frame = scratch.frame();
  PearsonPeak peak;
  const double t_var = template_moments(t).var;
  if (t_var <= 0.0) return peak;  // every lag reads 0; the first one wins

  // The exhaustive search's rule: strict > over ascending lags keeps the
  // first index of the maximum.
  double best_v = -1e300;
  const auto refine = [&](std::size_t k) {
    const double m = std::abs(pearson_at(x, t, t_var, k));
    ++peak.lags_refined;
    if (m > best_v) { best_v = m; peak.lag = k; }
  };

  auto fast = scratch.alloc<double>(search_len);
  auto bound = scratch.alloc<double>(search_len);
  if (!pearson_screen_into(x, t, fast, bound, scratch)) {
    for (std::size_t k = 0; k < search_len; ++k) refine(k);
  } else {
    peak.lags_screened = search_len;
    // Largest certified lower bound on |exact|.  A lag whose upper bound
    // falls short of it is strictly below the maximum, so skipping it can
    // change neither the maximum nor its first index.
    double floor = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < search_len; ++k)
      if (std::isfinite(bound[k]))
        floor = std::max(floor, std::abs(fast[k]) - bound[k]);
    for (std::size_t k = 0; k < search_len; ++k)
      if (!std::isfinite(bound[k]) || std::abs(fast[k]) + bound[k] >= floor)
        refine(k);
  }
  peak.value = best_v;
  return peak;
}

std::vector<double> pearson_correlation(std::span<const double> x,
                                        std::span<const double> t) {
  if (t.size() < 2 || x.size() < t.size()) return {};
  std::vector<double> out(x.size() - t.size() + 1);
  pearson_correlation_into(x, t, out);
  return out;
}

std::size_t argmax(std::span<const double> xs) {
  if (xs.empty()) return 0;
  return static_cast<std::size_t>(
      std::distance(xs.begin(), std::max_element(xs.begin(), xs.end())));
}

}  // namespace pab::dsp
