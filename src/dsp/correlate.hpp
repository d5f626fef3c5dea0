// Correlation utilities for packet detection and timing recovery.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "dsp/arena.hpp"

namespace pab::dsp {

// Sliding cross-correlation of `x` against template `t` (valid range only):
// out[k] = sum_i x[k+i] * conj(t[i]), k = 0 .. |x|-|t|.
[[nodiscard]] std::vector<std::complex<double>> cross_correlate(
    std::span<const std::complex<double>> x,
    std::span<const std::complex<double>> t);

[[nodiscard]] std::vector<double> cross_correlate(std::span<const double> x,
                                                  std::span<const double> t);

// Normalized correlation magnitude in [0, 1]: |<x_k, t>| / (|x_k| * |t|).
[[nodiscard]] std::vector<double> normalized_correlation(
    std::span<const std::complex<double>> x,
    std::span<const std::complex<double>> t);

// Sliding Pearson correlation in [-1, 1]: both the window of `x` and the
// template are locally mean-removed and normalized.  Robust to DC offsets and
// slow level shifts (e.g. the un-modulated carrier under a backscatter
// packet), which plain correlation is not.
[[nodiscard]] std::vector<double> pearson_correlation(std::span<const double> x,
                                                      std::span<const double> t);

// Index of the maximum element; returns 0 for empty input.
[[nodiscard]] std::size_t argmax(std::span<const double> xs);

// ---- into-output kernels (allocation-free; wrapped by the above) ----

// Valid-range correlation length: |x| - |t| + 1, or 0 when the template is
// empty or longer than the signal (the wrappers return {} in that case).
[[nodiscard]] std::size_t correlation_length(std::size_t nx, std::size_t nt);

// All into-kernels require a non-degenerate template (the wrapper-level
// empty/short guards) and out.size() == correlation_length(|x|, |t|); `out`
// must not alias `x` or `t`.
void cross_correlate_into(std::span<const std::complex<double>> x,
                          std::span<const std::complex<double>> t,
                          std::span<std::complex<double>> out);
void cross_correlate_into(std::span<const double> x, std::span<const double> t,
                          std::span<double> out);
void normalized_correlation_into(std::span<const std::complex<double>> x,
                                 std::span<const std::complex<double>> t,
                                 std::span<double> out);
// Requires |t| >= 2 in addition to the above.
void pearson_correlation_into(std::span<const double> x,
                              std::span<const double> t, std::span<double> out);

// ---- packet detection: peak of |Pearson correlation| ----------------------
//
// pearson_peak returns exactly what an exhaustive search over
// pearson_correlation_into(x, t) would: the first lag k in [0, search_len)
// whose |corr[k]| is maximal, and that value, bit-identical under every SIMD
// dispatch.  It gets there in O(search_len*runs + refined*|t|) instead of
// O(search_len*|t|), where `runs` is the number of constant runs of the
// template (a chip template is piecewise constant) and `refined` is
// typically 1:
//
//   1. screen: prefix sums of (x - r) and (x - r)^2, r the mean of the
//      searched span, give every lag's window statistics and its covariance
//      with the template in O(runs), together with a certified bound on how
//      far that fast value can lie from the exact kernel's (see
//      pearson_screen_into);
//   2. refine: every lag whose upper bound reaches the largest lower bound,
//      and every lag the screen could not certify, is recomputed with the
//      exact per-window kernel; the first-index maximum over those is the
//      exhaustive answer, since every skipped lag is strictly smaller.
//
// Templates with too many runs for the screen to pay off, templates of zero
// variance and non-finite input take the exhaustive path over the searched
// lags.  Scratch comes from `scratch` and is released before returning.
struct PearsonPeak {
  std::size_t lag = 0;
  double value = 0.0;  // |corr[lag]|
  // Work counters: lags the fast screen evaluated, lags computed exactly.
  std::size_t lags_screened = 0;
  std::size_t lags_refined = 0;
};

// Requires |t| >= 2 and 1 <= search_len <= correlation_length(|x|, |t|).
[[nodiscard]] PearsonPeak pearson_peak(std::span<const double> x,
                                       std::span<const double> t,
                                       std::size_t search_len, Arena& scratch);

// The screen on its own, over lags [0, fast.size()): fast[k] approximates
// pearson_correlation_into(x, t)[k] and bound[k] >= |fast[k] - exact[k]|
// for the exact kernel under any dispatch, from a forward error analysis of
// every rounding on both paths (prefix sums, window differences, the run
// covariance, the centred variance, sqrt and divide).  Where the window
// variance cannot be certified positive and well conditioned, fast[k] is 0
// and bound[k] is +inf.  Returns false, leaving the outputs unspecified, when
// the template has too many runs or zero variance, or the input is not
// finite.  Requires |t| >= 2, fast.size() == bound.size() <=
// correlation_length(|x|, |t|).
[[nodiscard]] bool pearson_screen_into(std::span<const double> x,
                                       std::span<const double> t,
                                       std::span<double> fast,
                                       std::span<double> bound, Arena& scratch);

}  // namespace pab::dsp
