// Overlap-save FFT fast convolution with a process-wide plan cache.
//
// Long convolutions (dense channel tap sets, long FIR kernels) cost
// O(N * Nh) directly but O(N log B) through block FFTs.  This module provides
// the FFT path that `fir_filter_into` and the channel tap kernels switch to
// above a measured crossover (DESIGN.md §12):
//
//   * plans (exact per-stage twiddle tables) are cached per power-of-two
//     size behind a mutex -- computed once per size, then lock-free to use;
//   * each radix-2 stage runs through the dispatched simd::fft_stage, whose
//     vector entries are bitwise equal to the scalar loop, so the transform's
//     output does not depend on the dispatch table;
//   * a block whose input window lies wholly inside x and equals the
//     previous block's window byte for byte reuses that block's output
//     instead of being transformed -- a constant input (the projector's CW
//     envelope) computes only its edge blocks, with unchanged output bits;
//   * scratch comes from the caller's Arena when one is supplied (the
//     phy::Workspace arena on the trial path) or from a thread-local fallback
//     arena otherwise, so steady-state calls never touch the heap;
//   * results equal the direct kernels within 1e-9 relative tolerance (FFT
//     round-off); the dispatch escape hatch PAB_SIMD=off routes callers back
//     to the bit-exact direct loops (see dsp/simd.hpp).
//
// Every FFT-path call increments the obs counter `dsp.fftconv.hits` and adds
// its block tallies to `dsp.fftconv.blocks_computed` / `blocks_reused` (all
// in the global registry); the FIR crossover is published as the gauge
// `dsp.fftconv.crossover_len`.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

#include "dsp/arena.hpp"

namespace pab::dsp {

// FIR kernel length at or above which fftconv_fir beats the direct loop
// (measured on the dev box; see DESIGN.md §12).
[[nodiscard]] std::size_t fftconv_fir_crossover();

// Cost-model decision for a sparse tap set rendered dense: compare the
// overlap-save FFT work against `ntaps` direct accumulation passes over an
// n-sample signal.  `dense_len` is the dense impulse-response length
// (max integer tap delay + 2).
[[nodiscard]] bool fftconv_use_for_taps(std::size_t ntaps, std::size_t n,
                                        std::size_t dense_len);

// "Same"-aligned FIR through overlap-save: identical output semantics to the
// direct fir_filter_into (x zero-padded at the edges, centre-tap group-delay
// alignment, y.size() == x.size()).  `y` must not alias `x`.
void fftconv_fir(std::span<const double> h, std::span<const double> x,
                 std::span<double> y, Arena* scratch = nullptr);
void fftconv_fir(std::span<const double> h,
                 std::span<const std::complex<double>> x,
                 std::span<std::complex<double>> y, Arena* scratch = nullptr);

// Full linear convolution y = x (*) h, y.size() == x.size() + h.size() - 1.
// `y` is overwritten and must not alias `x` or `h`.
void fftconv_full(std::span<const std::complex<double>> h,
                  std::span<const std::complex<double>> x,
                  std::span<std::complex<double>> y, Arena* scratch = nullptr);
void fftconv_full(std::span<const double> h, std::span<const double> x,
                  std::span<double> y, Arena* scratch = nullptr);

// Number of distinct FFT sizes planned so far (test/diagnostic hook).
[[nodiscard]] std::size_t fftconv_plan_cache_size();

}  // namespace pab::dsp
