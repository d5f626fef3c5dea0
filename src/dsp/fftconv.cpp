#include "dsp/fftconv.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "dsp/fft.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pab::dsp {
namespace {

using cplx = std::complex<double>;

// ---- plan cache -------------------------------------------------------------
// A Plan is immutable after construction: exact twiddles exp(-2*pi*i*j/n)
// (computed per index, not by the accumulated `w *= wlen` recurrence of
// dsp::fft_inplace, so long transforms keep full twiddle precision).  They
// are stored per stage, contiguously: the stage with butterfly half-span
// `half` reads tw[half-1 .. 2*half-1), entry k being the size-n twiddle
// j = k*n/(2*half), so each stage streams its table instead of striding
// through one size-n/2 table.  The bit-reversal permutation is walked on the
// fly rather than tabled, which keeps a plan at n-1 complex values -- the
// size of the strided table plus its index table.  Cached per power-of-two
// size; the mutex guards only the lookup, use is lock-free.

struct Plan {
  explicit Plan(std::size_t size) : n(size), tw(size - 1) {
    for (std::size_t half = 1; half < n; half <<= 1) {
      const std::size_t stride = n / (2 * half);
      for (std::size_t k = 0; k < half; ++k) {
        const double a = -kTwoPi * static_cast<double>(k * stride) /
                         static_cast<double>(n);
        tw[half - 1 + k] = cplx(std::cos(a), std::sin(a));
      }
    }
  }

  void transform(cplx* data, bool inverse) const {
    for (std::size_t i = 1, j = 0; i < n; ++i) {  // j = bit-reverse of i
      std::size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) std::swap(data[i], data[j]);
    }
    const std::span<cplx> all(data, n);
    for (std::size_t half = 1; half < n; half <<= 1)
      simd::fft_stage(all, half, std::span(tw).subspan(half - 1, half),
                      inverse);
    if (inverse) {
      const double inv_n = 1.0 / static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) data[i] *= inv_n;
    }
  }

  std::size_t n;
  std::vector<cplx> tw;
};

std::mutex& plan_mutex() {
  static std::mutex mu;
  return mu;
}

// Leaked on purpose: kernels may run during static destruction of test
// fixtures and the cache must outlive every caller.
std::map<std::size_t, std::unique_ptr<Plan>>& plan_cache() {
  static auto* cache = new std::map<std::size_t, std::unique_ptr<Plan>>();
  return *cache;
}

const Plan& plan_for(std::size_t n) {
  const std::lock_guard<std::mutex> lock(plan_mutex());
  auto& p = plan_cache()[n];
  if (p == nullptr) p = std::make_unique<Plan>(n);
  return *p;
}

// Scratch source: the caller's arena (trial path: the phy::Workspace arena)
// or a thread-local fallback that grows once and is reused forever after.
Arena& scratch_arena(Arena* a) {
  if (a != nullptr) return *a;
  thread_local Arena tls;
  return tls;
}

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::MetricRegistry::global().counter("dsp.fftconv.hits");
  return c;
}

obs::Counter& blocks_computed_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("dsp.fftconv.blocks_computed");
  return c;
}

obs::Counter& blocks_reused_counter() {
  static obs::Counter& c =
      obs::MetricRegistry::global().counter("dsp.fftconv.blocks_reused");
  return c;
}

// Overlap-save block size: ~4x the kernel amortizes the (nh-1)-sample block
// overlap, floored at 256; never larger than one transform covering the
// whole output.
std::size_t choose_block(std::size_t nh, std::size_t nfull) {
  const std::size_t blocked = next_pow2(std::max<std::size_t>(4 * nh, 256));
  return std::min(blocked, next_pow2(nfull));
}

// Full linear convolution of complex sequences via overlap-save: for each
// output chunk [pos, pos+S) the transform input is x[pos-(nh-1) .. pos+S)
// (zero-padded outside x), and the last S samples of the circular product
// are exactly the linear convolution there.  A block whose window lies
// wholly inside x and is bytewise equal to the previous block's (also wholly
// inside x) is not transformed: the same input bytes through the same plan
// give the same output bytes, which `buf` still holds.  A constant input
// (the projector's CW envelope) thus computes only its edge blocks.
void conv_complex(std::span<const cplx> h, std::span<const cplx> x,
                  std::span<cplx> y, Arena& arena) {
  require(!h.empty(), "fftconv: empty kernel");
  const std::size_t nh = h.size();
  const std::size_t nfull = x.size() + nh - 1;
  require(y.size() == nfull, "fftconv: output size mismatch");
  if (x.empty()) {
    std::fill(y.begin(), y.end(), cplx{});
    return;
  }
  const std::size_t B = choose_block(nh, nfull);
  const std::size_t S = B - nh + 1;
  const Plan& plan = plan_for(B);
  const auto frame = arena.frame();

  auto hspec = arena.alloc_zero<cplx>(B);
  std::copy(h.begin(), h.end(), hspec.begin());
  plan.transform(hspec.data(), /*inverse=*/false);

  auto buf = arena.alloc<cplx>(B);
  const auto nx = static_cast<std::ptrdiff_t>(x.size());
  const auto nb = static_cast<std::ptrdiff_t>(B);
  const cplx* prev_window = nullptr;  // previous window, if wholly inside x
  std::uint64_t computed = 0;
  std::uint64_t reused = 0;
  for (std::size_t pos = 0; pos < nfull; pos += S) {
    const auto start =
        static_cast<std::ptrdiff_t>(pos) - static_cast<std::ptrdiff_t>(nh - 1);
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(start, 0);
    const std::ptrdiff_t hi = std::min(start + nb, nx);
    const cplx* window =
        start >= 0 && start + nb <= nx ? x.data() + start : nullptr;
    if (window != nullptr && prev_window != nullptr &&
        std::memcmp(window, prev_window, B * sizeof(cplx)) == 0) {
      ++reused;
    } else {
      std::fill(buf.begin(), buf.end(), cplx{});
      if (hi > lo)
        std::copy(x.begin() + lo, x.begin() + hi, buf.begin() + (lo - start));
      plan.transform(buf.data(), /*inverse=*/false);
      simd::cmul(buf, hspec, buf);
      plan.transform(buf.data(), /*inverse=*/true);
      ++computed;
    }
    prev_window = window;
    const std::size_t m = std::min(S, nfull - pos);
    std::copy(buf.begin() + static_cast<std::ptrdiff_t>(nh - 1),
              buf.begin() + static_cast<std::ptrdiff_t>(nh - 1 + m),
              y.begin() + static_cast<std::ptrdiff_t>(pos));
  }
  hits_counter().add();
  blocks_computed_counter().add(computed);
  blocks_reused_counter().add(reused);
}

}  // namespace

std::size_t fftconv_fir_crossover() { return 64; }

bool fftconv_use_for_taps(std::size_t ntaps, std::size_t n,
                          std::size_t dense_len) {
  if (!simd::fftconv_enabled()) return false;
  if (ntaps < 8 || n < 512 || dense_len < 16) return false;
  const std::size_t nfull = n + dense_len - 1;
  const std::size_t B = choose_block(dense_len, nfull);
  const double S = static_cast<double>(B - dense_len + 1);
  const double nblocks = std::ceil(static_cast<double>(nfull) / S);
  const double log2b = std::log2(static_cast<double>(B));
  // ~5*B*log2(B) flops per complex transform; two transforms plus the
  // pointwise product per block, one H transform, the dense-h build.
  const double fft_cost = (2.0 * nblocks + 1.0) * 5.0 *
                              static_cast<double>(B) * log2b +
                          nblocks * 6.0 * static_cast<double>(B) +
                          static_cast<double>(dense_len);
  // Complex tap accumulation: ~8 flops per sample per tap.
  const double direct_cost =
      8.0 * static_cast<double>(ntaps) * static_cast<double>(n);
  return fft_cost < direct_cost;
}

void fftconv_full(std::span<const cplx> h, std::span<const cplx> x,
                  std::span<cplx> y, Arena* scratch) {
  conv_complex(h, x, y, scratch_arena(scratch));
}

void fftconv_full(std::span<const double> h, std::span<const double> x,
                  std::span<double> y, Arena* scratch) {
  require(!h.empty(), "fftconv: empty kernel");
  require(y.size() == x.size() + h.size() - 1, "fftconv: output size mismatch");
  Arena& arena = scratch_arena(scratch);
  const auto frame = arena.frame();
  auto hc = arena.alloc<cplx>(h.size());
  auto xc = arena.alloc<cplx>(x.size());
  auto yc = arena.alloc<cplx>(y.size());
  for (std::size_t i = 0; i < h.size(); ++i) hc[i] = cplx(h[i], 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) xc[i] = cplx(x[i], 0.0);
  conv_complex(hc, xc, yc, arena);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = yc[i].real();
}

void fftconv_fir(std::span<const double> h, std::span<const double> x,
                 std::span<double> y, Arena* scratch) {
  require(!h.empty(), "fir_filter: empty kernel");
  require(y.size() == x.size(), "fir_filter_into: output size mismatch");
  if (x.empty()) return;
  Arena& arena = scratch_arena(scratch);
  const auto frame = arena.frame();
  auto hc = arena.alloc<cplx>(h.size());
  auto xc = arena.alloc<cplx>(x.size());
  auto full = arena.alloc<cplx>(x.size() + h.size() - 1);
  for (std::size_t i = 0; i < h.size(); ++i) hc[i] = cplx(h[i], 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) xc[i] = cplx(x[i], 0.0);
  conv_complex(hc, xc, full, arena);
  const std::size_t delay = (h.size() - 1) / 2;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = full[i + delay].real();
}

void fftconv_fir(std::span<const double> h, std::span<const cplx> x,
                 std::span<cplx> y, Arena* scratch) {
  require(!h.empty(), "fir_filter: empty kernel");
  require(y.size() == x.size(), "fir_filter_into: output size mismatch");
  if (x.empty()) return;
  Arena& arena = scratch_arena(scratch);
  const auto frame = arena.frame();
  auto hc = arena.alloc<cplx>(h.size());
  auto full = arena.alloc<cplx>(x.size() + h.size() - 1);
  for (std::size_t i = 0; i < h.size(); ++i) hc[i] = cplx(h[i], 0.0);
  conv_complex(hc, x, full, arena);
  const std::size_t delay = (h.size() - 1) / 2;
  std::copy(full.begin() + static_cast<std::ptrdiff_t>(delay),
            full.begin() + static_cast<std::ptrdiff_t>(delay + y.size()),
            y.begin());
}

std::size_t fftconv_plan_cache_size() {
  const std::lock_guard<std::mutex> lock(plan_mutex());
  return plan_cache().size();
}

}  // namespace pab::dsp
