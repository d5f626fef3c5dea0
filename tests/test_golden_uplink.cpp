// Parent-commit goldens for the overlap-save FFT convolution and the uplink
// waveform it feeds.  FNV-1a fingerprints of output bytes, taken before the
// transform moved to per-stage twiddle tables and dispatched butterflies and
// before overlap-save learned to reuse repeated input windows.  Both changes
// promise unchanged output bits, so these fingerprints must hold unchanged
// (DESIGN.md §12).
#include <gtest/gtest.h>

#include <bit>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "core/link.hpp"
#include "dsp/fftconv.hpp"
#include "dsp/simd.hpp"
#include "phy/scheme.hpp"
#include "phy/workspace.hpp"
#include "sim/session.hpp"
#include "util/rng.hpp"

namespace pab {
namespace {

using dsp::cplx;
using dsp::simd::DispatchGuard;
using dsp::simd::Isa;

std::uint64_t fnv1a(std::span<const double> v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double x : v) {
    auto bits = std::bit_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i, bits >>= 8) {
      h ^= bits & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::uint64_t fnv1a(std::span<const cplx> v) {
  const auto* parts = reinterpret_cast<const double*>(v.data());
  return fnv1a(std::span<const double>(parts, 2 * v.size()));
}

// Forces `isa` (with the FFT path on) and reports whether the host runs it.
bool host_runs(Isa isa) {
  const DispatchGuard guard(isa, true);
  return dsp::simd::active() == isa;
}

// ---- dsp::fftconv_full ------------------------------------------------------

enum class Input { kConstant, kRandom, kPiecewise, kSignedZeros };

std::vector<cplx> make_input(Input kind, std::size_t n) {
  std::vector<cplx> x(n);
  Rng rng(11);
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case Input::kConstant:
        x[i] = {0.37, -0.21};
        break;
      case Input::kRandom:
        x[i] = {rng.gaussian(), rng.gaussian()};
        break;
      case Input::kPiecewise:  // runs long enough for whole equal windows
        x[i] = {0.5 + static_cast<double>(i / 9000), -0.25};
        break;
      case Input::kSignedZeros:  // numerically constant, bytewise not
        x[i] = {1.0, (i / 5000) % 2 == 0 ? 0.0 : -0.0};
        break;
    }
  }
  return x;
}

// A 521-sample dense kernel: the 4096-point block the uplink legs use.
std::vector<cplx> kernel() {
  Rng rng(12);
  std::vector<cplx> h(521);
  for (auto& v : h) v = {rng.gaussian(0.0, 0.1), rng.gaussian(0.0, 0.1)};
  return h;
}

std::uint64_t conv_fingerprint(Input kind, std::size_t n, Isa isa) {
  const DispatchGuard guard(isa, true);
  const auto h = kernel();
  const auto x = make_input(kind, n);
  std::vector<cplx> y(x.size() + h.size() - 1);
  dsp::fftconv_full(h, x, y);
  return fnv1a(y);
}

// One fingerprint per case: the parent's pointwise spectrum product was
// already bitwise equal across dispatch tables, so both must reproduce it.
struct ConvGolden {
  Input input;
  std::size_t n;  // 3000: one block; 27456: 8 blocks; 10001: padded tail
  std::uint64_t fingerprint;
};

constexpr ConvGolden kConvGoldens[] = {
    {Input::kConstant, 3000, 0x5b461cc3fd34cca2ULL},
    {Input::kConstant, 27456, 0x340dc0f3c1a00c6aULL},
    {Input::kConstant, 10001, 0x36cf84ca90ed4e31ULL},
    {Input::kRandom, 3000, 0x1b6f700b110df14eULL},
    {Input::kRandom, 27456, 0x389ec7107ba749a2ULL},
    {Input::kRandom, 10001, 0x5021e08bebea4d00ULL},
    {Input::kPiecewise, 27456, 0x8892e00b5a1848b2ULL},
    {Input::kPiecewise, 10001, 0x8e670d3d6ec553fcULL},
    {Input::kSignedZeros, 27456, 0x17b4067e2b3f57f0ULL},
    {Input::kSignedZeros, 10001, 0x5195611fecbcb9d8ULL},
};

TEST(FftConvGolden, ScalarTableMatchesParentCommit) {
  for (const ConvGolden& g : kConvGoldens)
    EXPECT_EQ(conv_fingerprint(g.input, g.n, Isa::kScalar), g.fingerprint)
        << "input " << static_cast<int>(g.input) << " n " << g.n;
}

TEST(FftConvGolden, Avx2TableMatchesParentCommit) {
  if (!host_runs(Isa::kAvx2)) GTEST_SKIP() << "host has no AVX2";
  for (const ConvGolden& g : kConvGoldens)
    EXPECT_EQ(conv_fingerprint(g.input, g.n, Isa::kAvx2), g.fingerprint)
        << "input " << static_cast<int>(g.input) << " n " << g.n;
}

// ---- core::LinkSimulator uplink waveform ------------------------------------

// Fig 8's close placement: the node within a meter of projector and
// hydrophone (the trial benchmark's uplink workload).
core::Placement fig8_close() {
  core::Placement pl;
  pl.projector = {1.2, 1.5, 0.65};
  pl.hydrophone = {1.8, 1.5, 0.65};
  pl.node = {1.5, 2.1, 0.65};
  return pl;
}

// One trial's hydrophone capture, synthesized the way Session::run_into does.
std::uint64_t uplink_fingerprint(phy::SchemeId scheme, double bitrate,
                                 Isa isa) {
  const DispatchGuard guard(isa, true);
  sim::Scenario sc = sim::Scenario::pool_a().with_seed(5).with_placement(
      fig8_close());
  sc.medium.noise.psd_db_re_upa = 60.0;
  sc.waveform.payload_bits = 96;
  sc.waveform.scheme = scheme;
  sc.waveform.bitrate = bitrate;
  const sim::Session session(sc);
  const sim::Waveform& w = sc.waveform;
  Rng rng = session.trial_rng(3);
  std::vector<std::uint8_t> bits(w.payload_bits);
  rng.bits_into(bits);
  const double switching_rate =
      phy::scheme_descriptor(scheme).effective_bitrate(bitrate);
  const core::ModulationStates& states =
      session.modulation(0, w.carrier_hz, switching_rate);
  phy::Workspace ws;
  core::UplinkRunResult run;
  session.link().run_uplink_into(session.projector(), states, bits, w, rng, ws,
                                 run);
  return fnv1a(run.hydrophone_v.samples);
}

struct UplinkGolden {
  phy::SchemeId scheme;
  double bitrate;
  std::uint64_t avx2;
  std::uint64_t scalar;
};

constexpr UplinkGolden kUplinkGoldens[] = {
    {phy::SchemeId::kFm0, 500.0,
     0x997021e5fa968e9aULL, 0x6685f5ec5f833bbaULL},
    {phy::SchemeId::kFm0, 2000.0,
     0xd76a11a5fe2aadc4ULL, 0xd850edafb21427e0ULL},
    {phy::SchemeId::kFsk2, 500.0,
     0x46823b42b92da0f5ULL, 0x799735b247f0bdddULL},
    {phy::SchemeId::kFsk2, 2000.0,
     0xa071812187af5912ULL, 0xb08f95582279d55fULL},
    {phy::SchemeId::kFsk4, 500.0,
     0xc9b881e8ba420991ULL, 0x225ca06ba3b5e2d2ULL},
    {phy::SchemeId::kFsk4, 2000.0,
     0xb9c0572a34910ea3ULL, 0x092d8cec1c3ef45fULL},
};

TEST(UplinkGolden, ScalarTableWaveformsMatchParentCommit) {
  for (const UplinkGolden& g : kUplinkGoldens)
    EXPECT_EQ(uplink_fingerprint(g.scheme, g.bitrate, Isa::kScalar), g.scalar)
        << "scheme " << static_cast<int>(g.scheme) << " bitrate " << g.bitrate;
}

TEST(UplinkGolden, Avx2TableWaveformsMatchParentCommit) {
  if (!host_runs(Isa::kAvx2)) GTEST_SKIP() << "host has no AVX2";
  for (const UplinkGolden& g : kUplinkGoldens)
    EXPECT_EQ(uplink_fingerprint(g.scheme, g.bitrate, Isa::kAvx2), g.avx2)
        << "scheme " << static_cast<int>(g.scheme) << " bitrate " << g.bitrate;
}

}  // namespace
}  // namespace pab
