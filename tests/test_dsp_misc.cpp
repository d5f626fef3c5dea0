// Mixer, envelope, correlation, Goertzel, and resampling tests.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "dsp/correlate.hpp"
#include "dsp/envelope.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/mixer.hpp"
#include "dsp/resample.hpp"
#include "dsp/simd.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pab::dsp {
namespace {

TEST(Mixer, ToneProperties) {
  const Signal s = make_tone(1000.0, 2.0, 0.5, 48000.0);
  EXPECT_EQ(s.size(), 24000u);
  EXPECT_NEAR(s.duration(), 0.5, 1e-9);
  EXPECT_NEAR(signal_power(std::span<const double>(s.samples)), 2.0, 0.01);
}

TEST(Mixer, DownconvertRecoversEnvelope) {
  const double fs = 96000.0;
  const Signal s = make_tone(15000.0, 0.8, 0.1, fs);
  const auto bb = downconvert_filtered(s, 15000.0, 2000.0);
  // After settling, |bb| should equal the tone amplitude.
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = bb.size() / 2; i < bb.size(); ++i) {
    acc += std::abs(bb.samples[i]);
    ++n;
  }
  EXPECT_NEAR(acc / static_cast<double>(n), 0.8, 0.01);
}

TEST(Mixer, UpDownRoundTrip) {
  const double fs = 96000.0;
  BasebandSignal bb;
  bb.sample_rate = fs;
  bb.carrier_hz = 15000.0;
  bb.samples.assign(9600, cplx(0.5, 0.0));
  const Signal pass = upconvert(bb, 15000.0);
  const auto back = downconvert_filtered(pass, 15000.0, 2000.0);
  EXPECT_NEAR(std::abs(back.samples[back.size() / 2]), 0.5, 0.01);
}

TEST(Mixer, DownconvertDecimation) {
  const Signal s = make_tone(15000.0, 1.0, 0.1, 96000.0);
  const auto bb = downconvert_filtered(s, 15000.0, 2000.0, 5, 8);
  EXPECT_NEAR(bb.sample_rate, 12000.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(bb.size()), 9600.0 / 8.0, 2.0);
}

TEST(Envelope, RcTracksOnOffKeying) {
  const double fs = 96000.0;
  Signal s = make_tone(15000.0, 1.0, 0.02, fs);
  s.samples.resize(s.size() * 2, 0.0);  // second half silent
  const auto env = envelope_rc(s.samples, fs, 0.3e-3);
  EXPECT_GT(env[s.size() / 2], 0.8);
  EXPECT_LT(env.back(), 0.05);
}

TEST(Envelope, SchmittHysteresis) {
  // A ramp crossing both thresholds toggles once; small wiggles do not.
  std::vector<double> env;
  for (int i = 0; i < 100; ++i) env.push_back(static_cast<double>(i) / 100.0);
  for (int i = 0; i < 100; ++i) env.push_back(1.0 - static_cast<double>(i) / 100.0);
  const auto sliced = schmitt_slice(env, 0.6, 0.4);
  EXPECT_EQ(sliced.front(), 0);
  EXPECT_EQ(sliced[100], 1);
  EXPECT_EQ(sliced.back(), 0);
  // Wiggle around the midpoint after going high: stays high.
  std::vector<double> wiggle(50, 1.0);
  for (int i = 0; i < 50; ++i) wiggle.push_back(0.5 + 0.05 * ((i % 2) ? 1 : -1));
  const auto sliced2 = schmitt_slice(wiggle, 0.6, 0.4);
  EXPECT_EQ(sliced2.back(), 1);
}

TEST(Correlate, FindsKnownOffset) {
  pab::Rng rng(1);
  std::vector<double> t(64);
  for (auto& v : t) v = rng.gaussian();
  std::vector<double> x(512, 0.0);
  const std::size_t offset = 200;
  for (std::size_t i = 0; i < t.size(); ++i) x[offset + i] = t[i];
  const auto corr = cross_correlate(x, t);
  EXPECT_EQ(argmax(corr), offset);
}

TEST(Correlate, PearsonInvariantToOffsetAndScale) {
  pab::Rng rng(2);
  std::vector<double> t(64);
  for (auto& v : t) v = rng.gaussian();
  std::vector<double> x(400, 5.0);  // large DC pedestal
  const std::size_t offset = 100;
  for (std::size_t i = 0; i < t.size(); ++i) x[offset + i] = 5.0 + 0.001 * t[i];
  const auto corr = pearson_correlation(x, t);
  EXPECT_EQ(argmax(corr), offset);
  EXPECT_NEAR(corr[offset], 1.0, 1e-9);
}

TEST(Correlate, PearsonBounded) {
  pab::Rng rng(3);
  std::vector<double> t(32), x(256);
  for (auto& v : t) v = rng.gaussian();
  for (auto& v : x) v = rng.gaussian();
  for (double c : pearson_correlation(x, t)) {
    EXPECT_LE(c, 1.0 + 1e-9);
    EXPECT_GE(c, -1.0 - 1e-9);
  }
}

TEST(Correlate, NormalizedComplexPeakIsOne) {
  pab::Rng rng(4);
  std::vector<cplx> t(48);
  for (auto& v : t) v = {rng.gaussian(), rng.gaussian()};
  std::vector<cplx> x(300, cplx{});
  for (std::size_t i = 0; i < t.size(); ++i) x[77 + i] = t[i] * cplx(0.0, 2.0);
  const auto corr = normalized_correlation(x, t);
  EXPECT_EQ(argmax(corr), 77u);
  EXPECT_NEAR(corr[77], 1.0, 1e-9);
}

// ---- pearson_peak: the detector must return exactly what an exhaustive
// search of pearson_correlation_into returns, under every dispatch. ---------

constexpr simd::Isa kIsas[] = {simd::Isa::kScalar, simd::Isa::kAvx2,
                               simd::Isa::kNeon};

PearsonPeak exhaustive_peak(std::span<const double> x, std::span<const double> t,
                            std::size_t search_len) {
  std::vector<double> corr(correlation_length(x.size(), t.size()));
  pearson_correlation_into(x, t, corr);
  PearsonPeak p;
  double best = -1e300;
  for (std::size_t k = 0; k < search_len; ++k) {
    const double m = std::abs(corr[k]);
    if (m > best) { best = m; p.lag = k; }
  }
  p.value = best;
  return p;
}

// Lag and value bit-identical to the exhaustive search under every ISA the
// host can run (a forced ISA the host lacks falls back to scalar), with all
// scratch returned to the arena.
void expect_peak_is_exhaustive(std::span<const double> x,
                               std::span<const double> t,
                               std::size_t search_len, const std::string& what) {
  for (const simd::Isa isa : kIsas) {
    const simd::DispatchGuard guard(isa, /*fftconv=*/true);
    Arena arena;
    const PearsonPeak want = exhaustive_peak(x, t, search_len);
    const PearsonPeak got = pearson_peak(x, t, search_len, arena);
    EXPECT_EQ(got.lag, want.lag) << what << " under " << simd::isa_name(isa);
    EXPECT_EQ(got.value, want.value) << what << " under " << simd::isa_name(isa);
    EXPECT_EQ(arena.used_bytes(), 0u) << what;
  }
}

// Piecewise-constant template, one value per chip at `spc` samples per chip
// (fractional boundaries land like the receiver's preamble template).
std::vector<double> chip_template(const std::vector<double>& chips, double spc) {
  std::vector<double> t(static_cast<std::size_t>(
      std::ceil(static_cast<double>(chips.size()) * spc)));
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = chips[std::min(static_cast<std::size_t>(static_cast<double>(i) / spc),
                          chips.size() - 1)];
  return t;
}

TEST(PearsonPeak, ExactTiesKeepTheFirstIndex) {
  // After a noisy lead the capture repeats the template verbatim, so the
  // windows at lead, lead + M and lead + 2M hold identical samples and the
  // exact kernel scores them bit-identically.
  const auto t = chip_template({1, 1, -1, 1, -1, -1, 1, -1}, 6.5);
  pab::Rng rng(17);
  std::vector<double> x;
  for (int i = 0; i < 37; ++i) x.push_back(3.0 + rng.gaussian(0.0, 0.05));
  for (int rep = 0; rep < 3; ++rep)
    for (double v : t) x.push_back(3.0 + 0.2 * v);
  for (int i = 0; i < 20; ++i) x.push_back(3.0 + rng.gaussian(0.0, 0.05));
  const std::size_t lags = correlation_length(x.size(), t.size());
  std::vector<double> corr(lags);
  pearson_correlation_into(x, t, corr);
  ASSERT_EQ(corr[37], corr[37 + t.size()]);
  ASSERT_EQ(corr[37], corr[37 + 2 * t.size()]);
  expect_peak_is_exhaustive(x, t, lags, "ties");
  Arena arena;
  EXPECT_EQ(pearson_peak(x, t, lags, arena).lag, 37u);
  // Past the first copy the next one wins.
  expect_peak_is_exhaustive(std::span<const double>(x).subspan(38), t,
                            lags - 38, "ties, shifted");
}

TEST(PearsonPeak, FlatAndIllConditionedWindows) {
  const auto t = chip_template({1, -1, -1, 1, 1, -1, 1, -1, -1, 1}, 9.25);
  pab::Rng rng(23);

  // Constant captures: no window has variance, so the screen certifies no
  // lag and every one is refined.  At 3.5 the window means are exact, every
  // lag reads 0 and lag 0 wins; at 3.7 the exact kernel's rounded means leave
  // a residue that it scores, and the detector must score it the same way.
  for (const double level : {3.5, 3.7}) {
    const std::vector<double> flat(600, level);
    const std::size_t flat_lags = correlation_length(flat.size(), t.size());
    Arena arena;
    std::vector<double> fast(flat_lags), bound(flat_lags);
    ASSERT_TRUE(pearson_screen_into(flat, t, fast, bound, arena));
    for (std::size_t k = 0; k < flat_lags; ++k)
      EXPECT_TRUE(std::isinf(bound[k])) << "lag " << k;
    const PearsonPeak p = pearson_peak(flat, t, flat_lags, arena);
    EXPECT_EQ(p.lags_refined, flat_lags);
    if (level == 3.5) {
      EXPECT_EQ(p.lag, 0u);
      EXPECT_EQ(p.value, 0.0);
    }
    expect_peak_is_exhaustive(flat, t, flat_lags, "flat " + std::to_string(level));
  }

  // A packet after a dead-flat lead and before a dead-flat tail: the flat
  // windows are uncertifiable and refined, the packet still wins.
  std::vector<double> gated(300, 1.5);
  for (double v : t) gated.push_back(1.5 + 0.01 * v + rng.gaussian(0.0, 1e-4));
  gated.insert(gated.end(), 250, 1.5);
  expect_peak_is_exhaustive(gated, t,
                            correlation_length(gated.size(), t.size()), "gated");

  // Modulation at 1e-13 of a 1e6 pedestal: every window is ill-conditioned
  // relative to the rounding of the pedestal.
  std::vector<double> tiny;
  for (int i = 0; i < 200; ++i) tiny.push_back(1e6 + rng.gaussian(0.0, 1e-7));
  for (double v : t) tiny.push_back(1e6 + 1e-7 * v);
  for (int i = 0; i < 200; ++i) tiny.push_back(1e6 + rng.gaussian(0.0, 1e-7));
  expect_peak_is_exhaustive(tiny, t,
                            correlation_length(tiny.size(), t.size()), "tiny");

  // A single step on an otherwise zero capture.
  std::vector<double> step(500, 0.0);
  for (std::size_t i = 250; i < step.size(); ++i) step[i] = 1.0;
  expect_peak_is_exhaustive(step, t,
                            correlation_length(step.size(), t.size()), "step");
}

TEST(PearsonPeak, ManyRunTemplatesTakeTheExhaustivePath) {
  pab::Rng rng(29);
  std::vector<double> t(64), x(400);
  for (auto& v : t) v = rng.gaussian();
  for (auto& v : x) v = rng.gaussian();
  Arena arena;
  std::vector<double> fast(100), bound(100);
  EXPECT_FALSE(pearson_screen_into(x, t, fast, bound, arena));
  const PearsonPeak p = pearson_peak(x, t, 300, arena);
  EXPECT_EQ(p.lags_screened, 0u);
  EXPECT_EQ(p.lags_refined, 300u);
  expect_peak_is_exhaustive(x, t, 300, "gaussian template");
}

// Randomized sweep over pedestal, modulation depth, noise, chip levels,
// samples per chip and flat stretches: on every lag the screen certifies,
// the exact kernel's value lies within the certified bound of the fast
// value, under every dispatch; and the detector's peak is the exhaustive one
// for a random search length.
TEST(PearsonPeak, RandomizedScreenBoundsHoldOnEveryLag) {
  pab::Rng rng(31);
  std::size_t certified = 0, checked = 0;
  for (int c = 0; c < 60; ++c) {
    std::vector<double> chips(static_cast<std::size_t>(rng.uniform_int(6, 28)));
    for (auto& v : chips)
      v = c % 3 == 0 ? rng.uniform(-2.0, 2.0) : (rng.uniform() < 0.5 ? -1.0 : 1.0);
    const auto t = chip_template(chips, rng.uniform(4.0, 14.0));
    const double pedestal = std::pow(10.0, rng.uniform(-3.0, 6.0)) *
                            (rng.uniform() < 0.2 ? -1.0 : 1.0);
    const double amp = std::abs(pedestal) * std::pow(10.0, rng.uniform(-7.0, 0.0));
    const double noise = amp * std::pow(10.0, rng.uniform(-4.0, 0.5));
    const auto n = static_cast<std::size_t>(
        static_cast<double>(t.size()) * rng.uniform(1.2, 5.0));
    std::vector<double> x(n);
    const auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n - t.size())));
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = pedestal + rng.gaussian(0.0, noise);
      if (i >= offset && i < offset + t.size()) x[i] += amp * t[i - offset];
    }
    if (c % 5 == 0)  // a dead-flat stretch
      for (std::size_t i = 0; i < n / 3; ++i) x[i] = pedestal;

    const std::size_t lags = correlation_length(x.size(), t.size());
    Arena arena;
    std::vector<double> fast(lags), bound(lags), exact(lags);
    ASSERT_TRUE(pearson_screen_into(x, t, fast, bound, arena)) << "case " << c;
    for (const simd::Isa isa : kIsas) {
      const simd::DispatchGuard guard(isa, /*fftconv=*/true);
      pearson_correlation_into(x, t, exact);
      for (std::size_t k = 0; k < lags; ++k) {
        if (!std::isfinite(bound[k])) continue;
        ++checked;
        ASSERT_LE(std::abs(fast[k] - exact[k]), bound[k])
            << "case " << c << " lag " << k << " under " << simd::isa_name(isa)
            << ": fast " << fast[k] << " exact " << exact[k];
      }
    }
    for (std::size_t k = 0; k < lags; ++k) certified += std::isfinite(bound[k]);
    const auto search = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(lags)));
    expect_peak_is_exhaustive(x, t, search, "case " + std::to_string(c));
  }
  // The sweep must exercise the certified path, not only the fallback.
  EXPECT_GT(certified, checked / 10);
  EXPECT_GT(checked, 1000u);
}

TEST(Goertzel, MatchesToneAmplitude) {
  const Signal s = make_tone(15000.0, 0.7, 0.05, 96000.0);
  EXPECT_NEAR(tone_amplitude(s.samples, 15000.0, 96000.0), 0.7, 0.01);
  EXPECT_LT(tone_amplitude(s.samples, 10000.0, 96000.0), 0.01);
}

TEST(Resample, Decimate) {
  std::vector<double> x = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto y = decimate(std::span<const double>(x), 3);
  EXPECT_EQ(y, (std::vector<double>{0, 3, 6, 9}));
}

TEST(Resample, FractionalDelayInterpolates) {
  std::vector<double> x = {1.0, 0.0};
  const auto y = fractional_delay(x, 0.5);
  ASSERT_GE(y.size(), 2u);
  EXPECT_NEAR(y[0], 0.5, 1e-12);
  EXPECT_NEAR(y[1], 0.5, 1e-12);
}

TEST(Resample, AddDelayedScaledAccumulates) {
  std::vector<double> acc;
  std::vector<double> y = {1.0, 1.0};
  add_delayed_scaled(acc, y, 2.0, 0.5);
  add_delayed_scaled(acc, y, 2.0, 0.5);
  EXPECT_NEAR(acc[2], 1.0, 1e-12);
  EXPECT_NEAR(acc[3], 1.0, 1e-12);
}

TEST(Resample, ComplexGainRotates) {
  std::vector<cplx> acc;
  std::vector<cplx> y = {cplx(1.0, 0.0)};
  add_delayed_scaled(acc, y, 0.0, cplx(0.0, 1.0));
  EXPECT_NEAR(acc[0].imag(), 1.0, 1e-12);
  EXPECT_NEAR(acc[0].real(), 0.0, 1e-12);
}

TEST(Signal, AccumulateZeroPads) {
  Signal a{std::vector<double>{1.0, 1.0}, 48000.0};
  Signal b{std::vector<double>{1.0, 1.0, 1.0}, 48000.0};
  a.accumulate(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_NEAR(a[2], 1.0, 1e-12);
  Signal c{std::vector<double>{}, 44100.0};
  EXPECT_THROW(a.accumulate(c), std::invalid_argument);
}

}  // namespace
}  // namespace pab::dsp
