#include "phy/modem.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dsp/correlate.hpp"
#include "dsp/simd.hpp"
#include "obs/metrics.hpp"
#include "phy/equalizer.hpp"
#include "phy/fec.hpp"
#include "dsp/mixer.hpp"

namespace pab::phy {

LinkQuality link_quality_from_error_ratio(double error_over_signal,
                                          double bandwidth_hz) {
  LinkQuality q;
  if (error_over_signal > 0.0 && std::isfinite(error_over_signal)) {
    q.mer_db = std::clamp(-10.0 * std::log10(error_over_signal), -kMerClampDb,
                          kMerClampDb);
    q.evm_rms = std::sqrt(error_over_signal);
  } else {
    q.mer_db = kMerClampDb;
    q.evm_rms = 0.0;
  }
  q.cn0_dbhz =
      q.mer_db + (bandwidth_hz > 0.0 ? 10.0 * std::log10(bandwidth_hz) : 0.0);
  return q;
}

LinkQuality link_quality_from_snr(double snr_db, double bandwidth_hz) {
  const double mer = std::clamp(snr_db, -kMerClampDb, kMerClampDb);
  LinkQuality q;
  q.mer_db = mer;
  q.evm_rms = std::pow(10.0, -mer / 20.0);
  q.cn0_dbhz =
      mer + (bandwidth_hz > 0.0 ? 10.0 * std::log10(bandwidth_hz) : 0.0);
  return q;
}

std::size_t backscatter_waveform_length(std::size_t n_bits, double bitrate,
                                        double sample_rate) {
  require(bitrate > 0.0 && sample_rate > 0.0, "backscatter_waveform: bad rates");
  const double spc = sample_rate / (2.0 * bitrate);  // samples per chip
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(n_bits * 2) * spc));
}

void backscatter_waveform_into(std::span<const std::uint8_t> bits,
                               double bitrate, double sample_rate,
                               std::int8_t initial_level,
                               std::span<SwitchState> out, dsp::Arena& scratch) {
  require(out.size() == backscatter_waveform_length(bits.size(), bitrate, sample_rate),
          "backscatter_waveform_into: output size mismatch");
  const auto frame = scratch.frame();
  auto chips = scratch.alloc<std::int8_t>(bits.size() * 2);
  fm0_encode_into(bits, initial_level, chips);
  const double spc = sample_rate / (2.0 * bitrate);  // samples per chip
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto chip = std::min<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(i) / spc), chips.size() - 1);
    out[i] = chips[chip] > 0 ? SwitchState::kReflective : SwitchState::kAbsorptive;
  }
}

std::vector<SwitchState> backscatter_waveform(std::span<const std::uint8_t> bits,
                                              double bitrate, double sample_rate,
                                              std::int8_t initial_level) {
  std::vector<SwitchState> out(
      backscatter_waveform_length(bits.size(), bitrate, sample_rate),
      SwitchState::kAbsorptive);
  dsp::Arena scratch(bits.size() * 2 + dsp::Arena::kAlign);
  backscatter_waveform_into(bits, bitrate, sample_rate, initial_level, out, scratch);
  return out;
}

BackscatterDemodulator::BackscatterDemodulator(DemodConfig config)
    : config_(config), metrics_(config.metrics) {
  require(config.bitrate > 0.0, "Demodulator: bitrate must be positive");
  require(config.sample_rate > 0.0, "Demodulator: sample rate must be positive");
  require(config.carrier_hz > 0.0, "Demodulator: carrier must be positive");
  preamble_chips_ = fm0_encode(uplink_preamble_bits(), /*initial_level=*/-1);
  // Level at the end of the preamble: the last chip emitted.
  post_preamble_level_ = preamble_chips_.back();
  // Receiver low-pass, designed once here and reused on every demodulation.
  const double cutoff = std::min(config_.lowpass_factor * config_.bitrate,
                                 config_.sample_rate / 2.5);
  lowpass_ = dsp::butterworth_lowpass(config_.lowpass_order, cutoff,
                                      config_.sample_rate);
  if (config_.metrics != nullptr) {
    auto& m = *config_.metrics;
    t_equalize_ = &m.histogram("phy.demod.equalize_seconds");
    t_downconvert_ = &m.histogram("phy.demod.downconvert_seconds");
  }
}

DemodInstruments::DemodInstruments(obs::MetricRegistry* metrics) {
  if (metrics == nullptr) return;
  correlate = &metrics->histogram("phy.demod.correlate_seconds");
  chanest = &metrics->histogram("phy.demod.chanest_seconds");
  attempts = &metrics->counter("phy.demod.attempts");
  ok = &metrics->counter("phy.demod.ok");
  no_preamble = &metrics->counter("phy.demod.no_preamble");
  decode_failures = &metrics->counter("phy.demod.decode_failures");
  lags_screened = &metrics->counter("phy.demod.correlate.lags_screened");
  lags_refined = &metrics->counter("phy.demod.correlate.lags_refined");
}

namespace {

void bump(obs::Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->add(n);
}

}  // namespace

Expected<PreambleDetection> detect_preamble(
    std::span<const double> envelope, double spc,
    std::span<const std::int8_t> preamble_chips, std::size_t needed,
    double threshold, dsp::Arena& scratch, const DemodInstruments& metrics) {
  bump(metrics.attempts);
  if (envelope.size() < needed) {
    bump(metrics.no_preamble);
    return Error{ErrorCode::kNoPreamble, "capture shorter than one packet"};
  }
  const auto arena_frame = scratch.frame();
  dsp::PearsonPeak peak;
  {
    const obs::ScopedTimer timer(metrics.correlate);
    // Zero-mean preamble template at envelope rate.
    const std::size_t n_chips = preamble_chips.size();
    auto tmpl = scratch.alloc<double>(static_cast<std::size_t>(
        std::ceil(static_cast<double>(n_chips) * spc)));
    for (std::size_t i = 0; i < tmpl.size(); ++i) {
      const auto chip = std::min<std::size_t>(
          static_cast<std::size_t>(static_cast<double>(i) / spc), n_chips - 1);
      tmpl[i] = static_cast<double>(preamble_chips[chip]);
    }
    const std::size_t corr_len =
        dsp::correlation_length(envelope.size(), tmpl.size());
    if (corr_len == 0 || tmpl.size() < 2) {
      bump(metrics.no_preamble);
      return Error{ErrorCode::kNoPreamble, "correlation empty"};
    }
    // Search only the lags after which the whole packet fits.
    std::size_t search_len = corr_len;
    if (needed < envelope.size())
      search_len = std::min(search_len, envelope.size() - needed + 1);
    peak = dsp::pearson_peak(envelope, tmpl, search_len, scratch);
  }
  bump(metrics.lags_screened, peak.lags_screened);
  bump(metrics.lags_refined, peak.lags_refined);
  if (peak.value < threshold) {
    bump(metrics.no_preamble);
    return Error{ErrorCode::kNoPreamble, "no preamble above threshold"};
  }
  return PreambleDetection{peak.lag, peak.value};
}

Expected<ChannelLevels> estimate_levels(
    std::span<const double> envelope, std::size_t start, double spc,
    std::span<const std::int8_t> preamble_chips, dsp::Arena& scratch,
    const DemodInstruments& metrics) {
  const auto arena_frame = scratch.frame();
  const std::size_t n_chips = preamble_chips.size();
  auto pre_soft = scratch.alloc<double>(n_chips);
  BackscatterDemodulator::integrate_chips_into(
      envelope, static_cast<double>(start), spc, pre_soft);
  double hi = 0.0, lo = 0.0;
  std::size_t nhi = 0, nlo = 0;
  for (std::size_t c = 0; c < n_chips; ++c) {
    if (preamble_chips[c] > 0) { hi += pre_soft[c]; ++nhi; }
    else { lo += pre_soft[c]; ++nlo; }
  }
  if (nhi == 0 || nlo == 0) {
    bump(metrics.decode_failures);
    return Error{ErrorCode::kDecodeFailure, "degenerate preamble"};
  }
  hi /= static_cast<double>(nhi);
  lo /= static_cast<double>(nlo);
  const ChannelLevels levels{(hi - lo) / 2.0, (hi + lo) / 2.0};
  if (levels.amp == 0.0) {
    bump(metrics.decode_failures);
    return Error{ErrorCode::kDecodeFailure, "zero modulation depth"};
  }
  return levels;
}

void BackscatterDemodulator::integrate_chips_into(std::span<const double> env,
                                                  double start,
                                                  double samples_per_chip,
                                                  std::span<double> out) {
  for (std::size_t c = 0; c < out.size(); ++c) {
    const auto lo = static_cast<std::size_t>(
        std::lround(start + static_cast<double>(c) * samples_per_chip));
    const auto hi = static_cast<std::size_t>(
        std::lround(start + static_cast<double>(c + 1) * samples_per_chip));
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = lo; i < hi && i < env.size(); ++i) {
      acc += env[i];
      ++n;
    }
    out[c] = n > 0 ? acc / static_cast<double>(n) : 0.0;
  }
}

std::vector<double> BackscatterDemodulator::integrate_chips(
    std::span<const double> env, double start, double samples_per_chip,
    std::size_t n_chips) {
  std::vector<double> out(n_chips, 0.0);
  integrate_chips_into(env, start, samples_per_chip, out);
  return out;
}

Expected<bool> BackscatterDemodulator::demodulate_envelope_into(
    std::span<const double> envelope, double envelope_rate, std::size_t n_bits,
    dsp::Arena& scratch, DemodResult& out) const {
  const auto arena_frame = scratch.frame();
  const double spc = envelope_rate / (2.0 * config_.bitrate);
  require(spc >= 2.0, "demodulate: fewer than 2 samples per chip");
  const std::size_t n_pre_chips = preamble_chips_.size();
  const std::size_t n_data_chips = 2 * n_bits;
  const auto needed = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n_pre_chips + n_data_chips) * spc));
  const auto detected =
      detect_preamble(envelope, spc, preamble_chips_, needed,
                      config_.detect_threshold, scratch, metrics_);
  if (!detected.ok()) return detected.error();
  const std::size_t best = detected.value().start;

  // Channel estimation from the preamble chips + soft chip integration.
  double amp = 0.0, mid = 0.0;
  auto soft = scratch.alloc<double>(n_data_chips);
  {
    const obs::ScopedTimer timer(metrics_.chanest);
    const auto levels = estimate_levels(envelope, best, spc, preamble_chips_,
                                        scratch, metrics_);
    if (!levels.ok()) return levels.error();
    amp = levels.value().amp;  // signed: negative for inverted levels
    mid = levels.value().mid;

    // Soft data chips, normalized to +/-1 nominal.
    const double data_start =
        static_cast<double>(best) + static_cast<double>(n_pre_chips) * spc;
    integrate_chips_into(envelope, data_start, spc, soft);
    for (double& v : soft) v = (v - mid) / amp;
  }

  out.bits.resize(n_bits);  // reuses capacity in steady state
  fm0_decode_ml_into(soft, post_preamble_level_, out.bits, scratch);
  out.start_sample = best;
  out.channel_amp = std::abs(amp);
  out.mid_level = mid;
  out.preamble_corr = detected.value().corr;

  if (config_.decision_directed_equalizer) {
    // Second pass: treat the first decision as training, equalize the chip
    // stream, decode again.  With a mostly-correct first pass this cancels
    // the reverberation tail that limits chip SNR.  (This optional pass
    // still allocates: the normal-equation solve is vector-based.)
    const obs::ScopedTimer timer(t_equalize_);
    const Chips ref_chips = fm0_encode(out.bits, post_preamble_level_);
    std::vector<std::complex<double>> rx(soft.size());
    for (std::size_t c = 0; c < soft.size(); ++c) rx[c] = {soft[c], 0.0};
    std::vector<double> ref(ref_chips.begin(), ref_chips.end());
    LinearEqualizer eq;
    if (rx.size() >= static_cast<std::size_t>(4 * eq.tap_count())) {
      eq.train(rx, ref);
      const auto eq_out = eq.apply(rx);
      for (std::size_t c = 0; c < soft.size(); ++c) soft[c] = eq_out[c].real();
      out.bits = fm0_decode_ml(soft, post_preamble_level_);
    }
  }

  // SNR per the paper: re-encode the decoded bits, compare chip-level.
  auto ref = scratch.alloc<std::int8_t>(n_data_chips);
  fm0_encode_into(out.bits, post_preamble_level_, ref);
  double noise = 0.0;
  for (std::size_t c = 0; c < n_data_chips; ++c) {
    const double e = soft[c] - static_cast<double>(ref[c]);
    noise += e * e;
  }
  noise = noise / static_cast<double>(n_data_chips) * amp * amp;
  out.snr_db = noise > 0.0
                   ? std::clamp(10.0 * std::log10(amp * amp / noise), -60.0, 60.0)
                   : 60.0;
  // Soft metrics: the normalized chips are the symbol estimates (nominal
  // +/-1), so noise/amp^2 is exactly the error-vector power per unit signal
  // and the FM0 MER coincides with the paper's SNR estimator (pre-clamp).
  // Detection bandwidth = the chip rate.
  out.quality = link_quality_from_error_ratio(noise / (amp * amp),
                                              2.0 * config_.bitrate);
  bump(metrics_.ok);
  return true;
}

Expected<DemodResult> BackscatterDemodulator::demodulate_envelope(
    std::span<const double> envelope, double envelope_rate,
    std::size_t n_bits) const {
  dsp::Arena scratch;
  DemodResult out;
  const auto ok = demodulate_envelope_into(envelope, envelope_rate, n_bits,
                                           scratch, out);
  if (!ok.ok()) return ok.error();
  return out;
}

Expected<bool> BackscatterDemodulator::demodulate_into(
    std::span<const double> passband, double sample_rate, std::size_t n_bits,
    dsp::Arena& scratch, DemodResult& out) const {
  require(sample_rate == config_.sample_rate, "demodulate: sample rate mismatch");
  const auto arena_frame = scratch.frame();
  std::span<double> env;
  double envelope_rate = 0.0;
  {
    const obs::ScopedTimer timer(t_downconvert_);
    const dsp::CplxView bb = dsp::downconvert_filtered(
        passband, sample_rate, config_.carrier_hz, lowpass_, /*decim=*/1, scratch);
    auto e = scratch.alloc<double>(bb.size());
    dsp::simd::magnitude(bb.samples, e);
    env = e;
    envelope_rate = bb.sample_rate;
  }
  return demodulate_envelope_into(env, envelope_rate, n_bits, scratch, out);
}

Expected<DemodResult> BackscatterDemodulator::demodulate(
    const dsp::Signal& passband, std::size_t n_bits) const {
  dsp::Arena scratch;
  DemodResult out;
  const auto ok = demodulate_into(passband.samples, passband.sample_rate, n_bits,
                                  scratch, out);
  if (!ok.ok()) return ok.error();
  return out;
}

Expected<UplinkPacket> demodulate_packet(const dsp::Signal& passband,
                                         const DemodConfig& config,
                                         std::size_t payload_len, bool robust) {
  const BackscatterDemodulator demod(config);
  const std::size_t body_bits =
      UplinkPacket::bits_on_air(payload_len, /*include_preamble=*/false);
  const std::size_t n_bits = robust ? fec_coded_size(body_bits) : body_bits;
  auto r = demod.demodulate(passband, n_bits);
  if (!r.ok()) return r.error();
  // Packet reassembly + CRC validation (timed as the decode chain's last
  // stage when the config carries a registry).
  obs::Histogram* t_crc = config.metrics != nullptr
                              ? &config.metrics->histogram("phy.demod.crc_seconds")
                              : nullptr;
  const obs::ScopedTimer timer(t_crc);
  Bits body = std::move(r.value().bits);
  if (robust) body = fec_recover(body, body_bits);
  auto packet = UplinkPacket::from_bits(body, /*has_preamble=*/false);
  if (!packet) {
    if (config.metrics != nullptr)
      config.metrics->counter("phy.demod.crc_mismatch").add();
    return Error{ErrorCode::kCrcMismatch, "packet CRC failed"};
  }
  return *packet;
}

}  // namespace pab::phy
