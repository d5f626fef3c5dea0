#include "checks.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "workloads.hpp"

namespace pabbench {

using namespace pab;

namespace {

std::string format(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

double euclid(const channel::Vec3& a, const channel::Vec3& b) {
  const double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const phy::LinkQuality& a, const phy::LinkQuality& b) {
  return same(a.evm_rms, b.evm_rms) && same(a.mer_db, b.mer_db) &&
         same(a.cn0_dbhz, b.cn0_dbhz);
}

bool same(const mac::InventoryStats& a, const mac::InventoryStats& b) {
  return a.frames == b.frames && a.slots == b.slots &&
         a.singletons == b.singletons && a.collisions == b.collisions &&
         a.empties == b.empties;
}

bool same(const mac::TransactionStats& a, const mac::TransactionStats& b) {
  return a.attempts == b.attempts && a.successes == b.successes &&
         a.crc_failures == b.crc_failures && a.no_response == b.no_response &&
         a.retries == b.retries &&
         same(a.payload_bits_delivered, b.payload_bits_delivered) &&
         same(a.elapsed_s, b.elapsed_s);
}

// Ids must be distinct and inside [lo, hi].
template <typename Id>
std::string check_ids(const std::vector<Id>& ids, std::uint64_t lo,
                      std::uint64_t hi) {
  std::vector<bool> seen(hi + 1, false);
  for (const Id id : ids) {
    const auto v = static_cast<std::uint64_t>(id);
    if (v < lo || v > hi)
      return format("identified id %.0f outside [%.0f, %.0f]",
                    static_cast<double>(v), static_cast<double>(lo),
                    static_cast<double>(hi));
    if (seen[v])
      return format("identified id %.0f appears twice", static_cast<double>(v));
    seen[v] = true;
  }
  return {};
}

}  // namespace

double mackenzie_sound_speed(double t, double s, double d) {
  return 1448.96 + 4.591 * t - 5.304e-2 * t * t + 2.374e-4 * t * t * t +
         1.340 * (s - 35.0) + 1.630e-2 * d + 1.675e-7 * d * d -
         1.025e-2 * t * (s - 35.0) - 7.139e-13 * t * d * d * d;
}

UplinkExpect expect_uplink(const sim::Scenario& scenario, std::uint64_t trial) {
  UplinkExpect e;
  e.payload = trial_payload(scenario, trial);
  const auto& water = scenario.medium.tank.water;
  const double c = mackenzie_sound_speed(water.temperature_c,
                                         water.salinity_ppt, water.depth_m);
  const channel::Vec3& node = scenario.node_position(0);
  const double path = euclid(scenario.reader.projector, node) +
                      euclid(node, scenario.reader.hydrophone);
  const double fs = scenario.medium.sample_rate;
  e.arrival_sample = (scenario.waveform.node_start_s + path / c) * fs;
  e.bit_period_samples = fs / scenario.waveform.bitrate;
  return e;
}

std::string check_uplink(const UplinkExpect& expect,
                         const sim::UplinkTrial& result) {
  if (result.sent != expect.payload)
    return "sent bits differ from the trial's payload";
  const auto& bits = result.demod.bits;
  if (bits.size() != expect.payload.size())
    return format("decoded %.0f bits, sent %.0f",
                  static_cast<double>(bits.size()),
                  static_cast<double>(expect.payload.size()));
  std::size_t errors = 0;
  for (std::size_t i = 0; i < bits.size(); ++i)
    errors += bits[i] != expect.payload[i] ? 1 : 0;
  if (errors > 0)
    return format("%.0f bit errors (BER %.3f)", static_cast<double>(errors),
                  static_cast<double>(errors) / static_cast<double>(bits.size()));
  if (result.ber != 0.0) return format("reported BER %.3f, counted 0", result.ber);
  const double offset =
      static_cast<double>(result.demod.start_sample) - expect.arrival_sample;
  if (std::abs(offset) > expect.bit_period_samples)
    return format("start_sample %.0f lies %.1f samples from the arrival %.1f",
                  static_cast<double>(result.demod.start_sample), offset,
                  expect.arrival_sample);
  return {};
}

std::uint64_t brute_force_pairs_within(
    const std::vector<channel::Vec3>& positions, double radius_m) {
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < positions.size(); ++i)
    for (std::size_t j = i + 1; j < positions.size(); ++j)
      kept += euclid(positions[i], positions[j]) <= radius_m ? 1 : 0;
  return kept;
}

std::uint64_t FieldExpect::kept_pairs(double radius_m) {
  const auto it = kept_.find(radius_m);
  if (it != kept_.end()) return it->second;
  const std::uint64_t kept = brute_force_pairs_within(positions_, radius_m);
  kept_.emplace(radius_m, kept);
  return kept;
}

std::string check_field(FieldExpect& expect, const sim::FieldRunResult& r) {
  const std::uint64_t n = expect.population();
  if (r.population != n)
    return format("population %.0f, field holds %.0f",
                  static_cast<double>(r.population), static_cast<double>(n));
  if (r.total_pairs != n * (n - 1) / 2)
    return format("total_pairs %.0f, expected n(n-1)/2 = %.0f",
                  static_cast<double>(r.total_pairs),
                  static_cast<double>(n * (n - 1) / 2));
  if (r.kept_pairs + r.culled_pairs != r.total_pairs)
    return format("kept %.0f + culled %.0f != total %.0f",
                  static_cast<double>(r.kept_pairs),
                  static_cast<double>(r.culled_pairs),
                  static_cast<double>(r.total_pairs));
  const std::uint64_t brute = expect.kept_pairs(r.cull_radius_m);
  if (r.kept_pairs != brute)
    return format("kept_pairs %.0f, brute force counts %.0f within %.3f m",
                  static_cast<double>(r.kept_pairs), static_cast<double>(brute),
                  r.cull_radius_m);
  if (auto bad = check_ids(r.identified, 0, n - 1); !bad.empty()) return bad;
  const double node_hours = static_cast<double>(n) * r.simulated_s / 3600.0;
  if (std::abs(r.node_hours - node_hours) > 1e-12 * std::abs(node_hours))
    return format("node_hours %.9g, n * simulated_s / 3600 = %.9g",
                  r.node_hours, node_hours);
  return {};
}

TimelineExpect expect_timeline(const sim::Scenario& scenario,
                               const sim::TimelineRoundConfig& config) {
  return TimelineExpect{scenario.node_count(), config.idle_load_w,
                        config.horizon_s, config.tick_s};
}

std::string check_timeline(const TimelineExpect& e,
                           const sim::TimelineRunResult& r) {
  if (!(r.consumed_j >= 0.0) || r.consumed_j > r.harvested_j)
    return format("consumed %.6g J exceeds harvested %.6g J", r.consumed_j,
                  r.harvested_j);
  // Idle draw of every node over the lifecycle horizon (one tick of slack for
  // the last tick) plus the poll airtime.
  const double bound = static_cast<double>(e.population) * e.idle_load_w *
                       (e.horizon_s + e.tick_s + r.poll.elapsed_s);
  if (r.consumed_j > bound)
    return format("consumed %.6g J above the idle-draw bound %.6g J",
                  r.consumed_j, bound);
  if (auto bad = check_ids(r.identified, 1, e.population); !bad.empty())
    return bad;
  if (r.poll.successes > r.identified.size())
    return format("%.0f poll successes for %.0f identified nodes",
                  static_cast<double>(r.poll.successes),
                  static_cast<double>(r.identified.size()));
  if (r.brown_outs > r.power_ups)
    return format("%.0f brown-outs after %.0f power-ups",
                  static_cast<double>(r.brown_outs),
                  static_cast<double>(r.power_ups));
  return {};
}

bool identical(const sim::UplinkTrial& a, const sim::UplinkTrial& b) {
  const auto& x = a.demod;
  const auto& y = b.demod;
  return a.sent == b.sent && x.bits == y.bits &&
         x.start_sample == y.start_sample && same(x.channel_amp, y.channel_amp) &&
         same(x.mid_level, y.mid_level) && same(x.snr_db, y.snr_db) &&
         same(x.preamble_corr, y.preamble_corr) && same(x.quality, y.quality) &&
         same(a.ber, b.ber) && same(a.incident_pressure_pa, b.incident_pressure_pa) &&
         same(a.modulation_pressure_pa, b.modulation_pressure_pa);
}

bool identical(const sim::FieldRunResult& a, const sim::FieldRunResult& b) {
  return a.population == b.population && same(a.cull_radius_m, b.cull_radius_m) &&
         a.total_pairs == b.total_pairs && a.kept_pairs == b.kept_pairs &&
         a.culled_pairs == b.culled_pairs &&
         same(a.mean_pair_gain, b.mean_pair_gain) &&
         same(a.mean_reader_gain, b.mean_reader_gain) &&
         a.tap_evaluations == b.tap_evaluations &&
         a.tap_lookups == b.tap_lookups && a.zones == b.zones &&
         a.zone_colors == b.zone_colors && a.zone_rounds == b.zone_rounds &&
         a.channels == b.channels && a.identified == b.identified &&
         same(a.inventory, b.inventory) &&
         a.interference_corrupted_slots == b.interference_corrupted_slots &&
         same(a.mean_slot_sinr_db, b.mean_slot_sinr_db) &&
         same(a.slot_quality, b.slot_quality) &&
         same(a.simulated_s, b.simulated_s) && same(a.node_hours, b.node_hours) &&
         a.events_processed == b.events_processed && a.event_log == b.event_log;
}

bool identical(const sim::TimelineRunResult& a,
               const sim::TimelineRunResult& b) {
  return a.identified == b.identified && same(a.inventory, b.inventory) &&
         same(a.poll, b.poll) && same(a.simulated_s, b.simulated_s) &&
         a.events_processed == b.events_processed &&
         same(a.harvested_j, b.harvested_j) && same(a.consumed_j, b.consumed_j) &&
         a.power_ups == b.power_ups && a.brown_outs == b.brown_outs &&
         a.event_log == b.event_log;
}

bool identical(const sim::TrialResult& a, const sim::TrialResult& b) {
  if (a.index() != b.index()) return false;
  if (const auto* u = std::get_if<sim::UplinkTrial>(&a))
    return identical(*u, std::get<sim::UplinkTrial>(b));
  if (const auto* f = std::get_if<sim::FieldRunResult>(&a))
    return identical(*f, std::get<sim::FieldRunResult>(b));
  if (const auto* t = std::get_if<sim::TimelineRunResult>(&a))
    return identical(*t, std::get<sim::TimelineRunResult>(b));
  return false;  // network trials are not a benchmark workload
}

std::string check_records(const std::vector<campaign::RecordBatch>& campaign,
                          const std::vector<campaign::RecordBatch>& direct) {
  if (campaign.size() != direct.size())
    return format("campaign has %.0f points, direct run %.0f",
                  static_cast<double>(campaign.size()),
                  static_cast<double>(direct.size()));
  for (std::size_t p = 0; p < campaign.size(); ++p) {
    if (campaign[p].bytes() != direct[p].bytes())
      return format("campaign records of point %.0f differ from direct results",
                    static_cast<double>(p));
  }
  return {};
}

}  // namespace pabbench
