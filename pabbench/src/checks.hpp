// Correctness checks on trial outputs.
//
// Every check compares a result against values the benchmark computes apart
// from the simulator (the payload drawn from the trial's substream, the
// geometric arrival time, a brute-force pair count) or against properties the
// method must have (pair bookkeeping, energy conservation, unique ids).  Each
// returns an empty string when the result passes, else what is wrong.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/record.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"

namespace pabbench {

// ---- uplink_waveform --------------------------------------------------------

struct UplinkExpect {
  std::vector<std::uint8_t> payload;  // bits the trial sends
  double arrival_sample = 0.0;        // geometric arrival of the packet
  double bit_period_samples = 0.0;
};

// Sound speed [m/s] by Mackenzie (1981), written out here so the arrival
// check does not reuse the simulator's channel code.
[[nodiscard]] double mackenzie_sound_speed(double temperature_c,
                                           double salinity_ppt, double depth_m);

[[nodiscard]] UplinkExpect expect_uplink(const pab::sim::Scenario& scenario,
                                         std::uint64_t trial);

// BER 0 against the bits sent, and start_sample within one bit period of the
// geometric arrival (node_start_s + (|projector-node| + |node-hydrophone|)/c).
[[nodiscard]] std::string check_uplink(const UplinkExpect& expect,
                                       const pab::sim::UplinkTrial& result);

// ---- field_deploy -----------------------------------------------------------

// Pairs of `positions` at most `radius_m` apart, by brute force.
[[nodiscard]] std::uint64_t brute_force_pairs_within(
    const std::vector<pab::channel::Vec3>& positions, double radius_m);

// Brute-force counts memoized per cull radius (the radius is a function of
// the scenario, so one count serves every trial of a point).
class FieldExpect {
 public:
  explicit FieldExpect(std::vector<pab::channel::Vec3> positions)
      : positions_(std::move(positions)) {}
  [[nodiscard]] std::size_t population() const { return positions_.size(); }
  [[nodiscard]] std::uint64_t kept_pairs(double radius_m);

 private:
  std::vector<pab::channel::Vec3> positions_;
  std::map<double, std::uint64_t> kept_;
};

[[nodiscard]] std::string check_field(FieldExpect& expect,
                                      const pab::sim::FieldRunResult& result);

// ---- timeline_energy --------------------------------------------------------

struct TimelineExpect {
  std::size_t population = 0;
  double idle_load_w = 0.0;
  double horizon_s = 0.0;
  double tick_s = 0.0;
};

[[nodiscard]] TimelineExpect expect_timeline(
    const pab::sim::Scenario& scenario,
    const pab::sim::TimelineRoundConfig& config);

[[nodiscard]] std::string check_timeline(
    const TimelineExpect& expect, const pab::sim::TimelineRunResult& result);

// ---- every workload ---------------------------------------------------------

// Bit-identical results (every field, doubles compared by bit pattern).
[[nodiscard]] bool identical(const pab::sim::UplinkTrial& a,
                             const pab::sim::UplinkTrial& b);
[[nodiscard]] bool identical(const pab::sim::FieldRunResult& a,
                             const pab::sim::FieldRunResult& b);
[[nodiscard]] bool identical(const pab::sim::TimelineRunResult& a,
                             const pab::sim::TimelineRunResult& b);
[[nodiscard]] bool identical(const pab::sim::TrialResult& a,
                             const pab::sim::TrialResult& b);

// Campaign records equal the records built from direct results: same point
// count, and each point's canonical bytes equal.
[[nodiscard]] std::string check_records(
    const std::vector<pab::campaign::RecordBatch>& campaign,
    const std::vector<pab::campaign::RecordBatch>& direct);

}  // namespace pabbench
