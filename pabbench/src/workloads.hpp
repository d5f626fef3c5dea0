// Benchmark workloads: what one run simulates, derived from its seed alone.
//
// Each workload is a fixed sweep of operating points, run in whole rounds of
// the same operations (one operation = one Session::run_trial<K> call):
//
//   uplink_waveform  single-link FM0/FSK2/FSK4 uplinks at 500/1000/2000 bps
//                    in Pool A at Fig 8's close placement, 96-bit payloads,
//                    noise PSD 60 dB re uPa.  Four seeded trials per point per
//                    round, plus the three fixed FM0 false-lock trials.
//   field_deploy     field trials on random open-water layouts of 1000 and
//                    2000 nodes at 100 m^2 per node (four layouts of each),
//                    cross-zone SINR on; two 1000-node trials per 2000-node
//                    trial, so the median trial is a 1000-node one and p90 a
//                    2000-node one.
//   timeline_energy  timeline trials of a 200-node open-water population,
//                    60 s lifecycle horizon.
//
// The seed sets the scenarios' trial seed (medium.seed) and, for the
// open-water workloads, the node layouts (field.seed).  The same seed always
// gives the same scenarios and the same trial indices.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "campaign/spec.hpp"
#include "sim/scenario.hpp"
#include "sim/session.hpp"
#include "sim/trial.hpp"

namespace pabbench {

namespace campaign = pab::campaign;
namespace core = pab::core;
namespace sim = pab::sim;

enum class WorkloadId { kUplinkWaveform, kFieldDeploy, kTimelineEnergy };

[[nodiscard]] std::optional<WorkloadId> workload_from(std::string_view name);
[[nodiscard]] const char* to_string(WorkloadId id);

// One run_trial call of a round.
struct Op {
  std::size_t point = 0;
  std::uint64_t trial = 0;
  bool operator==(const Op&) const = default;
};

// The FM0 false-lock trials: fixed inputs (seed 42, Fig 8 close placement,
// 60 dB) on which BackscatterDemodulator locks onto a copy of the preamble
// inside the payload.  They run in every round whatever the run's seed.
struct FalseLockTrial {
  double bitrate = 0.0;
  std::uint64_t trial = 0;
};
inline constexpr std::uint64_t kFalseLockSeed = 42;
inline constexpr FalseLockTrial kFalseLockTrials[] = {
    {1000.0, 31}, {1000.0, 64}, {2000.0, 6}};

// Everything a run derives from (workload, seed) before any simulator
// object exists.  `spec` is the seeded sweep in campaign form: the traced run
// hands it to campaign::BatchExecutor and compares records.
struct Inputs {
  WorkloadId workload = WorkloadId::kUplinkWaveform;
  sim::TrialKind kind = sim::TrialKind::kUplink;
  campaign::CampaignSpec spec;
  sim::TrialOptions options;
  std::size_t seeded_points = 0;            // spec.point_count()
  std::vector<std::size_t> trials_per_round;  // per seeded point
};

[[nodiscard]] Inputs make_inputs(WorkloadId workload, std::uint64_t seed);

// The scenarios of every operating point: the seeded sweep's points in spec
// order, then (uplink only) one point per false-lock bitrate.  Generating
// them is part of set-up (field layouts are drawn here).
[[nodiscard]] std::vector<sim::Scenario> make_scenarios(const Inputs& in);

// True when `payload` would put a second copy of the uplink preamble on the
// air: the preamble bit pattern occurs in [preamble + payload] at an offset
// other than 0.  FM0 chips of equal bit runs are equal up to sign, so such a
// trial can false-lock (see README.md).
[[nodiscard]] bool repeats_preamble(std::span<const std::uint8_t> payload);

// The payload bits trial `trial` of `scenario` sends: the first draws of the
// trial's RNG substream, exactly as Session draws them.
[[nodiscard]] std::vector<std::uint8_t> trial_payload(
    const sim::Scenario& scenario, std::uint64_t trial);

// The fixed order of operations, round after round.  Seeded FM0 points skip
// the trial indices whose payload repeats the preamble (those fail on some
// seeds only); the false-lock points run their fixed trials every round.
class RoundPlan {
 public:
  RoundPlan(const Inputs& in, const std::vector<sim::Scenario>& scenarios);
  [[nodiscard]] std::vector<Op> next_round();
  // Whether `op` is one of the fixed false-lock trials.
  [[nodiscard]] bool is_false_lock(const Op& op) const {
    return op.point >= seeded_points_;
  }

 private:
  [[nodiscard]] std::uint64_t next_trial(std::size_t point);

  std::size_t seeded_points_;
  std::vector<std::size_t> trials_per_round_;
  std::vector<const sim::Scenario*> scenarios_;
  std::vector<bool> screen_;  // per point: skip preamble-repeating payloads
  std::vector<std::uint64_t> cursor_;
  std::vector<std::vector<std::uint64_t>> fixed_;  // false-lock points
};

}  // namespace pabbench
