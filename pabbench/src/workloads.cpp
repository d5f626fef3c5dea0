#include "workloads.hpp"

#include <algorithm>

#include "phy/packet.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pabbench {

using namespace pab;

std::optional<WorkloadId> workload_from(std::string_view name) {
  if (name == "uplink_waveform") return WorkloadId::kUplinkWaveform;
  if (name == "field_deploy") return WorkloadId::kFieldDeploy;
  if (name == "timeline_energy") return WorkloadId::kTimelineEnergy;
  return std::nullopt;
}

const char* to_string(WorkloadId id) {
  switch (id) {
    case WorkloadId::kUplinkWaveform: return "uplink_waveform";
    case WorkloadId::kFieldDeploy: return "field_deploy";
    case WorkloadId::kTimelineEnergy: return "timeline_energy";
  }
  return "unknown";
}

namespace {

// Fig 8's close placement: the node within a meter of projector and
// hydrophone.
core::Placement fig8_close_placement() {
  core::Placement pl;
  pl.projector = {1.2, 1.5, 0.65};
  pl.hydrophone = {1.8, 1.5, 0.65};
  pl.node = {1.5, 2.1, 0.65};
  return pl;
}

}  // namespace

Inputs make_inputs(WorkloadId workload, std::uint64_t seed) {
  // Seeds travel through campaign axes as doubles.
  require(seed < (std::uint64_t{1} << 50), "seed must be below 2^50");
  Inputs in;
  in.workload = workload;
  campaign::CampaignSpec& spec = in.spec;
  spec.name = to_string(workload);
  spec.base_seed = seed;
  spec.trials_per_point = 1;  // the traced run's campaign comparison
  const auto seed_value = static_cast<double>(seed);
  switch (workload) {
    case WorkloadId::kUplinkWaveform:
      spec.kind = in.kind = sim::TrialKind::kUplink;
      spec.preset = "pool_a";
      // Campaign specs cannot move the reader, so the campaign form keeps
      // Pool A's default projector/hydrophone and moves the node within a
      // meter of both; make_scenarios() applies Fig 8's exact placement.
      spec.axes = {{"noise.psd_db_re_upa", {60.0}},
                   {"waveform.payload_bits", {96.0}},
                   {"placement.node.x", {1.2}},
                   {"placement.node.y", {1.2}},
                   {"waveform.scheme", {0.0, 1.0, 2.0}},
                   {"waveform.bitrate", {500.0, 1000.0, 2000.0}}};
      in.trials_per_round.assign(9, 4);
      break;
    case WorkloadId::kFieldDeploy:
      spec.kind = in.kind = sim::TrialKind::kField;
      spec.preset = "open_water_random";
      // Four layouts per population, so one run averages over layouts.
      spec.axes = {{"field.area_per_node_m2", {100.0}},
                   {"field.seed",
                    {4 * seed_value, 4 * seed_value + 1, 4 * seed_value + 2,
                     4 * seed_value + 3}},
                   {"field.population", {1000.0, 2000.0}}};
      spec.field = {{"interference", 1.0}};
      in.trials_per_round = {2, 1, 2, 1, 2, 1, 2, 1};
      break;
    case WorkloadId::kTimelineEnergy:
      spec.kind = in.kind = sim::TrialKind::kTimeline;
      spec.preset = "open_water_random";
      spec.axes = {{"field.seed", {seed_value}}, {"field.population", {200.0}}};
      in.trials_per_round = {1};
      break;
  }
  const auto valid = spec.validate();
  require(valid.ok(), "benchmark campaign spec is invalid");
  in.options = spec.trial_options().value();
  in.seeded_points = spec.point_count();
  require(in.trials_per_round.size() == in.seeded_points,
          "one trial count per sweep point");
  return in;
}

std::vector<sim::Scenario> make_scenarios(const Inputs& in) {
  std::vector<sim::Scenario> out;
  for (std::size_t p = 0; p < in.seeded_points; ++p) {
    sim::Scenario s = in.spec.scenario_for_point(p).value();
    if (in.workload == WorkloadId::kUplinkWaveform)
      s = s.with_placement(fig8_close_placement());
    out.push_back(std::move(s));
  }
  if (in.workload == WorkloadId::kUplinkWaveform) {
    // One point per false-lock bitrate: the seeded FM0 point's scenario
    // with the fixed seed.
    for (const double bitrate : {1000.0, 2000.0}) {
      const auto it = std::find_if(out.begin(), out.end(), [&](const auto& s) {
        return s.waveform.scheme == phy::SchemeId::kFm0 &&
               s.waveform.bitrate == bitrate;
      });
      out.push_back(it->with_seed(kFalseLockSeed));
    }
  }
  return out;
}

bool repeats_preamble(std::span<const std::uint8_t> payload) {
  const Bits& pre = phy::uplink_preamble_bits();
  std::vector<std::uint8_t> stream(pre.begin(), pre.end());
  stream.insert(stream.end(), payload.begin(), payload.end());
  for (std::size_t off = 1; off + pre.size() <= stream.size(); ++off) {
    if (std::equal(pre.begin(), pre.end(),
                   stream.begin() + static_cast<std::ptrdiff_t>(off)))
      return true;
  }
  return false;
}

std::vector<std::uint8_t> trial_payload(const sim::Scenario& scenario,
                                        std::uint64_t trial) {
  Rng rng(sim::substream_seed(scenario.medium.seed, trial));
  std::vector<std::uint8_t> bits(scenario.waveform.payload_bits);
  rng.bits_into(bits);
  return bits;
}

RoundPlan::RoundPlan(const Inputs& in,
                     const std::vector<sim::Scenario>& scenarios)
    : seeded_points_(in.seeded_points),
      trials_per_round_(in.trials_per_round),
      cursor_(scenarios.size(), 0) {
  for (const auto& s : scenarios) {
    scenarios_.push_back(&s);
    screen_.push_back(in.kind == sim::TrialKind::kUplink &&
                      s.waveform.scheme == phy::SchemeId::kFm0);
  }
  for (std::size_t p = seeded_points_; p < scenarios.size(); ++p) {
    std::vector<std::uint64_t> trials;
    for (const auto& fl : kFalseLockTrials)
      if (fl.bitrate == scenarios[p].waveform.bitrate) trials.push_back(fl.trial);
    fixed_.push_back(std::move(trials));
  }
}

std::uint64_t RoundPlan::next_trial(std::size_t point) {
  std::uint64_t t = cursor_[point]++;
  while (screen_[point] && repeats_preamble(trial_payload(*scenarios_[point], t)))
    t = cursor_[point]++;
  return t;
}

std::vector<Op> RoundPlan::next_round() {
  std::vector<Op> ops;
  const std::size_t rounds =
      *std::max_element(trials_per_round_.begin(), trials_per_round_.end());
  for (std::size_t k = 0; k < rounds; ++k)
    for (std::size_t p = 0; p < seeded_points_; ++p)
      if (k < trials_per_round_[p]) ops.push_back(Op{p, next_trial(p)});
  for (std::size_t f = 0; f < fixed_.size(); ++f)
    for (const std::uint64_t t : fixed_[f])
      ops.push_back(Op{seeded_points_ + f, t});
  return ops;
}

}  // namespace pabbench
