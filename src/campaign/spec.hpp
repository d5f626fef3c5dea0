// CampaignSpec: the serializable description of one Monte-Carlo campaign.
//
// A campaign is a sweep -- the cartesian product of named parameter axes
// applied to a named Scenario preset -- times a trial count per operating
// point, under one base seed.  The spec deliberately references presets and
// parameters *by name* rather than embedding a Scenario value, so it can
// travel: into a spec file, a checkpoint manifest, onto a CLI flag.  Determinism is structural: every point's scenario carries
// `base_seed` (common random numbers across the sweep, the variance-reduction
// setup the figure benches already rely on) unless a "seed" axis overrides
// it, and trial t of a point always draws from the same RNG substream no
// matter which shard, thread, or resume pass executes it.
//
// compile() turns the spec into the campaign work queue: per-point trial
// ranges ("shards") that executors may run in any order and later fold back
// in shard-index order for bit-identical results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/scenario.hpp"
#include "sim/trial.hpp"
#include "util/error.hpp"

namespace pab::campaign {

// One sweep dimension: `param` names a scalar applied per point (see
// apply_param for the registry of recognized names).
struct SweepAxis {
  std::string param;
  std::vector<double> values;
};

// One unit of campaign work: trials [begin, end) of operating point `point`.
// `index` is the shard's position in the canonical fold order.
struct Shard {
  std::uint64_t index = 0;
  std::uint64_t point = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

// Set one named scalar on a scenario (the axis parameter registry):
//   seed, waveform.{carrier_hz,bitrate,payload_bits,node_start_s,tail_s},
//   projector.{drive_v,ideal,ideal_pressure_pa}, noise.psd_db_re_upa,
//   medium.{sample_rate,receiver_clock_offset_ppm}, placement.node.{x,y,z},
//   fdma.{bitrate,training_bits,payload_bits}.
// Returns false for an unknown name.
[[nodiscard]] bool apply_param(sim::Scenario& s, std::string_view name,
                               double value);

// Set one named scalar on a timeline round config (the `timeline` override
// registry): tick_s, idle_load_w, v_ceiling, capacitance_f, base_harvest_w,
// harvest_jitter, max_drift_mps, horizon_s, decode_prob, crc_prob,
// uplink_bits, uplink_bitrate, keep_log.  Returns false for an unknown name.
[[nodiscard]] bool apply_timeline_param(sim::TimelineRoundConfig& c,
                                        std::string_view name, double value);

// Set one named scalar on a field round config (the `field` override
// registry): gain_floor, quant_cell_m, brute_force, zone_extent_m,
// frame_announce_s, slot_s, keep_log.  Returns false for an unknown name.
[[nodiscard]] bool apply_field_round_param(sim::FieldRoundConfig& c,
                                           std::string_view name, double value);

struct CampaignSpec {
  std::string name = "campaign";
  std::string preset = "pool_a";  // Scenario preset (see scenario_for_point)
  sim::TrialKind kind = sim::TrialKind::kUplink;
  std::uint64_t trials_per_point = 100;
  std::uint64_t base_seed = 42;
  std::vector<SweepAxis> axes;  // empty = a single operating point
  // Timeline knob overrides (kTimeline campaigns); key order is canonical.
  std::map<std::string, double> timeline;
  // Field knob overrides (kField campaigns); key order is canonical.  Old
  // specs never contain `field` lines, so their serialized form (and
  // fingerprint) is unchanged by this map existing.
  std::map<std::string, double> field;

  // Number of operating points: the product of axis sizes (1 when no axes).
  [[nodiscard]] std::uint64_t point_count() const;
  // Mixed-radix decomposition of a point index; the LAST axis varies fastest.
  [[nodiscard]] std::vector<double> point_values(std::uint64_t point) const;

  // Instantiate the scenario of one operating point: preset, then base_seed,
  // then each axis value in axis order.  Unknown presets/params error.
  [[nodiscard]] pab::Expected<sim::Scenario> scenario_for_point(
      std::uint64_t point) const;

  // The per-trial options shared by every point.  Campaign timeline trials
  // default to keep_log = false (event logs do not fit a columnar record);
  // a `timeline keep_log 1` override re-enables them.
  [[nodiscard]] pab::Expected<sim::TrialOptions> trial_options() const;

  // Full validation without running anything (presets, params, counts).
  [[nodiscard]] pab::Expected<bool> validate() const;

  // The work queue: every point split into <= shard_size trial ranges, in
  // (point, begin) order.  shard_size == 0 means one shard per point.
  [[nodiscard]] std::vector<Shard> compile(std::uint64_t shard_size) const;

  // Canonical text form; parse() inverts it.  Doubles round-trip exactly
  // (%.17g), so serialize-parse-serialize is a fixed point and fingerprint()
  // -- FNV-1a over the serialized text -- identifies the campaign across
  // runs and resume passes.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static pab::Expected<CampaignSpec> parse(std::string_view text);
  [[nodiscard]] std::uint64_t fingerprint() const;
};

}  // namespace pab::campaign
