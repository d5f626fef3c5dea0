#include "probes.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>

#include "campaign/batch_executor.hpp"
#include "channel/propagation.hpp"
#include "channel/spatial.hpp"
#include "channel/tapcache.hpp"
#include "channel/timevarying.hpp"
#include "core/link.hpp"
#include "dsp/correlate.hpp"
#include "mac/zones.hpp"
#include "obs/alloccount.hpp"
#include "phy/fm0.hpp"
#include "phy/packet.hpp"
#include "phy/scheme.hpp"
#include "sim/timeline.hpp"

namespace pabbench {

using namespace pab;

void AllocMeter::begin() {
  start_allocs_ = obs::heap_allocations();
  start_bytes_ = obs::heap_bytes();
}

void AllocMeter::end() {
  allocs = obs::heap_allocations() - start_allocs_;
  bytes = obs::heap_bytes() - start_bytes_;
}

namespace {

using Clock = std::chrono::steady_clock;

// Repetitions of each replayed call; the median is kept.
constexpr int kReps = 3;
constexpr int kCampaignReps = 5;

template <typename F>
double time_ms(F&& f) {
  const auto t0 = Clock::now();
  f();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double median_ms(F&& f) {
  std::vector<double> t;
  for (int r = 0; r < kReps; ++r) t.push_back(time_ms(f));
  return median(t);
}

// The per-layer metrics, in BENCHMARK.json order; all start at 0.
class Sheet {
 public:
  Sheet() {
    for (const auto& [name, unit] : kNames) metrics_.push_back({name, 0.0, unit});
  }
  void set(std::string_view name, double value) {
    for (auto& m : metrics_)
      if (m.name == name) {
        m.value = value;
        return;
      }
    std::abort();  // a name outside kNames is a programming error
  }
  std::vector<Metric> take() { return std::move(metrics_); }

 private:
  static constexpr std::array<std::pair<const char*, const char*>, 27> kNames{{
      {"core.link.uplink_run_ms", "ms"},
      {"phy.synth_ms", "ms"},
      {"dsp.fftconv_ms", "ms"},
      {"phy.demod_ms", "ms"},
      {"dsp.correlate_ms", "ms"},
      {"dsp.correlate_lags_per_trial", "count"},
      {"dsp.correlate_useful_ratio", "ratio"},
      {"circuit.modulation_states_ms", "ms"},
      {"channel.tapcache.miss_ms", "ms"},
      {"channel.tapcache.lookup_us", "us"},
      {"channel.tapcache.evaluations_per_trial", "count"},
      {"channel.tapcache.hit_ratio", "ratio"},
      {"channel.spatial.cull_ms", "ms"},
      {"channel.spatial.kept_pairs_per_trial", "count"},
      {"channel.pair_gain_ms", "ms"},
      {"mac.zones.plan_ms", "ms"},
      {"mac.zones.inventory_ms", "ms"},
      {"sim.timeline.events_per_trial", "count"},
      {"sim.timeline.ns_per_event", "ns"},
      {"sim.timeline.queue_ns_per_event", "ns"},
      {"channel.moving_path_gain_us", "us"},
      {"sim.uplink.heap_allocs_per_trial", "count"},
      {"sim.field.heap_allocs_per_trial", "count"},
      {"sim.field.heap_bytes_per_trial", "B"},
      {"sim.timeline.heap_allocs_per_trial", "count"},
      {"campaign.overhead_us_per_trial", "us"},
      {"campaign.record_bytes_per_trial", "B"},
  }};
  std::vector<Metric> metrics_;
};

void fail(std::string& failure, const std::string& what) {
  if (failure.empty()) failure = what;
}

// Per-trial mean over one round: `per_op(op)` is the cost of one operation.
template <typename F>
double round_mean(const std::vector<Op>& round, F&& per_op) {
  double sum = 0.0;
  for (const Op& op : round) sum += per_op(op);
  return sum / static_cast<double>(round.size());
}

// ---- uplink_waveform --------------------------------------------------------

struct UplinkCosts {
  double run_ms = 0.0, synth_ms = 0.0, conv_ms = 0.0, demod_ms = 0.0;
  double correlate_ms = 0.0, lags = 0.0, searched = 0.0;
};

// Replays one uplink trial stage by stage through the layers' public
// functions, with the trial's own RNG substream, so the replayed decode
// must equal the trial's.
UplinkCosts replay_uplink(const sim::Session& s, const Op& op,
                          const sim::UplinkTrial& trial, std::string& failure) {
  const sim::Scenario& sc = s.scenario();
  const sim::Waveform& w = sc.waveform;
  const double fs = sc.medium.sample_rate;
  const core::ModulationStates& states = s.modulation(
      0, w.carrier_hz, phy::scheme_descriptor(w.scheme).effective_bitrate(w.bitrate));
  phy::Workspace ws;
  core::UplinkRunResult run;
  phy::DemodResult demod;
  phy::SchemeConfig cfg;
  cfg.scheme = w.scheme;
  cfg.demod.carrier_hz = w.carrier_hz;
  cfg.demod.bitrate = w.bitrate;
  cfg.demod.sample_rate = fs;
  cfg.demod.metrics = &s.metrics();
  const phy::SchemeDemodulator& demodulator = ws.scheme_demodulator(cfg);

  UplinkCosts c;
  std::vector<double> run_ms, demod_ms;
  std::vector<std::uint8_t> bits(w.payload_bits);
  for (int r = 0; r < kReps; ++r) {
    Rng rng = s.trial_rng(op.trial);
    rng.bits_into(bits);
    run_ms.push_back(time_ms([&] {
      s.link().run_uplink_into(s.projector(), states, bits, w, rng, ws, run);
    }));
    demod_ms.push_back(time_ms([&] {
      (void)demodulator.demodulate_into(run.hydrophone_v.samples, fs, bits.size(),
                                        ws.arena(), demod);
    }));
  }
  c.run_ms = median(run_ms);
  c.demod_ms = median(demod_ms);
  if (demod.bits != trial.demod.bits || demod.start_sample != trial.demod.start_sample)
    fail(failure, "uplink replay decoded differently from run_trial");

  dsp::Arena& arena = ws.arena();
  const auto frame = arena.frame();
  auto sw = arena.alloc<phy::SwitchState>(
      phy::scheme_waveform_length(w.scheme, bits.size(), w.bitrate, fs));
  c.synth_ms = median_ms(
      [&] { phy::scheme_waveform_into(w.scheme, bits, w.bitrate, fs, sw, arena); });

  // Channel convolution: the trial's three tap sets over its CW envelope.
  const double total_s =
      w.node_start_s + static_cast<double>(sw.size()) / fs + w.tail_s;
  auto tx = arena.alloc<dsp::cplx>(core::Projector::cw_envelope_length(total_s, fs));
  s.projector().cw_envelope_into(w.carrier_hz, fs, 0.0, tx);
  const dsp::CplxView txv(tx, fs, w.carrier_hz);
  const core::Placement pl = sc.placement();
  const auto& pn = s.link().taps(pl.projector, pl.node, w.carrier_hz);
  const auto& ph = s.link().taps(pl.projector, pl.hydrophone, w.carrier_hz);
  const auto& nh = s.link().taps(pl.node, pl.hydrophone, w.carrier_hz);
  c.conv_ms = median_ms([&] {
    const auto inner = arena.frame();
    (void)channel::apply_taps_baseband(txv, pn, arena);
    (void)channel::apply_taps_baseband(txv, ph, arena);
    (void)channel::apply_taps_baseband(txv, nh, arena);
  });

  // Preamble correlation at the receiver's sizes: the capture length against
  // the FM0 preamble template at 2 * bitrate chips.
  const std::span<const double> x = run.hydrophone_v.samples;
  const double spc = fs / (2.0 * w.bitrate);
  const phy::Chips chips = phy::fm0_encode(phy::uplink_preamble_bits(), -1);
  auto tmpl = arena.alloc<double>(
      static_cast<std::size_t>(std::ceil(static_cast<double>(chips.size()) * spc)));
  for (std::size_t i = 0; i < tmpl.size(); ++i)
    tmpl[i] = chips[std::min(static_cast<std::size_t>(static_cast<double>(i) / spc),
                             chips.size() - 1)];
  const std::size_t lags = dsp::correlation_length(x.size(), tmpl.size());
  auto corr = arena.alloc<double>(lags);
  c.correlate_ms = median_ms([&] { dsp::pearson_correlation_into(x, tmpl, corr); });
  // Lags the receiver searches: starts that leave room for the whole packet.
  const phy::SchemeDescriptor& sd = phy::scheme_descriptor(w.scheme);
  const auto bps = static_cast<std::size_t>(sd.bits_per_symbol);
  const double packet_samples =
      w.scheme == phy::SchemeId::kFm0
          ? static_cast<double>(chips.size() + 2 * bits.size()) * spc
          : static_cast<double>(chips.size()) * spc +
                static_cast<double>((bits.size() + bps - 1) / bps) * fs *
                    static_cast<double>(bps) / w.bitrate;
  const auto needed = static_cast<std::size_t>(std::ceil(packet_samples));
  c.lags = static_cast<double>(lags);
  c.searched = static_cast<double>(
      needed < x.size() ? std::min(lags, x.size() - needed + 1) : lags);
  return c;
}

void uplink_metrics(Bench& bench, const std::vector<TracedOp>& loop,
                    Sheet& sheet, std::string& failure) {
  const std::vector<Op>& round = bench.round0();
  std::map<std::pair<std::size_t, std::uint64_t>, UplinkCosts> costs;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const Op& op = round[i];
    const auto& result = loop[i].outcome.result;
    if (!result.has_value()) continue;
    costs[{op.point, op.trial}] = replay_uplink(
        bench.session(op.point), op, std::get<sim::UplinkTrial>(*result), failure);
  }
  const auto mean = [&](double UplinkCosts::*field) {
    return round_mean(round, [&](const Op& op) {
      const auto it = costs.find({op.point, op.trial});
      return it == costs.end() ? 0.0 : it->second.*field;
    });
  };
  sheet.set("core.link.uplink_run_ms", mean(&UplinkCosts::run_ms));
  sheet.set("phy.synth_ms", mean(&UplinkCosts::synth_ms));
  sheet.set("dsp.fftconv_ms", mean(&UplinkCosts::conv_ms));
  sheet.set("phy.demod_ms", mean(&UplinkCosts::demod_ms));
  sheet.set("dsp.correlate_ms", mean(&UplinkCosts::correlate_ms));
  const double lags = mean(&UplinkCosts::lags);
  sheet.set("dsp.correlate_lags_per_trial", lags);
  sheet.set("dsp.correlate_useful_ratio", mean(&UplinkCosts::searched) / lags);

  // Set-up costs: the circuit walk behind each modulation-cache entry, and a
  // tap-cache miss (image-method tap set) on the trial geometry.
  std::vector<double> mod_ms;
  for (std::size_t p = 0; p < bench.points(); ++p) {
    const sim::Session& s = bench.session(p);
    const sim::Waveform& w = s.scenario().waveform;
    const double rate = phy::scheme_descriptor(w.scheme).effective_bitrate(w.bitrate);
    mod_ms.push_back(median_ms(
        [&] { (void)core::modulation_states(s.front_end(0), w.carrier_hz, rate); }));
  }
  sheet.set("circuit.modulation_states_ms", median(mod_ms));
  const sim::Scenario& sc = bench.session(0).scenario();
  const core::Placement pl = sc.placement();
  const double f = sc.waveform.carrier_hz;
  std::vector<double> miss_ms;
  for (int r = 0; r < kReps; ++r) {
    const channel::TapCache cache(sc.medium.tank, sc.medium.max_image_order,
                                  sc.medium.use_image_method);
    miss_ms.push_back(time_ms([&] { (void)cache.taps(pl.projector, pl.node, f); }));
    miss_ms.push_back(time_ms([&] { (void)cache.taps(pl.projector, pl.hydrophone, f); }));
    miss_ms.push_back(time_ms([&] { (void)cache.taps(pl.node, pl.hydrophone, f); }));
  }
  sheet.set("channel.tapcache.miss_ms", median(miss_ms));
}

// ---- field_deploy -----------------------------------------------------------

struct FieldCosts {
  double cull_ms = 0.0, pair_gain_ms = 0.0, lookup_us = 0.0;
  double plan_ms = 0.0, inventory_ms = 0.0;
};

// The zone partition of a field trial: a horizontal grid of zone_extent_m
// cells, interfering when the gap between cells is within the cull radius.
mac::ZoneLayout zone_layout(const std::vector<channel::Vec3>& positions,
                            double zone_extent_m, double radius) {
  std::map<std::array<std::int64_t, 2>, std::vector<std::uint32_t>> grid;
  for (std::size_t j = 0; j < positions.size(); ++j)
    grid[{static_cast<std::int64_t>(std::floor(positions[j].x / zone_extent_m)),
          static_cast<std::int64_t>(std::floor(positions[j].y / zone_extent_m))}]
        .push_back(static_cast<std::uint32_t>(j));
  mac::ZoneLayout layout;
  std::vector<std::array<std::int64_t, 2>> coords;
  for (auto& [coord, members] : grid) {
    coords.push_back(coord);
    layout.members.push_back(std::move(members));
  }
  layout.adjacency.resize(coords.size());
  const auto gap = [&](std::int64_t d) {
    return static_cast<double>(std::max<std::int64_t>(std::llabs(d) - 1, 0)) *
           zone_extent_m;
  };
  for (std::size_t a = 0; a < coords.size(); ++a)
    for (std::size_t b = a + 1; b < coords.size(); ++b) {
      const double gx = gap(coords[a][0] - coords[b][0]);
      const double gy = gap(coords[a][1] - coords[b][1]);
      if (std::sqrt(gx * gx + gy * gy) <= radius) {
        layout.adjacency[a].push_back(static_cast<std::uint32_t>(b));
        layout.adjacency[b].push_back(static_cast<std::uint32_t>(a));
      }
    }
  return layout;
}

FieldCosts replay_field(const sim::Session& s, const Op& op,
                        const sim::FieldRoundConfig& cfg,
                        const sim::FieldRunResult& trial, std::string& failure) {
  const sim::Scenario& sc = s.scenario();
  const auto& positions = sc.field.positions();
  const double f = sc.waveform.carrier_hz;
  const channel::Vec3& e = sc.medium.tank.size;
  const double diagonal = std::sqrt(e.x * e.x + e.y * e.y + e.z * e.z);
  const double radius =
      std::min(channel::cull_radius_m(cfg.gain_floor, f, diagonal), diagonal);
  FieldCosts c;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> kept;
  c.cull_ms = median_ms([&] {
    const channel::SpatialIndex index(positions, std::max(radius, 1.0));
    kept = channel::cull_pairs(index, radius);
  });
  if (kept.size() != trial.kept_pairs)
    fail(failure, "field replay kept a different number of pairs");

  // The census through a cold per-trial cache (as the trial builds one),
  // then the same lookups again on the warm cache.
  const auto make_cache = [&] {
    return std::make_unique<channel::TapCache>(
        sc.medium.tank, sc.medium.max_image_order, sc.medium.use_image_method,
        nullptr, channel::TapQuantization{cfg.quant_cell_m});
  };
  std::unique_ptr<channel::TapCache> cache;
  const auto census = [&] {
    for (const auto& p : positions)
      (void)channel::coherent_gain(*cache->taps(sc.reader.projector, p, f), f);
    for (const auto& [i, j] : kept)
      (void)channel::coherent_gain(*cache->taps(positions[i], positions[j], f), f);
  };
  std::vector<double> gain_ms;
  for (int r = 0; r < kReps; ++r) {
    cache = make_cache();
    gain_ms.push_back(time_ms(census));
  }
  c.pair_gain_ms = median(gain_ms);
  const double lookups = static_cast<double>(positions.size() + kept.size());
  c.lookup_us = median_ms([&] {
                  for (const auto& p : positions)
                    (void)cache->taps(sc.reader.projector, p, f);
                  for (const auto& [i, j] : kept)
                    (void)cache->taps(positions[i], positions[j], f);
                }) * 1e3 / lookups;

  const mac::ZoneLayout layout = zone_layout(positions, cfg.zone_extent_m, radius);
  mac::ZoneSchedule schedule;
  c.plan_ms = median_ms([&] { schedule = mac::plan_zones(layout); });
  if (layout.members.size() != trial.zones || schedule.colors != trial.zone_colors)
    fail(failure, "field replay planned different zones");

  // The zoned inventory with cross-zone SINR, fed the trial's reader-path
  // amplitudes (projector -> node -> hydrophone at each zone's carrier).
  std::vector<double> amplitude(positions.size(), 0.0);
  for (std::size_t z = 0; z < layout.members.size(); ++z) {
    const double fz = schedule.zones[z].carrier_hz;
    for (const std::uint32_t j : layout.members[z])
      amplitude[j] =
          channel::coherent_gain(*cache->taps(sc.reader.projector, positions[j], fz), fz) *
          channel::coherent_gain(*cache->taps(positions[j], sc.reader.hydrophone, fz), fz);
  }
  mac::InventoryConfig inventory;
  inventory.seed = sim::substream_seed(sc.medium.seed, op.trial);
  mac::ZonedInventoryOptions slots;
  slots.frame_announce_s = cfg.frame_announce_s;
  slots.slot_s = cfg.slot_s;
  slots.interference.enabled = cfg.interference;
  slots.interference.noise_power = cfg.noise_power;
  slots.interference.capture_threshold_db = cfg.capture_threshold_db;
  slots.interference.mask.passband_hz = cfg.rejection_passband_hz;
  slots.interference.mask.slope_db_per_khz = cfg.rejection_slope_db_per_khz;
  slots.interference.mask.floor_db = cfg.rejection_floor_db;
  slots.interference.node_amplitude = amplitude;
  mac::ZonedInventoryResult round;
  c.inventory_ms = median_ms([&] {
    sim::Timeline tl;
    tl.set_logging(cfg.keep_log);
    round = mac::run_zoned_inventory(layout, schedule, inventory, tl, slots);
  });
  if (round.identified != trial.identified)
    fail(failure, "field replay identified different nodes");
  return c;
}

void field_metrics(Bench& bench, const std::vector<TracedOp>& loop,
                   Sheet& sheet, std::string& failure) {
  const std::vector<Op>& round = bench.round0();
  std::vector<FieldCosts> costs;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const auto& result = loop[i].outcome.result;
    if (!result.has_value()) return fail(failure, "field trial failed");
    costs.push_back(replay_field(bench.session(round[i].point), round[i],
                                 bench.inputs().options.field,
                                 std::get<sim::FieldRunResult>(*result), failure));
  }
  const auto mean = [&](double FieldCosts::*field) {
    double sum = 0.0;
    for (const auto& c : costs) sum += c.*field;
    return sum / static_cast<double>(costs.size());
  };
  sheet.set("channel.spatial.cull_ms", mean(&FieldCosts::cull_ms));
  sheet.set("channel.pair_gain_ms", mean(&FieldCosts::pair_gain_ms));
  sheet.set("channel.tapcache.lookup_us", mean(&FieldCosts::lookup_us));
  sheet.set("mac.zones.plan_ms", mean(&FieldCosts::plan_ms));
  sheet.set("mac.zones.inventory_ms", mean(&FieldCosts::inventory_ms));

  double evaluations = 0.0, lookups = 0.0, kept = 0.0, trials = 0.0;
  for (const auto& t : loop) {
    if (!t.outcome.result.has_value()) continue;
    const auto& r = std::get<sim::FieldRunResult>(*t.outcome.result);
    evaluations += static_cast<double>(r.tap_evaluations);
    lookups += static_cast<double>(r.tap_lookups);
    kept += static_cast<double>(r.kept_pairs);
    trials += 1.0;
  }
  sheet.set("channel.tapcache.evaluations_per_trial", evaluations / trials);
  sheet.set("channel.tapcache.hit_ratio", 1.0 - evaluations / lookups);
  sheet.set("channel.spatial.kept_pairs_per_trial", kept / trials);
}

// ---- timeline_energy --------------------------------------------------------

void timeline_metrics(Bench& bench, const std::vector<TracedOp>& loop,
                      Sheet& sheet) {
  double events = 0.0, trials = 0.0;
  std::vector<double> ms;
  for (const auto& t : loop) {
    if (!t.outcome.result.has_value()) continue;
    events += static_cast<double>(
        std::get<sim::TimelineRunResult>(*t.outcome.result).events_processed);
    trials += 1.0;
    ms.push_back(t.outcome.ms);
  }
  const double per_trial = events / trials;
  sheet.set("sim.timeline.events_per_trial", per_trial);
  sheet.set("sim.timeline.ns_per_event", median(ms) * 1e6 / per_trial);

  // The event queue alone at the trial's scale: one self-rescheduling tick
  // per node that charges harvest and idle draw, as a node lifecycle does.
  const sim::Scenario& sc = bench.session(0).scenario();
  const sim::TimelineRoundConfig& cfg = bench.inputs().options.timeline;
  std::vector<double> queue_ns;
  for (int r = 0; r < kReps; ++r) {
    sim::Timeline tl;
    tl.set_logging(false);
    std::function<void(sim::Timeline&)> tick = [&](sim::Timeline& t) {
      t.charge("energy.harvested", 1e-6);
      t.charge("energy.idle", 1e-6);
      if (t.now() + cfg.tick_s < cfg.horizon_s)
        t.schedule_in(cfg.tick_s, "node.tick", tick, cfg.tick_s);
    };
    const double ms_run = time_ms([&] {
      for (std::size_t j = 0; j < sc.node_count(); ++j)
        tl.schedule_at(0.0, "node.tick", tick, cfg.tick_s);
      tl.run();
    });
    queue_ns.push_back(ms_run * 1e6 / static_cast<double>(tl.events_processed()));
  }
  sheet.set("sim.timeline.queue_ns_per_event", median(queue_ns));

  // Path gain along each node's drift, sampled at tick times.
  std::vector<channel::MovingPathConfig> paths;
  for (std::size_t j = 0; j < sc.node_count(); ++j) {
    channel::MovingPathConfig path;
    path.source = sc.reader.projector;
    path.rx_start = sc.node_position(j);
    path.rx_velocity = {0.1, -0.1, 0.05};
    paths.push_back(path);
  }
  constexpr int kSamples = 500;
  double sink = 0.0;
  const double gain_ms = median_ms([&] {
    for (int k = 0; k < kSamples; ++k)
      for (const auto& path : paths)
        sink += channel::moving_path_gain_at(path, sc.waveform.carrier_hz,
                                             k * cfg.tick_s);
  });
  sheet.set("channel.moving_path_gain_us",
            std::isfinite(sink) ? gain_ms * 1e3 / (kSamples * paths.size()) : 0.0);
}

// ---- every workload ---------------------------------------------------------

void heap_metrics(const Inputs& in, const std::vector<TracedOp>& loop,
                  Sheet& sheet) {
  double allocs = 0.0, bytes = 0.0;
  for (const auto& t : loop) {
    allocs += static_cast<double>(t.heap_allocs);
    bytes += static_cast<double>(t.heap_bytes);
  }
  const auto n = static_cast<double>(loop.size());
  switch (in.kind) {
    case sim::TrialKind::kUplink:
      sheet.set("sim.uplink.heap_allocs_per_trial", allocs / n);
      break;
    case sim::TrialKind::kField:
      sheet.set("sim.field.heap_allocs_per_trial", allocs / n);
      sheet.set("sim.field.heap_bytes_per_trial", bytes / n);
      break;
    case sim::TrialKind::kTimeline:
      sheet.set("sim.timeline.heap_allocs_per_trial", allocs / n);
      break;
    case sim::TrialKind::kNetwork:
      break;
  }
}

// The seeded sweep through campaign::BatchExecutor against the same trials
// run directly (fresh sessions, as each campaign shard builds one): the
// campaign's cost beyond its trials, its record size, and record equality.
// Both passes alternate kCampaignReps times; the median difference is kept.
// The difference is small against trial-time noise on long trials, so it can
// read negative on timeline_energy.
void campaign_metrics(const Inputs& in, Sheet& sheet, std::string& failure) {
  campaign::BatchExecutor executor;
  campaign::RunOptions options;
  options.shard_size = 0;  // one shard per point
  options.worker_threads = 1;
  const sim::TrialOptions opts = in.spec.trial_options().value();
  std::vector<double> overhead_ms;
  std::size_t record_bytes = 0;
  for (int r = 0; r < kCampaignReps; ++r) {
    pab::Expected<campaign::CampaignResult> result = pab::Error{};
    const double campaign_ms =
        time_ms([&] { result = executor.run(in.spec, options); });
    if (!result.ok()) return fail(failure, "campaign run failed");
    std::vector<campaign::RecordBatch> direct;
    double direct_ms = 0.0;
    for (std::uint64_t p = 0; p < in.spec.point_count(); ++p) {
      const sim::Session s(in.spec.scenario_for_point(p).value());
      campaign::RecordBatch batch(in.kind);
      for (std::uint64_t t = 0; t < in.spec.trials_per_point; ++t) {
        pab::Expected<sim::TrialResult> trial = pab::Error{};
        direct_ms += time_ms([&] { trial = s.run_trial(in.kind, t, opts); });
        batch.append(t, trial);
      }
      direct.push_back(std::move(batch));
    }
    if (auto bad = check_records(result.value().points, direct); !bad.empty())
      fail(failure, bad);
    overhead_ms.push_back(campaign_ms - direct_ms);
    record_bytes = result.value().records_bytes().size();
  }
  const auto trials =
      static_cast<double>(in.spec.point_count() * in.spec.trials_per_point);
  sheet.set("campaign.overhead_us_per_trial", median(overhead_ms) * 1e3 / trials);
  sheet.set("campaign.record_bytes_per_trial",
            static_cast<double>(record_bytes) / trials);
}

}  // namespace

std::vector<Metric> layer_metrics(Bench& bench, const std::vector<TracedOp>& loop,
                                  std::string& failure) {
  Sheet sheet;
  const Inputs& in = bench.inputs();
  switch (in.kind) {
    case sim::TrialKind::kUplink:
      uplink_metrics(bench, loop, sheet, failure);
      break;
    case sim::TrialKind::kField:
      field_metrics(bench, loop, sheet, failure);
      break;
    case sim::TrialKind::kTimeline:
      timeline_metrics(bench, loop, sheet);
      break;
    case sim::TrialKind::kNetwork:
      break;
  }
  heap_metrics(in, loop, sheet);
  campaign_metrics(in, sheet, failure);
  return sheet.take();
}

}  // namespace pabbench
