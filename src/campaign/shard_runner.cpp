#include "campaign/shard_runner.hpp"

#include <utility>

#include "sim/batch.hpp"
#include "sim/session.hpp"

namespace pab::campaign {

void ShardOutput::serialize(ByteWriter& w) const {
  w.u64(shard);
  records.serialize(w);
  write_metrics(w, metrics);
}

pab::Expected<ShardOutput> ShardOutput::deserialize(ByteReader& r) {
  ShardOutput out;
  out.shard = r.u64();
  auto records = RecordBatch::deserialize(r);
  if (!records.ok()) return records.error();
  out.records = std::move(records).value();
  out.metrics = read_metrics(r);
  return out;
}

pab::Expected<ShardOutput> run_shard(const CampaignSpec& spec,
                                     const Shard& shard, unsigned threads) {
  if (shard.begin > shard.end || shard.end > spec.trials_per_point ||
      shard.point >= spec.point_count())
    return pab::Error{pab::ErrorCode::kInvalidArgument,
                      "run_shard: shard out of campaign bounds"};
  auto scenario = spec.scenario_for_point(shard.point);
  if (!scenario.ok()) return scenario.error();
  auto opts = spec.trial_options();
  if (!opts.ok()) return opts.error();

  // A fresh registry per shard makes the snapshot a pure per-shard delta:
  // session/cache/dispatch counters start at zero no matter which pass runs
  // the shard, so folds in shard order reproduce the uninterrupted totals
  // exactly.
  obs::MetricRegistry registry;
  const sim::Session session(std::move(scenario).value(), &registry);
  const sim::BatchRunner runner(threads == 0 ? 1 : threads, &registry);

  ShardOutput out;
  out.shard = shard.index;
  out.records = RecordBatch(spec.kind);
  const std::uint64_t n = shard.end - shard.begin;
  const auto results =
      runner.map(n, [&](std::size_t i) {
        return session.run_trial(spec.kind, shard.begin + i, opts.value());
      });
  for (std::uint64_t i = 0; i < n; ++i)
    out.records.append(shard.begin + i, results[i]);
  out.metrics = registry.snapshot();
  return out;
}

}  // namespace pab::campaign
