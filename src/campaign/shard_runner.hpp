// run_shard: the one way a shard of campaign work ever executes.
//
// BatchExecutor and the merge/resume tests funnel through this function, so
// the same (spec, shard, threads) triple always builds the same Session over
// a fresh isolated MetricRegistry, runs the same trial indices through the
// same unified run_trial path, and snapshots the same metrics delta -- which
// is what makes a resumed or re-partitioned campaign fold to the same bytes.
#pragma once

#include "campaign/record.hpp"
#include "campaign/spec.hpp"
#include "campaign/wire.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pab::campaign {

// Everything one finished shard yields: its rows (in trial order) and the
// isolated registry's snapshot (a per-shard metrics delta, exact to merge).
struct ShardOutput {
  std::uint64_t shard = 0;
  RecordBatch records;
  obs::MetricsSnapshot metrics;

  void serialize(ByteWriter& w) const;
  [[nodiscard]] static pab::Expected<ShardOutput> deserialize(ByteReader& r);
};

// Execute trials [shard.begin, shard.end) of the shard's operating point.
// `threads` is the BatchRunner width inside the shard; records are identical
// at any width, while the per-worker dispatch counters
// (sim.batch.worker.<t>.trials) depend on it.
[[nodiscard]] pab::Expected<ShardOutput> run_shard(const CampaignSpec& spec,
                                                   const Shard& shard,
                                                   unsigned threads);

}  // namespace pab::campaign
