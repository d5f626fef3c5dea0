// Campaign results: what a run of (CampaignSpec, RunOptions) produces.
//
// A CampaignResult holds per-point record batches in trial order plus the
// campaign's merged metrics.  Every shard executes through
// campaign::run_shard and outputs fold in shard-index order, so the same
// spec yields byte-identical records_bytes() at any shard size, thread
// count or resume split (campaign/batch_executor.hpp runs it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/record.hpp"
#include "campaign/shard_runner.hpp"
#include "campaign/spec.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace pab::campaign {

struct RunOptions {
  std::uint64_t shard_size = 32;  // trials per shard (0 = one shard per point)
  unsigned worker_threads = 1;    // BatchRunner width inside each shard
  std::string checkpoint_dir;     // empty = no checkpointing
  bool resume = false;            // fold in a previous pass's finished shards
  // Test/ops hook: stop (kTimeout error, progress checkpointed)
  // after this many newly-executed shards; 0 = run to completion.  This is
  // how the test suite kills a campaign mid-flight deterministically.
  std::uint64_t max_shards = 0;
};

// The assembled campaign: spec echo, one batch per operating point (trials
// in order), and the shard metrics deltas folded in shard-index order.
struct CampaignResult {
  CampaignSpec spec;
  std::uint64_t fingerprint = 0;
  std::vector<RecordBatch> points;
  obs::MetricsSnapshot metrics;

  // Canonical bytes of every point batch -- the cross-run equality token,
  // and the payload of pab_serve's `.records` artifact.
  [[nodiscard]] std::string records_bytes() const;
  // Per-point aggregates (trial/ok/error counts, per-column means over ok
  // rows with compensated summation) as JSON, for humans and CI.
  [[nodiscard]] std::string summary_json() const;
};

// Fold complete shard outputs (all shards of spec.compile(shard_size), in
// any order) into a CampaignResult.  Used by BatchExecutor and by tests that
// exercise merge associativity directly.
[[nodiscard]] pab::Expected<CampaignResult> assemble_result(
    const CampaignSpec& spec, std::vector<ShardOutput> shards);

}  // namespace pab::campaign
