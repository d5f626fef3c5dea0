// BatchExecutor: the campaign executor.
//
// Runs the compiled shard queue serially in shard-index order (parallelism
// lives inside each shard, via the BatchRunner width in
// RunOptions::worker_threads), checkpointing each finished shard when a
// checkpoint directory is configured.  Determinism comes from per-trial
// seeds and the shard-order fold, so a resumed run matches a straight one
// byte for byte even at a different thread count.
#pragma once

#include "campaign/executor.hpp"

namespace pab::campaign {

class BatchExecutor {
 public:
  [[nodiscard]] pab::Expected<CampaignResult> run(const CampaignSpec& spec,
                                                  const RunOptions& options);
};

}  // namespace pab::campaign
