// Traced runs: per-layer metrics, measured by calling each layer's public
// functions from outside the simulator, around the same inputs the trials
// use.  Only the traced binary (which links pab::alloccount) compiles this.
#pragma once

#include <string>
#include <vector>

#include "runner.hpp"

namespace pabbench {

// What the traced trial loop saw: every operation with its outcome and heap
// use (allocations / bytes requested inside the run_trial call).
struct TracedOp {
  Op op;
  Outcome outcome;
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;
};

// Heap counters for the traced binary's trial loop.
class AllocMeter : public TrialMeter {
 public:
  void begin() override;
  void end() override;
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;

 private:
  std::uint64_t start_allocs_ = 0;
  std::uint64_t start_bytes_ = 0;
};

// Every per-layer metric of BENCHMARK.json, for this workload.  Metrics of a
// layer the workload's trials never call read 0.  Appends to `failure` when
// a probe's replay disagrees with the trial it replays or the campaign
// records differ from the direct results.
[[nodiscard]] std::vector<Metric> layer_metrics(
    Bench& bench, const std::vector<TracedOp>& loop, std::string& failure);

}  // namespace pabbench
