// The benchmark's closed loop: set-up, then one Session::run_trial<K> call
// per operation, each timed and checked.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "workloads.hpp"

namespace pabbench {

// Hook around each run_trial call (the traced binary counts heap use here).
class TrialMeter {
 public:
  virtual ~TrialMeter() = default;
  virtual void begin() = 0;
  virtual void end() = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  double ms = 0.0;      // wall time of the run_trial call
  std::string failure;  // empty when the result passed every check
  std::optional<pab::sim::TrialResult> result;  // empty when run_trial erred
};

class Bench {
 public:
  // Set-up: scenario generation, Session construction, and a warm-up trial
  // per operating point (the first trial the timed phase runs there), which
  // fills the modulation-response and tap caches.
  explicit Bench(const Inputs& in);
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Checks the warm-up results and computes the checks' own reference values
  // (brute-force pair counts); call after set-up is timed.
  [[nodiscard]] std::string prepare_checks();

  [[nodiscard]] std::vector<Op> next_round() { return plan_.next_round(); }
  [[nodiscard]] bool is_false_lock(const Op& op) const {
    return plan_.is_false_lock(op);
  }
  // Runs one operation and checks its result.  The first run of each point's
  // warm-up trial must also reproduce the warm-up result bit for bit.
  [[nodiscard]] Outcome run(const Op& op, TrialMeter* meter = nullptr);

  [[nodiscard]] const Inputs& inputs() const { return in_; }
  [[nodiscard]] std::size_t points() const { return scenarios_.size(); }
  [[nodiscard]] const pab::sim::Session& session(std::size_t p) const {
    return *sessions_[p];
  }
  [[nodiscard]] const std::vector<Op>& first_ops() const { return first_ops_; }
  // The operations of round 0, in order (one full round of the workload).
  [[nodiscard]] const std::vector<Op>& round0() const { return round0_; }

 private:
  [[nodiscard]] std::string check(const Op& op,
                                  const pab::sim::TrialResult& result);

  const Inputs& in_;
  std::vector<pab::sim::Scenario> scenarios_;  // never resized after set-up
  std::vector<std::unique_ptr<pab::sim::Session>> sessions_;
  RoundPlan plan_;
  std::vector<Op> first_ops_;  // per point
  std::vector<Op> round0_;
  std::vector<std::optional<pab::sim::TrialResult>> warm_;  // until re-run
  std::vector<FieldExpect> field_expect_;
  bool checking_ = false;
};

}  // namespace pabbench
