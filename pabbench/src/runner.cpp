#include "runner.hpp"

#include <chrono>

#include "util/error.hpp"

namespace pabbench {

using namespace pab;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// One run_trial<K> call, timed alone (meter and result wrapping outside).
template <sim::TrialKind K>
Outcome timed_trial(const sim::Session& s, std::uint64_t trial,
                    const sim::TrialOptions& opts, TrialMeter* meter) {
  Outcome out;
  if (meter != nullptr) meter->begin();
  const auto t0 = Clock::now();
  auto r = s.run_trial<K>(trial, opts);
  out.ms = ms_since(t0);
  if (meter != nullptr) meter->end();
  if (r.ok())
    out.result.emplace(std::in_place_index<static_cast<std::size_t>(K)>,
                       std::move(r).value());
  else
    out.failure = "run_trial failed: " + r.error().message();
  return out;
}

}  // namespace

Bench::Bench(const Inputs& in)
    : in_(in), scenarios_(make_scenarios(in)), plan_(in, scenarios_) {
  for (const auto& s : scenarios_)
    sessions_.push_back(std::make_unique<sim::Session>(s));
  // The timed phase starts from round 0 again, so the warm-up trials are
  // the first trials it runs at each point.
  RoundPlan peek = plan_;
  round0_ = peek.next_round();
  first_ops_.resize(scenarios_.size());
  std::vector<bool> seen(scenarios_.size(), false);
  for (const Op& op : round0_) {
    if (seen[op.point]) continue;
    seen[op.point] = true;
    first_ops_[op.point] = op;
  }
  for (const Op& op : first_ops_) warm_.push_back(run(op).result);
}

std::string Bench::prepare_checks() {
  if (in_.kind == sim::TrialKind::kField) {
    for (const auto& s : scenarios_) field_expect_.emplace_back(s.field.positions());
  }
  for (std::size_t p = 0; p < warm_.size(); ++p) {
    if (!warm_[p].has_value())
      return "warm-up trial of point " + std::to_string(p) + " failed";
    std::string bad = check(first_ops_[p], *warm_[p]);
    if (!bad.empty() && !is_false_lock(first_ops_[p]))
      return "warm-up trial of point " + std::to_string(p) + ": " + bad;
  }
  checking_ = true;
  return {};
}

Outcome Bench::run(const Op& op, TrialMeter* meter) {
  const sim::Session& s = *sessions_[op.point];
  Outcome out;
  switch (in_.kind) {
    case sim::TrialKind::kUplink:
      out = timed_trial<sim::TrialKind::kUplink>(s, op.trial, in_.options, meter);
      break;
    case sim::TrialKind::kField:
      out = timed_trial<sim::TrialKind::kField>(s, op.trial, in_.options, meter);
      break;
    case sim::TrialKind::kTimeline:
      out = timed_trial<sim::TrialKind::kTimeline>(s, op.trial, in_.options,
                                                   meter);
      break;
    case sim::TrialKind::kNetwork:
      require(false, "network trials are not a benchmark workload");
  }
  // Set-up's warm-up trials are checked later, by prepare_checks.
  if (!checking_ || !out.result.has_value()) return out;
  out.failure = check(op, *out.result);
  if (warm_[op.point].has_value() && op == first_ops_[op.point]) {
    if (!identical(*warm_[op.point], *out.result) && out.failure.empty())
      out.failure = "re-running the first trial gave a different result";
    warm_[op.point].reset();
  }
  return out;
}

std::string Bench::check(const Op& op, const sim::TrialResult& result) {
  const sim::Scenario& sc = scenarios_[op.point];
  switch (in_.kind) {
    case sim::TrialKind::kUplink:
      return check_uplink(expect_uplink(sc, op.trial),
                          std::get<sim::UplinkTrial>(result));
    case sim::TrialKind::kField:
      return check_field(field_expect_[op.point],
                         std::get<sim::FieldRunResult>(result));
    case sim::TrialKind::kTimeline:
      return check_timeline(expect_timeline(sc, in_.options.timeline),
                            std::get<sim::TimelineRunResult>(result));
    case sim::TrialKind::kNetwork:
      break;
  }
  return "unsupported trial kind";
}

}  // namespace pabbench
