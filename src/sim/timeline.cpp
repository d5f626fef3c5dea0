#include "sim/timeline.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"

namespace pab::sim {

// Heap comparator: true when `a` fires after `b`, so std::push_heap /
// std::pop_heap keep the earliest (time, seq) at the front.  schedule_at
// rejects NaN, which makes this a strict total order: pops come out in
// exactly the lexicographic (time, seq) order of a sorted map.
bool Timeline::fires_after(const Pending& a, const Pending& b) {
  return b.time < a.time || (b.time == a.time && b.seq < a.seq);
}

std::uint32_t Timeline::intern(std::string_view label) {
  const auto it = label_ids_.find(label);
  if (it != label_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(tallies_.size());
  label_ids_.emplace(std::string(label), id);
  tallies_.push_back(Tally{std::string(label), NeumaierSum{}});
  return id;
}

void Timeline::record(double t, std::uint64_t seq, std::uint32_t label,
                      double value, TimelineEventKind kind) {
  Tally& tally = tallies_[label];
  if (logging_)
    log_.push_back(TimelineEvent{t, seq, tally.name, value, kind});
  tally.sum.add(value);
  ++processed_;
}

std::uint64_t Timeline::schedule_at(double t, std::string_view label,
                                    TimelineCallback fn, double value) {
  require(t >= now_, "Timeline: cannot schedule in the past");
  const std::uint64_t id = next_seq_++;
  Payload payload{intern(label), value, std::move(fn)};
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(payload));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(payload);
  }
  queue_.push_back(Pending{t, id, slot});
  std::push_heap(queue_.begin(), queue_.end(), fires_after);
  return id;
}

std::uint64_t Timeline::schedule_in(double dt, std::string_view label,
                                    TimelineCallback fn, double value) {
  require(dt >= 0.0, "Timeline: negative delay");
  return schedule_at(now_ + dt, label, std::move(fn), value);
}

bool Timeline::cancel(std::uint64_t id) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [id](const Pending& p) { return p.seq == id; });
  if (it == queue_.end()) return false;
  // Release the callback's captures now, not when the slot is next reused.
  slots_[it->slot].fn = nullptr;
  free_slots_.push_back(it->slot);
  *it = queue_.back();
  queue_.pop_back();
  std::make_heap(queue_.begin(), queue_.end(), fires_after);
  return true;
}

void Timeline::charge(std::string_view label, double value) {
  record(now_, next_seq_++, intern(label), value, TimelineEventKind::kCharge);
}

void Timeline::elapse(double dt, std::string_view label) {
  require(dt >= 0.0, "Timeline: negative elapse");
  // Fire everything due inside the interval first: elapse must not jump the
  // clock past scheduled work, or those events would run late and the log
  // would go non-monotonic.
  run_until(now_ + dt);
  record(now_, next_seq_++, intern(label), dt, TimelineEventKind::kElapse);
}

bool Timeline::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), fires_after);
  const Pending next = queue_.back();
  queue_.pop_back();
  // next.time >= now_ is structural: schedule_at rejects past times and the
  // heap pops in time order.
  now_ = next.time;
  // Move the payload out and free its slot before the callback runs: the
  // callback may schedule follow-ups that reuse the slot or grow slots_.
  Payload& payload = slots_[next.slot];
  const std::uint32_t label = payload.label;
  const double value = payload.value;
  const TimelineCallback fn = std::move(payload.fn);
  payload.fn = nullptr;
  free_slots_.push_back(next.slot);
  // Log before running the callback so a callback that schedules or charges
  // follow-ups appends strictly after its own entry.
  record(next.time, next.seq, label, value, TimelineEventKind::kScheduled);
  if (fn) fn(*this);
  return true;
}

void Timeline::run_until(double t) {
  require(t >= now_, "Timeline: run_until into the past");
  while (!queue_.empty() && queue_.front().time <= t) step();
  now_ = t;
}

void Timeline::run() {
  while (step()) {
  }
}

double Timeline::charged(std::string_view label) const {
  const auto it = label_ids_.find(label);
  return it == label_ids_.end() ? 0.0 : tallies_[it->second].sum.value();
}

double Timeline::charged_prefix(std::string_view prefix) const {
  // A label interned by a schedule that never fired adds an exact +0.0,
  // which leaves a NeumaierSum started at +0.0 unchanged: the total equals
  // the sum over the labels actually recorded.
  NeumaierSum sum;
  for (auto it = label_ids_.lower_bound(prefix); it != label_ids_.end(); ++it) {
    const std::string_view label = it->first;
    if (label.substr(0, prefix.size()) != prefix) break;
    sum.add(tallies_[it->second].sum.value());
  }
  return sum.value();
}

void Timeline::export_to(obs::MetricRegistry& registry,
                         std::string_view prefix) const {
  const std::string base = std::string(prefix) + ".";
  registry.gauge(base + "events_processed")
      .set(static_cast<double>(processed_));
  registry.gauge(base + "simulated_s").set(now_);
  registry.gauge(base + "pending").set(static_cast<double>(queue_.size()));
}

}  // namespace pab::sim
