// sim::Timeline unit tests plus the cross-layer event-driven scenarios the
// refactor exists for: timeline-mode scheduler accounting (backoff, query
// timeout), timed inventory equivalence, and the acceptance scenario -- a
// node that browns out mid-inventory, misses its slot, and rejoins after
// recharge.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/generators.hpp"
#include "energy/harvester.hpp"
#include "energy/mcu.hpp"
#include "mac/inventory.hpp"
#include "mac/scheduler.hpp"
#include "mac/zones.hpp"
#include "node/lifecycle.hpp"
#include "obs/metrics.hpp"
#include "sim/session.hpp"
#include "sim/timeline.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pab::sim {
namespace {

TEST(Timeline, FiresInTimeOrderWithStableTieBreak) {
  Timeline tl;
  std::vector<std::string> order;
  const auto mark = [&order](const std::string& name) {
    return [&order, name](Timeline&) { order.push_back(name); };
  };
  // Scheduled out of time order, with a deliberate tie at t = 1.0: the tie
  // must break by creation sequence (first scheduled fires first).
  (void)tl.schedule_at(2.0, "late", mark("late"));
  (void)tl.schedule_at(1.0, "tie_first", mark("tie_first"));
  (void)tl.schedule_at(1.0, "tie_second", mark("tie_second"));
  (void)tl.schedule_at(0.5, "early", mark("early"));
  tl.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "tie_first",
                                             "tie_second", "late"}));
  EXPECT_DOUBLE_EQ(tl.now(), 2.0);
  // The log mirrors the fire order, and scheduled entries carry their kind.
  ASSERT_EQ(tl.log().size(), 4u);
  EXPECT_EQ(tl.log()[1].label, "tie_first");
  EXPECT_EQ(tl.log()[2].label, "tie_second");
  EXPECT_LT(tl.log()[1].seq, tl.log()[2].seq);
  for (const auto& e : tl.log())
    EXPECT_EQ(e.kind, TimelineEventKind::kScheduled);
}

TEST(Timeline, RejectsTimeTravel) {
  Timeline tl;
  tl.run_until(5.0);
  EXPECT_THROW((void)tl.schedule_at(4.0, "past"), std::invalid_argument);
  EXPECT_THROW((void)tl.schedule_in(-0.1, "negative"), std::invalid_argument);
  EXPECT_THROW(tl.elapse(-1e-9, "negative"), std::invalid_argument);
  EXPECT_THROW(tl.run_until(4.9), std::invalid_argument);
  // Scheduling exactly at now() is allowed (a zero-delay follow-up).
  EXPECT_NO_THROW((void)tl.schedule_at(5.0, "now"));
}

TEST(Timeline, CancelRemovesPendingEvents) {
  Timeline tl;
  bool fired = false;
  const auto id =
      tl.schedule_at(1.0, "doomed", [&fired](Timeline&) { fired = true; });
  EXPECT_EQ(tl.pending(), 1u);
  EXPECT_TRUE(tl.cancel(id));
  EXPECT_EQ(tl.pending(), 0u);
  EXPECT_FALSE(tl.cancel(id));  // already gone
  tl.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(tl.log().empty());  // cancelled events never reach the log
}

TEST(Timeline, ElapseFiresDueEventsAtTheirOwnTimestamps) {
  Timeline tl;
  double fired_at = -1.0;
  (void)tl.schedule_at(0.3, "mid", [&fired_at](Timeline& t) {
    fired_at = t.now();
  });
  // elapse(1.0) spans the pending event: the event must fire at t = 0.3, not
  // get dragged to the end of the interval.
  tl.elapse(1.0, "span");
  EXPECT_DOUBLE_EQ(fired_at, 0.3);
  EXPECT_DOUBLE_EQ(tl.now(), 1.0);
  ASSERT_EQ(tl.log().size(), 2u);
  EXPECT_EQ(tl.log()[0].label, "mid");
  EXPECT_EQ(tl.log()[0].kind, TimelineEventKind::kScheduled);
  EXPECT_EQ(tl.log()[1].label, "span");
  EXPECT_EQ(tl.log()[1].kind, TimelineEventKind::kElapse);
  EXPECT_DOUBLE_EQ(tl.log()[1].value, 1.0);
}

TEST(Timeline, ChargedSumsByLabelAndPrefix) {
  Timeline tl;
  tl.elapse(0.25, "mac.downlink");
  tl.elapse(0.25, "mac.downlink");
  tl.elapse(0.05, "mac.uplink");
  tl.charge("energy.idle", 1e-3);
  EXPECT_DOUBLE_EQ(tl.charged("mac.downlink"), 0.5);
  EXPECT_DOUBLE_EQ(tl.charged("mac.uplink"), 0.05);
  EXPECT_DOUBLE_EQ(tl.charged("never"), 0.0);
  EXPECT_DOUBLE_EQ(tl.charged_prefix("mac."), 0.55);
  EXPECT_DOUBLE_EQ(tl.charged_prefix("energy."), 1e-3);
  // Charges are instantaneous: the clock only moved for the elapses.
  EXPECT_DOUBLE_EQ(tl.now(), 0.55);
  EXPECT_EQ(tl.log().back().kind, TimelineEventKind::kCharge);
}

TEST(Timeline, CallbacksCanScheduleFollowUps) {
  // A self-rescheduling tick: the pattern node::NodeLifecycle uses.
  Timeline tl;
  int ticks = 0;
  std::function<void(Timeline&)> tick = [&](Timeline& t) {
    ++ticks;
    if (ticks < 5) (void)t.schedule_in(0.1, "tick", tick);
  };
  (void)tl.schedule_at(0.0, "tick", tick);
  tl.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_NEAR(tl.now(), 0.4, 1e-12);
  EXPECT_EQ(tl.events_processed(), 5u);
}

TEST(Timeline, LoggingToggleKeepsSums) {
  Timeline tl;
  tl.set_logging(false);
  tl.elapse(1.0, "work");
  tl.charge("marker", 2.0);
  EXPECT_TRUE(tl.log().empty());
  // Sums and the processed count accumulate regardless of log retention.
  EXPECT_DOUBLE_EQ(tl.charged("work"), 1.0);
  EXPECT_DOUBLE_EQ(tl.charged("marker"), 2.0);
  EXPECT_EQ(tl.events_processed(), 2u);
}

TEST(Timeline, ExportsGaugesToRegistry) {
  Timeline tl;
  tl.elapse(2.5, "work");
  (void)tl.schedule_at(9.0, "pending");
  obs::MetricRegistry reg;
  tl.export_to(reg, "sim.timeline");
  EXPECT_DOUBLE_EQ(reg.gauge("sim.timeline.events_processed").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.timeline.simulated_s").value(), 2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.timeline.pending").value(), 1.0);
}

TEST(Timeline, ReplayIsBitIdentical) {
  const auto drive = [] {
    Timeline tl;
    (void)tl.schedule_at(0.25, "a", nullptr, 1.0);
    (void)tl.schedule_at(0.25, "b", nullptr, 2.0);
    tl.elapse(0.5, "work");
    tl.charge("marker", 3.0);
    (void)tl.schedule_in(0.125, "c");
    tl.run();
    return tl;
  };
  const Timeline first = drive();
  const Timeline second = drive();
  EXPECT_EQ(first.log(), second.log());
  EXPECT_EQ(first.now(), second.now());
  EXPECT_EQ(first.charged_prefix(""), second.charged_prefix(""));
}

TEST(Timeline, CancelRejectsChargesAndRepeatsAndReusesSlots) {
  Timeline tl;
  tl.charge("marker", 1.0);        // takes seq 0
  EXPECT_FALSE(tl.cancel(0));      // a charge's id names no pending event
  EXPECT_FALSE(tl.cancel(99));     // nor does an id never handed out
  int a_fired = 0;
  int b_fired = 0;
  const auto captured = std::make_shared<int>(0);
  const auto a = tl.schedule_at(
      1.0, "a", [&a_fired, captured](Timeline&) { ++a_fired; }, 1.0);
  EXPECT_EQ(captured.use_count(), 2);
  EXPECT_TRUE(tl.cancel(a));
  EXPECT_EQ(captured.use_count(), 1);  // cancel releases the captures
  EXPECT_FALSE(tl.cancel(a));          // cancelling twice
  // b reuses a's freed slot and must carry its own label, value and callback.
  const auto b =
      tl.schedule_at(0.5, "b", [&b_fired](Timeline&) { ++b_fired; }, 2.0);
  EXPECT_NE(a, b);
  EXPECT_FALSE(tl.cancel(a));
  tl.run();
  EXPECT_FALSE(tl.cancel(b));  // already fired
  EXPECT_EQ(a_fired, 0);
  EXPECT_EQ(b_fired, 1);
  ASSERT_EQ(tl.log().size(), 2u);
  EXPECT_EQ(tl.log()[1], (TimelineEvent{0.5, b, "b", 2.0,
                                        TimelineEventKind::kScheduled}));
  EXPECT_EQ(tl.charged("a"), 0.0);
  EXPECT_EQ(tl.charged("b"), 2.0);
  EXPECT_EQ(tl.charged_prefix(""), 3.0);
  EXPECT_EQ(tl.pending(), 0u);
}

// --- property test against a sorted-map reference model ----------------------

// The specification of the event queue: pending events in a std::map keyed
// by (time, seq), whose iteration order is the fire order, and per-label
// totals in a std::map keyed by label.  Timeline must behave identically.
class MapTimeline {
 public:
  using Callback = std::function<void(MapTimeline&)>;

  [[nodiscard]] double now() const { return now_; }
  std::uint64_t schedule_at(double t, std::string_view label,
                            Callback fn = nullptr, double value = 0.0) {
    const std::uint64_t id = next_seq_++;
    queue_.emplace(std::pair{t, id}, Item{std::string(label), value, fn});
    return id;
  }
  std::uint64_t schedule_in(double dt, std::string_view label,
                            Callback fn = nullptr, double value = 0.0) {
    return schedule_at(now_ + dt, label, std::move(fn), value);
  }
  bool cancel(std::uint64_t id) {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->first.second != id) continue;
      queue_.erase(it);
      return true;
    }
    return false;
  }
  void charge(std::string_view label, double value) {
    record(now_, next_seq_++, label, value, TimelineEventKind::kCharge);
  }
  void elapse(double dt, std::string_view label) {
    run_until(now_ + dt);
    record(now_, next_seq_++, label, dt, TimelineEventKind::kElapse);
  }
  bool step() {
    if (queue_.empty()) return false;
    const auto [key, item] = *queue_.begin();
    queue_.erase(queue_.begin());
    now_ = key.first;
    record(key.first, key.second, item.label, item.value,
           TimelineEventKind::kScheduled);
    if (item.fn) item.fn(*this);
    return true;
  }
  void run_until(double t) {
    while (!queue_.empty() && queue_.begin()->first.first <= t) step();
    now_ = t;
  }
  void run() {
    while (step()) {
    }
  }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::size_t events_processed() const { return log_.size(); }
  [[nodiscard]] const std::vector<TimelineEvent>& log() const { return log_; }
  [[nodiscard]] double charged(std::string_view label) const {
    const auto it = sums_.find(label);
    return it == sums_.end() ? 0.0 : it->second.value();
  }
  [[nodiscard]] double charged_prefix(std::string_view prefix) const {
    NeumaierSum sum;
    for (auto it = sums_.lower_bound(prefix); it != sums_.end(); ++it) {
      if (std::string_view(it->first).substr(0, prefix.size()) != prefix)
        break;
      sum.add(it->second.value());
    }
    return sum.value();
  }

 private:
  struct Item {
    std::string label;
    double value;
    Callback fn;
  };
  void record(double t, std::uint64_t seq, std::string_view label,
              double value, TimelineEventKind kind) {
    log_.push_back(TimelineEvent{t, seq, std::string(label), value, kind});
    auto it = sums_.find(label);
    if (it == sums_.end())
      it = sums_.emplace(std::string(label), NeumaierSum{}).first;
    it->second.add(value);
  }

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::map<std::pair<double, std::uint64_t>, Item> queue_;
  std::vector<TimelineEvent> log_;
  std::map<std::string, NeumaierSum, std::less<>> sums_;
};

// One scripted operation: check::gen_timeline_ops' schedule_at / elapse /
// charge / run_until / run, plus the schedule_in, cancel and step
// operations, and callbacks that charge and schedule follow-ups.
struct QueueOp {
  enum class Kind {
    kScheduleAt, kScheduleIn, kCancel, kCharge, kElapse, kStep, kRunUntil,
    kRunAll
  };
  Kind kind = Kind::kCharge;
  double time = 0.0;  // absolute time, delay or elapse, by kind
  std::string label;
  double value = 0.0;
  bool chained = false;  // the scheduled callback charges and reschedules
  double which = 0.0;    // cancel: which kind of id, drawn from [0, 1)
  double pick = 0.0;     // cancel: which id of that kind, drawn from [0, 1)
};

std::vector<QueueOp> gen_queue_ops(Rng& rng) {
  const auto base =
      check::gen_timeline_ops(rng, static_cast<std::size_t>(rng.uniform_int(4, 80)));
  std::vector<QueueOp> ops;
  for (const auto& b : base) {
    QueueOp op;
    using K = check::TimelineOp::Kind;
    switch (b.kind) {
      case K::kScheduleAt: op.kind = QueueOp::Kind::kScheduleAt; break;
      case K::kElapse: op.kind = QueueOp::Kind::kElapse; break;
      case K::kCharge: op.kind = QueueOp::Kind::kCharge; break;
      case K::kRunUntil: op.kind = QueueOp::Kind::kRunUntil; break;
      case K::kRunAll: op.kind = QueueOp::Kind::kRunAll; break;
    }
    op.time = b.time;
    op.label = b.label;
    op.value = b.value;
    op.chained = rng.bernoulli(0.2);
    ops.push_back(std::move(op));
    const double u = rng.uniform();
    QueueOp extra;
    if (u < 0.2) {
      extra.kind = QueueOp::Kind::kScheduleIn;
      extra.time = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 1.5);
      extra.label = rng.bernoulli(0.5) ? "a.in" : "b.in";
      extra.value = rng.uniform(0.0, 1.0);
      extra.chained = rng.bernoulli(0.2);
    } else if (u < 0.5) {
      extra.kind = QueueOp::Kind::kCancel;
      extra.which = rng.uniform();
      extra.pick = rng.uniform();
    } else if (u < 0.6) {
      extra.kind = QueueOp::Kind::kStep;
    } else {
      continue;
    }
    ops.push_back(std::move(extra));
  }
  return ops;
}

// What the property test saw, so it can prove it covered the edge cases.
struct QueueCoverage {
  std::size_t cancelled = 0;
  std::size_t charge_ids_refused = 0;
  std::size_t repeat_cancels_refused = 0;
  std::size_t schedules_after_cancel = 0;
};

// Runs `ops` on `tl` (a Timeline or a MapTimeline) and returns everything a
// caller can observe: after each op the clock, pending() and the op's
// return value; at the end the log, the processed count and every total.
template <class T>
std::vector<double> drive_queue(T& tl, const std::vector<QueueOp>& ops,
                                QueueCoverage* coverage = nullptr) {
  std::vector<double> seen;
  std::vector<std::uint64_t> scheduled;     // every id a schedule returned
  std::vector<std::uint64_t> charge_ids;    // seqs of charges and elapses
  std::vector<std::uint64_t> cancelled;     // ids cancel() accepted
  const auto chain = [](auto& t) {
    t.charge("chain.hop", 1.0);
    (void)t.schedule_in(0.25, "chain.tail", nullptr, 0.5);
  };
  const auto note_logged = [&] { charge_ids.push_back(tl.log().back().seq); };
  for (const QueueOp& op : ops) {
    double result = 0.0;
    switch (op.kind) {
      case QueueOp::Kind::kScheduleAt:
      case QueueOp::Kind::kScheduleIn: {
        // Steps and chained follow-ups can carry the clock past the
        // generator's model clock, so absolute times are clamped to now().
        std::function<void(T&)> fn = nullptr;
        if (op.chained) fn = chain;
        const std::uint64_t id =
            op.kind == QueueOp::Kind::kScheduleAt
                ? tl.schedule_at(std::max(op.time, tl.now()), op.label, fn,
                                 op.value)
                : tl.schedule_in(op.time, op.label, fn, op.value);
        if (coverage != nullptr && !cancelled.empty())
          ++coverage->schedules_after_cancel;
        scheduled.push_back(id);
        result = static_cast<double>(id);
        break;
      }
      case QueueOp::Kind::kCancel: {
        const std::vector<std::uint64_t>& ids =
            op.which < 0.6 ? scheduled
                           : (op.which < 0.8 ? charge_ids : cancelled);
        const std::uint64_t id =
            ids.empty() ? 1000000  // never handed out
                        : ids[std::min(
                              ids.size() - 1,
                              static_cast<std::size_t>(
                                  op.pick * static_cast<double>(ids.size())))];
        const bool ok = tl.cancel(id);
        if (coverage != nullptr && ok) ++coverage->cancelled;
        if (coverage != nullptr && !ok) {
          if (std::find(charge_ids.begin(), charge_ids.end(), id) !=
              charge_ids.end())
            ++coverage->charge_ids_refused;
          if (std::find(cancelled.begin(), cancelled.end(), id) !=
              cancelled.end())
            ++coverage->repeat_cancels_refused;
        }
        if (ok) cancelled.push_back(id);
        result = ok ? 1.0 : 0.0;
        break;
      }
      case QueueOp::Kind::kCharge:
        tl.charge(op.label, op.value);
        note_logged();
        break;
      case QueueOp::Kind::kElapse:
        tl.elapse(op.time, op.label);
        note_logged();
        break;
      case QueueOp::Kind::kStep:
        result = tl.step() ? 1.0 : 0.0;
        break;
      case QueueOp::Kind::kRunUntil:
        tl.run_until(std::max(op.time, tl.now()));
        break;
      case QueueOp::Kind::kRunAll:
        tl.run();
        break;
    }
    seen.insert(seen.end(),
                {result, tl.now(), static_cast<double>(tl.pending())});
  }
  seen.push_back(static_cast<double>(tl.events_processed()));
  for (const char* label : {"a.x", "a.y", "b.z", "mac.downlink",
                            "energy.harvested", "a.in", "b.in", "chain.hop",
                            "chain.tail", "never"})
    seen.push_back(tl.charged(label));
  for (const char* prefix : {"", "a", "a.", "b.", "mac.", "energy.", "chain",
                             "chain.t", "zz"})
    seen.push_back(tl.charged_prefix(prefix));
  return seen;
}

TEST(TimelineProperty, MatchesSortedMapReferenceModel) {
  QueueCoverage coverage;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto ops = gen_queue_ops(rng);
    Timeline heap;
    MapTimeline model;
    const auto got = drive_queue(heap, ops, &coverage);
    const auto want = drive_queue(model, ops);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "seed " << seed << " observation " << i << ": " << got[i]
          << " vs " << want[i];
    ASSERT_EQ(heap.log(), model.log()) << "seed " << seed;
  }
  // The scripts reached every edge case the queue has.
  EXPECT_GT(coverage.cancelled, 0u);
  EXPECT_GT(coverage.charge_ids_refused, 0u);
  EXPECT_GT(coverage.repeat_cancels_refused, 0u);
  EXPECT_GT(coverage.schedules_after_cancel, 0u);
}

// --- timeline-mode scheduler -------------------------------------------------

TEST(TimedScheduler, RetryBackoffIsATimedEvent) {
  Timeline tl;
  mac::SchedulerConfig config{2, 0.2, 0.02};
  config.retry_backoff_s = 0.1;
  mac::PollScheduler sched(config, nullptr, &tl);
  int calls = 0;
  const auto link = [&calls](const phy::DownlinkQuery&)
      -> pab::Expected<phy::UplinkPacket> {
    if (++calls == 1)
      return pab::Error{pab::ErrorCode::kTimeout, "silent"};
    return phy::UplinkPacket{7, {0x01}};
  };
  const auto result = sched.transact({7}, link, 80, 1000.0);
  ASSERT_TRUE(result.ok());
  const auto stats = sched.stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.retries, 1u);
  // The backoff is real simulated time: it shows up in the clock, in the
  // per-label charge sums, and in elapsed_s -- all in exact agreement.
  EXPECT_DOUBLE_EQ(tl.charged("mac.retry_backoff"), 0.1);
  EXPECT_DOUBLE_EQ(tl.charged("mac.downlink"), 0.4);
  EXPECT_DOUBLE_EQ(tl.charged("mac.turnaround"), 0.04);
  EXPECT_DOUBLE_EQ(tl.charged("mac.uplink"), 0.08);
  EXPECT_DOUBLE_EQ(tl.now(), stats.elapsed_s);
  EXPECT_DOUBLE_EQ(stats.elapsed_s, 0.4 + 0.04 + 0.08 + 0.1);
  // Markers: one retry, one no-response, payload bits on the success.
  EXPECT_DOUBLE_EQ(tl.charged("mac.payload_bits"), 8.0);
  EXPECT_EQ(tl.charged("mac.retry"), 0.0);  // marker, value 0
}

TEST(TimedScheduler, QueryTimeoutCapsAirtime) {
  Timeline tl;
  mac::SchedulerConfig config{100, 0.2, 0.02};
  config.retry_backoff_s = 0.1;
  config.query_timeout_s = 1.0;
  mac::PollScheduler sched(config, nullptr, &tl);
  const auto silent = [](const phy::DownlinkQuery&)
      -> pab::Expected<phy::UplinkPacket> {
    return pab::Error{pab::ErrorCode::kTimeout, "silent"};
  };
  const auto result = sched.transact({7}, silent, 80, 1000.0);
  EXPECT_FALSE(result.ok());
  const auto stats = sched.stats();
  // Attempts cost 0.22 s; each retry prepends 0.1 s of backoff.  Spent
  // airtime crosses the 1.0 s budget after the fourth attempt (1.18 s), so
  // the fifth is never issued despite 96 retries remaining.
  EXPECT_EQ(stats.attempts, 4u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.no_response, 4u);
  EXPECT_NEAR(stats.elapsed_s, 4 * 0.22 + 3 * 0.1, 1e-12);
  // The give-up is in the event log.
  bool timed_out = false;
  for (const auto& e : tl.log()) timed_out |= (e.label == "mac.query_timeout");
  EXPECT_TRUE(timed_out);
}

TEST(TimedScheduler, WithoutTimelineAccountingIsUnchanged) {
  // Legacy adapter mode: no timeline, same numbers as always.
  mac::PollScheduler timed({2, 0.2, 0.02});
  const auto ok = [](const phy::DownlinkQuery&)
      -> pab::Expected<phy::UplinkPacket> {
    return phy::UplinkPacket{7, {0x01, 0x02}};
  };
  ASSERT_TRUE(timed.transact({7}, ok, 80, 1000.0).ok());
  const auto stats = timed.stats();
  EXPECT_EQ(stats.attempts, 1u);
  EXPECT_NEAR(stats.elapsed_s, 0.2 + 0.02 + 0.08, 1e-12);
  EXPECT_DOUBLE_EQ(stats.payload_bits_delivered, 16.0);
}

// --- timed inventory ---------------------------------------------------------

TEST(TimedInventory, MatchesUntimedWhenAlwaysAvailable) {
  const std::vector<std::uint8_t> population{3, 17, 42, 99, 120, 200};
  mac::InventoryConfig config;
  config.seed = 77;
  mac::InventoryStats untimed_stats;
  const auto untimed = mac::run_inventory(population, config, &untimed_stats);

  Timeline tl;
  mac::InventoryStats timed_stats;
  const auto timed =
      mac::run_inventory(population, config, tl, {}, &timed_stats);
  EXPECT_EQ(timed, untimed);
  EXPECT_EQ(timed_stats.frames, untimed_stats.frames);
  EXPECT_EQ(timed_stats.slots, untimed_stats.slots);
  EXPECT_EQ(timed_stats.singletons, untimed_stats.singletons);
  EXPECT_EQ(timed_stats.collisions, untimed_stats.collisions);
  EXPECT_EQ(timed_stats.empties, untimed_stats.empties);
  // The round consumed real simulated time: one announcement per frame plus
  // every reply slot.
  const mac::TimedInventoryOptions defaults{};
  EXPECT_NEAR(tl.now(),
              static_cast<double>(timed_stats.frames) *
                      defaults.frame_announce_s +
                  static_cast<double>(timed_stats.slots) * defaults.slot_s,
              1e-12);
  EXPECT_DOUBLE_EQ(tl.charged("mac.inventory.slot"),
                   static_cast<double>(timed_stats.slots) * defaults.slot_s);
}

// --- acceptance: brownout mid-inventory, miss the slot, rejoin ---------------

TEST(Lifecycle, BrownoutMidInventoryAndRejoin) {
  Timeline tl;
  // Harvest profile: strong while booting, a dead window that browns the node
  // out, then restored harvest so it can rejoin.
  node::LifecycleConfig lc;
  lc.tick_s = 0.01;
  lc.idle_load_w = 1e-3;  // aggressive idle draw so the brownout is quick
  lc.v_ceiling = 5.0;
  lc.harvest_power_w = [](double t) {
    return (t < 2.0 || t >= 8.0) ? 5e-3 : 0.0;
  };
  node::NodeLifecycle node(7, energy::Harvester{circuit::Supercapacitor(100e-6)},
                           lc);
  node.attach(tl, 20.0);

  // Boot phase: the node cold-starts (power-up #1), tops up, then loses
  // harvest at t = 2 and browns out under its idle load around t = 3.
  tl.run_until(4.0);
  EXPECT_EQ(node.power_ups(), 1u);
  EXPECT_EQ(node.brown_outs(), 1u);
  EXPECT_FALSE(node.powered());

  // Inventory starts while the node is dark.  One slot per frame (q pinned
  // to 0), 0.75 s per frame: the node misses every slot until it re-boots at
  // ~8.02 s, then answers the first slot after that (fires at 8.5 s).
  mac::InventoryConfig config;
  config.initial_q = 0;
  config.min_q = 0;
  config.max_q = 0;
  config.max_frames = 32;
  mac::TimedInventoryOptions options;
  options.frame_announce_s = 0.5;
  options.slot_s = 0.25;
  options.available = [&node](std::uint8_t id, double) {
    return id == node.id() && node.powered();
  };
  const std::vector<std::uint8_t> population{7};
  mac::InventoryStats stats;
  const auto identified =
      mac::run_inventory(population, config, tl, options, &stats);

  ASSERT_EQ(identified.size(), 1u);
  EXPECT_EQ(identified[0], 7);
  EXPECT_EQ(node.power_ups(), 2u);   // cold start + rejoin
  EXPECT_EQ(node.brown_outs(), 1u);
  EXPECT_TRUE(node.powered());
  // Missed slots while dark show up as empties; exactly one singleton once
  // the node is back.
  EXPECT_EQ(stats.frames, 6u);
  EXPECT_EQ(stats.empties, 5u);
  EXPECT_EQ(stats.singletons, 1u);
  EXPECT_EQ(stats.collisions, 0u);

  // The rejoined node answers a poll: the round completes end-to-end on the
  // same timeline, and the brownout/power-up markers are in the event log.
  mac::PollScheduler sched({2, 0.2, 0.02}, nullptr, &tl);
  const auto link = [&node](const phy::DownlinkQuery&)
      -> pab::Expected<phy::UplinkPacket> {
    if (!node.powered())
      return pab::Error{pab::ErrorCode::kTimeout, "browned out"};
    return phy::UplinkPacket{7, {0x2a}};
  };
  ASSERT_TRUE(sched.transact({7}, link, 80, 1000.0).ok());
  EXPECT_EQ(sched.stats().successes, 1u);

  std::size_t power_up_events = 0;
  std::size_t brownout_events = 0;
  for (const auto& e : tl.log()) {
    if (e.label == "node.power_up") ++power_up_events;
    if (e.label == "node.brownout") ++brownout_events;
  }
  EXPECT_EQ(power_up_events, 2u);
  EXPECT_EQ(brownout_events, 1u);
  // Energy mirrored into the log agrees with the node's timestamped ledger.
  EXPECT_NEAR(tl.charged("energy.harvested"),
              node.harvester().ledger().harvested(), 1e-15);
}

TEST(Lifecycle, BrownedOutNodeRejoinsMidZonedRoundOnTheMasterTimeline) {
  // The zoned counterpart of the acceptance scenario above, and the
  // regression for round >= 1 availability timestamps: three mutually
  // adjacent single-node zones need three colors, so zone 2 inventories in
  // round 1 -- after the master clock has already advanced past round 0.
  // Zone 2's node is driven by a real lifecycle with no harvest until t = 8:
  // its slots and the lifecycle's ticks MUST interleave on one event queue
  // for the rejoin to be visible mid-round (the old isolated sub-timelines
  // froze lifecycle state for the whole round, and their local clocks
  // restarted from zero every round).
  Timeline tl;
  node::LifecycleConfig lc;
  lc.tick_s = 0.01;
  lc.idle_load_w = 1e-3;
  lc.v_ceiling = 5.0;
  lc.harvest_power_w = [](double t) { return t >= 8.0 ? 5e-3 : 0.0; };
  node::NodeLifecycle node(7, energy::Harvester{circuit::Supercapacitor(100e-6)},
                           lc);
  node.attach(tl, 20.0);

  mac::ZoneLayout layout;
  layout.members = {{0}, {1}, {2}};
  layout.adjacency = {{1, 2}, {0, 2}, {0, 1}};
  const mac::ZoneSchedule schedule = mac::plan_zones(layout);
  ASSERT_EQ(schedule.colors, 3u);
  ASSERT_EQ(schedule.rounds, 2u);
  ASSERT_EQ(schedule.zones[2].round, 1u);

  mac::InventoryConfig config;
  config.initial_q = 0;
  config.min_q = 0;
  config.max_q = 0;
  config.max_frames = 32;
  mac::ZonedInventoryOptions options;
  options.frame_announce_s = 0.5;
  options.slot_s = 0.25;
  std::vector<double> zone2_query_times;
  double round0_last_query = 0.0;
  options.available = [&](std::uint32_t global, double t) {
    if (global == 2) {
      zone2_query_times.push_back(t);
      return node.powered();
    }
    round0_last_query = std::max(round0_last_query, t);
    return true;
  };
  const auto result =
      mac::run_zoned_inventory(layout, schedule, config, tl, options);

  // Round 0 finds zones 0 and 1 in one frame each; zone 2 then polls empty
  // frames on the master clock until the node boots at ~8 s and answers.
  std::vector<std::uint32_t> sorted = result.identified;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(node.power_ups(), 1u);
  EXPECT_TRUE(node.powered());
  EXPECT_EQ(result.inventory.singletons, 3u);
  EXPECT_EQ(result.inventory.collisions, 0u);
  EXPECT_GT(result.inventory.empties, 0u);

  // The availability gate saw absolute master timestamps: every round-1
  // query happened after the last round-0 query, none restarted from zero,
  // and the winning query came after the 8 s harvest step.
  ASSERT_FALSE(zone2_query_times.empty());
  const double first = *std::min_element(zone2_query_times.begin(),
                                         zone2_query_times.end());
  EXPECT_GT(first, round0_last_query);
  EXPECT_GE(first, 0.75);  // round 1 cannot start before round 0's wall
  EXPECT_GT(*std::max_element(zone2_query_times.begin(),
                              zone2_query_times.end()),
            8.0);
  // The wall accounts both rounds end to end: round 0's frame plus zone 2's
  // long wait -- and the master clock agrees.
  EXPECT_EQ(tl.now(), result.simulated_s);
  EXPECT_GT(result.simulated_s, 8.0);
}

// --- parent-commit goldens ---------------------------------------------------
// FNV-1a fingerprints of whole event logs and result records, taken on the
// std::map event queue the binary heap replaced.  The heap must reproduce
// them bit for bit: same fire order, same seq numbers, same labels, same
// doubles.

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void log(const std::vector<TimelineEvent>& events) {
    u64(events.size());
    for (const auto& e : events) {
      f64(e.time);
      u64(e.seq);
      str(e.label);
      f64(e.value);
      u64(static_cast<std::uint64_t>(e.kind));
    }
  }
  void inventory(const mac::InventoryStats& s) {
    for (const std::size_t v :
         {s.frames, s.slots, s.singletons, s.collisions, s.empties})
      u64(v);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::uint64_t log_fingerprint(const std::vector<TimelineEvent>& events) {
  Fnv1a h;
  h.log(events);
  return h.value();
}

TEST(TimelineGolden, SeededTimelineTrialMatchesParentCommit) {
  FieldSpec spec;
  spec.layout = FieldLayout::kRandom;
  spec.population = 20;
  spec.seed = 3;
  obs::MetricRegistry registry;
  const Session session(Scenario::open_water(spec).with_seed(17), &registry);
  TrialOptions opts;
  opts.timeline.horizon_s = 5.0;
  opts.timeline.keep_log = true;
  const auto r = session.run_trial<TrialKind::kTimeline>(2, opts);
  ASSERT_TRUE(r.ok()) << r.error().message();
  const TimelineRunResult& t = r.value();
  Fnv1a fields;
  for (const std::uint8_t id : t.identified) fields.u64(id);
  fields.inventory(t.inventory);
  for (const std::size_t v : {t.poll.attempts, t.poll.successes,
                              t.poll.crc_failures, t.poll.no_response,
                              t.poll.retries})
    fields.u64(v);
  fields.f64(t.poll.payload_bits_delivered);
  fields.f64(t.poll.elapsed_s);
  fields.f64(t.simulated_s);
  fields.u64(t.events_processed);
  fields.f64(t.harvested_j);
  fields.f64(t.consumed_j);
  fields.u64(t.power_ups);
  fields.u64(t.brown_outs);
  EXPECT_EQ(t.event_log.size(), 14833u);
  EXPECT_EQ(log_fingerprint(t.event_log), 0x86ebddc2de6acd12ULL);
  EXPECT_EQ(fields.value(), 0x9d0a31a261935c6bULL);
}

TEST(TimelineGolden, InterferenceFieldTrialMatchesParentCommit) {
  FieldSpec spec;
  spec.layout = FieldLayout::kRandom;
  spec.population = 200;
  spec.seed = 21;
  obs::MetricRegistry registry;
  const Session session(Scenario::open_water(spec).with_seed(421), &registry);
  TrialOptions opts;
  opts.field.zone_extent_m = 80.0;
  opts.field.interference = true;
  const auto r = session.run_trial<TrialKind::kField>(1, opts);
  ASSERT_TRUE(r.ok()) << r.error().message();
  const FieldRunResult& f = r.value();
  Fnv1a fields;
  fields.u64(f.population);
  fields.f64(f.cull_radius_m);
  for (const std::uint64_t v : {f.total_pairs, f.kept_pairs, f.culled_pairs})
    fields.u64(v);
  fields.f64(f.mean_pair_gain);
  fields.f64(f.mean_reader_gain);
  fields.u64(f.tap_evaluations);
  fields.u64(f.tap_lookups);
  for (const std::size_t v : {f.zones, f.zone_colors, f.zone_rounds, f.channels})
    fields.u64(v);
  for (const std::uint32_t id : f.identified) fields.u64(id);
  fields.inventory(f.inventory);
  fields.u64(f.interference_corrupted_slots);
  fields.f64(f.mean_slot_sinr_db);
  fields.f64(f.slot_quality.evm_rms);
  fields.f64(f.slot_quality.mer_db);
  fields.f64(f.slot_quality.cn0_dbhz);
  fields.f64(f.simulated_s);
  fields.f64(f.node_hours);
  fields.u64(f.events_processed);
  EXPECT_GT(f.interference_corrupted_slots, 0u);
  EXPECT_EQ(f.event_log.size(), 749u);
  EXPECT_EQ(log_fingerprint(f.event_log), 0x06ee170cb9ba8610ULL);
  EXPECT_EQ(fields.value(), 0xcd15ba890f2bd410ULL);
}

TEST(TimelineGolden, Fig11ColdStartMatchesParentCommit) {
  // The cold-start trajectory fig11_power prints: one node under 1 mW
  // harvest, 124 uW idle draw, 1 mF store, 10 s of 10 ms ticks.
  const energy::McuPowerModel mcu;
  Timeline tl;
  node::LifecycleConfig lc;
  lc.tick_s = 0.01;
  lc.idle_load_w = mcu.idle_power_w();
  lc.harvest_power_w = [](double) { return 1e-3; };
  node::NodeLifecycle cold_start(
      1, energy::Harvester{circuit::Supercapacitor(1000e-6)}, lc);
  cold_start.attach(tl, 10.0);
  tl.run();
  const auto& ledger = cold_start.harvester().ledger();
  Fnv1a fields;
  fields.f64(tl.now());
  fields.u64(tl.events_processed());
  fields.f64(tl.charged("energy.harvested"));
  fields.f64(tl.charged("energy.idle"));
  fields.f64(tl.charged_prefix("energy."));
  fields.f64(tl.charged_prefix(""));
  fields.f64(ledger.harvested());
  fields.f64(ledger.total(energy::Category::kIdle));
  fields.f64(ledger.total_consumed());
  fields.f64(cold_start.capacitor_voltage());
  fields.u64(cold_start.power_ups());
  fields.u64(cold_start.brown_outs());
  EXPECT_EQ(tl.log().size(), 2691u);
  EXPECT_EQ(log_fingerprint(tl.log()), 0x3458f20eb2aeeb1eULL);
  EXPECT_EQ(fields.value(), 0xb2e422beab387747ULL);
}

}  // namespace
}  // namespace pab::sim
