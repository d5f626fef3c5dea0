// The benchmark's own tests: the same seed generates the same inputs, and
// every correctness check fails when one wrong value is planted in a result
// that passes it.  Run: pabbench_tests (exit code 0 = all passed).
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>

#include "checks.hpp"
#include "phy/packet.hpp"
#include "runner.hpp"
#include "workloads.hpp"

namespace {

using namespace pabbench;
using namespace pab;

int g_failures = 0;

void expect(bool condition, const char* what) {
  std::printf("%s  %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++g_failures;
}

// A check "passes" on an empty string and "fails" on anything else.
void expect_pass(const std::string& verdict, const char* what) {
  expect(verdict.empty(), what);
  if (!verdict.empty()) std::printf("      (%s)\n", verdict.c_str());
}
void expect_fail(const std::string& verdict, const char* what) {
  expect(!verdict.empty(), what);
}

double next_up(double v) {
  return std::nextafter(v, std::numeric_limits<double>::infinity());
}

void test_inputs_are_a_function_of_the_seed() {
  for (const auto id : {WorkloadId::kUplinkWaveform, WorkloadId::kFieldDeploy,
                        WorkloadId::kTimelineEnergy}) {
    const Inputs a = make_inputs(id, 7);
    const Inputs b = make_inputs(id, 7);
    const Inputs c = make_inputs(id, 8);
    expect(a.spec.serialize() == b.spec.serialize(), "same seed, same sweep");
    expect(a.spec.serialize() != c.spec.serialize(), "other seed, other sweep");
    const auto sa = make_scenarios(a);
    const auto sb = make_scenarios(b);
    const auto sc = make_scenarios(c);
    bool same_positions = sa.size() == sb.size();
    for (std::size_t p = 0; same_positions && p < sa.size(); ++p)
      same_positions = sa[p].field.positions() == sb[p].field.positions() &&
                       sa[p].medium.seed == sb[p].medium.seed;
    expect(same_positions, "same seed, same node positions and trial seeds");
    if (id != WorkloadId::kUplinkWaveform)
      expect(sa[0].field.positions() != sc[0].field.positions(),
             "other seed, other layout");
    RoundPlan pa(a, sa), pb(b, sb);
    bool same_ops = true;
    for (int r = 0; r < 3; ++r) same_ops = same_ops && pa.next_round() == pb.next_round();
    expect(same_ops, "same seed, same rounds of trials");
    expect(trial_payload(sa[0], 3) == trial_payload(sb[0], 3),
           "same seed, same payload");
  }
}

void test_rounds_hold_the_same_operations() {
  const Inputs in = make_inputs(WorkloadId::kUplinkWaveform, 42);
  const auto scenarios = make_scenarios(in);
  RoundPlan plan(in, scenarios);
  std::size_t fixed_per_round = 0;
  std::size_t size = 0;
  for (int r = 0; r < 20; ++r) {
    const auto ops = plan.next_round();
    std::size_t fixed = 0;
    for (const Op& op : ops) {
      if (plan.is_false_lock(op)) {
        ++fixed;
        continue;
      }
      const auto& sc = scenarios[op.point];
      if (sc.waveform.scheme == phy::SchemeId::kFm0 &&
          repeats_preamble(trial_payload(sc, op.trial))) {
        expect(false, "seeded FM0 trials never repeat the preamble");
        return;
      }
    }
    if (r == 0) {
      fixed_per_round = fixed;
      size = ops.size();
    }
    if (fixed != fixed_per_round || ops.size() != size) {
      expect(false, "every round has the same size and fixed trials");
      return;
    }
  }
  expect(fixed_per_round == std::size(kFalseLockTrials),
         "every round runs each false-lock trial");
  expect(size == 4 * 9 + std::size(kFalseLockTrials),
         "uplink round: 4 trials x 9 points + false-lock trials");
}

void test_repeats_preamble() {
  const Bits& pre = phy::uplink_preamble_bits();
  std::vector<std::uint8_t> payload(96, 0);
  expect(!repeats_preamble(payload), "all-zero payload holds no preamble");
  std::copy(pre.begin(), pre.end(), payload.begin() + 40);
  expect(repeats_preamble(payload), "a payload holding the preamble repeats it");
  // Across the boundary: the preamble's last two bits "1 0" followed by a
  // payload opening with its last ten bits form a second copy.
  std::vector<std::uint8_t> tail(96, 0);
  std::copy(pre.begin() + 2, pre.end(), tail.begin());
  expect(repeats_preamble(tail), "a copy straddling the boundary counts");
}

void test_uplink_checks() {
  const Inputs in = make_inputs(WorkloadId::kUplinkWaveform, 5);
  Bench bench(in);
  expect_pass(bench.prepare_checks(), "uplink warm-up trials pass");
  const Op op = bench.first_ops()[0];
  const Outcome out = bench.run(op);
  expect_pass(out.failure, "uplink trial passes its checks");
  const auto& good = std::get<sim::UplinkTrial>(*out.result);
  const UplinkExpect e = expect_uplink(bench.session(op.point).scenario(), op.trial);
  expect_pass(check_uplink(e, good), "check_uplink accepts the real result");

  auto bad = good;
  bad.demod.bits[17] ^= 1;
  expect_fail(check_uplink(e, bad), "one flipped decoded bit fails");
  bad = good;
  bad.sent[3] ^= 1;
  expect_fail(check_uplink(e, bad), "one flipped sent bit fails");
  bad = good;
  bad.ber = 1.0 / 96.0;
  expect_fail(check_uplink(e, bad), "a nonzero reported BER fails");
  bad = good;
  bad.demod.start_sample = static_cast<std::size_t>(
      std::ceil(e.arrival_sample + e.bit_period_samples + 1.0));
  expect_fail(check_uplink(e, bad), "start one bit period late fails");
  bad = good;
  bad.demod.bits.pop_back();
  expect_fail(check_uplink(e, bad), "a missing decoded bit fails");

  expect(identical(good, good), "a result is identical to itself");
  bad = good;
  bad.demod.snr_db = next_up(bad.demod.snr_db);
  expect(!identical(good, bad), "one ulp of SNR breaks identity");

  // The named fault: the fixed false-lock trials fail the checks.
  for (const Op& fl : bench.round0()) {
    if (!bench.is_false_lock(fl)) continue;
    const Outcome o = bench.run(fl);
    expect_fail(o.failure, "a fixed false-lock trial fails its checks");
  }
}

void test_field_checks() {
  const Inputs in = make_inputs(WorkloadId::kFieldDeploy, 5);
  Bench bench(in);
  expect_pass(bench.prepare_checks(), "field warm-up trials pass");
  const Op op = bench.first_ops()[0];
  const Outcome out = bench.run(op);
  expect_pass(out.failure, "field trial passes its checks");
  const auto& good = std::get<sim::FieldRunResult>(*out.result);
  FieldExpect e(bench.session(op.point).scenario().field.positions());
  expect_pass(check_field(e, good), "check_field accepts the real result");

  auto bad = good;
  bad.kept_pairs += 1;
  bad.culled_pairs -= 1;
  expect_fail(check_field(e, bad), "kept_pairs off by one fails");
  bad = good;
  bad.culled_pairs += 1;
  expect_fail(check_field(e, bad), "kept + culled != total fails");
  bad = good;
  bad.total_pairs += 1;
  expect_fail(check_field(e, bad), "total_pairs != n(n-1)/2 fails");
  bad = good;
  bad.identified.push_back(bad.identified.front());
  expect_fail(check_field(e, bad), "a duplicate identified node fails");
  bad = good;
  bad.identified.push_back(static_cast<std::uint32_t>(good.population));
  expect_fail(check_field(e, bad), "an identified index out of range fails");
  bad = good;
  bad.node_hours *= 1.0 + 1e-9;
  expect_fail(check_field(e, bad), "node_hours off n*simulated_s/3600 fails");
  bad = good;
  bad.population -= 1;
  expect_fail(check_field(e, bad), "a wrong population fails");
  bad = good;
  bad.mean_pair_gain = next_up(bad.mean_pair_gain);
  expect(!identical(good, bad), "one ulp of pair gain breaks identity");

  const std::vector<channel::Vec3> square = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}};
  expect(brute_force_pairs_within(square, 1.0) == 4, "unit square: 4 sides");
  expect(brute_force_pairs_within(square, 1.5) == 6, "unit square: + diagonals");
}

void test_timeline_checks() {
  const Inputs in = make_inputs(WorkloadId::kTimelineEnergy, 5);
  Bench bench(in);
  expect_pass(bench.prepare_checks(), "timeline warm-up trial passes");
  const Op op = bench.first_ops()[0];
  const Outcome out = bench.run(op);
  expect_pass(out.failure, "timeline trial passes its checks");
  const auto& good = std::get<sim::TimelineRunResult>(*out.result);
  const TimelineExpect e =
      expect_timeline(bench.session(0).scenario(), in.options.timeline);
  expect_pass(check_timeline(e, good), "check_timeline accepts the real result");

  auto bad = good;
  bad.consumed_j = next_up(bad.harvested_j);
  expect_fail(check_timeline(e, bad), "consumed above harvested fails");
  bad = good;
  bad.consumed_j = static_cast<double>(e.population) * e.idle_load_w *
                   (e.horizon_s + e.tick_s + good.poll.elapsed_s) * 1.001;
  bad.harvested_j = 2.0 * bad.consumed_j;
  expect_fail(check_timeline(e, bad), "consumed above the idle-draw bound fails");
  bad = good;
  bad.identified.push_back(bad.identified.front());
  expect_fail(check_timeline(e, bad), "a duplicate identified id fails");
  bad = good;
  bad.identified.push_back(0);
  expect_fail(check_timeline(e, bad), "identified id 0 fails");
  bad = good;
  bad.identified.back() = static_cast<std::uint8_t>(e.population + 1);
  expect_fail(check_timeline(e, bad), "identified id above n fails");
  bad = good;
  bad.poll.successes = good.identified.size() + 1;
  expect_fail(check_timeline(e, bad), "more poll successes than ids fails");
  bad = good;
  bad.brown_outs = good.power_ups + 1;
  expect_fail(check_timeline(e, bad), "more brown-outs than power-ups fails");
  bad = good;
  bad.events_processed += 1;
  expect(!identical(good, bad), "one event more breaks identity");

  // Campaign records against direct results: one changed value differs.
  campaign::RecordBatch a(sim::TrialKind::kTimeline), b(sim::TrialKind::kTimeline);
  a.append(0, sim::TrialResult{std::in_place_index<2>, good});
  b.append(0, sim::TrialResult{std::in_place_index<2>, good});
  expect_pass(check_records({a}, {b}), "equal records pass");
  bad = good;
  bad.consumed_j = next_up(good.consumed_j);
  campaign::RecordBatch d(sim::TrialKind::kTimeline);
  d.append(0, sim::TrialResult{std::in_place_index<2>, bad});
  expect_fail(check_records({a}, {d}), "one changed record value fails");
  expect_fail(check_records({a}, {}), "a missing point fails");
}

}  // namespace

int main() {
  test_inputs_are_a_function_of_the_seed();
  test_rounds_hold_the_same_operations();
  test_repeats_preamble();
  test_uplink_checks();
  test_field_checks();
  test_timeline_checks();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
