// pabbench / pabbench_traced: run one workload and print its metrics.
//
//   pabbench --workload <name> --seed <n> --seconds <s> [--min-trials <n>]
//            [--setups <n>] [--git-sha <sha>]
//   pabbench_traced ... [--untraced-tps <trials/s>]
//
// Prints a `#` header (build type, SIMD dispatch, core count, git SHA,
// seed), then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// pabbench reports the end-to-end metrics, pabbench_traced the per-layer
// metrics.  Single thread, closed loop: each run_trial call starts when the
// previous one returns.  The timed phase runs whole rounds until --seconds
// have passed and at least --min-trials trials have been timed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "dsp/simd.hpp"
#include "runner.hpp"
#include "workloads.hpp"
#ifdef PABBENCH_TRACED
#include "probes.hpp"
#endif

namespace {

using namespace pabbench;
using Clock = std::chrono::steady_clock;

#ifdef PABBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t min_trials = 100;
  int setups = kTraced ? 1 : 5;
  std::string git_sha = "unknown";
  double untraced_tps = 0.0;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(value);
    else if (key == "--min-trials") a.min_trials = std::strtoull(value, nullptr, 10);
    else if (key == "--setups") a.setups = std::atoi(value);
    else if (key == "--git-sha") a.git_sha = value;
    else if (key == "--untraced-tps") a.untraced_tps = std::atof(value);
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         a.setups >= 1;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

#ifndef PABBENCH_TRACED
// Linear interpolation between closest ranks of the sorted sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kB
}
#endif

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <uplink_waveform|field_deploy|"
                 "timeline_energy> --seed <n> --seconds <s> [--min-trials <n>] "
                 "[--setups <n>] [--git-sha <sha>] [--untraced-tps <x>]\n",
                 argv[0]);
    return 2;
  }
  const auto id = workload_from(args.workload);
  if (!id) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const Inputs in = make_inputs(*id, args.seed);
  std::printf("# pabbench workload=%s seed=%llu seconds=%g traced=%d\n",
              to_string(*id), static_cast<unsigned long long>(args.seed),
              args.seconds, kTraced ? 1 : 0);
  std::printf("# build_type=%s dsp.simd.dispatch=%s cores=%u git_sha=%s\n",
              PABBENCH_BUILD_TYPE,
              pab::dsp::simd::isa_name(pab::dsp::simd::active()),
              std::thread::hardware_concurrency(), args.git_sha.c_str());

  // Set-up, repeated; the median is reported.  Each repetition builds every
  // scenario and session from scratch; the last one serves the timed phase.
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int r = 0; r < args.setups; ++r) {
    bench.reset();
    const auto t0 = Clock::now();
    bench = std::make_unique<Bench>(in);
    setup_s.push_back(seconds_since(t0));
  }
  bool correct = true;
  std::vector<std::string> problems;
  if (std::string bad = bench->prepare_checks(); !bad.empty()) {
    correct = false;
    problems.push_back(std::move(bad));
  }

  // Timed phase: whole rounds of the same operations.
  std::vector<double> trial_ms;
  std::size_t attempted = 0, failed = 0, false_lock_failed = 0;
#ifdef PABBENCH_TRACED
  AllocMeter meter;
  std::vector<TracedOp> loop;
  TrialMeter* trial_meter = &meter;
#else
  TrialMeter* trial_meter = nullptr;
#endif
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (const Op& op : bench->next_round()) {
      Outcome o = bench->run(op, trial_meter);
      trial_ms.push_back(o.ms);
      ++attempted;
      if (!o.failure.empty()) {
        ++failed;
        if (bench->is_false_lock(op)) {
          ++false_lock_failed;
        } else {
          correct = false;
          if (problems.size() < 10)
            problems.push_back("point " + std::to_string(op.point) + " trial " +
                               std::to_string(op.trial) + ": " + o.failure);
        }
      }
#ifdef PABBENCH_TRACED
      loop.push_back(TracedOp{op, std::move(o), meter.allocs, meter.bytes});
#endif
    }
    elapsed = seconds_since(t0);
  } while (elapsed < args.seconds || attempted < args.min_trials);
  const double trials_per_s = static_cast<double>(attempted) / elapsed;

  std::vector<Metric> metrics;
#ifdef PABBENCH_TRACED
  std::string probe_failure;
  metrics = layer_metrics(*bench, loop, probe_failure);
  if (!probe_failure.empty()) {
    correct = false;
    problems.push_back(probe_failure);
  }
  // Tracing overhead: this run's throughput against the untraced binary's.
  metrics.push_back({"trace.trials_per_s", trials_per_s, "1/s"});
  metrics.push_back({"trace.overhead_pct",
                     args.untraced_tps > 0.0
                         ? 100.0 * (1.0 - trials_per_s / args.untraced_tps)
                         : 0.0,
                     "%"});
#else
  metrics.push_back({"trials_per_s", trials_per_s, "1/s"});
  metrics.push_back({"trial_p50_ms", quantile(trial_ms, 0.5), "ms"});
  metrics.push_back({"trial_p90_ms", quantile(trial_ms, 0.9), "ms"});
  metrics.push_back({"setup_s", quantile(setup_s, 0.5), "s"});
  metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
#endif

  std::printf("# timed %zu trials in %.3f s; %zu failed (%zu fixed false-lock "
              "trials)\n",
              attempted, elapsed, failed, false_lock_failed);
  for (const auto& p : problems) std::fprintf(stderr, "check failed: %s\n", p.c_str());
  print_result(correct, attempted, failed, metrics);
  return 0;
}
