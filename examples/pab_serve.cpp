// pab_serve: the campaign front-end.
//
// Builds a CampaignSpec from flags (or loads a serialized spec file), runs
// it through campaign::BatchExecutor, and writes the artifacts a campaign
// leaves behind:
//   <out>.records       canonical record-batch bytes (cross-run comparable)
//   <out>.metrics.json  merged metrics, same schema as the bench sidecars
//   <out>.summary.json  per-point aggregates
//
//   pab_serve --preset pool_a --kind uplink --trials 48
//             --axis waveform.carrier_hz=12500,15000,17500
//             --threads 3 --out /tmp/ber_sweep      (one command line)
//
// Any --shard size and --threads width of the same spec produce identical
// .records bytes; kill a run mid-campaign (or cap it with --max-shards) and
// `--checkpoint DIR --resume` finishes it without repeating finished shards.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/batch_executor.hpp"

namespace {

using pab::campaign::CampaignSpec;
using pab::campaign::SweepAxis;

void usage() {
  std::cout <<
      "usage: pab_serve [options]\n"
      "  campaign definition:\n"
      "    --spec FILE            load a serialized campaign spec\n"
      "    --name NAME            campaign name (default: campaign)\n"
      "    --preset NAME          pool_a | pool_b | swimming_pool |\n"
      "                           pool_a_concurrent (default: pool_a)\n"
      "    --kind KIND            uplink | network | timeline\n"
      "    --trials N             trials per operating point\n"
      "    --seed N               base seed (common random numbers)\n"
      "    --axis P=V1,V2,...     sweep axis (repeatable; cartesian product)\n"
      "    --timeline K=V         timeline knob override (repeatable)\n"
      "  execution:\n"
      "    --threads N            BatchRunner width inside a shard (default 1)\n"
      "    --shard N              trials per shard (default 32)\n"
      "    --checkpoint DIR       persist finished shards under DIR\n"
      "    --resume               fold in DIR's finished shards\n"
      "    --max-shards N         stop after N new shards (testing/ops)\n"
      "  output:\n"
      "    --out PREFIX           write PREFIX.records / .metrics.json /\n"
      "                           .summary.json\n"
      "    --print-spec           dump the canonical spec text and exit\n";
}

bool parse_axis(const std::string& arg, SweepAxis& axis) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  axis.param = arg.substr(0, eq);
  axis.values.clear();
  std::istringstream values(arg.substr(eq + 1));
  std::string token;
  while (std::getline(values, token, ',')) {
    try {
      axis.values.push_back(std::stod(token));
    } catch (const std::exception&) {
      return false;
    }
  }
  return !axis.values.empty();
}

bool write_artifact(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    std::cerr << "pab_serve: cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  pab::campaign::RunOptions options;
  bool print_spec = false;
  std::string out_prefix;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--spec" && (v = next()) != nullptr) {
      std::ifstream in(v);
      std::ostringstream buf;
      buf << in.rdbuf();
      auto parsed = CampaignSpec::parse(buf.str());
      if (!parsed.ok()) {
        std::cerr << "pab_serve: " << parsed.error().message() << "\n";
        return 2;
      }
      spec = std::move(parsed).value();
    } else if (arg == "--name" && (v = next()) != nullptr) {
      spec.name = v;
    } else if (arg == "--preset" && (v = next()) != nullptr) {
      spec.preset = v;
    } else if (arg == "--kind" && (v = next()) != nullptr) {
      const auto kind = pab::sim::trial_kind_from(v);
      if (!kind.has_value()) {
        std::cerr << "pab_serve: unknown kind: " << v << "\n";
        return 2;
      }
      spec.kind = *kind;
    } else if (arg == "--trials" && (v = next()) != nullptr) {
      spec.trials_per_point = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed" && (v = next()) != nullptr) {
      spec.base_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--axis" && (v = next()) != nullptr) {
      SweepAxis axis;
      if (!parse_axis(v, axis)) {
        std::cerr << "pab_serve: bad --axis (want param=v1,v2,...): " << v
                  << "\n";
        return 2;
      }
      spec.axes.push_back(std::move(axis));
    } else if (arg == "--timeline" && (v = next()) != nullptr) {
      const std::string kv = v;
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "pab_serve: bad --timeline (want key=value): " << kv
                  << "\n";
        return 2;
      }
      spec.timeline[kv.substr(0, eq)] = std::stod(kv.substr(eq + 1));
    } else if (arg == "--threads" && (v = next()) != nullptr) {
      options.worker_threads =
          static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--shard" && (v = next()) != nullptr) {
      options.shard_size = std::strtoull(v, nullptr, 10);
    } else if (arg == "--checkpoint" && (v = next()) != nullptr) {
      options.checkpoint_dir = v;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--max-shards" && (v = next()) != nullptr) {
      options.max_shards = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out" && (v = next()) != nullptr) {
      out_prefix = v;
    } else if (arg == "--print-spec") {
      print_spec = true;
    } else {
      std::cerr << "pab_serve: unknown or incomplete option: " << arg << "\n";
      usage();
      return 2;
    }
  }

  if (print_spec) {
    std::cout << spec.serialize();
    return 0;
  }
  pab::campaign::BatchExecutor executor;
  auto result = executor.run(spec, options);
  if (!result.ok()) {
    std::cerr << "pab_serve: " << result.error().message() << "\n";
    return 1;
  }

  if (!out_prefix.empty()) {
    if (!write_artifact(out_prefix + ".records",
                        result.value().records_bytes()) ||
        !write_artifact(out_prefix + ".metrics.json",
                        result.value().metrics.to_json()) ||
        !write_artifact(out_prefix + ".summary.json",
                        result.value().summary_json()))
      return 1;
  }
  std::cout << result.value().summary_json();
  return 0;
}
