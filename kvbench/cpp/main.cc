// kvbench: the repository's end-to-end and per-layer benchmark.
//
//   kvbench --workload sim-kv|cache-churn|serve-kv --seed N --seconds S --trace 0|1
//           [--git-sha SHA] [--source-digest HEX] [--out-dir DIR]
//
// Prints a provenance line, then as the last line of stdout one JSON object
// {"correct", "attempted", "failed", "metrics"}. Human-readable detail goes
// to stderr. Exits 1 when an output check failed, 2 on bad arguments.
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "kvbench/cpp/common.h"
#include "kvbench/cpp/workloads.h"

#ifndef KVBENCH_BUILD_TYPE
#define KVBENCH_BUILD_TYPE "unknown"
#endif

namespace kvbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per_layer list of BENCHMARK.json, in its order.
constexpr LayerMetric kLayerMetrics[] = {
    {"trace.generate_ns_per_req", "ns"},
    {"sim.simulate_ns_per_req", "ns"},
    {"sim.multi_ns_per_req_cache", "ns"},
    {"analysis.mrc_ns_per_req_size", "ns"},
    {"flash.get_ns_per_req", "ns"},
    {"flash.gc_rewrite_per_admitted_byte", "ratio"},
    {"flash.admit_share", "ratio"},
    {"flash.write_amp", "ratio"},
    {"concurrent.getbatch_ns_per_key", "ns"},
    {"concurrent.get_hit_ns", "ns"},
    {"concurrent.get_miss_ns", "ns"},
    {"concurrent.set_ns", "ns"},
    {"concurrent.delete_ns", "ns"},
    {"server.rtt_get_ns", "ns"},
    {"server.rtt_set_ns", "ns"},
    {"server.cpu_ns_per_op", "ns"},
    {"server.syscalls_per_op", "count"},
    {"server.events_per_wait", "count"},
    {"server.keys_per_batch", "count"},
    {"client.cpu_ns_per_op", "ns"},
    {"self_pct.bench", "%"},
    {"self_pct.trace", "%"},
    {"self_pct.sim", "%"},
    {"self_pct.analysis", "%"},
    {"self_pct.flash", "%"},
    {"self_pct.concurrent", "%"},
    {"self_pct.server", "%"},
    {"self_pct.client", "%"},
    {"tracing.overhead_pct", "%"},
    {"wall.throughput_mops", "Mop/s"},
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "kvbench: %s\nusage: kvbench --workload sim-kv|cache-churn|serve-kv --seed N "
               "--seconds S --trace 0|1 [--git-sha SHA] [--source-digest HEX] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

void AddLayerMetrics(const std::map<std::string, double>& layer, Result* result) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = layer.find(m.name);
    result->Add(m.name, it == layer.end() ? 0.0 : it->second, m.unit);
  }
}

void AddEndToEnd(const WindowRates& rates, const WindowQuantiles& quantiles, double hit_ratio,
                 const std::vector<double>& setup_s, Result* result) {
  result->Add("cpu_throughput_mops", Median(rates.cpu), "Mop/cpu-s");
  result->Add("p50_ns", Median(quantiles.p50), "ns");
  result->Add("p90_ns", Median(quantiles.p90), "ns");
  result->Add("hit_ratio", hit_ratio, "ratio");
  result->Add("setup_s", Median(setup_s), "s");
  result->Add("peak_rss_mib", PeakRssMib(), "MiB");
}

void ReportTrace(const Options& options, const std::vector<const SpanLog*>& logs,
                 const WindowRates& untraced, const WindowRates& traced,
                 std::map<std::string, double>* layer) {
  const std::vector<SpanTotals> totals = MergeTotals(logs);
  int64_t all_self = 0;
  for (const SpanTotals& t : totals) {
    all_self += t.self_ns;
  }
  for (const SpanTotals& t : totals) {
    const char* dot = std::strchr(t.name, '.');
    const std::string key =
        "self_pct." + (dot == nullptr ? std::string(t.name) : std::string(t.name, dot));
    if (all_self > 0) {
      (*layer)[key] += 100.0 * static_cast<double>(t.self_ns) / static_cast<double>(all_self);
    }
  }
  const double untraced_rate = Median(untraced.cpu);
  const double overhead =
      untraced_rate > 0 ? 100.0 * (untraced_rate - Median(traced.cpu)) / untraced_rate : 0.0;
  (*layer)["tracing.overhead_pct"] = overhead;
  (*layer)["wall.throughput_mops"] = Median(untraced.wall);
  PrintLayerTable(totals, overhead);
  const std::string path = options.out_dir + "/spans-" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".jsonl";
  if (WriteSpans(path, logs)) {
    std::fprintf(stderr, "kvbench: spans written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "kvbench: could not write spans to %s\n", path.c_str());
  }
}

}  // namespace kvbench

int main(int argc, char** argv) {
  using namespace kvbench;
  Options options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed) {
    return Usage("--seed is required");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    return Usage("--seconds must be in (0, 120]");
  }

  Result result;
  if (options.workload == "sim-kv") {
    result = RunSimKv(options);
  } else if (options.workload == "cache-churn") {
    result = RunCacheChurn(options);
  } else if (options.workload == "serve-kv") {
    result = RunServeKv(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }

  utsname uts{};
  uname(&uts);
  std::printf(
      "{\"provenance\": {\"git_sha\": \"%s\", \"source_digest\": \"%s\", \"nproc\": %ld, "
      "\"cpu_model\": \"%s\", \"kernel\": \"%s %s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"transport\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}}\n",
      JsonEscape(git_sha).c_str(), JsonEscape(source_digest).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(), uts.sysname, uts.release,
      KVBENCH_BUILD_TYPE, JsonEscape(__VERSION__).c_str(), result.transport.c_str(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);

  std::string metrics;
  for (const Metric& m : result.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      result.Fail("metric " + m.name + " is not finite");
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
