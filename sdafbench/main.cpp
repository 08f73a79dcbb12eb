// sdaf_bench -- one workload of the sdaf benchmark per invocation.
//
//   sdaf_bench --workload wire_filter --seed 1 --seconds 10 --trace 0
//       --sdafd .bench_build/sdafbench/sdafd --workdir .bench_build/run
//
// Prints the host fingerprint, every repetition of every metric, a table of
// all metrics by name with units, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} where metrics holds the
// end-to-end set (--trace 0) or the per-layer set (--trace 1). run.py
// builds the binaries and checks those names against BENCHMARK.json.
//
// --oracle-pass P rebuilds the Sim reference at pass rate P: the self-test
// that proves every stream is checked (all of them must then fail).
//
// Exit status: 0 measured (see "correct"), 2 usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

using namespace bench;

namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s", "items_per_s", "latency_p50_us", "latency_p90_us",
    "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "net.encode_ns_per_item",     "net.decode_ns_per_item",
    "net.poll_rtt_us",            "net.empty_poll_ratio",
    "net.short_ack_ratio",        "net.frames_per_item",
    "exec.dummy_share",           "exec.fires_per_item",
    "exec.push_batch_us",         "exec.poll_batch_us",
    "exec.open_us",               "exec.finish_us",
    "pool.task_runs_per_item",    "pool.steals_per_item",
    "pool.steal_fail_ratio",      "pool.parks_per_item",
    "pool.wakes_per_item",        "pool.cpu_per_wall",
    "pool.speedup_vs_1w",         "channel.full_stalls_per_item",
    "channel.empty_waits_per_item", "compile.us_per_topology",
    "compile.cache_hit_ratio",    "gen.lag_p50_us",
    "gen.lag_p99_us",             "wire.deliver_p99_us",
    "wire.residual_us",           "obs.trace_overhead_pct"};

// Workload-specific names for the generic end-to-end metrics (printed in
// the table, not gated).
const std::vector<std::pair<std::string, std::string>>& aliases(
    const std::string& workload) {
  static const std::vector<std::pair<std::string, std::string>> filter = {
      {"push_rtt_p50_us", "latency_p50_us"},
      {"push_rtt_p99_us", "latency_p99_us"}};
  static const std::vector<std::pair<std::string, std::string>> interactive = {
      {"deliver_p50_us", "latency_p50_us"}, {"deliver_p90_us", "latency_p90_us"}};
  static const std::vector<std::pair<std::string, std::string>> churn = {
      {"open_p50_us", "latency_p50_us"}};
  static const std::vector<std::pair<std::string, std::string>> none;
  if (workload == "wire_filter") return filter;
  if (workload == "wire_interactive") return interactive;
  if (workload == "open_churn") return churn;
  return none;
}

int usage() {
  std::fprintf(stderr,
               "usage: sdaf_bench --workload "
               "wire_filter|wire_interactive|inproc_fanout|open_churn\n"
               "                  --seed N --seconds S --trace 0|1\n"
               "                  --sdafd PATH --workdir DIR [--oracle-pass P]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") cfg.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") cfg.trace = std::strcmp(v, "0") != 0;
    else if (k == "--sdafd") cfg.sdafd = v;
    else if (k == "--workdir") cfg.workdir = v;
    else if (k == "--oracle-pass")
      cfg.oracle_pass_override = std::strtod(v, nullptr);
    else return usage();
  }
  if (argc % 2 == 0 || cfg.seconds <= 0.0 || cfg.workdir.empty()) return usage();

  Result r;
  if (cfg.workload == "wire_filter") r = run_wire_filter(cfg);
  else if (cfg.workload == "wire_interactive") r = run_wire_interactive(cfg);
  else if (cfg.workload == "open_churn") r = run_open_churn(cfg);
  else if (cfg.workload == "inproc_fanout") r = run_inproc_fanout(cfg);
  else return usage();

  for (const auto& [alias, name] : aliases(cfg.workload)) {
    const auto it = r.metrics.find(name);
    if (it != r.metrics.end()) r.metrics[alias] = it->second;
  }
  r.attempted = std::max<std::uint64_t>(r.attempted, 1);
  r.set("failed_ratio", "ratio",
        static_cast<double>(r.failed) / static_cast<double>(r.attempted));

  std::printf("host %s\n", host_fingerprint(cfg).c_str());
  for (const auto& [name, m] : r.metrics) {
    if (m.reps.size() < 2) continue;
    std::printf("rep %s %s", name.c_str(), m.unit.c_str());
    for (const double v : m.reps) std::printf(" %s", json_number(v).c_str());
    std::printf("\n");
  }
  for (const auto& [name, m] : r.metrics)
    std::printf("metric %-30s %16s %s\n", name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  for (const auto& f : r.failures) std::fprintf(stderr, "failure: %s\n", f.c_str());

  std::string line = "{\"correct\": ";
  line += r.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& name : cfg.trace ? kPerLayer : kEndToEnd) {
    const auto it = r.metrics.find(name);
    const Metric m = it != r.metrics.end() ? it->second : Metric{"", {}, 0.0};
    if (!first) line += ", ";
    first = false;
    line += json_string(name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
