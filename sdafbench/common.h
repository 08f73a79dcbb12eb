// Shared pieces of the sdaf benchmark: run configuration, the result a
// workload hands back, sample statistics, span timing, and the host
// fingerprint. Every workload (wire.cpp, inproc.cpp) fills one Result; main.cpp
// prints it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sdafd;    // daemon binary
  std::string workdir;  // scratch directory (socket files) inside the checkout
  // Self-test: build the oracle's reference at a different pass rate, so
  // every stream must be reported as a failure.
  double oracle_pass_override = -1.0;
};

// One metric value per measurement repetition, plus the reported value
// (the median across repetitions unless a workload says otherwise).
struct Metric {
  std::string unit;
  std::vector<double> reps;
  double value = 0.0;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  // Everything measured, end-to-end and per layer; main.cpp selects what
  // the final line carries.
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, const std::string& unit, double value);
  void set_reps(const std::string& name, const std::string& unit,
                std::vector<double> reps);  // value = median(reps)
  void fail(const std::string& why);
};

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double us_between(Clock::time_point a, Clock::time_point b);

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
[[nodiscard]] double peak_rss_mb(int pid);
// User+system CPU seconds a process has used; pid 0 = this process.
[[nodiscard]] double cpu_seconds(int pid);

// Lowers the calling thread's timer slack to 1 ns so absolute sleeps wake
// on time (the default 50 us slack makes an open-loop generator run late).
void set_low_timer_slack();
// Sleeps until `due` on CLOCK_MONOTONIC (the steady_clock on Linux).
void sleep_until(Clock::time_point due);

// nproc, CPU model, governor, kernel, compiler, build type, commit, seed:
// a one-line JSON object.
[[nodiscard]] std::string host_fingerprint(const Config& cfg);

// Minimal JSON number formatting with all significant digits.
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace bench
