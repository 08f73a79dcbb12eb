#include "common.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace bench {

void Result::set(const std::string& name, const std::string& unit,
                 double value) {
  Metric& m = metrics[name];
  m.unit = unit;
  m.reps = {value};
  m.value = value;
}

void Result::set_reps(const std::string& name, const std::string& unit,
                      std::vector<double> reps) {
  Metric& m = metrics[name];
  m.unit = unit;
  m.value = median(reps);
  m.reps = std::move(reps);
}

void Result::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t k =
      std::min(v.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::string proc_path(int pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

double peak_rss_mb(int pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double cpu_seconds(int pid) {
  if (pid == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  // /proc/<pid>/stat: fields 14 and 15 (utime, stime) in clock ticks, after
  // the parenthesized command name.
  const std::string stat = read_first_line(proc_path(pid, "stat"));
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0.0;
  double stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void set_low_timer_slack() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void sleep_until(Clock::time_point due) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      due.time_since_epoch())
                      .count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string host_fingerprint(const Config& cfg) {
  std::string cpu = "unknown";
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) cpu = line.substr(colon + 2);
        break;
      }
    }
  }
  std::string governor =
      read_first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (governor.empty()) governor = "unreadable";
  utsname u{};
  uname(&u);
  const char* commit = std::getenv("SDAFBENCH_COMMIT");
  std::ostringstream o;
  o << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"cpu\":" << json_string(cpu)
    << ",\"governor\":" << json_string(governor)
    << ",\"kernel\":" << json_string(std::string(u.sysname) + " " + u.release)
    << ",\"compiler\":" << json_string(std::string("g++ ") + __VERSION__)
    << ",\"build_type\":" << json_string(SDAFBENCH_BUILD_TYPE)
    << ",\"commit\":" << json_string(commit != nullptr ? commit : "unknown")
    << ",\"workload\":" << json_string(cfg.workload)
    << ",\"seed\":" << cfg.seed << ",\"seconds\":" << json_number(cfg.seconds)
    << ",\"trace\":" << (cfg.trace ? 1 : 0) << "}";
  return o.str();
}

}  // namespace bench
