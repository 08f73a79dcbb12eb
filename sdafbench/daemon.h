// One sdafd child process: spawned with posix_spawn, ready once it prints
// its "listening unix PATH" line, stopped with SIGTERM (SIGKILL after a
// grace period) and always reaped. Plus a parser for its Stats page.
#pragma once

#include <sys/types.h>

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace bench {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Spawns `binary --unix=socket_path --workers=N` and blocks until it
  // reports its listener (or exits / times out). false = not serving.
  [[nodiscard]] bool start(const std::string& binary,
                           const std::string& socket_path, int workers);
  // SIGTERM, wait up to 5 s, then SIGKILL; reaps the child. Idempotent.
  void stop();

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] const std::string& socket_path() const { return socket_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string socket_;
};

// One Prometheus sample line: family name, label text, value.
struct Sample {
  std::string name;
  std::string labels;
  double value = 0.0;
};

// The daemon's Stats page, indexed for the counters the benchmark reads.
class StatsPage {
 public:
  explicit StatsPage(const std::string& text);

  // Sum of every series of `name`.
  [[nodiscard]] double sum(const std::string& name) const;
  // Sum of the series of `name` whose tenant label starts with `prefix`.
  [[nodiscard]] double sum_tenant(const std::string& name,
                                  const std::string& prefix) const;
  // Pool-global worker families are repeated once per live stream: take
  // the largest reading per worker label, summed over workers.
  [[nodiscard]] double sum_workers(const std::string& name) const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace bench
