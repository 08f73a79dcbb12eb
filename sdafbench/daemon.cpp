#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

extern char** environ;

namespace bench {

bool Daemon::start(const std::string& binary, const std::string& socket_path,
                   int workers) {
  socket_ = socket_path;
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  // The daemon's shutdown summary would interleave with the results.
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::string a1 = "--unix=" + socket_path;
  std::string a2 = "--workers=" + std::to_string(workers);
  std::string a0 = binary;
  char* argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
  const int rc =
      posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    return false;
  }
  // Ready = the "listening unix PATH" line (printed after bind + listen).
  std::string got;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (got.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) return false;
    pollfd p{out_fd_, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left)) <= 0) continue;
    char buf[256];
    const ssize_t n = read(out_fd_, buf, sizeof buf);
    if (n <= 0) return false;  // exited before listening
    got.append(buf, static_cast<std::size_t>(n));
  }
  return got.rfind("listening unix", 0) == 0;
}

void Daemon::stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    pid_t r = 0;
    while ((r = waitpid(pid_, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (r == 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
  if (!socket_.empty()) {
    unlink(socket_.c_str());
    socket_.clear();
  }
}

StatsPage::StatsPage(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    Sample s;
    const std::string head = line.substr(0, space);
    const std::size_t brace = head.find('{');
    s.name = head.substr(0, brace);
    if (brace != std::string::npos) s.labels = head.substr(brace);
    s.value = std::strtod(line.c_str() + space + 1, nullptr);
    samples_.push_back(std::move(s));
  }
}

double StatsPage::sum(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : samples_)
    if (s.name == name) total += s.value;
  return total;
}

double StatsPage::sum_tenant(const std::string& name,
                             const std::string& prefix) const {
  const std::string needle = "tenant=\"" + prefix;
  double total = 0.0;
  for (const auto& s : samples_)
    if (s.name == name && s.labels.find(needle) != std::string::npos)
      total += s.value;
  return total;
}

double StatsPage::sum_workers(const std::string& name) const {
  std::map<std::string, double> per_worker;
  for (const auto& s : samples_) {
    if (s.name != name) continue;
    const std::size_t w = s.labels.find("worker=\"");
    const std::string key =
        w == std::string::npos ? std::string() : s.labels.substr(w);
    double& slot = per_worker[key];
    slot = std::max(slot, s.value);
  }
  double total = 0.0;
  for (const auto& [key, v] : per_worker) total += v;
  return total;
}

}  // namespace bench
