// inproc_fanout -- the in-process exec::Session on the pooled backend, no
// sdafd -- plus the in-process layer probes the traced wire runs share:
// the exec probe, compile timing and codec timing.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "src/core/compile.h"
#include "src/core/compile_cache.h"
#include "src/exec/session.h"
#include "src/net/frame.h"
#include "src/runtime/pool_executor.h"
#include "src/workloads/filters.h"
#include "src/workloads/topologies.h"
#include "workloads.h"

namespace bench {

using namespace sdaf;

// ------------------------------------------------------------- schedule
int Schedule::rep_of(Clock::time_point t) const {
  if (t < start) return -1;
  const double s = std::chrono::duration<double>(t - start).count();
  return std::min(reps(), static_cast<int>(s / rep_seconds));
}

Clock::time_point Schedule::at(int rep) const {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(rep * rep_seconds));
}

Schedule make_schedule(const Config& cfg, double warmup_seconds) {
  Schedule s;
  // Untraced runs: five repetitions. Traced runs: three untraced (the
  // baseline for the tracing overhead) and three traced.
  s.reps_untraced = cfg.trace ? 3 : 5;
  s.reps_traced = cfg.trace ? 3 : 0;
  s.rep_seconds = cfg.seconds / s.reps();
  s.start = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(warmup_seconds));
  return s;
}

double items_per_second(std::uint64_t items, Clock::time_point from,
                        Clock::time_point last_done) {
  const double s = std::chrono::duration<double>(last_done - from).count();
  return items > 0 && s > 0 ? static_cast<double>(items) / s : 0.0;
}

void RepStats::merge(const RepStats& o) {
  items += o.items;
  pushes += o.pushes;
  short_acks += o.short_acks;
  polls += o.polls;
  empty_polls += o.empty_polls;
  streams += o.streams;
  last_done = std::max(last_done, o.last_done);
  for (auto [dst, src] :
       {std::pair{&latency_us, &o.latency_us}, {&lag_us, &o.lag_us},
        {&deliver_us, &o.deliver_us}, {&poll_rtt_us, &o.poll_rtt_us},
        {&push_us, &o.push_us}, {&encode_ns, &o.encode_ns},
        {&decode_ns, &o.decode_ns}})
    dst->insert(dst->end(), src->begin(), src->end());
}

// --------------------------------------------------------- layer probes
double time_compile_us(const StreamGraph& g, int times) {
  std::vector<double> us;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    const core::CompileResult c = core::compile(g);
    const auto t1 = Clock::now();
    if (!c.ok) return 0.0;
    us.push_back(us_between(t0, t1));
  }
  return median(us);
}

void time_codec(std::uint64_t first_seq, std::size_t items,
                std::vector<double>* encode_ns, std::vector<double>* decode_ns) {
  net::PushBatchFrame f;
  f.values.reserve(items);
  for (std::size_t i = 0; i < items; ++i)
    f.values.emplace_back(static_cast<std::int64_t>(first_seq + i));
  const auto t0 = Clock::now();
  net::Writer w;
  net::encode(f, w);
  const auto t1 = Clock::now();
  const auto back = net::decode_push_batch(w.bytes().data(), w.bytes().size());
  const auto t2 = Clock::now();
  if (!back.has_value()) return;
  const double n = static_cast<double>(items);
  encode_ns->push_back(1000.0 * us_between(t0, t1) / n);
  decode_ns->push_back(1000.0 * us_between(t1, t2) / n);
}

ExecProbe probe_exec(const StreamGraph& g, const KernelFactory& kernels,
                     const exec::RunSpec& compiled, std::size_t workers,
                     std::size_t batch, std::size_t batches,
                     std::size_t streams, bool wait_delivery,
                     Clock::duration pace) {
  ExecProbe out;
  runtime::PoolExecutor pool(workers);
  exec::Session session(g, kernels(g));
  std::vector<double> open, push, poll, fin;
  std::vector<exec::OutputPort::Item> got;
  for (std::size_t s = 0; s < streams; ++s) {
    exec::StreamSpec spec;
    spec.run = compiled;
    spec.run.backend = exec::Backend::Pooled;
    spec.run.pool = &pool;
    const auto t0 = Clock::now();
    exec::Stream stream = session.open(spec);
    open.push_back(us_between(t0, Clock::now()));
    std::uint64_t seq = 0;
    const auto first = Clock::now();
    for (std::size_t b = 0; b < batches; ++b) {
      if (pace > Clock::duration::zero())
        sleep_until(first + static_cast<Clock::rep>(b) * pace);
      std::vector<runtime::Value> values;
      for (std::size_t i = 0; i < batch; ++i)
        values.emplace_back(static_cast<std::int64_t>(seq + i));
      const auto p0 = Clock::now();
      seq += stream.input(0).push_batch(std::move(values));
      push.push_back(us_between(p0, Clock::now()));
      std::size_t delivered = 0;
      do {
        got.clear();
        const auto q0 = Clock::now();
        delivered += stream.output(0).poll_batch(&got, 4096);
        poll.push_back(us_between(q0, Clock::now()));
      } while (wait_delivery && delivered < batch);
    }
    const auto f0 = Clock::now();
    stream.input(0).close();
    const exec::RunReport report = stream.finish();
    fin.push_back(us_between(f0, Clock::now()));
    out.streams.emplace_back(seq, report);
  }
  out.open_us = median(open);
  out.push_batch_us = median(push);
  out.poll_batch_us = median(poll);
  out.finish_us = median(fin);
  return out;
}

// -------------------------------------------------------- inproc_fanout
namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kWidth = 8;
constexpr std::size_t kDepth = 2;
constexpr std::size_t kBatch = 64;
constexpr std::uint64_t kMaxInFlight = 512;  // < the egress tap's 1024
constexpr auto kSpin = std::chrono::nanoseconds(500);
constexpr int kSetupReps = 21;
constexpr int kSetupProcs = 7;
constexpr auto kRepWarmup = std::chrono::milliseconds(300);

// Pass-everything relay that first spins for a fixed wall-clock time: the
// per-firing work that makes parallel speed-up visible.
class SpinKernel final : public runtime::Kernel {
 public:
  explicit SpinKernel(Clock::duration spin)
      : spin_(spin), relay_(runtime::pass_through_kernel()) {}
  void fire(std::uint64_t seq,
            const std::vector<std::optional<runtime::Value>>& inputs,
            runtime::Emitter& out) override {
    const auto until = Clock::now() + spin_;
    while (Clock::now() < until) {
    }
    relay_->fire(seq, inputs, out);
  }

 private:
  Clock::duration spin_;
  std::shared_ptr<runtime::Kernel> relay_;
};

std::vector<std::shared_ptr<runtime::Kernel>> spin_kernels(
    const StreamGraph& g, Clock::duration spin) {
  std::vector<std::shared_ptr<runtime::Kernel>> k;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    k.push_back(std::make_shared<SpinKernel>(spin));
  return k;
}

struct Counters {
  double task_runs = 0, steals = 0, steal_fails = 0, parks = 0, wakes = 0;
  double full_stalls = 0, empty_waits = 0, cpu = 0;
  Clock::time_point at;
};

Counters read_counters(const exec::Stream& stream) {
  Counters c;
  const obs::MetricsSnapshot m = stream.metrics();
  for (const auto& w : m.workers) {
    c.task_runs += static_cast<double>(w.task_runs);
    c.steals += static_cast<double>(w.steals);
    c.steal_fails += static_cast<double>(w.steal_fails);
    c.parks += static_cast<double>(w.parks);
    c.wakes += static_cast<double>(w.wakes);
  }
  for (const auto& ch : m.channels) {
    c.full_stalls += static_cast<double>(ch.full_stalls);
    c.empty_waits += static_cast<double>(ch.empty_waits);
  }
  c.cpu = cpu_seconds(0);
  c.at = Clock::now();
  return c;
}

struct Job {
  std::uint64_t items = 0;
  exec::RunReport report;
  std::optional<Counters> traced_from;
  std::optional<Counters> traced_to;
};

// Drives one stream on `pool` through the schedule: push_batch, then
// poll_batch, from one thread, with at most kMaxInFlight items between
// them so the egress tap never fills.
Job drive(const StreamGraph& g, const exec::RunSpec& compiled,
          runtime::PoolExecutor& pool, const Schedule& sched,
          std::vector<RepStats>* reps) {
  exec::Session session(g, spin_kernels(g, kSpin));
  exec::StreamSpec spec;
  spec.run = compiled;
  spec.run.backend = exec::Backend::Pooled;
  spec.run.pool = &pool;
  exec::Stream stream = session.open(spec);
  exec::InputPort& in = stream.input(0);
  exec::OutputPort& out = stream.output(0);

  Job job;
  PushTimes pushed;
  std::vector<exec::OutputPort::Item> got;
  std::uint64_t seq = 0;
  std::uint64_t polled = 0;
  auto ready = Clock::now();
  // wait = block for the first item (OutputPort::next) instead of spinning
  // on an empty poll while the window is full.
  const auto poll = [&](RepStats* a, bool traced, bool wait) {
    got.clear();
    const auto q0 = Clock::now();
    if (wait) {
      if (auto item = out.next()) got.push_back(std::move(*item));
    }
    const std::size_t n = got.size() + out.poll_batch(&got, 4096);
    const auto q1 = Clock::now();
    polled += n;
    if (a == nullptr) return;
    ++a->polls;
    a->empty_polls += n == 0 ? 1 : 0;
    if (traced) a->poll_rtt_us.push_back(us_between(q0, q1));
    // One latency sample per batch (its last item) keeps the benchmark's
    // own memory out of peak_rss_mb.
    for (const auto& item : got)
      if ((item.seq + 1) % kBatch == 0)
        a->latency_us.push_back(us_between(pushed.of(item.seq), q1));
  };
  for (;;) {
    const auto t0 = Clock::now();
    const int rep = sched.rep_of(t0);
    if (rep >= sched.reps()) break;
    RepStats* a = rep >= 0 ? &(*reps)[static_cast<std::size_t>(rep)] : nullptr;
    const bool traced = sched.traced(rep);
    if (traced && !job.traced_from.has_value())
      job.traced_from = read_counters(stream);
    if (seq - polled + kBatch > kMaxInFlight) {
      poll(a, traced, true);
      ready = Clock::now();
      continue;
    }
    if (traced) time_codec(seq, kBatch, &a->encode_ns, &a->decode_ns);
    std::vector<runtime::Value> values;
    values.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i)
      values.emplace_back(static_cast<std::int64_t>(seq + i));
    const auto p0 = Clock::now();
    const std::size_t n = in.push_batch(std::move(values));
    const auto p1 = Clock::now();
    pushed.record(seq, p0);
    seq += n;
    if (a != nullptr) {
      a->items += n;
      a->last_done = p1;
      a->lag_us.push_back(us_between(ready, traced ? p0 : t0));
      if (traced) a->push_us.push_back(us_between(p0, p1));
    }
    poll(a, traced, false);
    ready = Clock::now();
  }
  if (sched.reps_traced > 0) job.traced_to = read_counters(stream);
  in.close();
  while (!out.ended()) {
    got.clear();
    if (out.poll_batch(&got, 4096) == 0) std::this_thread::yield();
  }
  job.items = seq;
  job.report = stream.finish();
  return job;
}

}  // namespace

Result run_inproc_fanout(const Config& cfg) {
  Result r;
  const StreamGraph g = workloads::splitjoin(kWidth, kDepth);
  exec::RunSpec compiled;
  compiled.mode = runtime::DummyMode::Propagation;
  // The oracle replays without the spin (same filtering, same traffic).
  const KernelFactory reference = [&cfg](const StreamGraph& gg) {
    if (cfg.oracle_pass_override >= 0.0)
      return workloads::relay_kernels(gg, cfg.oracle_pass_override, 1);
    return spin_kernels(gg, Clock::duration::zero());
  };
  const auto check = [&](std::uint64_t items, const exec::RunReport& report) {
    ++r.attempted;
    if (!report.completed) {
      r.fail("stream did not complete");
      return;
    }
    const std::string m = compare_reports(
        report, sim_reference(g, reference, compiled.mode, items));
    if (!m.empty()) r.fail("oracle: " + m);
  };
  // Set-up: pool + compile (through a cache, as Session::compile_and_run
  // does) + Session::open, torn down and repeated kSetupReps times in each
  // of kSetupProcs forked children. Thread start-up costs differ from
  // process to process, so one process's median is not the run's.
  compiled.apply(core::compile(g));
  std::vector<double> setups;
  std::uint64_t opens = 0, hits = 0;
  for (int p = 0; p < kSetupProcs; ++p) {
    int fds[2];
    if (pipe(fds) != 0) {
      r.fail("pipe failed");
      break;
    }
    const pid_t pid = fork();  // still single-threaded here
    if (pid == 0) {
      close(fds[0]);
      core::CompileCache cache;
      std::vector<double> s;
      std::uint64_t h = 0;
      const std::uint64_t failed0 = r.failed, attempted0 = r.attempted;
      for (int i = 0; i < kSetupReps; ++i) {
        const auto t0 = Clock::now();
        runtime::PoolExecutor pool(kWorkers);
        const std::uint64_t hits_before = cache.stats().hits;
        const auto result = cache.get_or_compile(g, core::CompileOptions{});
        exec::Session session(g, spin_kernels(g, kSpin));
        exec::StreamSpec spec;
        spec.run.mode = runtime::DummyMode::Propagation;
        spec.run.apply(*result);
        spec.run.backend = exec::Backend::Pooled;
        spec.run.pool = &pool;
        exec::Stream stream = session.open(spec);
        s.push_back(seconds_since(t0));
        h += cache.stats().hits > hits_before ? 1 : 0;
        stream.input(0).close();
        check(0, stream.finish());
      }
      char line[128];
      const int n = std::snprintf(
          line, sizeof line, "%.9g %llu %llu %llu\n", median(s),
          static_cast<unsigned long long>(r.failed - failed0),
          static_cast<unsigned long long>(r.attempted - attempted0),
          static_cast<unsigned long long>(h));
      const bool ok = write(fds[1], line, static_cast<std::size_t>(n)) == n;
      _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    std::string got;
    char buf[128];
    ssize_t n = 0;
    while (pid > 0 && (n = read(fds[0], buf, sizeof buf)) > 0)
      got.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    if (pid > 0) waitpid(pid, &status, 0);
    double seconds = 0.0;
    unsigned long long failed = 0, attempted = 0, h = 0;
    if (pid <= 0 || std::sscanf(got.c_str(), "%lf %llu %llu %llu", &seconds,
                                &failed, &attempted, &h) != 4) {
      r.fail("set-up process failed");
      continue;
    }
    setups.push_back(seconds);
    r.attempted += attempted;
    for (unsigned long long i = 0; i < failed; ++i)
      r.fail("set-up stream failed its check");
    opens += kSetupReps;
    hits += h;
  }
  r.set_reps("setup_s", "s", setups);

  // Each repetition runs on a fresh pool and stream after its own warm-up,
  // so one run samples several task placements, not just the first.
  const Schedule sched = make_schedule(cfg, 0.0);
  std::vector<RepStats> reps(static_cast<std::size_t>(sched.reps()));
  std::vector<Clock::time_point> starts;
  std::vector<Job> jobs;
  for (int k = 0; k < sched.reps(); ++k) {
    Schedule one;
    one.rep_seconds = sched.rep_seconds;
    one.reps_untraced = sched.traced(k) ? 0 : 1;
    one.reps_traced = sched.traced(k) ? 1 : 0;
    one.start = Clock::now() + kRepWarmup;
    std::vector<RepStats> single(1);
    runtime::PoolExecutor pool(kWorkers);
    jobs.push_back(drive(g, compiled, pool, one, &single));
    reps[static_cast<std::size_t>(k)] = std::move(single[0]);
    starts.push_back(one.start);
  }
  r.set("peak_rss_mb", "MB", peak_rss_mb(0));
  for (const Job& job : jobs) check(job.items, job.report);

  std::vector<double> ips, p50, p90, ips_t;
  for (int k = 0; k < sched.reps(); ++k) {
    const RepStats& a = reps[static_cast<std::size_t>(k)];
    const double rate = items_per_second(
        a.items, starts[static_cast<std::size_t>(k)], a.last_done);
    if (sched.traced(k)) {
      ips_t.push_back(rate);
      continue;
    }
    ips.push_back(rate);
    p50.push_back(percentile(a.latency_us, 0.5));
    p90.push_back(percentile(a.latency_us, 0.9));
    r.attempted += a.items / kBatch;
  }
  r.set_reps("items_per_s", "1/s", ips);
  r.set_reps("latency_p50_us", "us", p50);
  r.set_reps("latency_p90_us", "us", p90);
  if (!cfg.trace) return r;

  // ---- per-layer metrics from the traced reps.
  RepStats t;
  for (int k = sched.reps_untraced; k < sched.reps(); ++k)
    t.merge(reps[static_cast<std::size_t>(k)]);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double items = static_cast<double>(t.items);
  r.set("net.encode_ns_per_item", "ns", median(t.encode_ns));
  r.set("net.decode_ns_per_item", "ns", median(t.decode_ns));
  // No socket in-process: the "poll round trip" is the poll_batch call.
  r.set("net.poll_rtt_us", "us", median(t.poll_rtt_us));
  r.set("net.empty_poll_ratio", "ratio",
        ratio(static_cast<double>(t.empty_polls), static_cast<double>(t.polls)));
  r.set("net.short_ack_ratio", "ratio", 0.0);
  r.set("net.frames_per_item", "frames/item", 0.0);
  r.set("exec.push_batch_us", "us", median(t.push_us));
  r.set("exec.poll_batch_us", "us", median(t.poll_rtt_us));
  r.set("gen.lag_p50_us", "us", percentile(t.lag_us, 0.5));
  r.set("gen.lag_p99_us", "us", percentile(t.lag_us, 0.99));
  r.set("wire.deliver_p99_us", "us", percentile(t.latency_us, 0.99));

  double data = 0, dummies = 0, fires = 0, job_items = 0;
  Counters d;  // summed over the traced reps' streams
  double wall = 0;
  for (const Job& job : jobs) {
    data += static_cast<double>(job.report.total_data());
    dummies += static_cast<double>(job.report.total_dummies());
    for (const auto n : job.report.fires) fires += static_cast<double>(n);
    job_items += static_cast<double>(job.items);
    if (!job.traced_from.has_value() || !job.traced_to.has_value()) continue;
    const Counters& a = *job.traced_from;
    const Counters& b = *job.traced_to;
    d.task_runs += b.task_runs - a.task_runs;
    d.steals += b.steals - a.steals;
    d.steal_fails += b.steal_fails - a.steal_fails;
    d.parks += b.parks - a.parks;
    d.wakes += b.wakes - a.wakes;
    d.full_stalls += b.full_stalls - a.full_stalls;
    d.empty_waits += b.empty_waits - a.empty_waits;
    d.cpu += b.cpu - a.cpu;
    wall += std::chrono::duration<double>(b.at - a.at).count();
  }
  r.set("exec.dummy_share", "ratio", ratio(dummies, data + dummies));
  r.set("exec.fires_per_item", "fires/item", ratio(fires, job_items));
  r.set("pool.task_runs_per_item", "runs/item", ratio(d.task_runs, items));
  r.set("pool.steals_per_item", "steals/item", ratio(d.steals, items));
  r.set("pool.steal_fail_ratio", "ratio",
        ratio(d.steal_fails, d.steals + d.steal_fails));
  r.set("pool.parks_per_item", "parks/item", ratio(d.parks, items));
  r.set("pool.wakes_per_item", "wakes/item", ratio(d.wakes, items));
  r.set("pool.cpu_per_wall", "ratio", ratio(d.cpu, wall));
  r.set("channel.full_stalls_per_item", "stalls/item",
        ratio(d.full_stalls, items));
  r.set("channel.empty_waits_per_item", "waits/item",
        ratio(d.empty_waits, items));
  r.set("compile.us_per_topology", "us", time_compile_us(g, 5));
  r.set("compile.cache_hit_ratio", "ratio",
        ratio(static_cast<double>(hits), static_cast<double>(opens)));

  // Open and finish, timed on fresh streams of the same job.
  {
    const ExecProbe p = probe_exec(
        g, [](const StreamGraph& gg) { return spin_kernels(gg, kSpin); },
        compiled, kWorkers, kBatch, 4, 16, false, Clock::duration::zero());
    for (const auto& [n, report] : p.streams) check(n, report);
    r.set("exec.open_us", "us", p.open_us);
    r.set("exec.finish_us", "us", p.finish_us);
  }
  r.set("wire.residual_us", "us",
        r.metrics["latency_p50_us"].value - r.metrics["exec.push_batch_us"].value -
            r.metrics["exec.poll_batch_us"].value);
  r.set("obs.trace_overhead_pct", "%",
        100.0 * ratio(median(ips) - median(ips_t), median(ips_t)));

  // The same job on a 1-worker pool: the parallel speed-up.
  {
    Config one = cfg;
    one.trace = false;
    one.seconds = std::max(1.0, cfg.seconds / 4.0);
    const Schedule s1 = make_schedule(one, 0.25);
    std::vector<RepStats> reps1(static_cast<std::size_t>(s1.reps()));
    Job j1;
    {
      runtime::PoolExecutor pool(1);
      j1 = drive(g, compiled, pool, s1, &reps1);
    }
    check(j1.items, j1.report);
    std::vector<double> rates;
    for (int k = 0; k < s1.reps(); ++k) {
      const RepStats& a = reps1[static_cast<std::size_t>(k)];
      rates.push_back(items_per_second(a.items, s1.at(k), a.last_done));
    }
    r.set("pool.speedup_vs_1w", "ratio", ratio(median(ips), median(rates)));
  }
  return r;
}

}  // namespace bench
