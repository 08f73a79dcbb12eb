// The three workloads served by sdafd: wire_filter, wire_interactive and
// open_churn. One process drives kConnections client connections, one
// thread each, against a daemon booted with --workers=2.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "daemon.h"
#include "src/core/compile.h"
#include "src/graph/io.h"
#include "src/net/client.h"
#include "src/net/workload.h"
#include "src/support/prng.h"
#include "src/workloads/random_ladder.h"
#include "src/workloads/topologies.h"
#include "workloads.h"

namespace bench {

using namespace sdaf;

namespace {

constexpr int kConnections = 2;
constexpr int kDaemonWorkers = 2;
constexpr int kSetupReps = 9;
constexpr std::uint32_t kBatch = 64;           // wire_filter, open_churn
constexpr std::uint64_t kChurnItems = 256;     // items per churn stream
constexpr std::size_t kChurnTopologies = 512;  // ~2x the daemon's 256-entry cache
constexpr std::uint32_t kPollMax = 4096;
constexpr std::uint64_t kFilterTopologySeed = 11;

struct FinishedStream {
  net::OpenFrame spec;
  std::uint64_t items = 0;
  exec::RunReport report;
  // Per-stream channel counters from the Stats page (traced runs only).
  bool has_channels = false;
  double full_stalls = 0.0;
  double empty_waits = 0.0;
};

struct ConnOut {
  std::vector<RepStats> reps;
  std::vector<FinishedStream> finished;
  std::uint64_t opens = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;
};

std::string socket_path(const Config& cfg) {
  return cfg.workdir + "/sdafd-" + std::to_string(getpid()) + ".sock";
}

// A ~30-node random CS4 chain (serial SP-DAG and SP-ladder components).
StreamGraph cs4_chain(std::uint64_t seed) {
  Prng rng(seed);
  workloads::RandomCs4Options opt;
  opt.components = 4;
  opt.sp.target_edges = 12;
  opt.sp.max_buffer = 8;
  opt.ladder.rungs = 3;
  opt.ladder.left_interior = 3;
  opt.ladder.right_interior = 3;
  opt.ladder.max_buffer = 8;
  return workloads::random_cs4_chain(rng, opt);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + salt;
  return splitmix64(s);
}

net::OpenFrame relay_spec(const StreamGraph& g, std::uint64_t kernel_seed) {
  net::OpenFrame spec;
  spec.backend = static_cast<std::uint8_t>(exec::Backend::Pooled);
  spec.mode = static_cast<std::uint8_t>(runtime::DummyMode::Propagation);
  spec.kernel = net::KernelKind::Relay;
  spec.pass_rate = 0.5;
  spec.seed = kernel_seed;
  spec.topology = to_text(g);
  return spec;
}

net::OpenFrame passthrough_spec() {
  net::OpenFrame spec;
  spec.backend = static_cast<std::uint8_t>(exec::Backend::Pooled);
  spec.mode = static_cast<std::uint8_t>(runtime::DummyMode::Propagation);
  spec.kernel = net::KernelKind::Passthrough;
  spec.topology = to_text(workloads::pipeline(3));
  return spec;
}

std::vector<runtime::Value> values_from(std::uint64_t first, std::size_t n) {
  std::vector<runtime::Value> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    v.emplace_back(static_cast<std::int64_t>(first + i));
  return v;
}

std::optional<net::Client> connect(const std::string& path) {
  return net::Client::connect_unix(path);
}

// The per-stream channel counters (this connection's tenant) from the
// Stats page, read just before the stream finishes.
void read_channels(net::Client& client, const std::string& tenant,
                   FinishedStream* f) {
  const StatsPage page(client.stats());
  f->has_channels = true;
  f->full_stalls = page.sum_tenant("sdaf_channel_full_stalls_total", tenant + "/");
  f->empty_waits = page.sum_tenant("sdaf_channel_empty_waits_total", tenant + "/");
}

// Closes input 0, drains output 0 until end of stream, and collects the
// verdict.
void drain_and_finish(net::ClientStream& s, FinishedStream* f, ConnOut* out) {
  s.close(0);
  ++out->attempted;
  for (;;) {
    const net::DeliverFrame d = s.poll(0, kPollMax);
    ++out->attempted;
    if (d.ended != 0) break;
    if (d.items.empty()) std::this_thread::yield();
  }
  f->report = s.finish();
  ++out->attempted;
}

// Boots one daemon and opens `first` on a fresh connection: the set-up a
// client of a cold service waits for. The opened stream is finished
// (0 items) and checked like every other.
std::optional<double> boot(const Config& cfg, const net::OpenFrame& first,
                           Daemon* daemon, ConnOut* out) {
  const auto t0 = Clock::now();
  if (!daemon->start(cfg.sdafd, socket_path(cfg), kDaemonWorkers))
    return std::nullopt;
  auto client = connect(daemon->socket_path());
  if (!client.has_value()) return std::nullopt;
  net::ClientStream s = client->open(1, first);
  const double setup = seconds_since(t0);
  ++out->opens;
  out->cache_hits += s.cache_hit() ? 1 : 0;
  ++out->attempted;
  FinishedStream f;
  f.spec = first;
  drain_and_finish(s, &f, out);
  out->finished.push_back(std::move(f));
  return setup;
}

// Everything a wire workload defines; run_wire does the rest.
struct WireWorkload {
  double warmup_seconds = 1.0;
  net::OpenFrame setup_spec;  // opened by each boot
  // One connection's loop; returns when the schedule ends.
  std::function<void(int conn, const std::string& path, const Schedule&,
                     ConnOut*)>
      drive;
  // Streams, batch size and delivery wait for the in-process exec probe,
  // and the topologies compile.us_per_topology is timed on.
  std::vector<net::OpenFrame> probe_specs;
  std::size_t probe_batch = kBatch;
  std::size_t probe_batches = 64;
  bool probe_wait_delivery = false;
  bool pace_probe = false;  // pace probe pushes at the measured wire rate
  // wire.residual_us: the headline latency minus the summed self times of
  // the layers on its path.
  std::function<double(Result&)> residual;
  // obs.trace_overhead_pct compares this metric's untraced and traced reps.
  bool overhead_on_latency = false;
};

Result run_wire(const Config& cfg, WireWorkload w) {
  Result r;
  WireOracle oracle(cfg.oracle_pass_override);

  // ---- set-up: cold daemon boot -> first OpenOk, kSetupReps times.
  ConnOut setup_out;
  std::vector<double> setups;
  auto daemon = std::make_unique<Daemon>();
  for (int i = 0; i < kSetupReps; ++i) {
    if (i > 0) daemon = std::make_unique<Daemon>();
    std::optional<double> s;
    try {
      s = boot(cfg, w.setup_spec, daemon.get(), &setup_out);
    } catch (const std::exception& e) {
      r.fail(std::string("setup: ") + e.what());
    }
    if (!s.has_value()) {
      r.fail("sdafd did not come up");
      r.attempted = 1;
      return r;
    }
    setups.push_back(*s);
    if (i + 1 < kSetupReps) daemon->stop();
  }
  r.set_reps("setup_s", "s", setups);

  // ---- the measured window.
  const Schedule sched = make_schedule(cfg, w.warmup_seconds);
  std::vector<ConnOut> outs(kConnections);
  for (auto& o : outs) o.reps.resize(static_cast<std::size_t>(sched.reps()));
  std::vector<std::thread> threads;
  const std::string path = daemon->socket_path();
  for (int c = 0; c < kConnections; ++c)
    threads.emplace_back([&, c] {
      try {
        w.drive(c, path, sched, &outs[static_cast<std::size_t>(c)]);
      } catch (const std::exception& e) {
        outs[static_cast<std::size_t>(c)].errors.push_back(e.what());
      }
    });

  // Traced runs: an idle anchor stream keeps the pool-global worker
  // families on the Stats page, which is read at the traced reps' edges.
  std::optional<StatsPage> page0;
  std::optional<StatsPage> page1;
  double cpu0 = 0.0;
  double cpu1 = 0.0;
  Clock::time_point tr0;
  Clock::time_point tr1;
  if (cfg.trace) {
    try {
      auto anchor = connect(path);
      if (!anchor.has_value()) throw std::runtime_error("anchor connect");
      net::OpenFrame spec = passthrough_spec();
      spec.tenant = "anchor";
      net::ClientStream s = anchor->open(1, spec);
      sleep_until(sched.at(sched.reps_untraced));
      tr0 = Clock::now();
      cpu0 = cpu_seconds(daemon->pid());
      page0.emplace(anchor->stats());
      sleep_until(sched.end());
      tr1 = Clock::now();
      cpu1 = cpu_seconds(daemon->pid());
      page1.emplace(anchor->stats());
      s.close(0);
      (void)s.finish();
    } catch (const std::exception& e) {
      r.fail(std::string("anchor: ") + e.what());
    }
  }
  for (auto& t : threads) t.join();
  r.set("peak_rss_mb", "MB", peak_rss_mb(daemon->pid()));
  daemon->stop();

  // ---- correctness: every stream against the Sim oracle, one checker
  // thread per connection.
  outs.push_back(std::move(setup_out));
  std::vector<std::vector<std::string>> mismatches(outs.size());
  {
    std::vector<std::thread> checkers;
    for (std::size_t i = 0; i < outs.size(); ++i)
      checkers.emplace_back([&, i] {
        for (const FinishedStream& f : outs[i].finished) {
          if (!f.report.completed) {
            mismatches[i].push_back("stream did not complete");
            continue;
          }
          std::string m = oracle.check(f.spec, f.items, f.report);
          if (!m.empty()) mismatches[i].push_back("oracle: " + m);
        }
      });
    for (auto& t : checkers) t.join();
  }
  for (std::size_t i = 0; i < outs.size(); ++i) {
    r.attempted += outs[i].attempted + outs[i].finished.size();
    for (const auto& e : outs[i].errors) r.fail(e);
    for (const auto& m : mismatches[i]) r.fail(m);
  }

  // ---- end-to-end metrics: per repetition, median over untraced reps.
  std::vector<RepStats> reps(static_cast<std::size_t>(sched.reps()));
  for (int k = 0; k < sched.reps(); ++k)
    for (int c = 0; c < kConnections; ++c)
      reps[static_cast<std::size_t>(k)].merge(
          outs[static_cast<std::size_t>(c)].reps[static_cast<std::size_t>(k)]);
  std::vector<double> ips, p50, p90, p99, ips_t, p50_t;
  for (int k = 0; k < sched.reps(); ++k) {
    const RepStats& a = reps[static_cast<std::size_t>(k)];
    const double rate = items_per_second(a.items, sched.at(k), a.last_done);
    if (sched.traced(k)) {
      ips_t.push_back(rate);
      p50_t.push_back(percentile(a.latency_us, 0.5));
      continue;
    }
    ips.push_back(rate);
    p50.push_back(percentile(a.latency_us, 0.5));
    p90.push_back(percentile(a.latency_us, 0.9));
    p99.push_back(percentile(a.latency_us, 0.99));
  }
  r.set_reps("items_per_s", "1/s", ips);
  r.set_reps("latency_p50_us", "us", p50);
  r.set_reps("latency_p90_us", "us", p90);
  r.set_reps("latency_p99_us", "us", p99);
  {
    std::uint64_t streams = 0;
    for (int k = 0; k < sched.reps_untraced; ++k)
      streams += reps[static_cast<std::size_t>(k)].streams;
    r.set("streams_per_s", "1/s",
          static_cast<double>(streams) /
              (sched.rep_seconds * sched.reps_untraced));
  }
  if (!cfg.trace) return r;

  // ---- per-layer metrics from the traced reps.
  RepStats t;
  for (int k = sched.reps_untraced; k < sched.reps(); ++k)
    t.merge(reps[static_cast<std::size_t>(k)]);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r.set("net.encode_ns_per_item", "ns", median(t.encode_ns));
  r.set("net.decode_ns_per_item", "ns", median(t.decode_ns));
  r.set("net.poll_rtt_us", "us", median(t.poll_rtt_us));
  r.set("net.empty_poll_ratio", "ratio",
        ratio(static_cast<double>(t.empty_polls), static_cast<double>(t.polls)));
  r.set("net.short_ack_ratio", "ratio",
        ratio(static_cast<double>(t.short_acks), static_cast<double>(t.pushes)));
  r.set("gen.lag_p50_us", "us", percentile(t.lag_us, 0.5));
  r.set("gen.lag_p99_us", "us", percentile(t.lag_us, 0.99));
  r.set("wire.deliver_p99_us", "us", percentile(t.deliver_us, 0.99));

  if (page0.has_value() && page1.has_value()) {
    const auto delta = [&](const char* name) {
      return page1->sum(name) - page0->sum(name);
    };
    const auto wdelta = [&](const char* name) {
      return page1->sum_workers(name) - page0->sum_workers(name);
    };
    const double items = delta("sdafd_items_in_total");
    r.set("net.frames_per_item", "frames/item",
          ratio(delta("sdafd_frames_total"), items));
    r.set("pool.task_runs_per_item", "runs/item",
          ratio(wdelta("sdaf_worker_task_runs_total"), items));
    r.set("pool.steals_per_item", "steals/item",
          ratio(wdelta("sdaf_worker_steals_total"), items));
    const double steals = wdelta("sdaf_worker_steals_total");
    const double fails = wdelta("sdaf_worker_steal_fails_total");
    r.set("pool.steal_fail_ratio", "ratio", ratio(fails, steals + fails));
    r.set("pool.parks_per_item", "parks/item",
          ratio(wdelta("sdaf_worker_parks_total"), items));
    r.set("pool.wakes_per_item", "wakes/item",
          ratio(wdelta("sdaf_worker_wakes_total"), items));
    r.set("pool.cpu_per_wall", "ratio",
          ratio(cpu1 - cpu0, std::chrono::duration<double>(tr1 - tr0).count()));
  }
  r.set("pool.speedup_vs_1w", "ratio", 0.0);  // inproc_fanout only

  // Traffic shape and channel counters from the streams' own reports.
  double data = 0, dummies = 0, fires = 0, items = 0, ch_items = 0,
         stalls = 0, waits = 0;
  std::uint64_t opens = 0, hits = 0;
  for (const ConnOut& o : outs) {
    opens += o.opens;
    hits += o.cache_hits;
    for (const FinishedStream& f : o.finished) {
      data += static_cast<double>(f.report.total_data());
      dummies += static_cast<double>(f.report.total_dummies());
      for (const auto n : f.report.fires) fires += static_cast<double>(n);
      items += static_cast<double>(f.items);
      if (f.has_channels) {
        ch_items += static_cast<double>(f.items);
        stalls += f.full_stalls;
        waits += f.empty_waits;
      }
    }
  }
  r.set("exec.dummy_share", "ratio", ratio(dummies, data + dummies));
  r.set("exec.fires_per_item", "fires/item", ratio(fires, items));
  r.set("channel.full_stalls_per_item", "stalls/item", ratio(stalls, ch_items));
  r.set("channel.empty_waits_per_item", "waits/item", ratio(waits, ch_items));
  r.set("compile.cache_hit_ratio", "ratio",
        ratio(static_cast<double>(hits), static_cast<double>(opens)));

  // The exec and compile layers timed in-process on the workload's own
  // streams (the daemon's calls into them are not visible from outside).
  // Pushes are paced at the rate one connection achieved on the wire, so
  // the probe's push_batch sees the same load rather than a full feed.
  const double per_conn_rate = median(ips) / kConnections;
  const Clock::duration pace =
      w.pace_probe && per_conn_rate > 0
          ? std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(w.probe_batch / per_conn_rate))
          : Clock::duration::zero();
  std::vector<double> compile_us;
  ExecProbe probe;
  {
    std::vector<double> open, push, poll, fin;
    for (const net::OpenFrame& spec : w.probe_specs) {
      const auto g = net::parse_topology(spec.topology);
      if (!g.has_value()) continue;
      compile_us.push_back(time_compile_us(*g, 3));
      exec::RunSpec run;
      run.mode = static_cast<runtime::DummyMode>(spec.mode);
      run.apply(core::compile(*g));
      const ExecProbe p = probe_exec(
          *g,
          [&spec](const StreamGraph& gg) { return net::make_kernels(gg, spec); },
          run, kDaemonWorkers, w.probe_batch,
          w.probe_batches / w.probe_specs.size() + 1, 1, w.probe_wait_delivery,
          pace);
      open.push_back(p.open_us);
      push.push_back(p.push_batch_us);
      poll.push_back(p.poll_batch_us);
      fin.push_back(p.finish_us);
      for (const auto& [n, report] : p.streams) {
        ++r.attempted;
        const std::string m = report.completed ? oracle.check(spec, n, report)
                                               : "stream did not complete";
        if (!m.empty()) r.fail("exec probe: " + m);
      }
    }
    probe.open_us = median(open);
    probe.push_batch_us = median(push);
    probe.poll_batch_us = median(poll);
    probe.finish_us = median(fin);
  }
  r.set("compile.us_per_topology", "us", median(compile_us));
  r.set("exec.open_us", "us", probe.open_us);
  r.set("exec.push_batch_us", "us", probe.push_batch_us);
  r.set("exec.poll_batch_us", "us", probe.poll_batch_us);
  r.set("exec.finish_us", "us", probe.finish_us);
  r.set("wire.residual_us", "us", w.residual(r));

  const double untraced = w.overhead_on_latency ? median(p50) : median(ips);
  const double traced = w.overhead_on_latency ? median(p50_t) : median(ips_t);
  r.set("obs.trace_overhead_pct", "%",
        w.overhead_on_latency ? 100.0 * ratio(traced - untraced, untraced)
                              : 100.0 * ratio(untraced - traced, traced));
  return r;
}

}  // namespace

// ----------------------------------------------------------- wire_filter
Result run_wire_filter(const Config& cfg) {
  // The topology is fixed (kFilterTopologySeed) so runs with different
  // seeds measure the same graph; the seed draws the relays' filtering.
  const StreamGraph g = cs4_chain(kFilterTopologySeed);
  std::vector<net::OpenFrame> specs;
  for (int c = 0; c < kConnections; ++c) {
    specs.push_back(
        relay_spec(g, mix(cfg.seed, 100 + static_cast<std::uint64_t>(c))));
    specs.back().tenant = "c" + std::to_string(c);
  }
  std::fprintf(stderr, "wire_filter: %zu nodes, %zu edges\n", g.node_count(),
               g.edge_count());

  WireWorkload w;
  w.setup_spec = specs[0];
  w.probe_specs = {specs[0]};
  w.probe_batches = 256;
  w.pace_probe = true;
  w.drive = [&specs](int conn, const std::string& path, const Schedule& sched,
                     ConnOut* out) {
    auto client = connect(path);
    if (!client.has_value()) throw std::runtime_error("connect failed");
    const net::OpenFrame& spec = specs[static_cast<std::size_t>(conn)];
    // A fresh stream per repetition (and one for the warm-up), so a run
    // samples several placements of the graph's tasks on the pool.
    std::optional<net::ClientStream> s;
    int stream_rep = -2;
    std::uint16_t id = 0;
    FinishedStream f;
    PushTimes pushed;
    std::uint64_t seq = 0;
    auto ready = Clock::now();
    for (;;) {
      const auto t0 = Clock::now();
      const int rep = sched.rep_of(t0);
      if (rep != stream_rep) {
        if (s.has_value()) {
          if (sched.traced(stream_rep)) read_channels(*client, spec.tenant, &f);
          f.items = seq;
          drain_and_finish(*s, &f, out);
          out->finished.push_back(std::move(f));
        }
        if (rep >= sched.reps()) break;
        f = FinishedStream{};
        f.spec = spec;
        s.emplace(client->open(++id, spec));
        ++out->opens;
        out->cache_hits += s->cache_hit() ? 1 : 0;
        ++out->attempted;
        pushed = PushTimes{};
        seq = 0;
        stream_rep = rep;
        ready = Clock::now();
        continue;
      }
      RepStats* a = rep >= 0 ? &out->reps[static_cast<std::size_t>(rep)] : nullptr;
      const bool traced = sched.traced(rep);
      std::vector<runtime::Value> batch = values_from(seq, kBatch);
      if (traced) time_codec(seq, kBatch, &a->encode_ns, &a->decode_ns);
      const auto t1 = Clock::now();
      const net::PushAckFrame ack = s->push_some(0, batch);
      const auto t2 = Clock::now();
      ++out->attempted;
      if (ack.ended != 0) throw std::runtime_error("stream ended early");
      pushed.record(seq, t1);
      seq += ack.accepted;
      if (a != nullptr) {
        a->items += ack.accepted;
        a->last_done = t2;
        ++a->pushes;
        a->short_acks += ack.accepted < kBatch ? 1 : 0;
        a->latency_us.push_back(us_between(t1, t2));
        a->lag_us.push_back(us_between(ready, traced ? t1 : t0));
      }
      const net::DeliverFrame d = s->poll(0, kPollMax);
      const auto t3 = Clock::now();
      ++out->attempted;
      if (a != nullptr) {
        ++a->polls;
        a->empty_polls += d.items.empty() ? 1 : 0;
        if (traced) a->poll_rtt_us.push_back(us_between(t2, t3));
        for (const auto& item : d.items)
          a->deliver_us.push_back(us_between(pushed.of(item.seq), t3));
      }
      ready = t3;
    }
  };
  w.residual = [](Result& r) {
    const double codec_us = (r.metrics["net.encode_ns_per_item"].value +
                             r.metrics["net.decode_ns_per_item"].value) *
                            kBatch / 1000.0;
    return r.metrics["latency_p50_us"].value - codec_us -
           r.metrics["exec.push_batch_us"].value;
  };
  return run_wire(cfg, std::move(w));
}

// ------------------------------------------------------ wire_interactive
Result run_wire_interactive(const Config& cfg) {
  constexpr auto kPeriod = std::chrono::microseconds(1000);
  constexpr auto kSpinBeforeDue = std::chrono::microseconds(50);
  std::vector<net::OpenFrame> specs;
  for (int c = 0; c < kConnections; ++c) {
    specs.push_back(passthrough_spec());
    specs.back().tenant = "c" + std::to_string(c);
  }
  WireWorkload w;
  // Thread wake-up latency can stay high for ~10 s after a CPU-heavy run
  // (seen on virtualised hosts); the warm-up absorbs it so a run does not
  // depend on what ran before it.
  w.warmup_seconds = 10.0;
  w.setup_spec = specs[0];
  w.probe_specs = {specs[0]};
  w.probe_batch = 1;
  w.probe_batches = 500;
  w.probe_wait_delivery = true;
  w.overhead_on_latency = true;
  // The two connections' schedules interleave: one item every 0.5 ms.
  const std::uint64_t phase_us = static_cast<std::uint64_t>(
      (mix(cfg.seed, 7) % 500));
  w.drive = [&specs, kPeriod, kSpinBeforeDue, phase_us](
                int conn, const std::string& path, const Schedule& sched,
                ConnOut* out) {
    set_low_timer_slack();
    auto client = connect(path);
    if (!client.has_value()) throw std::runtime_error("connect failed");
    FinishedStream f;
    f.spec = specs[static_cast<std::size_t>(conn)];
    net::ClientStream s = client->open(1, f.spec);
    ++out->opens;
    out->cache_hits += s.cache_hit() ? 1 : 0;
    ++out->attempted;
    const auto first_due =
        Clock::now() + std::chrono::microseconds(phase_us + 500 * conn);
    std::uint64_t i = 0;
    for (;; ++i) {
      const auto due = first_due + i * kPeriod;
      const int rep = sched.rep_of(due);
      if (rep >= sched.reps()) break;
      RepStats* a = rep >= 0 ? &out->reps[static_cast<std::size_t>(rep)] : nullptr;
      const bool traced = sched.traced(rep);
      // Sleep to just before the due time, then spin, so the generator's
      // own wake-up latency stays out of the measurement.
      sleep_until(due - kSpinBeforeDue);
      while (Clock::now() < due) {
      }
      if (traced) time_codec(i, 1, &a->encode_ns, &a->decode_ns);
      const auto sent = Clock::now();
      std::vector<runtime::Value> one = values_from(i, 1);
      for (;;) {
        const net::PushAckFrame ack = s.push_some(0, one);
        ++out->attempted;
        if (a != nullptr) {
          ++a->pushes;
          a->short_acks += ack.accepted == 0 ? 1 : 0;
        }
        if (ack.ended != 0) throw std::runtime_error("stream ended early");
        if (ack.accepted == 1) break;
      }
      bool got = false;
      while (!got) {
        const auto p0 = Clock::now();
        const net::DeliverFrame d = s.poll(0, 16);
        const auto p1 = Clock::now();
        ++out->attempted;
        if (a != nullptr) {
          ++a->polls;
          a->empty_polls += d.items.empty() ? 1 : 0;
          if (traced) a->poll_rtt_us.push_back(us_between(p0, p1));
        }
        for (const auto& item : d.items) {
          if (item.seq != i ||
              item.value.as<std::int64_t>() != static_cast<std::int64_t>(i))
            throw std::runtime_error("delivered item out of order or altered");
          got = true;
        }
        if (d.ended != 0) throw std::runtime_error("stream ended early");
      }
      if (a != nullptr) {
        const double lat = us_between(due, Clock::now());
        ++a->items;
        a->last_done = Clock::now();
        a->lag_us.push_back(us_between(due, sent));
        a->latency_us.push_back(lat);
        a->deliver_us.push_back(lat);
      }
    }
    if (sched.reps_traced > 0) read_channels(*client, f.spec.tenant, &f);
    f.items = i;
    drain_and_finish(s, &f, out);
    out->finished.push_back(std::move(f));
  };
  w.residual = [](Result& r) {
    const double codec_us = 2.0 *
                            (r.metrics["net.encode_ns_per_item"].value +
                             r.metrics["net.decode_ns_per_item"].value) /
                            1000.0;
    return r.metrics["latency_p50_us"].value -
           r.metrics["gen.lag_p50_us"].value - codec_us -
           r.metrics["exec.push_batch_us"].value -
           r.metrics["exec.poll_batch_us"].value;
  };
  return run_wire(cfg, std::move(w));
}

// ------------------------------------------------------------ open_churn
Result run_open_churn(const Config& cfg) {
  std::vector<net::OpenFrame> pool;
  pool.reserve(kChurnTopologies);
  for (std::size_t i = 0; i < kChurnTopologies; ++i)
    pool.push_back(relay_spec(cs4_chain(mix(cfg.seed, 1000 + i)),
                              mix(cfg.seed, 5000 + i)));

  WireWorkload w;
  // Set-up opens wire_filter's fixed chain, so its compile cost does not
  // change with the seed.
  w.setup_spec = relay_spec(cs4_chain(kFilterTopologySeed), mix(cfg.seed, 5000));
  w.probe_specs.assign(pool.begin(), pool.begin() + 16);
  w.probe_batches = 16 * (kChurnItems / kBatch);
  w.drive = [&pool, seed = cfg.seed](int conn, const std::string& path,
                                     const Schedule& sched, ConnOut* out) {
    auto client = connect(path);
    if (!client.has_value()) throw std::runtime_error("connect failed");
    const std::string tenant = "c" + std::to_string(conn);
    Prng draws(mix(seed, 200 + static_cast<std::uint64_t>(conn)));
    std::uint16_t id = 0;
    auto ready = Clock::now();
    for (;;) {
      const auto t0 = Clock::now();
      const int rep = sched.rep_of(t0);
      if (rep >= sched.reps()) break;
      RepStats* a = rep >= 0 ? &out->reps[static_cast<std::size_t>(rep)] : nullptr;
      const bool traced = sched.traced(rep);
      FinishedStream f;
      f.spec = pool[draws.next_below(pool.size())];
      f.spec.tenant = tenant;
      id = static_cast<std::uint16_t>(id == 0xFFFF ? 1 : id + 1);
      net::ClientStream s = client->open(id, f.spec);
      const auto t1 = Clock::now();
      ++out->opens;
      out->cache_hits += s.cache_hit() ? 1 : 0;
      ++out->attempted;
      if (a != nullptr) {
        a->latency_us.push_back(us_between(t0, t1));
        a->lag_us.push_back(us_between(ready, t0));
      }
      PushTimes pushed;
      std::uint64_t seq = 0;
      while (seq < kChurnItems) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, kChurnItems - seq));
        if (traced) time_codec(seq, n, &a->encode_ns, &a->decode_ns);
        const auto p0 = Clock::now();
        const net::PushAckFrame ack = s.push_some(0, values_from(seq, n));
        const auto p1 = Clock::now();
        ++out->attempted;
        if (ack.ended != 0) throw std::runtime_error("stream ended early");
        pushed.record(seq, p0);
        seq += ack.accepted;
        const net::DeliverFrame d = s.poll(0, kPollMax);
        const auto p2 = Clock::now();
        ++out->attempted;
        if (a != nullptr) {
          ++a->pushes;
          a->short_acks += ack.accepted < n ? 1 : 0;
          ++a->polls;
          a->empty_polls += d.items.empty() ? 1 : 0;
          if (traced) a->poll_rtt_us.push_back(us_between(p1, p2));
          for (const auto& item : d.items)
            a->deliver_us.push_back(us_between(pushed.of(item.seq), p2));
        }
      }
      // Every 8th traced stream samples the channel counters: a Stats page
      // per stream would dominate the traced reps.
      if (traced && id % 8 == 0) read_channels(*client, tenant, &f);
      f.items = seq;
      drain_and_finish(s, &f, out);
      ready = Clock::now();
      const int done_rep = sched.rep_of(ready);
      if (done_rep >= 0 && done_rep < sched.reps()) {
        RepStats& d = out->reps[static_cast<std::size_t>(done_rep)];
        d.items += kChurnItems;
        d.last_done = ready;
        ++d.streams;
      }
      out->finished.push_back(std::move(f));
    }
  };
  w.residual = [](Result& r) {
    // Open = compile on a miss + Session::open; the rest is socket, codec
    // and the event loop.
    const double miss = 1.0 - r.metrics["compile.cache_hit_ratio"].value;
    return r.metrics["latency_p50_us"].value -
           miss * r.metrics["compile.us_per_topology"].value -
           r.metrics["exec.open_us"].value;
  };
  return run_wire(cfg, std::move(w));
}

}  // namespace bench
