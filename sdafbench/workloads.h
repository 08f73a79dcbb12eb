// The four workloads. Each takes its inputs from Config::seed, measures for
// Config::seconds and returns every metric it produced; see README.md for
// what each metric means on each workload.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "src/exec/run_types.h"
#include "src/graph/stream_graph.h"

namespace bench {

// Measurement repetitions inside one run. The first `reps_untraced` are
// plain end-to-end windows; in a traced run `reps_traced` more follow with
// the spans and counter reads switched on.
struct Schedule {
  Clock::time_point start;  // end of warm-up = start of repetition 0
  double rep_seconds = 1.0;
  int reps_untraced = 5;
  int reps_traced = 0;

  [[nodiscard]] int reps() const { return reps_untraced + reps_traced; }
  // Repetition containing `t`: -1 during warm-up, reps() after the end.
  [[nodiscard]] int rep_of(Clock::time_point t) const;
  [[nodiscard]] bool traced(int rep) const {
    return rep >= reps_untraced && rep < reps();
  }
  [[nodiscard]] Clock::time_point at(int rep) const;
  [[nodiscard]] Clock::time_point end() const { return at(reps()); }
};

[[nodiscard]] Schedule make_schedule(const Config& cfg, double warmup_seconds);

// What one repetition measured, summed over a workload's connections.
struct RepStats {
  std::uint64_t items = 0;
  std::uint64_t pushes = 0;
  std::uint64_t short_acks = 0;
  std::uint64_t polls = 0;
  std::uint64_t empty_polls = 0;
  std::uint64_t streams = 0;
  Clock::time_point last_done{};   // when the rep's last item completed
  std::vector<double> latency_us;  // the workload's headline latency
  std::vector<double> lag_us;      // generator lateness
  std::vector<double> deliver_us;  // push (or due time) -> delivered
  std::vector<double> poll_rtt_us;
  std::vector<double> push_us;
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;

  void merge(const RepStats& o);
};

// Push times of accepted items, for push -> delivered latencies. Items are
// delivered in sequence order, so a cursor walks the list once.
class PushTimes {
 public:
  void record(std::uint64_t first_seq, Clock::time_point t) {
    marks_.emplace_back(first_seq, t);
  }
  [[nodiscard]] Clock::time_point of(std::uint64_t seq) {
    while (cursor_ + 1 < marks_.size() && marks_[cursor_ + 1].first <= seq)
      ++cursor_;
    return marks_[cursor_].second;
  }

 private:
  std::vector<std::pair<std::uint64_t, Clock::time_point>> marks_;
  std::size_t cursor_ = 0;
};

// Items per second of one repetition: items over the time from the rep's
// start to its last completion (0 when nothing completed).
[[nodiscard]] double items_per_second(std::uint64_t items,
                                      Clock::time_point from,
                                      Clock::time_point last_done);

[[nodiscard]] Result run_wire_filter(const Config& cfg);
[[nodiscard]] Result run_wire_interactive(const Config& cfg);
[[nodiscard]] Result run_open_churn(const Config& cfg);
[[nodiscard]] Result run_inproc_fanout(const Config& cfg);

// The exec layer timed in-process on a workload's own stream: a Pooled
// Session on a private pool of `workers`, `streams` streams of
// `batches` push_batch calls of `batch` items each, one every `pace`
// (zero = back to back), polling after every push (and, with
// wait_delivery, until the batch's items are out).
struct ExecProbe {
  double open_us = 0.0;        // median Session::open
  double push_batch_us = 0.0;  // median InputPort::push_batch
  double poll_batch_us = 0.0;  // median OutputPort::poll_batch
  double finish_us = 0.0;      // median close + Stream::finish
  // Each stream's accepted item count and report, for the oracle.
  std::vector<std::pair<std::uint64_t, sdaf::exec::RunReport>> streams;
};
[[nodiscard]] ExecProbe probe_exec(const sdaf::StreamGraph& g,
                                   const KernelFactory& kernels,
                                   const sdaf::exec::RunSpec& compiled,
                                   std::size_t workers, std::size_t batch,
                                   std::size_t batches, std::size_t streams,
                                   bool wait_delivery, Clock::duration pace);

// Median microseconds of core::compile(g) over `times` calls.
[[nodiscard]] double time_compile_us(const sdaf::StreamGraph& g, int times);

// Times net::encode / net::decode_push_batch of the PushBatch frame
// carrying `items` int64 values from `first_seq` on; appends ns per item.
void time_codec(std::uint64_t first_seq, std::size_t items,
                std::vector<double>* encode_ns, std::vector<double>* decode_ns);

}  // namespace bench
