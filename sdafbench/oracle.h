// The correctness oracle: replays a stream's (topology, kernel spec, seed,
// accepted item count) on exec::Backend::Sim and compares the verdict, the
// per-edge data/dummy counts and sink_data with what the measured backend
// reported. A port-fed stream that accepted N items and closed is
// bit-identical to the Sim batch run of num_inputs = N (the repository's
// differential harness pins that equivalence), so the replay uses the batch
// adapter.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/exec/run_types.h"
#include "src/graph/stream_graph.h"
#include "src/net/frame.h"
#include "src/runtime/kernel.h"

namespace bench {

using KernelFactory =
    std::function<std::vector<std::shared_ptr<sdaf::runtime::Kernel>>(
        const sdaf::StreamGraph&)>;

// Empty when `got` matches `want` on completed/deadlocked, per-edge data
// and dummies, and sink_data; otherwise a one-line description.
[[nodiscard]] std::string compare_reports(const sdaf::exec::RunReport& got,
                                          const sdaf::exec::RunReport& want);

// The Sim reference of `n` items through `g` with avoidance `mode`
// (compiled here, Floor rounding, exactly as sdafd and Session compile).
[[nodiscard]] sdaf::exec::RunReport sim_reference(
    const sdaf::StreamGraph& g, const KernelFactory& kernels,
    sdaf::runtime::DummyMode mode, std::uint64_t n);

// Memoizing oracle for wire streams: the reference depends only on the
// OpenFrame's workload fields and the item count, so repeated
// (topology, spec, n) triples replay once. Thread-safe.
class WireOracle {
 public:
  // pass_override >= 0 builds the reference from Relay kernels at that pass
  // rate instead of the spec's kernels (the self-test's deliberately wrong
  // reference).
  explicit WireOracle(double pass_override) : pass_override_(pass_override) {}

  // Empty = the stream's report matches the Sim replay.
  [[nodiscard]] std::string check(const sdaf::net::OpenFrame& spec,
                                  std::uint64_t n,
                                  const sdaf::exec::RunReport& got);

 private:
  double pass_override_;
  std::mutex mu_;
  std::map<std::string, sdaf::exec::RunReport> memo_;
};

}  // namespace bench
