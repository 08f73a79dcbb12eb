#include "oracle.h"

#include <sstream>

#include "src/core/compile.h"
#include "src/exec/session.h"
#include "src/net/workload.h"

namespace bench {

using namespace sdaf;

std::string compare_reports(const exec::RunReport& got,
                            const exec::RunReport& want) {
  std::ostringstream o;
  if (got.completed != want.completed || got.deadlocked != want.deadlocked) {
    o << "verdict completed=" << got.completed
      << " deadlocked=" << got.deadlocked << ", Sim says completed="
      << want.completed << " deadlocked=" << want.deadlocked;
    return o.str();
  }
  if (got.edges.size() != want.edges.size()) return "edge count differs";
  for (std::size_t e = 0; e < got.edges.size(); ++e) {
    if (got.edges[e].data != want.edges[e].data ||
        got.edges[e].dummies != want.edges[e].dummies) {
      o << "edge " << e << " data/dummies " << got.edges[e].data << "/"
        << got.edges[e].dummies << ", Sim says " << want.edges[e].data << "/"
        << want.edges[e].dummies;
      return o.str();
    }
  }
  if (got.sink_data != want.sink_data) return "sink_data differs";
  return {};
}

exec::RunReport sim_reference(const StreamGraph& g,
                              const KernelFactory& kernels,
                              runtime::DummyMode mode, std::uint64_t n) {
  exec::RunSpec spec;
  spec.backend = exec::Backend::Sim;
  spec.mode = mode;
  spec.num_inputs = n;
  if (mode != runtime::DummyMode::None) {
    core::CompileOptions options;
    options.algorithm = mode == runtime::DummyMode::NonPropagation
                            ? core::Algorithm::NonPropagation
                            : core::Algorithm::Propagation;
    spec.apply(core::compile(g, options));
  }
  exec::Session session(g, kernels(g));
  return session.run(spec);
}

std::string WireOracle::check(const net::OpenFrame& spec, std::uint64_t n,
                              const exec::RunReport& got) {
  net::OpenFrame ref = spec;
  if (pass_override_ >= 0.0) {
    ref.kernel = net::KernelKind::Relay;
    ref.pass_rate = pass_override_;
  }
  std::ostringstream key;
  key << static_cast<int>(ref.mode) << '|' << static_cast<int>(ref.kernel)
      << '|' << ref.pass_rate << '|' << ref.seed << '|' << n << '|'
      << ref.topology;
  exec::RunReport want;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = memo_.find(key.str());
    if (it != memo_.end()) return compare_reports(got, it->second);
  }
  const auto graph = net::parse_topology(ref.topology);
  if (!graph.has_value()) return "topology does not parse";
  want = sim_reference(
      *graph,
      [&ref](const StreamGraph& g) { return net::make_kernels(g, ref); },
      static_cast<runtime::DummyMode>(ref.mode), n);
  std::string verdict = compare_reports(got, want);
  std::lock_guard<std::mutex> lock(mu_);
  memo_.emplace(key.str(), std::move(want));
  return verdict;
}

}  // namespace bench
