// The benchmark's workloads. Each builds its inputs from the seed, runs for
// the requested time and returns its end-to-end metrics (untraced run) or
// its per-layer metrics (traced run), with the correctness tally.
#pragma once

#include "bench.hpp"

namespace pb {

Report run_grow(const Args& args);
Report run_serve_mixed(const Args& args);
Report run_churn(const Args& args);

/// Relative error above which a served PageRank score counts as wrong.
/// BENCHMARK.json states the same bound in the churn workload's entry.
inline constexpr double kRankErrBound = 0.25;

}  // namespace pb
