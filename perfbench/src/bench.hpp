// Shared pieces of the repository benchmark: run arguments, the
// statistics rules, the correctness comparators, the span tracer, the
// per-layer replays and the result record every workload fills in.
//
// The benchmark drives only the public API of the remo library. Nothing
// inside the library is instrumented: every span is recorded here, around
// the calls the benchmark makes into a layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "core/engine.hpp"
#include "gen/stream.hpp"
#include "graph/csr.hpp"

namespace pb {

using remo::StateWord;
using remo::VertexId;

// --- run arguments -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

// --- clocks ------------------------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Peak resident set of this process since the last reset_peak_rss() (or
/// since start), in MiB.
double peak_rss_mb();

/// Restart the peak-resident-set high-water mark, so that each repetition's
/// peak can be read on its own. A no-op where the kernel does not allow it;
/// the peak then covers the whole process.
void reset_peak_rss();

/// Hand freed heap memory back to the system, so that every repetition
/// starts from the same resident set rather than from the last one's
/// fragments (which would make the peak depend on allocation history).
void release_memory();

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v);

/// A tail percentile as reported: the value, the percentile it really is
/// and the sample count it came from.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t n = 0;
};

/// 1-based nearest rank of the reported tail: the rank of percentile `want`,
/// lowered until at least 10 samples lie beyond it, but never below the
/// median's rank. 0 for an empty sample.
std::size_t tail_rank(std::size_t n, double want);

/// The percentile rule: the highest percentile <= `want` that has at least
/// ten samples beyond it (the median when the sample is too small).
Tail tail(std::vector<double> v, double want = 99.0);

// --- freshness ---------------------------------------------------------------

/// A write batch: when it was due to be sent, and the ingested watermark
/// read right after the gate admitted it (which covers every event in it).
struct BatchStamp {
  double sched_s = 0.0;
  std::uint64_t watermark = 0;
};

/// A publication: when it became readable, and the watermark every view
/// published by it covers (the minimum over the served programs).
struct PublishStamp {
  double t_s = 0.0;
  std::uint64_t watermark = 0;
};

struct Freshness {
  std::vector<double> ms;     ///< per covered batch: scheduled send -> readable
  std::size_t uncovered = 0;  ///< batches no publication covered
};

/// Match every batch to the first publication whose watermark covers it.
/// Publications must be in time order with non-decreasing watermarks.
Freshness match_freshness(const std::vector<BatchStamp>& batches,
                          const std::vector<PublishStamp>& publishes);

// --- correctness -------------------------------------------------------------

struct CheckCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const CheckCount& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// The correctness tally of a run, by check name.
struct Checks {
  std::vector<std::pair<std::string, CheckCount>> by_name;
  void add(const std::string& name, const CheckCount& c);
  void add(const Checks& other);
  CheckCount total() const;
};

/// Exact comparison of per-vertex states against an oracle: ids[i] must
/// read want[i] through `got`.
CheckCount compare_exact(const std::vector<VertexId>& ids,
                         const std::vector<StateWord>& want,
                         const std::function<StateWord(VertexId)>& got);

/// Relative error of each vertex's rank against the oracle; a vertex whose
/// error exceeds `bound` fails.
struct RankCheck {
  CheckCount count;
  std::vector<double> rel_err;
};
RankCheck compare_rank(const std::vector<VertexId>& ids,
                       const std::vector<double>& want,
                       const std::function<double(VertexId)>& got,
                       double bound);

/// Per-vertex expected states on a final topology: the vertices to check
/// (the CSR's in dense order, then any that lost every edge) and one oracle
/// vector per program, aligned with them.
struct Oracle {
  std::vector<VertexId> ids;
  std::vector<std::vector<StateWord>> exact;  ///< one per exact program
  std::vector<double> rank;                   ///< PageRank, when checked
};

/// Vertex ids of `g` in dense order.
std::vector<VertexId> vertex_ids(const remo::CsrGraph& g);

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder. Each thread appends to its own buffer; a span's
/// parent is the innermost open span of the same thread. Spans are written
/// out once, at exit. Disabled, a span costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index in the same thread's buffer
    std::uint32_t thread = 0;
    std::uint64_t count = 1;   ///< operations the span covers
  };

  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* t, std::size_t idx) : t_(t), idx_(idx) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    /// Record how many operations the span covered.
    void set_count(std::uint64_t n);

   private:
    Tracer* t_ = nullptr;
    std::size_t idx_ = 0;
  };

  struct Buffer;  ///< one thread's spans (defined in tracer.cpp)

  void enable(bool on) { on_ = on; }

  /// Open a span named `name` (a string literal) on the calling thread.
  [[nodiscard]] Scope span(const char* name);

  /// Sum of durations (seconds), and each duration, of the spans named
  /// `name`.
  double total_s(const std::string& name) const;
  std::vector<double> durations_s(const std::string& name) const;

  /// Write every span as JSON (with `meta`) to `path`. False on I/O error.
  bool write(const std::string& path, const remo::Json& meta) const;

 private:
  Buffer& local();
  void close(std::size_t idx);
  void set_count(std::size_t idx, std::uint64_t n);

  bool on_ = false;
};

Tracer& tracer();

// --- per-layer replays -------------------------------------------------------

/// Standalone DegAwareStore replay of each rank's share of `events` (in
/// the given order, partitioned with the engine's Partitioner, both arcs of
/// every undirected edge), one rank at a time on one thread.
struct StorageCost {
  double op_ns = 0.0;            ///< per replayed insert (erase for deletes)
  double erase_ns = 0.0;         ///< per erase of every 4th stored arc
  double scan_ns_per_arc = 0.0;  ///< full adjacency scan
  double ops_per_event = 0.0;    ///< store operations per topology event
};
StorageCost replay_storage(const std::vector<const remo::StreamSet*>& sets,
                           remo::RankId ranks);

/// Comm replay: one Update visitor per arc of the first `max_visitors`
/// events, sent between the arcs' owners in chunks, flushed, then drained.
struct CommCost {
  double send_ns = 0.0;   ///< per visitor, send + flush
  double drain_ns = 0.0;  ///< per visitor
};
CommCost replay_comm(const std::vector<const remo::StreamSet*>& sets,
                     remo::RankId ranks, std::size_t max_visitors);

// --- workload helpers --------------------------------------------------------

/// Run `rep` at least once and until `seconds` have passed.
template <typename Fn>
void repeat_for(double seconds, Fn&& rep) {
  const double t0 = now_s();
  do {
    rep();
  } while (now_s() - t0 < seconds);
}

/// The two instants a tail is measured between: the engine's ingested
/// watermark reaching `target`, and the engine going idle after it.
struct TailStamps {
  double accepted_s = 0;
  double quiescent_s = 0;
};

/// Stamp both instants. Sleeps 1 ms between polls while the watermark is
/// below `spin_from` (so the poller barely competes with the ranks), then
/// spins, yielding the core, so both stamps land within microseconds of the
/// event even when the tail itself is that short.
TailStamps await_tail(const remo::Engine& e, std::uint64_t target,
                      std::uint64_t spin_from);

enum QueryKind : int {
  kDistance = 0,
  kComponent = 1,
  kConnected = 2,
  kTopK = 3,
  kRank = 4,  ///< rank_of: timed, but no per-layer metric of its own
};

/// Query timings in microseconds (one sample per timed call, or per timed
/// batch: the batch's mean call time), and per kind in nanoseconds.
struct QueryTimes {
  std::vector<double> us;
  std::vector<double> ns[5];
  std::uint64_t sink = 0;  ///< folds the answers so no call is dead code

  template <typename Fn>
  void time(QueryKind kind, Fn&& query) {
    const std::uint64_t t0 = now_ns();
    sink += static_cast<std::uint64_t>(query());
    const double d = static_cast<double>(now_ns() - t0);
    us.push_back(d * 1e-3);
    ns[kind].push_back(d);
  }

  /// Time the calls query(first) .. query(first + n - 1) together and record
  /// their mean call time. A call of a few hundred nanoseconds timed alone
  /// is mostly clock overhead, and the median of a mix of cheap and costly
  /// kinds falls between the kinds' modes; a batch mean is neither.
  template <typename Fn>
  void time_batch(std::size_t first, std::size_t n, Fn&& query) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = first; i < first + n; ++i)
      sink += static_cast<std::uint64_t>(query(i));
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3 / static_cast<double>(n));
  }
};

/// Calls timed together in one sample of query_us_p50/p99 (grow, churn).
inline constexpr std::size_t kQueryBatch = 16;

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: its metrics, the correctness tally,
/// write batches that missed their schedule, and descriptive metadata.
struct Report {
  std::vector<Metric> metrics;
  Checks checks;
  std::uint64_t late_batches = 0;
  remo::Json meta = remo::Json::object();

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Add a tail metric and note its effective percentile in meta.
  void add_tail(const std::string& name, const Tail& t, const std::string& unit);
};

/// The end-to-end block every workload reports, from its raw samples:
/// query call times (us), refresh_all call times (ms), batch freshness (ms).
void add_end_to_end(Report& r, double events_per_s,
                    const std::vector<double>& query_us,
                    const std::vector<double>& collect_ms,
                    const std::vector<double>& fresh_ms, double setup_s,
                    double peak_rss_mb);

/// Per-layer metrics read from one engine after its run: runtime ratios
/// and core phase accounting. `events` is the number of topology events the
/// benchmark fed the engine.
struct EngineLayers {
  double msgs_per_event = 0, remote_frac = 0, coalesced_frac = 0,
         overflow_frac = 0, control_per_event = 0;
  double callbacks_per_event = 0, busy_ns_per_event = 0, idle_frac = 0,
         update_ns_p99 = 0, bytes_per_arc = 0;
};
EngineLayers read_engine_layers(const remo::Engine& e, double events);

/// Everything a traced run measures beside the end-to-end numbers: the
/// per-layer block every workload reports under the same names. A value a
/// workload never exercises (a query kind no served program answers) stays
/// 0.
struct LayerInputs {
  EngineLayers engine;
  StorageCost storage;
  CommCost comm;
  std::vector<double> direct_collect_ms;  ///< Engine::collect_versioned calls
  std::vector<double> refresh_ms;         ///< QueryService::refresh_all calls
  std::vector<double> tail_ms;  ///< last event accepted -> quiescence
  double scaling_vs_1rank = 0;
  double trace_overhead_frac = 0;
  double generate_s = 0, preload_s = 0, oracle_s = 0;
  /// Median call time per query kind: distance, component, connected, top_k.
  double query_ns[4] = {0, 0, 0, 0};
  double rank_err_p99 = 0;
};
void add_layer_metrics(Report& r, const LayerInputs& in);

}  // namespace pb
