// churn-pagerank: the non-monotone regime. The deduplicated rmat-12 edge
// list arrives in 8 batches of adds. From batch 2 on, about a quarter of
// each batch is churn on pairs already present: in-place weight changes
// (make_weight_mutations), deletes, and re-adds of earlier deletes. Each
// batch is split with split_events_keyed (per-pair order kept) and ingested
// to quiescence by 3 ranks running PageRankDelta alone (memo-delta needs
// exclusive edge memos) at tolerance 1e-2. Every topology event costs
// hundreds of callbacks, so core dispatch and runtime messaging dominate;
// storage sees updates and erases rather than appends. After each batch
// the ranks are published through a QueryService and queried.
#include <unordered_map>

#include "remo/remo.hpp"
#include "serve/query_service.hpp"
#include "workloads.hpp"

namespace pb {

using namespace remo;

namespace {

constexpr std::uint32_t kScale = 12;
constexpr RankId kRanks = 3;
constexpr std::size_t kBatches = 8;
constexpr double kTolerance = 1e-2;
constexpr double kDamping = 0.85;
constexpr int kSetups = 5;  // before the run; one more after every repetition
constexpr std::size_t kQueriesPerBatch = 4000;
static_assert(kQueriesPerBatch % kQueryBatch == 0);

struct Inputs {
  std::vector<StreamSet> batches;
  std::uint64_t events = 0;
  Oracle oracle;  // rank: static PageRank on the final topology
};

/// Live edge set with uniform random picks (swap-remove vector + index).
class LiveEdges {
 public:
  void add(const Edge& e) {
    pos_[key(e)] = edges_.size();
    edges_.push_back(e);
  }
  Edge remove_at(std::size_t i) {
    const Edge out = edges_[i];
    pos_.erase(key(out));
    if (i + 1 != edges_.size()) {
      edges_[i] = edges_.back();
      pos_[key(edges_[i])] = i;
    }
    edges_.pop_back();
    return out;
  }
  void set_weight(const EdgeEvent& e) { edges_[pos_.at(key(e))].weight = e.weight; }
  const EdgeList& edges() const { return edges_; }

 private:
  static std::uint64_t key(const Edge& e) {
    return event_pair_key(EdgeEvent{e.src, e.dst, 1, EdgeOp::kAdd});
  }
  static std::uint64_t key(const EdgeEvent& e) { return event_pair_key(e); }
  EdgeList edges_;
  std::unordered_map<std::uint64_t, std::size_t> pos_;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  LiveEdges live;
  std::vector<VertexId> touched;
  {
    auto s = tracer().span("gen.generate");
    Xoshiro256 rng(seed);
    EdgeList adds;
    RobinHoodMap<std::uint64_t, std::uint8_t> seen;
    for (const Edge& e : make_rmat(kScale, seed).edges) {
      if (e.src == e.dst) continue;
      if (seen.find_or_emplace(event_pair_key(EdgeEvent{e.src, e.dst, 1, EdgeOp::kAdd}),
                               [] { return std::uint8_t{1}; })
              .second)
        adds.push_back({e.src, e.dst, static_cast<Weight>(1 + rng.bounded(8))});
    }
    for (std::size_t i = adds.size(); i > 1; --i)
      std::swap(adds[i - 1], adds[rng.bounded(i)]);
    for (const Edge& e : adds) {
      touched.push_back(e.src);
      touched.push_back(e.dst);
    }

    EdgeList deleted;
    const std::size_t per_batch = adds.size() / kBatches;
    for (std::size_t b = 0; b < kBatches; ++b) {
      const std::size_t lo = b * per_batch;
      const std::size_t hi = b + 1 == kBatches ? adds.size() : lo + per_batch;
      std::vector<EdgeEvent> events;
      for (std::size_t i = lo; i < hi; ++i) {
        events.push_back({adds[i].src, adds[i].dst, adds[i].weight, EdgeOp::kAdd});
        live.add(adds[i]);
      }
      if (b > 0) {
        // A third of the adds again as churn: a quarter of the batch.
        const std::size_t churn = (hi - lo) / 3;
        for (const EdgeEvent& m : make_weight_mutations(
                 live.edges(), {.num_events = static_cast<std::uint32_t>(churn / 2),
                                .min_weight = 1,
                                .max_weight = 8,
                                .seed = seed + b})) {
          events.push_back(m);
          live.set_weight(m);
        }
        for (std::size_t j = churn / 2; j < churn; ++j) {
          if (j % 2 == 0 || deleted.empty()) {
            const Edge d = live.remove_at(rng.bounded(live.edges().size()));
            events.push_back({d.src, d.dst, d.weight, EdgeOp::kDelete});
            deleted.push_back(d);
          } else {
            const std::size_t k = rng.bounded(deleted.size());
            const Edge a = deleted[k];
            deleted[k] = deleted.back();
            deleted.pop_back();
            events.push_back({a.src, a.dst, a.weight, EdgeOp::kAdd});
            live.add(a);
          }
        }
        events = permute_preserving_pairs(std::move(events), seed + b);
      }
      in.events += events.size();
      in.batches.push_back(split_events_keyed(std::move(events), kRanks, seed + b));
    }
  }
  {
    auto s = tracer().span("graph.oracle");
    const CsrGraph g = CsrGraph::build(with_reverse_edges(live.edges()));
    in.oracle.ids = vertex_ids(g);
    in.oracle.rank = static_pagerank(g, {.damping = kDamping, .eps = 1e-12});
    // Vertices every edge of which was deleted hold the base mass.
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const VertexId v : touched)
      if (g.dense_of(v) == CsrGraph::kNoVertex) {
        in.oracle.ids.push_back(v);
        in.oracle.rank.push_back(1.0 - kDamping);
      }
  }
  return in;
}

struct Pass {
  std::vector<double> eps, tail_ms, fresh_ms, refresh_ms, direct_ms, rank_err_p99,
      rss_mb;
  double rank_err_max = 0;
  QueryTimes q;
  Checks checks;
  EngineLayers layers;
};

/// Ingest every batch to quiescence on a fresh engine, publishing and
/// querying after each, then check the final ranks against the oracle.
void run_once(const Inputs& in, RankId ranks, bool probe, bool traced,
              std::uint64_t seed, Pass& p) {
  auto rep = tracer().span("bench.repetition");
  std::unique_ptr<Engine> e;
  std::unique_ptr<serve::QueryService> qs;
  ProgramId pr = 0;
  std::shared_ptr<PageRankDelta> prog;
  reset_peak_rss();
  {
    auto s = tracer().span("gen.preload");
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    e = std::make_unique<Engine>(cfg);
    std::tie(pr, prog) = e->attach_make<PageRankDelta>(
        PageRankDelta::Options{.damping = kDamping, .tolerance = kTolerance});
    if (probe) {
      qs = std::make_unique<serve::QueryService>(
          *e, serve::QueryServiceConfig{.refresh_period_ms = 0});
      qs->serve(pr, serve::ViewRole::kRank);
    }
  }
  Xoshiro256 rng(seed ^ 0x2545f4914f6cdd1dULL);
  const auto& ids = in.oracle.ids;
  double ingest_s = 0;
  for (const StreamSet& batch : in.batches) {
    const std::uint64_t target = e->ingested_watermark() + batch.total_events();
    double t0 = 0;
    TailStamps ts;
    {
      auto s = tracer().span("core.ingest");
      t0 = now_s();
      e->ingest_async(batch);
      ts = await_tail(*e, target, target - batch.total_events() / 200);
      e->await_quiescence();
      s.set_count(batch.total_events());
    }
    ingest_s += ts.quiescent_s - t0;
    p.tail_ms.push_back((ts.quiescent_s - ts.accepted_s) * 1e3);
    if (!probe) continue;
    {
      auto s = tracer().span("serve.refresh_all");
      const double a = now_s();
      qs->refresh_all();
      const double b = now_s();
      p.refresh_ms.push_back((b - a) * 1e3);
      p.fresh_ms.push_back((b - t0) * 1e3);
    }
    if (traced) {
      auto s = tracer().span("core.collect_versioned");
      const double a = now_s();
      (void)e->collect_versioned(pr);
      p.direct_ms.push_back((now_s() - a) * 1e3);
    }
    // Even calls are rank_of(v[i]), odd ones top_k_rank; drawn before timing.
    std::vector<VertexId> v(kQueriesPerBatch);
    for (VertexId& x : v) x = ids[rng.bounded(ids.size())];
    const auto query = [&](std::size_t i) -> std::uint64_t {
      if (i % 2 == 0) return qs->rank_of(pr, v[i], kDamping) > 0.0;
      return qs->top_k_rank(pr, 10, kDamping).size();
    };
    auto s = tracer().span("serve.queries");
    if (traced) {
      for (std::size_t i = 0; i < kQueriesPerBatch; ++i)
        p.q.time(i % 2 == 0 ? kRank : kTopK, [&] { return query(i); });
    } else {
      for (std::size_t i = 0; i < kQueriesPerBatch; i += kQueryBatch)
        p.q.time_batch(i, kQueryBatch, query);
    }
    s.set_count(kQueriesPerBatch);
  }
  p.eps.push_back(static_cast<double>(in.events) / ingest_s);

  {
    auto s = tracer().span("core.check");
    const RankCheck rc = compare_rank(
        ids, in.oracle.rank,
        [&](VertexId v) { return prog->rank_of(e->state_of(pr, v)); }, kRankErrBound);
    p.checks.add("pagerank_vs_static_pagerank", rc.count);
    p.rank_err_p99.push_back(tail(rc.rel_err).value);
    for (const double x : rc.rel_err) p.rank_err_max = std::max(p.rank_err_max, x);
    if (probe) {
      // The last publication, made at quiescence, must show the same.
      const auto view = qs->view(pr);
      p.checks.add("pagerank_view_vs_static_pagerank",
                   compare_rank(ids, in.oracle.rank,
                                [&](VertexId v) { return prog->rank_of(view->at(v)); },
                                kRankErrBound)
                       .count);
    }
  }
  if (traced) p.layers = read_engine_layers(*e, static_cast<double>(in.events));
  p.rss_mb.push_back(peak_rss_mb());
  qs.reset();
  auto s = tracer().span("core.teardown");
  e.reset();
  release_memory();
}

}  // namespace

Report run_churn(const Args& args) {
  Report r;
  if (!args.trace) {
    std::vector<double> setup_s;
    const auto time_setup = [&](Inputs& into) {
      into = Inputs{};
      release_memory();
      const double t0 = now_s();
      into = make_inputs(args.seed);
      setup_s.push_back(now_s() - t0);
    };
    Inputs in, extra;
    for (int i = 0; i < kSetups; ++i) time_setup(in);
    // One repetition first, checked but not timed: it faults in the heap
    // and warms the caches for the ones that follow.
    Pass warm, p;
    run_once(in, kRanks, true, false, args.seed, warm);
    // A set-up takes 0.1 s, and the host's speed drifts over seconds: one
    // more set-up after every repetition makes setup_s a median over the
    // whole run rather than over its first second.
    repeat_for(args.seconds, [&] {
      run_once(in, kRanks, true, false, args.seed, p);
      time_setup(extra);
      extra = Inputs{};
      release_memory();
    });
    r.checks = warm.checks;
    r.checks.add(p.checks);
    add_end_to_end(r, median(p.eps), p.q.us, p.refresh_ms, p.fresh_ms,
                   median(setup_s), median(p.rss_mb));
    r.meta["runs"] = static_cast<std::uint64_t>(p.eps.size());
    r.meta["events"] = in.events;
    r.meta["rank_err_p99"] = median(p.rank_err_p99);
    r.meta["rank_err_max"] = p.rank_err_max;
    r.meta["rank_err_bound"] = kRankErrBound;
    remo::Json eps = remo::Json::array();
    for (const double x : p.eps) eps.push_back(x);
    r.meta["ingest_events_per_s"] = std::move(eps);
    return r;
  }

  tracer().enable(true);
  const Inputs in = make_inputs(args.seed);
  tracer().enable(false);
  Pass warm, plain, traced, one_rank;
  run_once(in, kRanks, true, false, args.seed, warm);
  repeat_for(args.seconds / 2,
             [&] { run_once(in, kRanks, true, false, args.seed, plain); });
  tracer().enable(true);
  repeat_for(args.seconds / 2,
             [&] { run_once(in, kRanks, true, true, args.seed, traced); });
  run_once(in, 1, false, false, args.seed, one_rank);
  r.checks = warm.checks;
  r.checks.add(plain.checks);
  r.checks.add(traced.checks);
  r.checks.add(one_rank.checks);

  std::vector<const StreamSet*> sets;
  for (const StreamSet& b : in.batches) sets.push_back(&b);
  LayerInputs li;
  li.engine = traced.layers;
  li.storage = replay_storage(sets, kRanks);
  li.comm = replay_comm(sets, kRanks, 2'000'000);
  li.tail_ms = traced.tail_ms;
  li.direct_collect_ms = traced.direct_ms;
  li.refresh_ms = traced.refresh_ms;
  li.scaling_vs_1rank = median(traced.eps) / median(one_rank.eps);
  li.trace_overhead_frac = median(plain.eps) / median(traced.eps) - 1.0;
  li.generate_s = tracer().total_s("gen.generate");
  li.preload_s = median(tracer().durations_s("gen.preload"));
  li.oracle_s = tracer().total_s("graph.oracle");
  for (int k = 0; k < 4; ++k) li.query_ns[k] = median(traced.q.ns[k]);
  li.rank_err_p99 = median(traced.rank_err_p99);
  add_layer_metrics(r, li);
  return r;
}

}  // namespace pb
