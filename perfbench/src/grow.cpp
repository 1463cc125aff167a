// grow-bfs-cc: the paper's headline regime (Section V-A). The rmat-17 edge
// list is ingested from three streams at saturation (closed loop: each rank
// pulls its next event when its local work drains) with DynamicBfs and
// DynamicCc live. Three ranks plus the thread that drives them fill the
// four cores the workload is allowed. Storage inserts and runtime
// sends/drains do most of the work. After each ingest the final
// state is served once through a QueryService, so the serving metrics are
// also read here, on a large quiescent graph.
#include "remo/remo.hpp"
#include "serve/query_service.hpp"
#include "workloads.hpp"

namespace pb {

using namespace remo;

namespace {

constexpr std::uint32_t kScale = 17;
constexpr RankId kRanks = 3;
constexpr int kSetups = 3;
constexpr int kRefreshes = 4;      // publications per ingest
constexpr std::size_t kQueries = 30000;  // point queries per ingest
static_assert(kQueries % kQueryBatch == 0);

struct Inputs {
  StreamSet streams;
  VertexId source = 0;
  Oracle oracle;  // exact[0] = BFS levels, exact[1] = CC labels
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  EdgeList edges;
  {
    auto s = tracer().span("gen.generate");
    edges = make_rmat(kScale, seed).edges;
    in.streams = make_streams(edges, kRanks, {.shuffle = true, .seed = seed});
  }
  {
    auto s = tracer().span("graph.oracle");
    const CsrGraph g = CsrGraph::build(with_reverse_edges(edges));
    // BFS from the highest-degree vertex: it joins the giant component with
    // its first edges, so the traversal grows with the graph instead of
    // arriving in one late wave whose timing depends on the draw.
    CsrGraph::Dense hub = 0;
    for (CsrGraph::Dense v = 1; v < g.num_vertices(); ++v)
      if (g.degree(v) > g.degree(hub)) hub = v;
    in.source = g.external_of(hub);
    in.oracle.ids = vertex_ids(g);
    in.oracle.exact.push_back(static_bfs(g, g.dense_of(in.source)));
    in.oracle.exact.push_back(static_cc_union_find(g));
  }
  return in;
}

struct Pass {
  std::vector<double> eps, tail_ms, fresh_ms, refresh_ms, direct_ms, rss_mb;
  QueryTimes q;
  Checks checks;
  EngineLayers layers;  // of the last ingest
};

/// Build an engine, ingest the streams to quiescence, then serve and check
/// the result. `probe` adds the serving probe; `traced` alternates each
/// publication with direct versioned collections.
void ingest_once(const Inputs& in, RankId ranks, bool probe, bool traced,
                 Pass& p, std::uint64_t seed) {
  auto rep = tracer().span("bench.repetition");
  std::unique_ptr<Engine> e;
  std::unique_ptr<serve::QueryService> qs;
  ProgramId bfs = 0, cc = 0;
  reset_peak_rss();
  {
    auto s = tracer().span("gen.preload");
    EngineConfig cfg;
    cfg.num_ranks = ranks;
    e = std::make_unique<Engine>(cfg);
    bfs = e->attach_make<DynamicBfs>(in.source).first;
    cc = e->attach_make<DynamicCc>().first;
    if (probe) {
      qs = std::make_unique<serve::QueryService>(
          *e, serve::QueryServiceConfig{.refresh_period_ms = 0});
      qs->serve(bfs, serve::ViewRole::kDistance);
      qs->serve(cc, serve::ViewRole::kComponent);
    }
    e->inject_init(bfs, in.source);
  }
  const std::uint64_t target =
      e->ingested_watermark() + in.streams.total_events();
  double t0 = 0;
  TailStamps ts;
  {
    auto s = tracer().span("core.ingest");
    t0 = now_s();
    e->ingest_async(in.streams);
    ts = await_tail(*e, target, target - in.streams.total_events() / 200);
    e->await_quiescence();
    s.set_count(in.streams.total_events());
  }
  p.eps.push_back(static_cast<double>(in.streams.total_events()) /
                  (ts.quiescent_s - t0));
  p.tail_ms.push_back((ts.quiescent_s - ts.accepted_s) * 1e3);

  if (probe) {
    for (int i = 0; i < kRefreshes; ++i) {
      {
        auto s = tracer().span("serve.refresh_all");
        const double a = now_s();
        qs->refresh_all();
        const double b = now_s();
        p.refresh_ms.push_back((b - a) * 1e3);
        if (i == 0) p.fresh_ms.push_back((b - t0) * 1e3);
      }
      if (traced) {
        auto s = tracer().span("core.collect_versioned");
        const double a = now_s();
        (void)e->collect_versioned(bfs);
        (void)e->collect_versioned(cc);
        p.direct_ms.push_back((now_s() - a) * 1e3);
      }
    }
    // The query mix, drawn before any timing: call i is of kind i % 3
    // (distance, component_of, connected) on u[i] (and v[i]).
    Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    const auto& ids = in.oracle.ids;
    std::vector<VertexId> u(kQueries), v(kQueries);
    for (std::size_t i = 0; i < kQueries; ++i) {
      u[i] = ids[rng.bounded(ids.size())];
      v[i] = ids[rng.bounded(ids.size())];
    }
    const auto query = [&](std::size_t i) -> std::uint64_t {
      switch (i % 3) {
        case 0: return qs->distance(bfs, u[i]);
        case 1: return qs->component_of(cc, u[i]);
        default: return qs->connected(cc, u[i], v[i]);
      }
    };
    auto s = tracer().span("serve.queries");
    if (traced) {
      for (std::size_t i = 0; i < kQueries; ++i)
        p.q.time(static_cast<QueryKind>(i % 3), [&] { return query(i); });
    } else {
      for (std::size_t i = 0; i < kQueries; i += kQueryBatch)
        p.q.time_batch(i, kQueryBatch, query);
    }
    s.set_count(kQueries);
  }

  {
    auto s = tracer().span("core.check");
    p.checks.add("bfs_vs_static_bfs", compare_exact(in.oracle.ids, in.oracle.exact[0],
                               [&](VertexId v) { return e->state_of(bfs, v); }));
    p.checks.add("cc_vs_static_cc", compare_exact(in.oracle.ids, in.oracle.exact[1],
                               [&](VertexId v) { return e->state_of(cc, v); }));
    if (probe) {
      // The last publication, made at quiescence, must show the same.
      const auto bfs_view = qs->view(bfs);
      const auto cc_view = qs->view(cc);
      p.checks.add("bfs_view_vs_static_bfs",
                   compare_exact(in.oracle.ids, in.oracle.exact[0],
                                 [&](VertexId v) { return bfs_view->at(v); }));
      p.checks.add("cc_view_vs_static_cc",
                   compare_exact(in.oracle.ids, in.oracle.exact[1],
                                 [&](VertexId v) { return cc_view->at(v); }));
    }
  }
  if (traced)
    p.layers = read_engine_layers(*e, static_cast<double>(in.streams.total_events()));
  p.rss_mb.push_back(peak_rss_mb());
  qs.reset();
  auto s = tracer().span("core.teardown");
  e.reset();
  release_memory();
}

}  // namespace

Report run_grow(const Args& args) {
  Report r;
  if (!args.trace) {
    std::vector<double> setup_s;
    Inputs in;
    for (int i = 0; i < kSetups; ++i) {
      in = Inputs{};
      release_memory();  // release the previous set-up before timing the next
      const double t0 = now_s();
      in = make_inputs(args.seed);
      setup_s.push_back(now_s() - t0);
    }
    // One repetition first, checked but not timed: it faults in the heap
    // and warms the caches for the ones that follow.
    Pass warm, p;
    ingest_once(in, kRanks, /*probe=*/true, /*traced=*/false, warm, args.seed);
    repeat_for(args.seconds, [&] {
      ingest_once(in, kRanks, /*probe=*/true, /*traced=*/false, p, args.seed);
    });
    r.checks = warm.checks;
    r.checks.add(p.checks);
    add_end_to_end(r, median(p.eps), p.q.us, p.refresh_ms, p.fresh_ms,
                   median(setup_s), median(p.rss_mb));
    remo::Json eps = remo::Json::array();
    for (const double x : p.eps) eps.push_back(x);
    r.meta["ingest_events_per_s"] = std::move(eps);
    return r;
  }

  // Traced run: the set-up once under spans, an untraced pass, a traced
  // pass, the layer replays and the single-rank baseline.
  tracer().enable(true);
  const Inputs in = make_inputs(args.seed);
  tracer().enable(false);
  Pass warm, plain, traced;
  ingest_once(in, kRanks, true, false, warm, args.seed);
  repeat_for(args.seconds / 2, [&] {
    ingest_once(in, kRanks, true, false, plain, args.seed);
  });
  tracer().enable(true);
  repeat_for(args.seconds / 2, [&] {
    ingest_once(in, kRanks, true, true, traced, args.seed);
  });
  Pass one_rank;
  ingest_once(in, 1, false, false, one_rank, args.seed);
  r.checks = warm.checks;
  r.checks.add(plain.checks);
  r.checks.add(traced.checks);
  r.checks.add(one_rank.checks);

  LayerInputs li;
  li.engine = traced.layers;
  li.storage = replay_storage({&in.streams}, kRanks);
  li.comm = replay_comm({&in.streams}, kRanks, 2'000'000);
  li.tail_ms = traced.tail_ms;
  li.direct_collect_ms = traced.direct_ms;
  li.refresh_ms = traced.refresh_ms;
  li.scaling_vs_1rank = median(traced.eps) / median(one_rank.eps);
  li.trace_overhead_frac = median(plain.eps) / median(traced.eps) - 1.0;
  li.generate_s = tracer().total_s("gen.generate");
  li.preload_s = median(tracer().durations_s("gen.preload"));
  li.oracle_s = tracer().total_s("graph.oracle");
  for (int k = 0; k < 4; ++k) li.query_ns[k] = median(traced.q.ns[k]);
  add_layer_metrics(r, li);
  return r;
}

}  // namespace pb
