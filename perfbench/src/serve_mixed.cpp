// serve-mixed: the serving plane under live writes. The first half of
// rmat-16 is preloaded during set-up into a 2-rank engine running DynamicBfs,
// DynamicCc and DegreeTracker, served by a QueryService with no background
// refresher. Then three threads run against it:
//   writer  offers the second half open loop at a fixed 40 k events/s, in
//           256-event WriteGate batches (one dispatch thread);
//   reader  issues 100 k point queries/s in 1 ms ticks (distance,
//           component_of, connected, top_k);
//   main    sleeps 50 ms and calls refresh_all(), in a loop.
// Writes enter through API injection, not stream pulls, so the same layers
// are used differently from grow-bfs-cc: collection, publication and query
// dominate while storage and runtime are lightly loaded. Both generators
// are timed against their schedule; a batch sent more than kLateLimit
// behind schedule flags the run.
#include <algorithm>
#include <atomic>
#include <thread>

#include "remo/remo.hpp"
#include "serve/query_service.hpp"
#include "serve/write_gate.hpp"
#include "workloads.hpp"

namespace pb {

using namespace remo;

namespace {

constexpr std::uint32_t kScale = 16;
constexpr RankId kRanks = 2;
constexpr int kSetups = 3;
constexpr double kWriteRate = 40000.0;  // events/s
constexpr std::size_t kBatch = 256;
constexpr int kQueriesPerTick = 100;    // 1 ms ticks: 100 k queries/s
constexpr auto kRefreshPeriod = std::chrono::milliseconds(50);
constexpr double kLateLimit_s = 0.1;

void sleep_until_s(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(static_cast<std::int64_t>(t * 1e9))));
}

struct Inputs {
  std::vector<EdgeEvent> preload, writes;
  VertexId source = 0;
  Oracle oracle;  // exact[0] = BFS, exact[1] = CC, exact[2] = degree
};

/// Deduplicated, loop-free, shuffled rmat-16 split in two halves; the
/// writer's share is cut to what it can offer in `seconds` at kWriteRate.
Inputs make_inputs(std::uint64_t seed, double seconds) {
  Inputs in;
  {
    auto s = tracer().span("gen.generate");
    const EdgeList edges = make_rmat(kScale, seed).edges;
    RobinHoodMap<std::uint64_t, std::uint8_t> seen;
    std::vector<EdgeEvent> events;
    for (const Edge& e : edges) {
      if (e.src == e.dst) continue;
      const EdgeEvent ev{e.src, e.dst, 1, EdgeOp::kAdd};
      if (seen.find_or_emplace(event_pair_key(ev), [] { return std::uint8_t{1}; }).second)
        events.push_back(ev);
    }
    Xoshiro256 rng(seed);
    for (std::size_t i = events.size(); i > 1; --i)
      std::swap(events[i - 1], events[rng.bounded(i)]);
    const std::size_t half = events.size() / 2;
    std::size_t n_writes = std::min(
        events.size() - half, static_cast<std::size_t>(kWriteRate * seconds));
    n_writes -= n_writes % kBatch;
    in.preload.assign(events.begin(), events.begin() + static_cast<std::ptrdiff_t>(half));
    in.writes.assign(events.begin() + static_cast<std::ptrdiff_t>(half),
                     events.begin() + static_cast<std::ptrdiff_t>(half + n_writes));
  }
  in.source = in.preload.front().src;
  {
    auto s = tracer().span("graph.oracle");
    EdgeList final_edges;
    for (const auto* part : {&in.preload, &in.writes})
      for (const EdgeEvent& e : *part) final_edges.push_back({e.src, e.dst, e.weight});
    const CsrGraph g = CsrGraph::build(with_reverse_edges(final_edges));
    in.oracle.ids = vertex_ids(g);
    in.oracle.exact.push_back(static_bfs(g, g.dense_of(in.source)));
    in.oracle.exact.push_back(static_cc_union_find(g));
    std::vector<StateWord> degree(g.num_vertices());
    for (CsrGraph::Dense v = 0; v < g.num_vertices(); ++v) degree[v] = g.degree(v);
    in.oracle.exact.push_back(std::move(degree));
  }
  return in;
}

/// The preloaded engine with its query service and write gate. Members are
/// destroyed gate first, engine last.
struct World {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<serve::QueryService> qs;
  std::unique_ptr<serve::WriteGate> gate;
  ProgramId bfs = 0, cc = 0, deg = 0;
  double preload_ingest_s = 0;  ///< the preload's stream ingest alone

  ~World() {
    gate.reset();
    qs.reset();
    engine.reset();
  }
};

std::unique_ptr<World> make_world(const Inputs& in) {
  auto s = tracer().span("gen.preload");
  auto w = std::make_unique<World>();
  EngineConfig cfg;
  cfg.num_ranks = kRanks;
  w->engine = std::make_unique<Engine>(cfg);
  Engine& e = *w->engine;
  w->bfs = e.attach_make<DynamicBfs>(in.source).first;
  w->cc = e.attach_make<DynamicCc>().first;
  w->deg = e.attach_make<DegreeTracker>().first;
  e.inject_init(w->bfs, in.source);
  w->preload_ingest_s = e.ingest(split_events(in.preload, kRanks)).seconds;
  w->qs = std::make_unique<serve::QueryService>(
      e, serve::QueryServiceConfig{.refresh_period_ms = 0});
  w->qs->serve(w->bfs, serve::ViewRole::kDistance);
  w->qs->serve(w->cc, serve::ViewRole::kComponent);
  w->qs->serve(w->deg, serve::ViewRole::kDegree);
  w->gate = std::make_unique<serve::WriteGate>(
      e, serve::WriteGateConfig{.batch_limit = kBatch, .dispatch_threads = 1});
  return w;
}

struct Pass {
  double events_per_s = 0;
  std::uint64_t tail_censored = 0;
  std::vector<double> tail_ms, collect_ms, direct_ms, fresh_ms, gate_us, writer_late_s,
      reader_late_s, tick_s, view_lag;
  QueryTimes q;
  std::uint64_t late_batches = 0;
  Checks checks;
  EngineLayers layers;
  double occupancy = 0;
};

/// One open-loop run over a preloaded world. `traced` replaces every other
/// publication with direct versioned collections of the served programs.
void run_pass(const Inputs& in, World& w, bool traced, std::uint64_t seed,
              Pass& p) {
  auto pass = tracer().span("bench.pass");
  Engine& e = *w.engine;
  serve::QueryService& qs = *w.qs;
  const std::size_t n_batches = in.writes.size() / kBatch;
  std::vector<BatchStamp> batches(n_batches);
  std::vector<PublishStamp> publishes;
  std::atomic<bool> writer_done{false}, stop_reader{false};
  const double t_start = now_s() + 0.01;

  std::thread writer([&] {
    std::vector<EdgeEvent> batch;
    p.gate_us.reserve(n_batches);
    for (std::size_t b = 0; b < n_batches; ++b) {
      const double sched = t_start + static_cast<double>(b * kBatch) / kWriteRate;
      sleep_until_s(sched);
      auto s = tracer().span("serve.gate");
      const double a = now_s();
      p.writer_late_s.push_back(a - sched);
      if (a - sched > kLateLimit_s) ++p.late_batches;
      batch.assign(in.writes.begin() + static_cast<std::ptrdiff_t>(b * kBatch),
                   in.writes.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatch));
      w.gate->submit_batch(batch);
      w.gate->flush();
      const double admitted = now_s();
      p.gate_us.push_back((admitted - a) * 1e6);
      batches[b] = {sched, e.ingested_watermark()};
      // The batch's tail: admission to the engine going idle, polled with
      // short sleeps so the writer does not take a core from the ranks and
      // the reader. Waiting stops when the next batch is due; such a sample
      // is censored at that instant, which leaves the median exact while
      // fewer than half are.
      const double next = sched + static_cast<double>(kBatch) / kWriteRate;
      const bool last = b + 1 == n_batches;
      while (!e.idle() && (last || now_s() < next))
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      const double idle = now_s();
      p.tail_ms.push_back((idle - admitted) * 1e3);
      if (!last && idle >= next) ++p.tail_censored;
      if (last)
        p.events_per_s = static_cast<double>(in.writes.size()) / (idle - t_start);
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::thread reader([&] {
    Xoshiro256 rng(seed ^ 0x5bd1e995ULL);
    const auto& ids = in.oracle.ids;
    const auto pick = [&] { return ids[rng.bounded(ids.size())]; };
    for (std::uint64_t k = 0; !stop_reader.load(std::memory_order_acquire); ++k) {
      const double sched = t_start + static_cast<double>(k) * 1e-3;
      sleep_until_s(sched);
      auto s = tracer().span("serve.reader_tick");
      const double a = now_s();
      p.reader_late_s.push_back(a - sched);
      for (int i = 0; i < kQueriesPerTick; ++i) {
        const VertexId u = pick();
        switch (i % 4) {
          case 0:
            p.q.time(kDistance, [&] { return qs.distance(w.bfs, u); });
            break;
          case 1:
            p.q.time(kComponent, [&] { return qs.component_of(w.cc, u); });
            break;
          case 2: {
            const VertexId v = pick();
            p.q.time(kConnected, [&] { return qs.connected(w.cc, u, v); });
            break;
          }
          default:
            p.q.time(kTopK, [&] { return qs.top_k_degree(w.deg, 10).size(); });
        }
      }
      p.tick_s.push_back(now_s() - a);
    }
  });

  const auto publish = [&] {
    const double a = now_s();
    qs.refresh_all();
    const double b = now_s();
    std::uint64_t wm = ~0ull;
    for (const ProgramId id : {w.bfs, w.cc, w.deg})
      wm = std::min(wm, qs.view(id)->watermark());
    publishes.push_back({b, wm});
    return (b - a) * 1e3;
  };
  sleep_until_s(t_start);
  for (std::uint64_t tick = 0; !writer_done.load(std::memory_order_acquire); ++tick) {
    std::this_thread::sleep_for(kRefreshPeriod);
    if (traced && tick % 2 == 1) {
      auto s = tracer().span("core.collect_versioned");
      const double a = now_s();
      for (const ProgramId id : {w.bfs, w.cc, w.deg}) (void)e.collect_versioned(id);
      p.direct_ms.push_back((now_s() - a) * 1e3);
      continue;
    }
    p.view_lag.push_back(static_cast<double>(qs.stats().read_epoch_lag_events));
    auto s = tracer().span("serve.refresh_all");
    p.collect_ms.push_back(publish());
  }
  writer.join();
  publish();  // at quiescence: covers every batch
  stop_reader.store(true, std::memory_order_release);
  reader.join();

  const Freshness f = match_freshness(batches, publishes);
  p.fresh_ms = f.ms;
  p.checks.add("batch_covered_by_a_view", {n_batches, f.uncovered});
  p.occupancy = w.gate->stats().mean_wave_occupancy;

  auto s = tracer().span("core.check");
  const ProgramId progs[3] = {w.bfs, w.cc, w.deg};
  const std::string names[3] = {"bfs", "cc", "degree"};
  for (std::size_t i = 0; i < 3; ++i) {
    const ProgramId id = progs[i];
    std::vector<StateWord> engine_state;
    engine_state.reserve(in.oracle.ids.size());
    for (const VertexId v : in.oracle.ids) engine_state.push_back(e.state_of(id, v));
    const auto view = qs.view(id);
    p.checks.add(names[i] + "_vs_oracle",
                 compare_exact(in.oracle.ids, in.oracle.exact[i],
                               [&](VertexId v) { return e.state_of(id, v); }));
    p.checks.add(names[i] + "_view_vs_engine",
                 compare_exact(in.oracle.ids, engine_state,
                               [&](VertexId v) { return view->at(v); }));
  }
  if (traced)
    p.layers = read_engine_layers(
        e, static_cast<double>(in.preload.size() + in.writes.size()));
}

std::vector<double> scaled(const std::vector<double>& v, double k) {
  std::vector<double> out(v);
  for (double& x : out) x *= k;
  return out;
}

}  // namespace

Report run_serve_mixed(const Args& args) {
  Report r;
  if (!args.trace) {
    std::vector<double> setup_s;
    Inputs in;
    std::unique_ptr<World> w;
    for (int i = 0; i < kSetups; ++i) {
      w.reset();
      in = Inputs{};
      release_memory();
      const double t0 = now_s();
      in = make_inputs(args.seed, args.seconds);
      w = make_world(in);
      setup_s.push_back(now_s() - t0);
    }
    Pass p;
    reset_peak_rss();
    run_pass(in, *w, false, args.seed, p);
    r.checks = p.checks;
    r.late_batches = p.late_batches;
    add_end_to_end(r, p.events_per_s, p.q.us, p.collect_ms, p.fresh_ms,
                   median(setup_s), peak_rss_mb());
    r.meta["writes"] = static_cast<std::uint64_t>(in.writes.size());
    const auto max_of = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    r.meta["collect_ms_max"] = max_of(p.collect_ms);
    r.meta["fresh_ms_max"] = max_of(p.fresh_ms);
    r.meta["writer_late_ms_max"] = 1e3 * max_of(p.writer_late_s);
    return r;
  }

  // Traced run: an untraced pass and a traced pass, each on a freshly
  // preloaded world and half the time, then the layer replays.
  const double half = args.seconds / 2;
  const Inputs in = make_inputs(args.seed, half);
  Pass plain, traced;
  run_pass(in, *make_world(in), false, args.seed, plain);
  tracer().enable(true);
  const Inputs tin = make_inputs(args.seed, half);
  double preload_ingest_s = 0;
  {
    std::unique_ptr<World> w = make_world(tin);
    run_pass(tin, *w, true, args.seed, traced);
    preload_ingest_s = w->preload_ingest_s;
  }
  r.checks = plain.checks;
  r.checks.add(traced.checks);
  r.late_batches = plain.late_batches + traced.late_batches;

  const StreamSet preload = split_events(tin.preload, kRanks);
  const StreamSet writes = split_events(tin.writes, 1);
  LayerInputs li;
  li.engine = traced.layers;
  li.storage = replay_storage({&preload, &writes}, kRanks);
  li.comm = replay_comm({&preload, &writes}, kRanks, 2'000'000);
  li.tail_ms = traced.tail_ms;
  li.direct_collect_ms = traced.direct_ms;
  li.refresh_ms = traced.collect_ms;
  {
    // Single-rank baseline of the stream-ingest part: the preload.
    EngineConfig cfg;
    cfg.num_ranks = 1;
    Engine one(cfg);
    one.attach_make<DynamicBfs>(tin.source);
    one.attach_make<DynamicCc>();
    one.attach_make<DegreeTracker>();
    li.scaling_vs_1rank = one.ingest(preload).seconds / preload_ingest_s;
  }
  li.trace_overhead_frac = median(traced.tick_s) / median(plain.tick_s) - 1.0;
  li.generate_s = tracer().total_s("gen.generate");
  li.preload_s = tracer().total_s("gen.preload");
  li.oracle_s = tracer().total_s("graph.oracle");
  for (int k = 0; k < 4; ++k) li.query_ns[k] = median(traced.q.ns[k]);
  add_layer_metrics(r, li);
  r.meta["tail_censored"] = traced.tail_censored;
  // The write gate and the open-loop generators exist only here.
  r.add("serve.gate_us_per_batch", median(traced.gate_us), "us");
  r.add("serve.gate_occupancy", traced.occupancy, "count");
  r.add("serve.view_lag_events", median(traced.view_lag), "count");
  r.add("serve.writer_late_ms_p99", tail(scaled(traced.writer_late_s, 1e3)).value, "ms");
  r.add("serve.reader_late_us_p99", tail(scaled(traced.reader_late_s, 1e6)).value, "us");
  return r;
}

}  // namespace pb
