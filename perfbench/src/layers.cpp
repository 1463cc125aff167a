// Per-layer measurements: standalone storage and comm replays of a
// workload's edges, the ratios read from an engine after its run, and the
// per-layer metric block every traced run reports.
#include <algorithm>

#include "bench.hpp"
#include "runtime/comm.hpp"
#include "runtime/partitioner.hpp"
#include "storage/degaware_store.hpp"

namespace pb {

using remo::EdgeEvent;
using remo::EdgeOp;
using remo::RankId;
using remo::StreamSet;

namespace {

/// Visit every event of `sets` in order: set by set, round-robin across the
/// streams of a set (the order a saturated engine pulls them in).
template <typename Fn>
void for_each_event(const std::vector<const StreamSet*>& sets, Fn&& fn) {
  for (const StreamSet* s : sets) {
    std::size_t longest = 0;
    for (std::size_t i = 0; i < s->num_streams(); ++i)
      longest = std::max(longest, s->stream(i).size());
    for (std::size_t k = 0; k < longest; ++k)
      for (std::size_t i = 0; i < s->num_streams(); ++i)
        if (k < s->stream(i).size()) fn(s->stream(i)[k]);
  }
}

double per(double total, double n) { return n > 0 ? total / n : 0.0; }

// Keeps the scan's reads observable to the optimiser.
volatile std::uint64_t g_sink = 0;

}  // namespace

StorageCost replay_storage(const std::vector<const StreamSet*>& sets,
                           RankId ranks) {
  struct Op {
    VertexId src, dst;
    remo::Weight w;
    bool erase;
  };
  auto replay = tracer().span("storage.replay");
  const remo::Partitioner part(ranks);
  double events = 0, ops = 0, op_ns = 0, arcs = 0, scan_ns = 0, erases = 0,
         erase_ns = 0;
  std::uint64_t sink = 0;
  for (RankId r = 0; r < ranks; ++r) {
    std::vector<Op> mine;
    for_each_event(sets, [&](const EdgeEvent& e) {
      if (r == 0) ++events;
      const bool erase = e.op == EdgeOp::kDelete;
      if (part.owner(e.src) == r) mine.push_back({e.src, e.dst, e.weight, erase});
      if (e.src != e.dst && part.owner(e.dst) == r)
        mine.push_back({e.dst, e.src, e.weight, erase});
    });
    remo::DegAwareStore store{remo::StoreConfig{}};
    {
      auto s = tracer().span("storage.insert");
      const std::uint64_t t0 = now_ns();
      for (const Op& op : mine) {
        if (op.erase)
          store.erase_edge(op.src, op.dst);
        else
          store.insert_edge(op.src, op.dst, op.w);
      }
      op_ns += static_cast<double>(now_ns() - t0);
      s.set_count(mine.size());
    }
    ops += static_cast<double>(mine.size());

    std::uint64_t scanned = 0;
    {
      auto s = tracer().span("storage.scan");
      const std::uint64_t t0 = now_ns();
      store.for_each_vertex([&](VertexId, const remo::TwoTierAdjacency& adj) {
        adj.for_each([&](VertexId nbr, const remo::EdgeProp&) {
          sink += nbr;
          ++scanned;
        });
      });
      scan_ns += static_cast<double>(now_ns() - t0);
      s.set_count(scanned);
    }
    arcs += static_cast<double>(scanned);

    std::vector<std::pair<VertexId, VertexId>> victims;
    std::uint64_t i = 0;
    store.for_each_vertex([&](VertexId v, const remo::TwoTierAdjacency& adj) {
      adj.for_each([&](VertexId nbr, const remo::EdgeProp&) {
        if (i++ % 4 == 0) victims.emplace_back(v, nbr);
      });
    });
    {
      auto s = tracer().span("storage.erase");
      const std::uint64_t t0 = now_ns();
      for (const auto& [v, nbr] : victims) sink += store.erase_edge(v, nbr);
      erase_ns += static_cast<double>(now_ns() - t0);
      s.set_count(victims.size());
    }
    erases += static_cast<double>(victims.size());
  }
  g_sink = sink;
  return {per(op_ns, ops), per(erase_ns, erases), per(scan_ns, arcs),
          per(ops, events)};
}

CommCost replay_comm(const std::vector<const StreamSet*>& sets, RankId ranks,
                     std::size_t max_visitors) {
  struct Send {
    RankId from, to;
    remo::Visitor v;
  };
  auto replay = tracer().span("runtime.replay");
  constexpr std::size_t kChunk = 8192;
  const remo::Partitioner part(ranks);
  remo::Comm comm(ranks);
  std::vector<Send> chunk;
  chunk.reserve(kChunk + 1);
  std::vector<remo::Visitor> out;
  double sent = 0, send_ns = 0, drain_ns = 0;
  const auto run_chunk = [&] {
    {
      auto s = tracer().span("runtime.send");
      const std::uint64_t t0 = now_ns();
      for (const Send& x : chunk) comm.send(x.from, x.to, x.v);
      for (RankId r = 0; r < ranks; ++r) comm.flush(r);
      send_ns += static_cast<double>(now_ns() - t0);
      s.set_count(chunk.size());
    }
    {
      auto s = tracer().span("runtime.drain");
      const std::uint64_t t0 = now_ns();
      for (RankId r = 0; r < ranks; ++r)
        while (comm.drain(r, out)) {
        }
      drain_ns += static_cast<double>(now_ns() - t0);
      s.set_count(chunk.size());
    }
    sent += static_cast<double>(chunk.size());
    chunk.clear();
  };
  const auto update = [](VertexId target, VertexId from, remo::Weight w) {
    remo::Visitor v;
    v.target = target;
    v.other = from;
    v.weight = w;
    v.kind = remo::VisitKind::kUpdate;
    v.algo = 0;  // no combiner registered: every visitor travels
    return v;
  };
  std::size_t budget = max_visitors;
  for_each_event(sets, [&](const EdgeEvent& e) {
    if (budget == 0) return;
    const RankId a = part.owner(e.src), b = part.owner(e.dst);
    chunk.push_back({a, b, update(e.dst, e.src, e.weight)});
    chunk.push_back({b, a, update(e.src, e.dst, e.weight)});
    budget = budget > 2 ? budget - 2 : 0;
    if (chunk.size() >= kChunk) run_chunk();
  });
  if (!chunk.empty()) run_chunk();
  return {per(send_ns, sent), per(drain_ns, sent)};
}

EngineLayers read_engine_layers(const remo::Engine& e, double events) {
  const remo::MetricsSummary m = e.metrics();
  const remo::obs::MetricsSnapshot snap = e.metrics_snapshot();
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  EngineLayers l;
  l.msgs_per_event = per(d(m.messages_sent), events);
  l.remote_frac = per(d(m.remote_messages), d(m.messages_sent));
  l.coalesced_frac = per(d(m.coalesced_sends + m.receiver_merges),
                         d(m.messages_sent + m.coalesced_sends));
  l.overflow_frac = per(d(m.ring_overflows), d(m.messages_sent));
  l.control_per_event = per(d(m.control_messages), events);
  l.callbacks_per_event = per(d(m.algorithm_events), events);
  using remo::obs::Phase;
  const double idle = d(snap.phases[Phase::kQuiesce]);
  const double total = d(snap.phases.total());
  l.busy_ns_per_event = per(total - idle, events);
  l.idle_frac = per(idle, total);
  l.update_ns_p99 = d(snap.update_latency_ns.p99());
  l.bytes_per_arc = per(d(e.store_memory_bytes()), d(e.total_stored_edges()));
  return l;
}

void add_layer_metrics(Report& r, const LayerInputs& in) {
  const StorageCost& st = in.storage;
  const EngineLayers& en = in.engine;
  r.add("storage.insert_ns", st.op_ns, "ns");
  r.add("storage.erase_ns", st.erase_ns, "ns");
  r.add("storage.scan_ns_per_arc", st.scan_ns_per_arc, "ns");
  r.add("storage.bytes_per_arc", en.bytes_per_arc, "B");

  r.add("runtime.send_ns", in.comm.send_ns, "ns");
  r.add("runtime.drain_ns", in.comm.drain_ns, "ns");
  r.add("runtime.msgs_per_event", en.msgs_per_event, "count");
  r.add("runtime.remote_frac", en.remote_frac, "ratio");
  r.add("runtime.coalesced_frac", en.coalesced_frac, "ratio");
  r.add("runtime.overflow_frac", en.overflow_frac, "ratio");
  r.add("runtime.control_per_event", en.control_per_event, "count");

  r.add("core.callbacks_per_event", en.callbacks_per_event, "count");
  r.add("core.busy_ns_per_event", en.busy_ns_per_event, "ns");
  r.add("core.idle_frac", en.idle_frac, "ratio");
  r.add("core.update_ns_p99", en.update_ns_p99, "ns");
  // The cost budget's gap: rank busy time the storage and runtime replays
  // do not explain.
  r.add("core.unattributed_ns_per_event",
        en.busy_ns_per_event -
            (st.op_ns * st.ops_per_event +
             en.msgs_per_event * (in.comm.send_ns + in.comm.drain_ns)),
        "ns");
  r.add_tail("core.collect_ms_p50", tail(in.direct_collect_ms, 50.0),
             "ms");
  r.add_tail("core.collect_ms_p99", tail(in.direct_collect_ms), "ms");
  r.add("core.tail_ms", median(in.tail_ms), "ms");
  r.add("core.scaling_vs_1rank", in.scaling_vs_1rank, "ratio");
  r.add("core.rank_err_p99", in.rank_err_p99, "ratio");

  r.add("serve.publish_ms",
        in.refresh_ms.empty()
            ? 0.0
            : median(in.refresh_ms) - median(in.direct_collect_ms),
        "ms");
  r.add("serve.query_ns.distance", in.query_ns[0], "ns");
  r.add("serve.query_ns.component", in.query_ns[1], "ns");
  r.add("serve.query_ns.connected", in.query_ns[2], "ns");
  r.add("serve.query_ns.top_k", in.query_ns[3], "ns");

  r.add("gen.generate_s", in.generate_s, "s");
  r.add("gen.preload_s", in.preload_s, "s");
  r.add("graph.oracle_s", in.oracle_s, "s");
  r.add("obs.trace_overhead_frac", in.trace_overhead_frac, "ratio");
}

}  // namespace pb
