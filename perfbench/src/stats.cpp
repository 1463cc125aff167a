// Statistics rules, the freshness matcher and the oracle comparators.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <malloc.h>
#include <sys/resource.h>
#include <thread>

#include "bench.hpp"

namespace pb {

double peak_rss_mb() {
  // VmHWM honours reset_peak_rss(); ru_maxrss is the fallback.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = -1;
    while (std::fgets(line, sizeof(line), f))
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return kib / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

void release_memory() { malloc_trim(0); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

std::size_t tail_rank(std::size_t n, double want) {
  if (n == 0) return 0;
  // Nearest rank of `want`: ceil(want/100 * n), in integers so that exact
  // products (99% of 1000) do not round up by floating-point noise.
  const auto want_milli = static_cast<std::uint64_t>(std::llround(want * 1000.0));
  std::size_t rank = static_cast<std::size_t>((want_milli * n + 99999) / 100000);
  const std::size_t median_rank = (n + 1) / 2;
  if (n >= 10 && rank > n - 10) rank = n - 10;  // ten samples beyond it
  if (n < 10) rank = median_rank;
  return std::max(rank, median_rank);
}

Tail tail(std::vector<double> v, double want) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  const std::size_t rank = tail_rank(v.size(), want);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  t.value = v[rank - 1];
  t.pct = 100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  return t;
}

Freshness match_freshness(const std::vector<BatchStamp>& batches,
                          const std::vector<PublishStamp>& publishes) {
  Freshness f;
  f.ms.reserve(batches.size());
  for (const BatchStamp& b : batches) {
    const auto it = std::lower_bound(
        publishes.begin(), publishes.end(), b.watermark,
        [](const PublishStamp& p, std::uint64_t w) { return p.watermark < w; });
    if (it == publishes.end()) {
      ++f.uncovered;
      continue;
    }
    f.ms.push_back((it->t_s - b.sched_s) * 1e3);
  }
  return f;
}

void Checks::add(const std::string& name, const CheckCount& c) {
  for (auto& [n, count] : by_name)
    if (n == name) {
      count.add(c);
      return;
    }
  by_name.emplace_back(name, c);
}

void Checks::add(const Checks& other) {
  for (const auto& [n, c] : other.by_name) add(n, c);
}

CheckCount Checks::total() const {
  CheckCount t;
  for (const auto& [n, c] : by_name) t.add(c);
  return t;
}

CheckCount compare_exact(const std::vector<VertexId>& ids,
                         const std::vector<StateWord>& want,
                         const std::function<StateWord(VertexId)>& got) {
  CheckCount c;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ++c.attempted;
    if (got(ids[i]) != want[i]) ++c.failed;
  }
  return c;
}

RankCheck compare_rank(const std::vector<VertexId>& ids,
                       const std::vector<double>& want,
                       const std::function<double(VertexId)>& got,
                       double bound) {
  RankCheck r;
  r.rel_err.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double err = std::abs(got(ids[i]) - want[i]) / want[i];
    r.rel_err.push_back(err);
    ++r.count.attempted;
    if (!(err <= bound)) ++r.count.failed;  // NaN fails too
  }
  return r;
}

TailStamps await_tail(const remo::Engine& e, std::uint64_t target,
                      std::uint64_t spin_from) {
  while (e.ingested_watermark() < spin_from)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  while (e.ingested_watermark() < target) std::this_thread::yield();
  TailStamps t;
  t.accepted_s = now_s();
  while (!e.idle()) std::this_thread::yield();
  t.quiescent_s = now_s();
  return t;
}

std::vector<VertexId> vertex_ids(const remo::CsrGraph& g) {
  std::vector<VertexId> ids(g.num_vertices());
  for (remo::CsrGraph::Dense v = 0; v < g.num_vertices(); ++v)
    ids[v] = g.external_of(v);
  return ids;
}

void Report::add_tail(const std::string& name, const Tail& t,
                      const std::string& unit) {
  add(name, t.value, unit);
  remo::Json j = remo::Json::object();
  j["pct"] = t.pct;
  j["n"] = static_cast<std::uint64_t>(t.n);
  meta["tails"][name] = std::move(j);
}

void add_end_to_end(Report& r, double events_per_s,
                    const std::vector<double>& query_us,
                    const std::vector<double>& collect_ms,
                    const std::vector<double>& fresh_ms, double setup_s,
                    double peak_rss_mb) {
  r.add("events_per_s", events_per_s, "1/s");
  r.add_tail("query_us_p50", tail(query_us, 50.0), "us");
  r.add_tail("query_us_p99", tail(query_us), "us");
  r.add_tail("collect_ms_p50", tail(collect_ms, 50.0), "ms");
  r.add_tail("collect_ms_p99", tail(collect_ms), "ms");
  r.add_tail("fresh_ms_p50", tail(fresh_ms, 50.0), "ms");
  r.add_tail("fresh_ms_p99", tail(fresh_ms), "ms");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace pb
