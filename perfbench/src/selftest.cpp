// Self-tests of the benchmark's own arithmetic: the percentile rule, the
// freshness matcher on a scripted timeline, and the oracle comparators.
// Exits non-zero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "bench.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 is rank 990 with exactly ten samples beyond it.
  pb::Tail t = pb::tail(one_to(1000));
  expect(t.value == 990.0 && t.pct == 99.0 && t.n == 1000, "p99 of 1..1000");
  // 260 samples: p99 (rank 258) has only two beyond; the rule lowers it to
  // rank 250, the highest with ten beyond.
  t = pb::tail(one_to(260));
  expect(t.value == 250.0, "p99 of 1..260 lowered to rank 250");
  expect(std::abs(t.pct - 100.0 * 250 / 260) < 1e-9, "effective percentile of 260");
  // Too few samples for any tail: the median.
  t = pb::tail(one_to(15));
  expect(t.value == 8.0, "tail of 15 samples is the median");
  t = pb::tail(one_to(4));
  expect(t.value == 2.0, "tail of 4 samples is the median rank");
  expect(pb::tail({}).n == 0 && pb::tail({}).value == 0.0, "empty sample");
  // Requests below the cap are honoured exactly.
  expect(pb::tail(one_to(1000), 90.0).value == 900.0, "p90 of 1..1000");
  expect(pb::median({3.0, 1.0, 2.0, 4.0}) == 2.5, "even median");
  expect(pb::median({5.0, 1.0, 3.0}) == 3.0, "odd median");
}

void freshness_matcher() {
  // Batches due at 0, 10, 20, 30 ms carrying watermarks 100..400;
  // publications at 15 ms (covers 100), 35 ms (covers 300) and 60 ms
  // (covers 350, not 400). Batch 4 is never covered.
  const std::vector<pb::BatchStamp> batches = {
      {0.000, 100}, {0.010, 200}, {0.020, 300}, {0.030, 400}};
  const std::vector<pb::PublishStamp> pubs = {
      {0.015, 150}, {0.035, 300}, {0.060, 350}};
  const pb::Freshness f = pb::match_freshness(batches, pubs);
  expect(f.uncovered == 1, "one batch uncovered");
  expect(f.ms.size() == 3, "three batches covered");
  const double want[3] = {15.0, 25.0, 15.0};
  for (std::size_t i = 0; i < 3 && i < f.ms.size(); ++i)
    expect(std::abs(f.ms[i] - want[i]) < 1e-9, "freshness per batch");
  // A publication whose watermark equals the batch's covers it.
  const pb::Freshness g = pb::match_freshness({{1.0, 7}}, {{1.5, 7}});
  expect(g.uncovered == 0 && std::abs(g.ms[0] - 500.0) < 1e-9, "equal watermark covers");
}

void oracle_comparators() {
  const std::vector<pb::VertexId> ids = {10, 20, 30, 40};
  const std::vector<pb::StateWord> want = {1, 2, 3, 4};
  std::unordered_map<pb::VertexId, pb::StateWord> state = {
      {10, 1}, {20, 2}, {30, 3}, {40, 4}};
  const auto got = [&](pb::VertexId v) { return state.at(v); };
  pb::CheckCount c = pb::compare_exact(ids, want, got);
  expect(c.attempted == 4 && c.failed == 0, "clean state passes");
  state[30] = 99;  // corrupt one vertex
  c = pb::compare_exact(ids, want, got);
  expect(c.attempted == 4 && c.failed == 1, "one corrupted vertex flagged");

  const std::vector<double> rank_want = {0.15, 1.0, 2.0};
  std::vector<double> rank_got = {0.16, 1.01, 2.0};
  const auto rank_of = [&](pb::VertexId v) { return rank_got[v]; };
  pb::RankCheck r = pb::compare_rank({0, 1, 2}, rank_want, rank_of, 0.25);
  expect(r.count.failed == 0, "ranks within the bound pass");
  rank_got[1] = 1.5;  // 50 % off
  r = pb::compare_rank({0, 1, 2}, rank_want, rank_of, 0.25);
  expect(r.count.failed == 1 && std::abs(r.rel_err[1] - 0.5) < 1e-12,
         "one rank beyond the bound flagged");
  rank_got[2] = std::nan("");
  r = pb::compare_rank({0, 1, 2}, rank_want, rank_of, 0.25);
  expect(r.count.failed == 2, "NaN rank flagged");
}

}  // namespace

int main() {
  percentile_rule();
  freshness_matcher();
  oracle_comparators();
  if (failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
