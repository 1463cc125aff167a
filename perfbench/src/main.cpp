// perfbench: the repository benchmark runner.
//
//   perfbench --workload <grow-bfs-cc|serve-mixed|churn-pagerank>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Prints one line per metric, a meta line (nproc, build info, effective
// tail percentiles, correctness tally), and last a JSON object with the
// keys correct, attempted, failed and metrics. Exits 1 when any output is
// wrong, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/build_info.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<grow-bfs-cc|serve-mixed|churn-pagerank> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, pb::Args& a) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      have_seed = end && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (!end || *end != '\0' || !(a.seconds > 0) || a.seconds > 3600) return false;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) return false;
      a.trace = val[0] == '1';
    } else if (key == "--spans") {
      a.spans_path = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");

  pb::Report r;
  if (args.workload == "grow-bfs-cc")
    r = pb::run_grow(args);
  else if (args.workload == "serve-mixed")
    r = pb::run_serve_mixed(args);
  else if (args.workload == "churn-pagerank")
    r = pb::run_churn(args);
  else
    return usage("unknown workload");

  const pb::CheckCount total = r.checks.total();
  const std::uint64_t wrong = total.failed;
  const std::uint64_t attempted = total.attempted;
  r.meta["workload"] = args.workload;
  r.meta["seed"] = args.seed;
  r.meta["seconds"] = args.seconds;
  r.meta["trace"] = args.trace;
  r.meta["nproc"] = std::thread::hardware_concurrency();
  r.meta["build_info"] = remo::build_info_json();
  r.meta["outputs_checked"] = attempted;
  r.meta["wrong_frac"] = attempted ? static_cast<double>(wrong) / attempted : 1.0;
  for (const auto& [name, c] : r.checks.by_name)
    if (c.failed > 0) r.meta["failures"][name] = c.failed;
  r.meta["late_batches"] = r.late_batches;

  if (args.trace && !args.spans_path.empty() &&
      !pb::tracer().write(args.spans_path, r.meta)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
    return 1;
  }

  for (const pb::Metric& m : r.metrics)
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const pb::Metric& m : r.metrics)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s is not a finite number\n", m.name.c_str());
      return 1;
    }
  if (r.late_batches > 0)
    std::printf("FLAGGED: the writer fell behind its schedule on %llu batches; "
                "this is not a normal run\n",
                static_cast<unsigned long long>(r.late_batches));
  std::printf("meta %s\n", r.meta.dump().c_str());

  std::string out = "{\"correct\": ";
  out += wrong == 0 && attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(wrong + r.late_batches);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", r.metrics[i].value);
    out += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return wrong == 0 && attempted > 0 ? 0 : 1;
}
