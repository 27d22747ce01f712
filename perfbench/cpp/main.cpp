// perfbench — the repository benchmark. Runs one workload for a fixed time
// and prints its metrics; see perfbench/README.md for the workloads, the
// metrics and which layer each one measures.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. Untraced runs report the end-to-end
// metrics; traced runs record spans around every call into the library,
// write them to DIR/<workload>-seed<N>.jsonl and report the per-layer
// metrics instead.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "util/thread_pool.hpp"

namespace {

struct WorkloadDef {
  const char* name;
  /// Global-pool workers; each workload keeps its busy threads (pool,
  /// fan-out workers, service threads, generator) within four.
  std::size_t global_threads;
  perfbench::Outcome (*run)(const perfbench::Options&, perfbench::Tracer&);
};

const WorkloadDef kWorkloads[] = {
    {"sweep_reps", 1, perfbench::run_sweep_reps},
    {"service_mix", 1, perfbench::run_service_mix},
    {"fleet_100k", 3, perfbench::run_fleet_100k},
    {"tenancy_mix", 1, perfbench::run_tenancy_mix},
};

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload "
               "sweep_reps|service_mix|fleet_100k|tenancy_mix --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.trace_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(argv[0], "missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      usage(argv[0], "unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') {
      usage(argv[0], "bad value for " + flag + ": " + value);
    }
  }
  if (!(opt.seconds > 0.0)) usage(argv[0], "--seconds must be > 0");

  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : kWorkloads) {
    if (opt.workload == w.name) def = &w;
  }
  if (def == nullptr) usage(argv[0], "unknown workload '" + opt.workload + "'");
  vapb::util::ThreadPool::set_global_threads(def->global_threads);

  try {
    perfbench::Tracer tracer;
    tracer.set_enabled(opt.trace);
    const perfbench::Outcome out = def->run(opt, tracer);
    if (opt.trace) {
      const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".jsonl";
      if (!tracer.write_jsonl(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("wrote %zu spans to %s\n", tracer.size(), path.c_str());
      std::printf("%-24s %8s %12s %12s\n", "span", "count", "total_s",
                  "self_s");
      for (const auto& [name, s] : tracer.summarize()) {
        std::printf("%-24s %8zu %12.6f %12.6f\n", name.c_str(), s.count,
                    s.total_s, s.self_s);
      }
    }
    return perfbench::print_result(opt, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
}
