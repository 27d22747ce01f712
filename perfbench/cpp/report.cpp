#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <set>
#include <ctime>

namespace perfbench {

bool Outcome::check(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  return ok;
}

void Outcome::note(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  notes.emplace_back(buf);
}

const std::vector<MetricDef>& end_to_end_catalog() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"cpu_ms_per_op", "ms"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_catalog() {
  static const std::vector<MetricDef> defs = {
      {"cluster.fabricate_s", "s"},
      {"cluster.gather_s", "s"},
      {"cluster.tree_build_s", "s"},
      {"pvt.generate_s", "s"},
      {"pvt.measurements", "count.computed"},
      {"calib.test_run_s", "s"},
      {"calib.oracle_s", "s"},
      {"calib.pmt_s", "s"},
      {"cache.hits", "count/pass"},
      {"cache.misses", "count/pass"},
      {"cache.hit_ratio", "ratio"},
      {"stage.calibrate.calls", "count/pass"},
      {"stage.calibrate.s", "s/pass"},
      {"stage.model.calls", "count/pass"},
      {"stage.model.s", "s/pass"},
      {"stage.solve.calls", "count/pass"},
      {"stage.solve.s", "s/pass"},
      {"stage.enforce.calls", "count/pass"},
      {"stage.enforce.s", "s/pass"},
      {"stage.execute.calls", "count/pass"},
      {"stage.execute.s", "s/pass"},
      {"solve.flat_ms", "ms"},
      {"solve.tree_ms", "ms"},
      {"solve.direct_us", "us"},
      {"des.rank_iters", "count.computed"},
      {"des.rank_iters_per_s", "1/s"},
      {"service.requests", "count/pass"},
      {"service.computed", "count/pass"},
      {"service.dedup_hits", "count/pass"},
      {"service.reply_hits", "count/pass"},
      {"service.batches", "count/pass"},
      {"service.mean_batch", "req/batch"},
      {"service.compute_ratio", "ratio"},
      {"service.direct_solve_us", "us"},
      {"service.direct_run_ms", "ms"},
      {"service.overhead_ms", "ms"},
      {"codec.parse_us", "us"},
      {"codec.reply_us", "us"},
      {"tenancy.point_s", "s"},
      {"tenancy.resolves", "count/pass"},
      {"tenancy.s_per_resolve", "s"},
      {"tenancy.stalls", "count/pass"},
      {"campaign.jobs", "count/pass"},
      {"campaign.busy_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

namespace {

volatile double g_kernel_sink = 0.0;  // keeps the kernel's chain alive

/// Prints `value` with all its digits; JSON has no NaN or infinity.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

int print_result(const Options& opt, const Outcome& out) {
  const std::vector<MetricDef>& defs =
      opt.trace ? per_layer_catalog() : end_to_end_catalog();
  const std::map<std::string, double>& values =
      opt.trace ? out.per_layer : out.end_to_end;

  std::set<std::string> known;
  for (const MetricDef& d : defs) known.insert(d.name);
  for (const auto& [name, v] : values) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n",
                   name.c_str());
      return 3;
    }
  }

  std::printf("== perfbench %s (seed %llu, %.0f s, %s) ==\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? "traced" : "untraced");
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  for (const std::string& e : out.errors) {
    std::printf("FAILED CHECK: %s\n", e.c_str());
  }
  std::printf("error_rate = %.6g (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    std::printf("  %-24s %14.6g %s%s\n", d.name,
                it == values.end() ? 0.0 : it->second, d.unit,
                it == values.end() ? "  (layer not exercised)" : "");
  }

  bool finite = true;
  std::string metrics;
  for (const MetricDef& d : defs) {
    auto it = values.find(d.name);
    const double v = it == values.end() ? 0.0 : it->second;
    finite = finite && std::isfinite(v);
    if (!metrics.empty()) metrics += ", ";
    metrics += '"';
    metrics += d.name;
    metrics += "\": {\"value\": ";
    metrics += number(v);
    metrics += ", \"unit\": \"";
    metrics += d.unit;
    metrics += "\"}";
  }
  const bool correct = out.failed == 0 && out.attempted > 0 && finite;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<std::uint64_t>(out.attempted,
                                                              1)),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

std::vector<double> repeat_setup(Tracer& tracer,
                                 const std::function<void()>& release,
                                 const std::function<void()>& build) {
  std::vector<double> times;
  while (times.size() < 3 || (times.size() < 9 && sum(times) < 2.0)) {
    release();
    const Tracer::Scope s(tracer, "setup");
    times.push_back(time_s(build));
  }
  return times;
}

double reference_kernel_s() {
  timespec t0{}, t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  double x = 1.0;
  for (int i = 0; i < 6000000; ++i) {
    h ^= h >> 31;
    h *= 0xbf58476d1ce4e5b9ULL;
    x = x * 0.999999 + static_cast<double>(h >> 40) * 1e-12;
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  g_kernel_sink = x;
  return static_cast<double>(t1.tv_sec - t0.tv_sec) +
         1e-9 * static_cast<double>(t1.tv_nsec - t0.tv_nsec);
}

void put_end_to_end(Outcome& out, const std::vector<double>& setups,
                    const Passes& passes, double ops_per_pass,
                    double latency_ms) {
  const double slowdown = median(passes.kernel_s) / kReferenceKernelS;
  const double pass_s = median(passes.wall_s);
  const double cpu_ms = median(passes.cpu_s) / ops_per_pass * 1e3;
  out.end_to_end["setup_s"] = median(setups) / slowdown;
  out.end_to_end["peak_rss_mb"] = peak_rss_mb();
  out.end_to_end["throughput_per_s"] = ops_per_pass / pass_s * slowdown;
  out.end_to_end["latency_p50_ms"] = latency_ms / slowdown;
  out.end_to_end["cpu_ms_per_op"] = cpu_ms / slowdown;
  out.note("reference kernel: median %.4g ms over %zu samples, %.4gx the "
           "nominal %.4g ms; raw setup_s %.6g, throughput_per_s %.6g, "
           "latency_p50_ms %.6g, cpu_ms_per_op %.6g",
           median(passes.kernel_s) * 1e3, passes.kernel_s.size(), slowdown,
           kReferenceKernelS * 1e3, median(setups), ops_per_pass / pass_s,
           latency_ms, cpu_ms);
}

double time_s(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) total += x;
  return total;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool identical(const vapb::core::BudgetResult& a,
               const vapb::core::BudgetResult& b) {
  if (a.fits_at_fmin != b.fits_at_fmin || a.constrained != b.constrained ||
      !same_bits(a.alpha, b.alpha) ||
      !same_bits(a.target_freq_ghz.value(), b.target_freq_ghz.value()) ||
      !same_bits(a.predicted_total_w.value(), b.predicted_total_w.value()) ||
      a.allocations.size() != b.allocations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    if (!same_bits(a.allocations[i].module_w.value(),
                   b.allocations[i].module_w.value()) ||
        !same_bits(a.allocations[i].cpu_cap_w.value(),
                   b.allocations[i].cpu_cap_w.value()) ||
        !same_bits(a.allocations[i].dram_w.value(),
                   b.allocations[i].dram_w.value())) {
      return false;
    }
  }
  return true;
}

bool identical(const vapb::core::RunMetrics& a,
               const vapb::core::RunMetrics& b) {
  if (a.workload != b.workload || a.scheme != b.scheme ||
      !same_bits(a.budget_w, b.budget_w) || a.feasible != b.feasible ||
      a.constrained != b.constrained || !same_bits(a.alpha, b.alpha) ||
      !same_bits(a.target_freq_ghz, b.target_freq_ghz) ||
      !same_bits(a.makespan_s, b.makespan_s) ||
      !same_bits(a.total_power_w, b.total_power_w) ||
      !same_bits(a.total_cpu_power_w, b.total_cpu_power_w) ||
      !same_bits(a.total_dram_power_w, b.total_dram_power_w) ||
      a.modules.size() != b.modules.size() ||
      a.des.ranks.size() != b.des.ranks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.modules.size(); ++i) {
    const auto& x = a.modules[i];
    const auto& y = b.modules[i];
    if (x.id != y.id || x.op.throttled != y.op.throttled ||
        !same_bits(x.alloc_module_w, y.alloc_module_w) ||
        !same_bits(x.cpu_cap_w, y.cpu_cap_w) ||
        !same_bits(x.op.freq_ghz, y.op.freq_ghz) ||
        !same_bits(x.op.duty, y.op.duty) ||
        !same_bits(x.op.cpu_w, y.op.cpu_w) ||
        !same_bits(x.op.dram_w, y.op.dram_w) ||
        !same_bits(x.op.perf_freq_ghz, y.op.perf_freq_ghz)) {
      return false;
    }
  }
  const std::vector<double>& fa = a.des.finish_times();
  const std::vector<double>& fb = b.des.finish_times();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (!same_bits(fa[i], fb[i])) return false;
  }
  return true;
}

void put_stage_metrics(Outcome& out, const vapb::util::Telemetry& t,
                       double passes) {
  for (const char* stage :
       {"calibrate", "model", "solve", "enforce", "execute"}) {
    auto it = t.stages().find(stage);
    const double calls =
        it == t.stages().end() ? 0.0 : static_cast<double>(it->second.calls);
    const double secs = it == t.stages().end() ? 0.0 : it->second.total_s;
    const std::string prefix = std::string("stage.") + stage;
    out.per_layer[prefix + ".calls"] = ratio(calls, passes);
    out.per_layer[prefix + ".s"] = ratio(secs, passes);
  }
}

Passes run_passes(const Options& opt, Tracer& tracer, Outcome& out,
                  const std::function<void(std::size_t)>& pass,
                  const std::function<void()>& restart) {
  std::size_t k = 0;
  const auto run_for = [&](double seconds) {
    const double t0 = now_s();
    Passes p;
    for (int i = 0; i < 3; ++i) p.kernel_s.push_back(reference_kernel_s());
    do {
      const double c0 = cpu_s();
      p.wall_s.push_back(time_s([&] { pass(k++); }));
      p.cpu_s.push_back(cpu_s() - c0);
      p.kernel_s.push_back(reference_kernel_s());
    } while (now_s() - t0 < seconds);
    return p;
  };
  // One untimed pass first, so lazy set-up and a cold CPU do not land in
  // the first timed pass.
  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  pass(k++);
  restart();
  if (!traced) return run_for(opt.seconds);

  const Passes untraced = run_for(opt.seconds / 2.0);
  restart();
  tracer.set_enabled(true);
  Passes p = run_for(opt.seconds / 2.0);
  out.per_layer["trace.overhead_frac"] =
      ratio(median(p.cpu_s), median(untraced.cpu_s)) - 1.0;
  return p;
}

}  // namespace perfbench
