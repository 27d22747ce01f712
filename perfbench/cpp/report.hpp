// What one workload run reports, the fixed metric catalogs, and the shared
// timing / comparison helpers the workloads use.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/budget.hpp"
#include "core/runner.hpp"
#include "tracer.hpp"
#include "util/telemetry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// Everything a workload run produces. `end_to_end` and `per_layer` are
/// keyed by catalog name (see end_to_end_catalog / per_layer_catalog).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failed check
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable summary lines printed before the result object.
  std::vector<std::string> notes;

  /// Counts one checked operation; records `why` and counts a failure when
  /// `ok` is false. Returns `ok`.
  bool check(bool ok, const std::string& why);
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics every untraced run reports, in print order.
const std::vector<MetricDef>& end_to_end_catalog();
/// The metrics every traced run reports, in print order. A layer a workload
/// does not exercise reports 0.
const std::vector<MetricDef>& per_layer_catalog();

/// Prints the summary and, as the last line, the result object. Returns the
/// process exit code: 0, or 3 without printing anything when the outcome
/// holds a metric the catalog lacks.
int print_result(const Options& opt, const Outcome& out);

// -- helpers -----------------------------------------------------------------

constexpr std::size_t kSetupThreads = 4;  ///< concurrent set-up tasks

/// Runs `release` and then a timed `build`, each build under a "setup" span:
/// at least 3 times, and more (up to 9) while the builds took under 2 s in
/// all, so a cheap set-up is still timed over enough repeats. Returns each
/// build's wall time; setup_s is their median. The timed passes then use
/// the state of the last build.
std::vector<double> repeat_setup(Tracer& tracer,
                                 const std::function<void()>& release,
                                 const std::function<void()>& build);

/// Wall seconds of one call to fn.
double time_s(const std::function<void()>& fn);

[[nodiscard]] double median(std::vector<double> xs);
[[nodiscard]] double sum(const std::vector<double>& xs);
/// Nearest-rank percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> xs, double p);
/// CPU seconds this process has used, over all its threads.
[[nodiscard]] double cpu_s();
/// a / b, or 0 when b is 0.
[[nodiscard]] double ratio(double a, double b);
/// Peak resident set of this process [MB].
[[nodiscard]] double peak_rss_mb();

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
[[nodiscard]] bool identical(const vapb::core::BudgetResult& a,
                             const vapb::core::BudgetResult& b);
[[nodiscard]] bool identical(const vapb::core::RunMetrics& a,
                             const vapb::core::RunMetrics& b);

/// Copies the pipeline stage telemetry (calls and seconds per pass) into
/// the per-layer stage.* metrics.
void put_stage_metrics(Outcome& out, const vapb::util::Telemetry& t,
                       double passes);

/// Wall and process CPU seconds of every counted pass, in run order, and
/// the reference kernel's times taken between passes.
struct Passes {
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> kernel_s;
};

/// The nominal time of reference_kernel_s(); end-to-end times are reported
/// as if the machine ran the kernel in exactly this long.
constexpr double kReferenceKernelS = 0.020;

/// Runs the benchmark's own fixed CPU work (a dependent chain of integer
/// and floating-point operations, no library code, no memory traffic) and
/// returns its thread CPU time. Taken between passes, it tracks how fast
/// the machine runs at that moment: on a shared VM that drifts by 25% over
/// minutes, and the same drift shows in every workload's times.
double reference_kernel_s();

/// Fills the end-to-end metrics from the set-up times, the timed passes,
/// the work per pass and the latency [ms] of one operation. Every time is
/// divided, and the throughput multiplied, by the run's median kernel time
/// over kReferenceKernelS, so host speed drift between runs cancels; the
/// raw values go to the summary.
void put_end_to_end(Outcome& out, const std::vector<double>& setups,
                    const Passes& passes, double ops_per_pass,
                    double latency_ms);

/// Runs `pass(k)`, k = 0, 1, ..., back to back and times every counted
/// pass. Pass 0 is an untimed warm-up, after which `restart` drops what the
/// workload accumulated. Untraced, the passes of the next opt.seconds count.
/// Traced, the first half of the time runs with the tracer off as the
/// baseline of trace.overhead_frac; then `restart` runs again, the tracer is
/// switched on, and only the second half's passes count. Every pass must do
/// the same work, so medians over passes compare across runs.
Passes run_passes(const Options& opt, Tracer& tracer, Outcome& out,
                  const std::function<void(std::size_t)>& pass,
                  const std::function<void()>& restart);

// -- workloads ---------------------------------------------------------------

Outcome run_sweep_reps(const Options& opt, Tracer& tracer);
Outcome run_service_mix(const Options& opt, Tracer& tracer);
Outcome run_fleet_100k(const Options& opt, Tracer& tracer);
Outcome run_tenancy_mix(const Options& opt, Tracer& tracer);

}  // namespace perfbench
