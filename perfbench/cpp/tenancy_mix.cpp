// tenancy_mix: the six-job co-scheduling trace on the 1,920-module
// cpu:1536,gpu:320,dram:64 fleet at 72 W/module, at the four placement x
// partition points. Each timed pass clears the CalibrationCache and runs the
// four points concurrently, one MachineScheduler per point, so every pass
// pays the per-segment recalibration (test runs and oracle PMTs of each new
// allocation). The DES salt comes from --seed and stays fixed within a run,
// so every pass must return bit-identical results.
#include <exception>
#include <memory>
#include <thread>

#include "bench/common.hpp"
#include "core/pvt.hpp"
#include "hw/device_class.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "tenancy/campaign.hpp"

namespace perfbench {

using namespace vapb;

namespace {

constexpr std::size_t kModules = 1920;
constexpr double kBudgetCmW = 72.0;

/// The fleet's 24:5:1 cpu:gpu:dram composition scaled to n.
hw::ClassMix hetero_mix(std::size_t n) {
  hw::ClassMix mix;
  const std::size_t gpu = n / 6;
  const std::size_t dram = n / 30;
  mix.counts[hw::device_class_index(hw::DeviceClass::kGpu)] = gpu;
  mix.counts[hw::device_class_index(hw::DeviceClass::kDram)] = dram;
  mix.counts[hw::device_class_index(hw::DeviceClass::kCpu)] = n - gpu - dram;
  return mix;
}

/// Six jobs, four concurrent at peak, each a quarter of the fleet.
tenancy::TenancyTrace make_trace() {
  const std::string mix = hetero_mix(kModules / 4).str();
  tenancy::TenancyTrace trace;
  trace.budget_cm_w = kBudgetCmW;
  const struct {
    const char* name;
    const char* workload;
    double arrival_s;
    int iterations;
  } jobs[] = {
      {"j0", "NPB-EP", 0.0, 6},  {"j1", "*STREAM", 0.0, 8},
      {"j2", "MHD", 10.0, 6},    {"j3", "*DGEMM", 20.0, 4},
      {"j4", "NPB-BT", 30.0, 6}, {"j5", "mVMC", 40.0, 6},
  };
  for (const auto& j : jobs) {
    tenancy::JobSpec spec;
    spec.name = j.name;
    spec.workload = j.workload;
    spec.mix = mix;
    spec.arrival_s = j.arrival_s;
    spec.iterations = j.iterations;
    trace.jobs.push_back(std::move(spec));
  }
  trace.validate();
  return trace;
}

bool identical(const tenancy::TenancyResult& a,
               const tenancy::TenancyResult& b) {
  if (a.trace_fingerprint != b.trace_fingerprint ||
      a.jobs.size() != b.jobs.size() || a.resolves != b.resolves ||
      !same_bits(a.makespan_s, b.makespan_s) ||
      !same_bits(a.throughput_jph, b.throughput_jph) ||
      !same_bits(a.mean_wait_s, b.mean_wait_s) ||
      !same_bits(a.mean_slowdown, b.mean_slowdown) ||
      !same_bits(a.jain_fairness, b.jain_fairness) ||
      !same_bits(a.energy_j, b.energy_j) ||
      !same_bits(a.power_utilization, b.power_utilization)) {
    return false;
  }
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const tenancy::JobOutcome& x = a.jobs[i];
    const tenancy::JobOutcome& y = b.jobs[i];
    if (x.name != y.name || x.allocation != y.allocation ||
        x.segments != y.segments || x.stalls != y.stalls ||
        x.modules_lost != y.modules_lost || !same_bits(x.start_s, y.start_s) ||
        !same_bits(x.finish_s, y.finish_s) ||
        !same_bits(x.solo_s, y.solo_s) ||
        !same_bits(x.energy_j, y.energy_j) ||
        !same_bits(x.final_budget_w, y.final_budget_w) ||
        !perfbench::identical(x.final_metrics, y.final_metrics)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Outcome run_tenancy_mix(const Options& opt, Tracer& tracer) {
  Outcome out;
  std::unique_ptr<cluster::Cluster> fleet;
  std::shared_ptr<const core::Pvt> pvt;
  const std::vector<double> setups = repeat_setup(
      tracer,
      [&] {
        pvt.reset();
        fleet.reset();
        core::CalibrationCache::global().clear();
      },
      [&] {
        {
          Tracer::Scope f(tracer, "cluster.fabricate");
          fleet = std::make_unique<cluster::Cluster>(
              hw::ha8k(), bench::master_seed(), hetero_mix(kModules));
        }
        Tracer::Scope p(tracer, "pvt.generate");
        pvt = std::make_shared<const core::Pvt>(core::Pvt::generate(
            *fleet, workloads::pvt_microbench(), fleet->seed().fork("pvt")));
      });

  tenancy::TenancyGrid grid;
  grid.arrival_scales = {1.0};
  grid.policies = {
      {"contiguous", "equal-share"},
      {"contiguous", "water-fill"},
      {"variation-aware", "equal-share"},
      {"variation-aware", "water-fill"},
  };
  grid.base = make_trace();
  const std::vector<tenancy::TenancyTrace> traces =
      tenancy::TenancyCampaign::expand(grid);
  const std::size_t points = traces.size();
  tenancy::TenancyOptions options;
  options.config.run_salt = tenancy_salt(opt.seed);

  // Accumulated over the counted passes.
  util::Telemetry telemetry;
  double resolves = 0.0, stalls = 0.0, hits = 0.0, misses = 0.0;
  std::size_t passes = 0;
  std::vector<tenancy::TenancyResult> first;  // pass 0, the reference

  const auto pass = [&](std::size_t) {
    core::CalibrationCache& cache = core::CalibrationCache::global();
    cache.clear();
    const core::CalibrationCache::Stats before = cache.stats();
    const Tracer::Scope p(tracer, "tenancy.pass");
    std::vector<tenancy::TenancyResult> results(points);
    std::vector<util::Telemetry> sinks(points);
    std::vector<std::string> errors(points);
    {
      std::vector<std::jthread> threads;  // joined on every exit path
      for (std::size_t j = 0; j < points; ++j) {
        threads.emplace_back([&, j] {
          try {
            const Tracer::Scope s(tracer, "tenancy.point", p.id());
            tenancy::TenancyOptions o = options;
            if (tracer.enabled()) o.config.telemetry = &sinks[j];
            results[j] =
                tenancy::MachineScheduler(*fleet, pvt, o).run(traces[j]);
          } catch (const std::exception& e) {
            errors[j] = e.what();
          }
        });
      }
    }
    const core::CalibrationCache::Stats after = cache.stats();
    hits += static_cast<double>(after.hits - before.hits);
    misses += static_cast<double>(after.misses - before.misses);
    for (std::size_t j = 0; j < points; ++j) {
      const std::string where =
          traces[j].placement + "+" + traces[j].partition;
      telemetry.merge(sinks[j]);
      if (!out.check(errors[j].empty(), where + ": " + errors[j])) continue;
      bool finished = results[j].jobs.size() == grid.base.jobs.size();
      for (const tenancy::JobOutcome& job : results[j].jobs) {
        finished = finished && job.finish_s > 0.0 &&
                   job.finish_s >= job.arrival_s;
        stalls += job.stalls;
      }
      resolves += results[j].resolves;
      out.check(finished, where + ": a job did not finish");
      if (first.size() == points) {
        out.check(identical(results[j], first[j]),
                  where + ": pass differs from the first pass");
      }
    }
    if (first.empty()) first = std::move(results);
    ++passes;
  };
  const auto restart = [&] {
    telemetry = util::Telemetry{};
    resolves = stalls = hits = misses = 0.0;
    passes = 0;
  };
  const Passes timed = run_passes(opt, tracer, out, pass, restart);
  const std::vector<double>& walls = timed.wall_s;

  // Off the clock, on the warm cache: TenancyCampaign's own fan-out gives
  // the same points as the per-point schedulers.
  const tenancy::TenancyCampaignResult campaign =
      tenancy::TenancyCampaign(*fleet, pvt, points, options).run(grid);
  for (std::size_t j = 0; j < points && j < first.size(); ++j) {
    out.check(identical(campaign.points[j].result, first[j]),
              "TenancyCampaign differs from the per-point run at " +
                  traces[j].placement + "+" + traces[j].partition);
  }

  const double n = static_cast<double>(passes);
  const double per_s = static_cast<double>(points) / median(walls);
  put_end_to_end(out, setups, timed, static_cast<double>(points),
                 median(walls) * 1e3);
  out.note("tenancy_points_per_s = %.6g points/s (throughput_per_s; %zu "
           "passes of %zu points over the median pass, one thread per point)",
           per_s, passes, points);
  out.note("pass_p50_ms = %.6g ms (latency_p50_ms: all four points)",
           median(walls) * 1e3);
  out.note("calibration cache: cleared before each set-up and each pass");

  auto& L = out.per_layer;
  L["cluster.fabricate_s"] = median(tracer.durations("cluster.fabricate"));
  L["pvt.generate_s"] = median(tracer.durations("pvt.generate"));
  L["pvt.measurements"] = 4.0 * kModules;
  L["cache.hits"] = hits / n;
  L["cache.misses"] = misses / n;
  L["cache.hit_ratio"] = ratio(hits, hits + misses);
  put_stage_metrics(out, telemetry, n);
  const std::vector<double> point_s = tracer.durations("tenancy.point");
  double point_total = 0.0;
  for (const double s : point_s) point_total += s;
  L["tenancy.point_s"] = median(point_s);
  L["tenancy.resolves"] = resolves / n;
  L["tenancy.s_per_resolve"] = ratio(point_total, resolves);
  L["tenancy.stalls"] = stalls / n;
  return out;
}

}  // namespace perfbench
