// sweep_reps: the Figure 7 / Table 4 grid (6 apps x 23 checked budgets x 6
// schemes) through CampaignEngine on the 1,920-module HA8K fleet, kReps
// repetitions per pass with a fresh seed-drawn salt per pass.
//
// Set-up clears the CalibrationCache and builds the PVT, test runs, oracle
// PMTs and every scheme's PMT through it, so timed passes start warm and do
// the same work: enforcement, DES execution and the campaign fan-out.
#include <cmath>
#include <functional>
#include <memory>

#include "bench/common.hpp"
#include "core/pipeline.hpp"
#include "core/scheme_registry.hpp"
#include "core/stages.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace vapb;

namespace {

constexpr std::size_t kModules = 1920;
/// CampaignEngine pool workers; the calling thread runs jobs too, so
/// kThreads + 1 jobs run at once.
constexpr std::size_t kThreads = 2;
constexpr int kReps = 2;

struct Fleet {
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<core::CampaignEngine> engine;
};

/// Fabricates the fleet and warms every calibration artifact the sweep
/// reads. Test runs, oracle PMTs and scheme PMTs are independent, so they
/// are built concurrently on `pool`, one span per artifact.
void set_up(Fleet& f, const std::vector<hw::ModuleId>& alloc,
            util::ThreadPool& pool, Tracer& tracer) {
  core::CalibrationCache& cache = core::CalibrationCache::global();
  {
    Tracer::Scope s(tracer, "cluster.fabricate");
    f.cluster = std::make_unique<cluster::Cluster>(
        hw::ha8k(), bench::master_seed(), kModules);
  }
  const cluster::Cluster& c = *f.cluster;
  std::shared_ptr<const core::Pvt> pvt;
  {
    Tracer::Scope s(tracer, "pvt.generate");
    pvt = cache.pvt(c, workloads::pvt_microbench(), c.seed().fork("pvt"));
  }
  f.engine = std::make_unique<core::CampaignEngine>(c, alloc, kThreads);

  const std::vector<const workloads::Workload*> apps =
      workloads::evaluation_suite();
  const std::int64_t parent = tracer.current();
  std::vector<std::shared_ptr<const core::TestRunResult>> tests(apps.size());
  util::parallel_for(
      pool, apps.size(),
      [&](std::size_t i) {
        Tracer::Scope s(tracer, "calib.test_run", parent);
        tests[i] = cache.test_run(c, alloc.front(), *apps[i],
                                  core::test_run_seed(c, *apps[i]));
      },
      1);

  std::vector<std::function<void()>> tasks;
  for (const workloads::Workload* w : apps) {
    tasks.emplace_back([&, w] {
      Tracer::Scope s(tracer, "calib.oracle", parent);
      static_cast<void>(cache.oracle(c, alloc, *w, core::oracle_seed(c, *w)));
    });
  }
  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (const core::SchemeKind kind : core::all_schemes()) {
      tasks.emplace_back([&, i, kind] {
        Tracer::Scope s(tracer, "calib.pmt", parent);
        const std::string scheme = core::scheme_name(kind);
        const core::SchemeDefinition def =
            core::SchemeRegistry::global().get(scheme);
        if (!def.power_model) return;
        core::RunContext ctx;
        ctx.cluster = &c;
        ctx.allocation = alloc;
        ctx.workload = apps[i];
        ctx.scheme = scheme;
        ctx.seed = core::Runner::scheme_seed(c, *apps[i], scheme);
        ctx.pvt = pvt;
        ctx.test = tests[i];
        core::CachedPowerModelStage(def.power_model).model(ctx);
      });
    }
  }
  util::parallel_for(pool, tasks.size(), [&](std::size_t i) { tasks[i](); },
                     1);
}

bool finite_metrics(const core::RunMetrics& m) {
  bool ok = std::isfinite(m.alpha) && std::isfinite(m.target_freq_ghz) &&
            std::isfinite(m.makespan_s) && std::isfinite(m.total_power_w) &&
            std::isfinite(m.total_cpu_power_w) &&
            std::isfinite(m.total_dram_power_w);
  if (m.feasible && !m.modules.empty()) {
    ok = ok && std::isfinite(m.vp()) && std::isfinite(m.vf());
  }
  return ok;
}

}  // namespace

Outcome run_sweep_reps(const Options& opt, Tracer& tracer) {
  Outcome out;
  const std::vector<hw::ModuleId> alloc = bench::full_allocation(kModules);

  Fleet fleet;
  util::ThreadPool setup_pool(kSetupThreads - 1);  // the caller is the last
  const std::vector<double> setups = repeat_setup(
      tracer,
      [&] {
        fleet.engine.reset();  // it refers to the cluster
        fleet.cluster.reset();
        core::CalibrationCache::global().clear();
      },
      [&] { set_up(fleet, alloc, setup_pool, tracer); });

  const std::vector<core::CampaignSpec> specs =
      bench::fig7_specs(kModules, kReps);
  const std::vector<std::uint64_t> salts = sweep_salts(opt.seed, 4096);

  // Accumulated over the counted passes.
  util::Telemetry telemetry;
  double jobs = 0.0, rank_iters = 0.0, hits = 0.0, misses = 0.0;
  std::size_t passes = 0;

  const auto pass = [&](std::size_t k) {
    Tracer::Scope p(tracer, "sweep.pass");
    for (core::CampaignSpec spec : specs) {
      spec.config.run_salt = salts[k % salts.size()];
      core::CampaignResult r;
      {
        Tracer::Scope s(tracer, "campaign.run");
        r = fleet.engine->run(spec);
      }
      telemetry.merge(r.telemetry);
      hits += static_cast<double>(r.cache.hits);
      misses += static_cast<double>(r.cache.misses);
      for (const core::CampaignJobResult& j : r.jobs) {
        const core::RunMetrics& m = j.metrics;
        const core::SchemeDefinition def =
            core::SchemeRegistry::global().get(j.job.scheme);
        const std::string where = j.job.workload->name + " @ " +
                                  std::to_string(j.job.budget_w) + " W, " +
                                  j.job.scheme;
        out.check(finite_metrics(m), "non-finite metric: " + where);
        if (m.feasible && j.cls != core::CellClass::kInfeasible) {
          rank_iters += static_cast<double>(m.des.ranks.size()) *
                        j.job.workload->default_iterations;
          if (def.enforcement == core::Enforcement::kPowerCap &&
              def.name != "Naive") {
            out.check(m.total_power_w <= 1.02 * j.job.budget_w,
                      "budget overshoot: " + where);
          }
          if (def.enforcement == core::Enforcement::kFreqSelect) {
            out.check(std::fabs(m.vf() - 1.0) <= 1e-9,
                      "Vf != 1 under frequency selection: " + where);
          }
        }
        jobs += 1.0;
      }
    }
    ++passes;
  };
  const auto restart = [&] {
    telemetry = util::Telemetry{};
    jobs = rank_iters = hits = misses = 0.0;
    passes = 0;
  };
  const Passes timed = run_passes(opt, tracer, out, pass, restart);
  const std::vector<double>& walls = timed.wall_s;

  const double wall = sum(walls);
  const double n = static_cast<double>(passes);
  put_end_to_end(out, setups, timed, jobs / n, median(walls) * 1e3);
  out.note("sweep_jobs_per_s = %.6g jobs/s (throughput_per_s; %zu passes of "
           "%.0f jobs over the median pass, %d repetitions, %zu jobs at once)",
           jobs / n / median(walls), passes, jobs / n, kReps, kThreads + 1);
  out.note("pass_p50_ms = %.6g ms (latency_p50_ms: one full grid pass)",
           median(walls) * 1e3);
  out.note("calibration cache: cleared before each set-up; timed passes "
           "start warm (%.0f hits, %.0f misses per pass)",
           hits / n, misses / n);

  auto& L = out.per_layer;
  const auto setup_count = static_cast<double>(setups.size());
  L["cluster.fabricate_s"] = median(tracer.durations("cluster.fabricate"));
  L["pvt.generate_s"] = median(tracer.durations("pvt.generate"));
  L["pvt.measurements"] = 4.0 * kModules;
  // Busy seconds per set-up, summed over the concurrent artifact builds.
  L["calib.test_run_s"] =
      sum(tracer.durations("calib.test_run")) / setup_count;
  L["calib.oracle_s"] = sum(tracer.durations("calib.oracle")) / setup_count;
  L["calib.pmt_s"] = sum(tracer.durations("calib.pmt")) / setup_count;
  L["cache.hits"] = hits / n;
  L["cache.misses"] = misses / n;
  L["cache.hit_ratio"] = ratio(hits, hits + misses);
  put_stage_metrics(out, telemetry, n);
  L["des.rank_iters"] = rank_iters / n;
  const auto exec = telemetry.stages().find("execute");
  L["des.rank_iters_per_s"] =
      exec == telemetry.stages().end()
          ? 0.0
          : ratio(rank_iters, exec->second.total_s);
  L["campaign.jobs"] = jobs / n;
  double stage_s = 0.0;
  for (const auto& [name, st] : telemetry.stages()) stage_s += st.total_s;
  L["campaign.busy_frac"] = ratio(stage_s, wall * (kThreads + 1));
  return out;
}

}  // namespace perfbench
