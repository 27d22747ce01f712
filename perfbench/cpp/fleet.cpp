// fleet_100k: a 100,000-module HA8K fleet, far beyond the caches. Set-up
// fabricates it, gathers the SoA view, generates the PVT, runs the MHD test
// run, builds the PMT and a 3-level power tree. Each timed cell takes the
// next rung of a seed-drawn budget ladder and runs the direct flat and tree
// solves followed by a VaPc pipeline run over the tree. Nothing here goes
// through the CalibrationCache.
#include <memory>

#include "bench/common.hpp"
#include "cluster/cluster_soa.hpp"
#include "cluster/power_tree.hpp"
#include "core/pvt.hpp"
#include "core/test_run.hpp"
#include "inputs.hpp"
#include "report.hpp"

namespace perfbench {

using namespace vapb;

namespace {

constexpr std::size_t kModules = 100000;
constexpr int kCellIterations = 4;  ///< DES iterations per cell
constexpr std::size_t kRungs = 8;

struct Fleet {
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<cluster::ClusterSoA> soa;
  std::unique_ptr<core::Pvt> pvt;
  core::TestRunResult test;
  std::unique_ptr<core::Pmt> pmt;
  std::unique_ptr<cluster::PowerTree> tree;
};

void set_up(Fleet& f, const std::vector<hw::ModuleId>& alloc,
            Tracer& tracer) {
  const workloads::Workload& app = workloads::mhd();
  {
    Tracer::Scope s(tracer, "cluster.fabricate");
    f.cluster = std::make_unique<cluster::Cluster>(
        hw::ha8k(), bench::master_seed(), kModules);
  }
  {
    Tracer::Scope s(tracer, "cluster.gather");
    f.soa = std::make_unique<cluster::ClusterSoA>(
        cluster::ClusterSoA::gather(*f.cluster));
  }
  {
    Tracer::Scope s(tracer, "pvt.generate");
    f.pvt = std::make_unique<core::Pvt>(core::Pvt::generate(
        *f.cluster, workloads::pvt_microbench(),
        f.cluster->seed().fork("pvt")));
  }
  {
    Tracer::Scope s(tracer, "calib.test_run");
    f.test = core::single_module_test_run(
        *f.cluster, alloc.front(), app,
        f.cluster->seed().fork("test-run").fork(app.name));
  }
  {
    Tracer::Scope s(tracer, "calib.pmt");
    f.pmt = std::make_unique<core::Pmt>(
        core::calibrate_pmt(*f.pvt, f.test, alloc, f.cluster->spec().ladder));
  }
  Tracer::Scope s(tracer, "cluster.tree_build");
  const std::size_t fanouts[] = {16, 24};
  const double headroom[] = {0.90, 0.85};
  f.tree = std::make_unique<cluster::PowerTree>(
      cluster::PowerTree::uniform_tdp(*f.soa, fanouts, headroom));
}

}  // namespace

Outcome run_fleet_100k(const Options& opt, Tracer& tracer) {
  Outcome out;
  const std::vector<hw::ModuleId> alloc = bench::full_allocation(kModules);
  const workloads::Workload& app = workloads::mhd();

  Fleet fleet;
  const std::vector<double> setups = repeat_setup(
      tracer, [&] { fleet = Fleet{}; },
      [&] { set_up(fleet, alloc, tracer); });

  const std::vector<double> ladder = fleet_ladder(opt.seed, kRungs);
  const double n = static_cast<double>(kModules);

  util::Telemetry telemetry;
  core::RunConfig config;
  config.iterations = kCellIterations;
  config.tree = fleet.tree.get();
  const core::Runner plain(*fleet.cluster, alloc, config);
  config.telemetry = &telemetry;
  const core::Runner traced(*fleet.cluster, alloc, config);
  const core::Runner* runner = &plain;

  std::size_t cells = 0;
  std::vector<double> cell_s;
  // One pass is the whole ladder, so every pass does the same work.
  const auto pass = [&](std::size_t) {
    for (const double cm : ladder) {
      const double budget_w = cm * n;
      const util::Watts budget{budget_w};
      const double t0 = now_s();
      const Tracer::Scope cell(tracer, "fleet.cell");
      core::BudgetResult flat, tree;
      {
        const Tracer::Scope s(tracer, "solve.flat");
        flat = core::solve_budget(*fleet.pmt, budget);
      }
      {
        const Tracer::Scope s(tracer, "solve.tree");
        tree = core::solve_budget_tree(*fleet.pmt, *fleet.tree, budget);
      }
      core::RunMetrics m;
      {
        const Tracer::Scope s(tracer, "pipeline.run_scheme");
        m = runner->run_scheme(app, core::SchemeKind::kVaPc, budget_w,
                               *fleet.pvt, fleet.test);
      }
      cell_s.push_back(now_s() - t0);
      // Predicted totals may exceed the budget by summation rounding only.
      const double limit_w = budget_w * (1.0 + 1e-9);
      const std::string where = std::to_string(budget_w) + " W";
      out.check(flat.predicted_total_w.value() <= limit_w,
                "flat solve over budget at " + where);
      out.check(tree.predicted_total_w.value() <= limit_w,
                "tree solve over budget at " + where);
      out.check(m.feasible && m.modules.size() == kModules,
                "cell at " + where + " returned " +
                    std::to_string(m.modules.size()) + " outcomes");
      ++cells;
    }
  };
  const auto restart = [&] {
    telemetry = util::Telemetry{};
    runner = &traced;
    cells = 0;
    cell_s.clear();
  };
  const Passes timed = run_passes(opt, tracer, out, pass, restart);
  const std::vector<double>& walls = timed.wall_s;

  // Off the clock: the hierarchical solve on the 1-level tree reproduces
  // the flat solve bit for bit on every rung.
  const cluster::PowerTree one_level = cluster::PowerTree::flat(kModules);
  for (const double cm : ladder) {
    const util::Watts budget{cm * n};
    out.check(identical(core::solve_budget(*fleet.pmt, budget),
                        core::solve_budget_tree(*fleet.pmt, one_level, budget)),
              "flat vs 1-level tree solve differ at " +
                  std::to_string(budget.value()) + " W");
  }

  const double passes = static_cast<double>(walls.size());
  const double cells_per_pass = static_cast<double>(ladder.size());
  // One operation is one module in one cell.
  put_end_to_end(out, setups, timed, n * cells_per_pass,
                 median(walls) * 1e3);
  out.note("fleet_modules_per_s = %.6g modules/s (throughput_per_s; %zu "
           "modules x %zu cells per pass over the median pass)",
           n * cells_per_pass / median(walls), kModules, ladder.size());
  out.note("ladder_p50_ms = %.6g ms (latency_p50_ms: one pass over the %zu "
           "rungs, each a flat + tree solve and a VaPc run; %zu cells, cell "
           "p50 %.4g ms)",
           median(walls) * 1e3, ladder.size(), cells, median(cell_s) * 1e3);
  out.note("calibration cache: not used (set-up builds every artifact "
           "directly)");

  auto& L = out.per_layer;
  const auto setup_count = static_cast<double>(setups.size());
  L["cluster.fabricate_s"] = median(tracer.durations("cluster.fabricate"));
  L["cluster.gather_s"] = median(tracer.durations("cluster.gather"));
  L["cluster.tree_build_s"] = median(tracer.durations("cluster.tree_build"));
  L["pvt.generate_s"] = median(tracer.durations("pvt.generate"));
  L["pvt.measurements"] = 4.0 * n;
  L["calib.test_run_s"] =
      sum(tracer.durations("calib.test_run")) / setup_count;
  L["calib.pmt_s"] = sum(tracer.durations("calib.pmt")) / setup_count;
  put_stage_metrics(out, telemetry, passes);
  L["solve.flat_ms"] = median(tracer.durations("solve.flat")) * 1e3;
  L["solve.tree_ms"] = median(tracer.durations("solve.tree")) * 1e3;
  const double rank_iters = n * kCellIterations * cells_per_pass;
  L["des.rank_iters"] = rank_iters;
  const auto exec = telemetry.stages().find("execute");
  L["des.rank_iters_per_s"] =
      exec == telemetry.stages().end()
          ? 0.0
          : ratio(rank_iters * passes, exec->second.total_s);
  return out;
}

}  // namespace perfbench
