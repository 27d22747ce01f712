// service_mix: vapbd's traffic in-process. One generator thread drives
// kClients closed-loop clients: each sends its next request line only after
// its previous reply arrived. A line goes parse_request_json ->
// BudgetService::submit -> reply_to_json (full allocation vector).
//
// Set-up clears the CalibrationCache and warms the 1,920-module fleet with
// calibrate_state (PVT, test runs and the VaPc/VaFs PMTs of four workloads)
// plus their oracle PMTs, so timed passes start warm and never touch a
// sensor. Each pass replays the same seed-drawn stream through a fresh
// service (empty reply LRU), so every pass does the same work.
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench/common.hpp"
#include "core/pipeline.hpp"
#include "core/scheme_registry.hpp"
#include "core/stages.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "service/budget_service.hpp"
#include "service/server.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace vapb;

namespace {

constexpr std::size_t kModules = 1920;
constexpr std::size_t kClients = 4;
constexpr std::size_t kServiceWorkers = 2;
constexpr std::size_t kLinesPerPass = 1024;
constexpr std::size_t kUniqueSample = 16;  ///< unique keys checked directly
const std::vector<std::string> kWorkloads = {"MHD", "*DGEMM", "*STREAM",
                                             "NPB-BT"};
const std::vector<std::string> kSchemes = {"VaPc", "VaFs"};

/// The fleet warmed through the CalibrationCache, then packaged by
/// calibrate_state (which then only hits the cache). Test runs, PMTs and
/// oracle PMTs are built concurrently on `pool`, one span per artifact.
service::ClusterState set_up(util::ThreadPool& pool, Tracer& tracer) {
  core::CalibrationCache& cache = core::CalibrationCache::global();
  std::shared_ptr<const cluster::Cluster> c;
  {
    Tracer::Scope s(tracer, "cluster.fabricate");
    c = std::make_shared<const cluster::Cluster>(
        hw::ha8k(), bench::master_seed(), kModules);
  }
  const std::vector<hw::ModuleId> alloc = bench::full_allocation(kModules);
  std::shared_ptr<const core::Pvt> pvt;
  {
    Tracer::Scope s(tracer, "pvt.generate");
    pvt = cache.pvt(*c, workloads::pvt_microbench(), c->seed().fork("pvt"));
  }
  const std::int64_t parent = tracer.current();
  std::vector<std::shared_ptr<const core::TestRunResult>> tests(
      kWorkloads.size());
  util::parallel_for(
      pool, kWorkloads.size(),
      [&](std::size_t i) {
        Tracer::Scope s(tracer, "calib.test_run", parent);
        const workloads::Workload& w = workloads::by_name(kWorkloads[i]);
        tests[i] =
            cache.test_run(*c, alloc.front(), w, core::test_run_seed(*c, w));
      },
      1);

  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < kWorkloads.size(); ++i) {
    const workloads::Workload* w = &workloads::by_name(kWorkloads[i]);
    tasks.emplace_back([&, w] {
      Tracer::Scope s(tracer, "calib.oracle", parent);
      static_cast<void>(cache.oracle(*c, alloc, *w, core::oracle_seed(*c, *w)));
    });
    for (const std::string& scheme : kSchemes) {
      tasks.emplace_back([&, w, i, scheme] {
        Tracer::Scope s(tracer, "calib.pmt", parent);
        const core::SchemeDefinition def =
            core::SchemeRegistry::global().get(scheme);
        core::RunContext ctx;
        ctx.cluster = c.get();
        ctx.allocation = alloc;
        ctx.workload = w;
        ctx.scheme = scheme;
        ctx.seed = core::Runner::scheme_seed(*c, *w, scheme);
        ctx.pvt = pvt;
        ctx.test = tests[i];
        core::CachedPowerModelStage(def.power_model).model(ctx);
      });
    }
  }
  util::parallel_for(pool, tasks.size(), [&](std::size_t i) { tasks[i](); },
                     1);
  return service::calibrate_state(c, alloc, kWorkloads, kSchemes);
}

/// The reply a direct pipeline run gives for `req`, outside the service:
/// calibrate -> model (the warmed table) -> solve for kSolve; the cached
/// scheme run for kRun.
service::BudgetReply direct_reply(const service::ClusterState& state,
                                  const service::BudgetRequest& req) {
  const workloads::Workload& w = workloads::by_name(req.workload);
  const cluster::Cluster& c = *state.cluster;
  service::BudgetReply reply;
  reply.request = req;
  reply.ok = true;
  const std::shared_ptr<const core::TestRunResult>& test =
      state.test_runs.at(w.name);
  const std::shared_ptr<const core::Pmt>& pmt =
      state.pmts.at(req.scheme + '/' + w.name);
  if (req.kind == service::RequestKind::kRun) {
    const std::shared_ptr<const core::Pmt> truth =
        core::CalibrationCache::global().oracle(c, state.allocation, w,
                                                core::oracle_seed(c, w));
    reply.cls = core::classify_cell(*truth, req.budget_w);
    if (reply.cls == core::CellClass::kInfeasible) {
      reply.metrics = core::infeasible_run_metrics(w, req.scheme, req.budget_w);
      return reply;
    }
    core::RunConfig cfg;
    cfg.run_salt = req.salt;
    const core::Runner runner(c, state.allocation, cfg);
    reply.metrics = core::run_scheme_cached(c, runner, w, req.scheme,
                                            req.budget_w, *state.pvt, *test,
                                            pmt);
    return reply;
  }
  const core::SchemeDefinition def =
      core::SchemeRegistry::global().get(req.scheme);
  core::RunContext ctx;
  ctx.cluster = &c;
  ctx.allocation = state.allocation;
  ctx.workload = &w;
  ctx.scheme = req.scheme;
  ctx.budget_w = req.budget_w;
  ctx.seed = core::Runner::scheme_seed(c, w, req.scheme);
  ctx.pvt = state.pvt;
  ctx.test = test;
  if (def.calibration) def.calibration->calibrate(ctx);
  ctx.pmt = pmt;
  def.budget_solve->solve(ctx);
  reply.budget = std::move(*ctx.budget);
  return reply;
}

struct Reference {
  service::BudgetReply reply;
  double direct_s = 0.0;  ///< wall time of the direct computation
};

/// Per-request record of one pass.
struct Slot {
  double sent_s = 0.0;
  double latency_s = 0.0;
  std::int64_t span = Tracer::kNone;
  bool lru_hit = false;  ///< the handler ran inside submit()
  std::shared_future<service::ReplyPtr> reply;
};

}  // namespace

Outcome run_service_mix(const Options& opt, Tracer& tracer) {
  Outcome out;
  service::ClusterState state;
  util::ThreadPool setup_pool(kSetupThreads - 1);  // the caller is the last
  const std::vector<double> setups = repeat_setup(
      tracer,
      [&] {
        state = service::ClusterState{};
        core::CalibrationCache::global().clear();
      },
      [&] { state = set_up(setup_pool, tracer); });

  // The stream, and direct references for every hot and run key plus the
  // first kUniqueSample unique solve keys.
  const std::vector<std::string> lines =
      service_lines(opt.seed, kLinesPerPass, kModules);
  std::vector<std::string> keys(lines.size());
  std::map<std::string, Reference> refs;
  std::map<std::string, std::size_t> key_counts;
  std::vector<service::BudgetRequest> parsed(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::int64_t id = 0;
    std::string cmd;
    parsed[i] = service::parse_request_json(lines[i], id, cmd);
    keys[i] = parsed[i].cache_key();
    ++key_counts[keys[i]];
  }
  std::size_t unique_checked = 0;
  std::vector<double> direct_solve_s, direct_run_s, solve_budget_s;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const service::BudgetRequest& req = parsed[i];
    const bool unique = key_counts[keys[i]] == 1 &&
                        req.kind == service::RequestKind::kSolve;
    if (refs.count(keys[i]) != 0) continue;
    if (unique && unique_checked >= kUniqueSample) continue;
    if (unique) ++unique_checked;
    Reference ref;
    ref.direct_s = time_s([&] { ref.reply = direct_reply(state, req); });
    if (req.kind == service::RequestKind::kRun) {
      direct_run_s.push_back(ref.direct_s);
    } else {
      direct_solve_s.push_back(ref.direct_s);
      const core::Pmt& pmt =
          *state.pmts.at(req.scheme + '/' + req.workload);
      solve_budget_s.push_back(time_s([&] {
        static_cast<void>(core::solve_budget(pmt, util::Watts{req.budget_w}));
      }));
    }
    refs.emplace(keys[i], std::move(ref));
  }

  service::ServiceConfig config;
  config.worker_threads = kServiceWorkers;
  double hits0 = 0.0, misses0 = 0.0;  // cache counters when timing began

  // Accumulated over the counted passes.
  std::vector<double> latencies, overheads;
  service::BudgetService::Stats totals;
  std::size_t passes = 0;
  std::uint64_t reply_bytes = 0;

  const auto pass = [&](std::size_t k) {
    const Tracer::Scope p(tracer, "service.pass");
    std::vector<Slot> slots(lines.size());
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::size_t> idle;  // clients waiting to send; guarded
    std::size_t completed = 0;     // guarded by mutex
    std::uint64_t bytes = 0;       // guarded by mutex
    for (std::size_t c = 0; c < kClients; ++c) idle.push_back(c);
    const std::thread::id generator = std::this_thread::get_id();

    service::BudgetService svc(config);
    svc.register_cluster(state);
    std::size_t next = 0;
    for (;;) {
      std::size_t client = 0;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] {
          return !idle.empty() || completed == lines.size();
        });
        if (completed == lines.size()) break;
        client = idle.front();
        idle.pop_front();
      }
      if (next == lines.size()) continue;
      const std::size_t i = next++;
      Slot& slot = slots[i];
      const std::uint64_t request_id = k * lines.size() + i + 1;
      slot.sent_s = now_s();
      slot.span = tracer.begin("service.request", p.id(), request_id);
      std::int64_t id = 0;
      std::string cmd;
      service::BudgetRequest req;
      {
        const Tracer::Scope s(tracer, "codec.parse", slot.span, request_id);
        req = service::parse_request_json(lines[i], id, cmd);
      }
      const auto done = [&, i, id, client,
                         request_id](const service::BudgetReply& reply) {
        Slot& sl = slots[i];
        std::string text;
        {
          const Tracer::Scope s(tracer, "codec.reply", sl.span, request_id);
          text = service::reply_to_json(reply, id);
        }
        sl.latency_s = now_s() - sl.sent_s;
        sl.lru_hit = std::this_thread::get_id() == generator;
        tracer.end(sl.span);
        {
          std::lock_guard lock(mutex);
          bytes += text.size();
          ++completed;
          idle.push_back(client);
        }
        cv.notify_one();
      };
      const Tracer::Scope s(tracer, "service.submit", slot.span, request_id);
      slot.reply = svc.submit(std::move(req), done);
    }
    const service::BudgetService::Stats st = svc.stats();
    totals.requests += st.requests;
    totals.computed += st.computed;
    totals.dedup_hits += st.dedup_hits;
    totals.reply_hits += st.reply_hits;
    totals.batches += st.batches;
    reply_bytes += bytes;

    // Checks run after the pass, off the latency path.
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const service::BudgetReply& reply = *slots[i].reply.get();
      bool ok = reply.ok;
      auto ref = refs.find(keys[i]);
      if (ok && ref != refs.end()) {
        const service::BudgetReply& want = ref->second.reply;
        ok = reply.request.kind == service::RequestKind::kRun
                 ? reply.cls == want.cls &&
                       identical(reply.metrics, want.metrics)
                 : identical(reply.budget, want.budget);
        if (!slots[i].lru_hit) {
          overheads.push_back(slots[i].latency_s - ref->second.direct_s);
        }
      }
      out.check(ok, "reply differs from the direct pipeline run: " +
                        lines[i] + (reply.ok ? "" : " (" + reply.error + ")"));
      latencies.push_back(slots[i].latency_s);
    }
    ++passes;
  };
  const auto restart = [&] {
    latencies.clear();
    overheads.clear();
    totals = service::BudgetService::Stats{};
    passes = 0;
    const core::CalibrationCache::Stats now =
        core::CalibrationCache::global().stats();
    hits0 = static_cast<double>(now.hits);
    misses0 = static_cast<double>(now.misses);
  };
  const Passes timed = run_passes(opt, tracer, out, pass, restart);
  const std::vector<double>& walls = timed.wall_s;
  const core::CalibrationCache::Stats cache_after =
      core::CalibrationCache::global().stats();

  const double n = static_cast<double>(passes);
  const double rps = static_cast<double>(kLinesPerPass) / median(walls);
  const double requests = static_cast<double>(latencies.size());
  const double p99 = percentile(latencies, 0.99);
  std::size_t beyond = 0;
  for (const double l : latencies) beyond += l > p99 ? 1 : 0;
  put_end_to_end(out, setups, timed, static_cast<double>(kLinesPerPass),
                 median(latencies) * 1e3);
  out.note("service_rps = %.6g req/s (throughput_per_s; closed loop, %zu "
           "clients, %zu service workers, %zu passes of %zu requests over "
           "the median pass)",
           rps, kClients, kServiceWorkers, passes, kLinesPerPass);
  out.note("service_p50_ms = %.6g ms (latency_p50_ms)",
           median(latencies) * 1e3);
  out.note("service_p99_ms = %.6g ms over %.0f samples (%zu beyond p99)",
           p99 * 1e3, requests, beyond);
  out.note("calibration cache: cleared before each set-up; timed passes "
           "start warm; each pass starts a fresh service (empty reply LRU)");
  out.note("direct references: %zu keys (%zu unique-budget solves)",
           refs.size(), unique_checked);

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
  const double hits = static_cast<double>(cache_after.hits) - hits0;
  const double misses = static_cast<double>(cache_after.misses) - misses0;
  L["cache.hits"] = hits / n;
  L["cache.misses"] = misses / n;
  L["cache.hit_ratio"] = ratio(hits, hits + misses);
  L["solve.direct_us"] = median(solve_budget_s) * 1e6;
  L["service.requests"] = static_cast<double>(totals.requests) / n;
  L["service.computed"] = static_cast<double>(totals.computed) / n;
  L["service.dedup_hits"] = static_cast<double>(totals.dedup_hits) / n;
  L["service.reply_hits"] = static_cast<double>(totals.reply_hits) / n;
  L["service.batches"] = static_cast<double>(totals.batches) / n;
  L["service.mean_batch"] = ratio(static_cast<double>(totals.computed),
                                  static_cast<double>(totals.batches));
  L["service.compute_ratio"] = ratio(static_cast<double>(totals.computed),
                                     static_cast<double>(totals.requests));
  L["service.direct_solve_us"] = median(direct_solve_s) * 1e6;
  L["service.direct_run_ms"] = median(direct_run_s) * 1e3;
  L["service.overhead_ms"] = median(overheads) * 1e3;
  L["codec.parse_us"] = median(tracer.durations("codec.parse")) * 1e6;
  L["codec.reply_us"] = median(tracer.durations("codec.reply")) * 1e6;
  if (reply_bytes == 0) out.check(false, "no reply bytes produced");
  return out;
}

}  // namespace perfbench
