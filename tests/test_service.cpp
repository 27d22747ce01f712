// BudgetService tests: batching/dedup correctness under concurrent
// producers, bit-identity against the direct pipeline (including the
// committed 54-cell golden grid served as kRun replies), client-thread-count
// invariance, in-band error replies, the finished-reply LRU, and the
// newline-JSON codec + stream server.
#include "service/budget_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <thread>
#include <tuple>

#include "core/scheme_registry.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"
#include "workloads/catalog.hpp"

namespace vapb::service {
namespace {

constexpr std::size_t kModules = 24;
constexpr std::uint64_t kMasterSeed = 2015;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t mix(std::uint64_t h, double v) {
  return mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix(std::uint64_t h, bool v) {
  return mix(h, static_cast<std::uint64_t>(v));
}

std::uint64_t digest(const core::BudgetResult& b) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, b.fits_at_fmin);
  h = mix(h, b.constrained);
  h = mix(h, b.alpha);
  h = mix(h, b.target_freq_ghz.value());
  h = mix(h, b.predicted_total_w.value());
  for (const core::ModuleBudget& a : b.allocations) {
    h = mix(h, a.module_w.value());
    h = mix(h, a.cpu_cap_w.value());
    h = mix(h, a.dram_w.value());
  }
  return h;
}

/// Local copy of test_pipeline_golden's job digest so the service-served
/// grid can be checked against the same committed file.
std::uint64_t digest(const core::CampaignJobResult& r) {
  const core::RunMetrics& m = r.metrics;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = mix(h, static_cast<std::uint64_t>(r.cls));
  h = mix(h, m.feasible);
  h = mix(h, m.constrained);
  h = mix(h, m.alpha);
  h = mix(h, m.target_freq_ghz);
  h = mix(h, m.makespan_s);
  h = mix(h, m.total_power_w);
  h = mix(h, m.total_cpu_power_w);
  h = mix(h, m.total_dram_power_w);
  if (!std::isnan(r.speedup_vs_naive)) h = mix(h, r.speedup_vs_naive);
  for (const core::ModuleOutcome& mo : m.modules) {
    h = mix(h, std::uint64_t{mo.id});
    h = mix(h, mo.alloc_module_w);
    h = mix(h, mo.cpu_cap_w);
    h = mix(h, mo.op.freq_ghz);
    h = mix(h, mo.op.duty);
    h = mix(h, mo.op.throttled);
    h = mix(h, mo.op.cpu_w);
    h = mix(h, mo.op.dram_w);
    h = mix(h, mo.op.perf_freq_ghz);
  }
  for (double t : m.des.finish_times()) h = mix(h, t);
  for (double t : m.des.sendrecv_times()) h = mix(h, t);
  if (m.feasible && !m.modules.empty()) {
    h = mix(h, m.vp());
    h = mix(h, m.vf());
    if (!m.des.ranks.empty()) h = mix(h, m.vt_raw());
  }
  return h;
}

class ServiceFixture : public ::testing::Test {
 protected:
  ServiceFixture() {
    cluster_ = std::make_shared<const cluster::Cluster>(
        hw::ha8k(), util::SeedSequence(kMasterSeed), kModules);
    alloc_.resize(kModules);
    std::iota(alloc_.begin(), alloc_.end(), hw::ModuleId{0});
  }

  ClusterState make_state() const {
    ClusterState state;
    state.cluster = cluster_;
    state.allocation = alloc_;
    state.pvt = std::make_shared<const core::Pvt>(core::Pvt::generate(
        *cluster_, workloads::pvt_microbench(), cluster_->seed().fork("pvt")));
    return state;
  }

  ServiceConfig config(std::size_t workers = 2) const {
    ServiceConfig cfg;
    cfg.worker_threads = workers;
    cfg.run.iterations = 6;
    return cfg;
  }

  BudgetRequest solve_request(double budget_w,
                              const std::string& workload = "MHD",
                              const std::string& scheme = "VaPc") const {
    BudgetRequest req;
    req.scheme = scheme;
    req.workload = workload;
    req.budget_w = budget_w;
    req.kind = RequestKind::kSolve;
    return req;
  }

  /// The service's competitor and ground truth: the same stages run
  /// directly, no cache, no batching.
  core::BudgetResult direct_solve(const BudgetRequest& req,
                                  const ClusterState& state) const {
    const workloads::Workload& w = workloads::by_name(req.workload);
    core::SchemeDefinition def =
        core::SchemeRegistry::global().get(req.scheme);
    core::RunContext ctx;
    ctx.cluster = cluster_.get();
    ctx.allocation = alloc_;
    ctx.workload = &w;
    ctx.scheme = req.scheme;
    ctx.budget_w = req.budget_w;
    ctx.seed = core::Runner::scheme_seed(*cluster_, w, req.scheme);
    ctx.pvt = state.pvt;
    ctx.test = std::make_shared<const core::TestRunResult>(
        core::single_module_test_run(*cluster_, alloc_.front(), w,
                                     core::test_run_seed(*cluster_, w)));
    if (def.calibration) def.calibration->calibrate(ctx);
    if (def.power_model) def.power_model->model(ctx);
    def.budget_solve->solve(ctx);
    return std::move(*ctx.budget);
  }

  std::shared_ptr<const cluster::Cluster> cluster_;
  std::vector<hw::ModuleId> alloc_;
};

TEST_F(ServiceFixture, SolveMatchesDirectPipelineBitwise) {
  ClusterState state = make_state();
  BudgetService svc(config());
  svc.register_cluster(state);
  for (double cm : {110.0, 92.0, 76.0}) {
    const BudgetRequest req =
        solve_request(cm * static_cast<double>(kModules));
    ReplyPtr reply = svc.solve(req);
    ASSERT_TRUE(reply->ok) << reply->error;
    EXPECT_EQ(digest(reply->budget), digest(direct_solve(req, state)))
        << "budget " << cm;
  }
}

TEST_F(ServiceFixture, ConcurrentDuplicatesComputeExactlyOnce) {
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 16;
  BudgetService svc(config());
  svc.register_cluster(make_state());
  const BudgetRequest req = solve_request(80.0 * kModules);

  std::vector<ReplyPtr> replies(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        replies[static_cast<std::size_t>(p * kPerProducer + i)] =
            svc.submit(req).get();
      }
    });
  }
  for (auto& t : producers) t.join();

  // One pipeline run fanned out to every waiter: all replies are the SAME
  // object, and the counters account for every submission.
  for (const ReplyPtr& r : replies) {
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r.get(), replies.front().get());
  }
  const BudgetService::Stats s = svc.stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.dedup_hits + s.reply_hits,
            static_cast<std::uint64_t>(kProducers * kPerProducer - 1));
}

TEST_F(ServiceFixture, ClientThreadCountDoesNotChangeReplies) {
  // The same 12-request stream submitted from 1 vs 8 client threads (fresh
  // service each) must produce bitwise-identical reply sets.
  std::vector<BudgetRequest> stream;
  for (int i = 0; i < 12; ++i) {
    stream.push_back(solve_request((70.0 + i) * kModules,
                                   i % 2 ? "MHD" : "*DGEMM",
                                   i % 3 ? "VaPc" : "VaFs"));
  }
  const auto run_with_clients = [&](std::size_t clients) {
    BudgetService svc(config());
    svc.register_cluster(make_state());
    std::map<std::string, std::uint64_t> digests;
    std::mutex mu;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < stream.size(); i += clients) {
          ReplyPtr r = svc.submit(stream[i]).get();
          std::lock_guard lock(mu);
          digests[stream[i].cache_key()] =
              r->ok ? digest(r->budget) : 0;
        }
      });
    }
    for (auto& t : threads) t.join();
    return digests;
  };
  const auto serial = run_with_clients(1);
  const auto wide = run_with_clients(8);
  ASSERT_EQ(serial.size(), stream.size());
  EXPECT_EQ(serial, wide);
}

TEST_F(ServiceFixture, ErrorsAreInBandAndDoNotPoisonTheBatch) {
  BudgetService svc(config());
  svc.register_cluster(make_state());

  ReplyPtr bad_scheme = svc.solve(solve_request(1920.0, "MHD", "NoSuch"));
  EXPECT_FALSE(bad_scheme->ok);
  EXPECT_NE(bad_scheme->error.find("NoSuch"), std::string::npos);

  ReplyPtr bad_workload = svc.solve(solve_request(1920.0, "nope"));
  EXPECT_FALSE(bad_workload->ok);
  EXPECT_FALSE(bad_workload->error.empty());

  BudgetRequest bad_cluster = solve_request(1920.0);
  bad_cluster.cluster_fingerprint = 0xdeadbeef;
  EXPECT_FALSE(svc.solve(bad_cluster)->ok);

  // The service still answers correctly afterwards.
  EXPECT_TRUE(svc.solve(solve_request(80.0 * kModules))->ok);
}

TEST_F(ServiceFixture, RegisterClusterValidatesInput) {
  BudgetService svc(config());
  EXPECT_THROW(svc.register_cluster(ClusterState{}), InvalidArgument);
  ClusterState no_alloc = make_state();
  no_alloc.allocation.clear();
  EXPECT_THROW(svc.register_cluster(no_alloc), InvalidArgument);
  svc.register_cluster(make_state());
  EXPECT_TRUE(svc.has_cluster(cluster_->fingerprint()));
  EXPECT_THROW(svc.register_cluster(make_state()), InvalidArgument);
}

TEST_F(ServiceFixture, ReplyLruEvictsAndCounts) {
  ServiceConfig cfg = config();
  cfg.reply_cache_capacity = 2;
  BudgetService svc(cfg);
  svc.register_cluster(make_state());
  for (double cm : {70.0, 71.0, 72.0}) {
    ASSERT_TRUE(svc.solve(solve_request(cm * kModules))->ok);
  }
  BudgetService::Stats s = svc.stats();
  EXPECT_GE(s.reply_evictions, 1u);
  EXPECT_LE(s.reply_entries, 2u);

  // A repeat of the most recent request is a pure LRU hit.
  ASSERT_TRUE(svc.solve(solve_request(72.0 * kModules))->ok);
  EXPECT_EQ(svc.stats().reply_hits, s.reply_hits + 1);

  util::Telemetry telemetry;
  svc.merge_stats(telemetry);
  EXPECT_EQ(telemetry.counters().at("service_reply_evictions"),
            svc.stats().reply_evictions);
  EXPECT_EQ(telemetry.counters().at("service_requests"),
            svc.stats().requests);
}

TEST_F(ServiceFixture, RunReplyMatchesCampaignEngineCell) {
  const double budget_w = 92.0 * kModules;
  BudgetService svc(config());
  svc.register_cluster(make_state());
  BudgetRequest req = solve_request(budget_w);
  req.kind = RequestKind::kRun;
  ReplyPtr reply = svc.solve(req);
  ASSERT_TRUE(reply->ok) << reply->error;

  core::CampaignSpec spec;
  spec.workloads = {&workloads::mhd()};
  spec.budgets_w = {budget_w};
  spec.scheme_names = {"VaPc"};
  spec.config.iterations = 6;
  core::CampaignEngine engine(*cluster_, alloc_, 1);
  const core::CampaignResult result = engine.run(spec);
  ASSERT_EQ(result.jobs.size(), 1u);

  core::CampaignJobResult via_service;
  via_service.job = result.jobs.front().job;
  via_service.cls = reply->cls;
  via_service.metrics = reply->metrics;
  via_service.speedup_vs_naive = result.jobs.front().speedup_vs_naive;
  EXPECT_EQ(digest(via_service), digest(result.jobs.front()));
}

// The committed 54-cell golden grid, served entirely through kRun replies:
// the service must reproduce the pre-refactor digests bit for bit.
TEST_F(ServiceFixture, GoldenGridServedBitIdentically) {
  core::CampaignSpec spec;
  spec.workloads = {&workloads::mhd(), &workloads::dgemm(),
                    &workloads::stream()};
  for (double cm : {110.0, 92.0, 76.0}) {
    spec.budgets_w.push_back(cm * static_cast<double>(kModules));
  }
  spec.schemes = core::all_schemes();
  const std::vector<std::string> schemes = spec.scheme_list();

  BudgetService svc(config());
  svc.register_cluster(make_state());

  std::vector<core::CampaignJobResult> jobs;
  for (const workloads::Workload* w : spec.workloads) {
    for (double budget_w : spec.budgets_w) {
      for (const std::string& scheme : schemes) {
        BudgetRequest req = solve_request(budget_w, w->name, scheme);
        req.kind = RequestKind::kRun;
        ReplyPtr reply = svc.solve(req);
        ASSERT_TRUE(reply->ok) << reply->error;
        core::CampaignJobResult r;
        r.job.workload = w;
        r.job.budget_w = budget_w;
        r.job.scheme = scheme;
        r.cls = reply->cls;
        r.metrics = reply->metrics;
        jobs.push_back(std::move(r));
      }
    }
  }
  // Reconstruct speedup_vs_naive exactly as CampaignEngine does, so the
  // digest covers the same fields.
  std::map<std::string, double> naive;
  for (const core::CampaignJobResult& r : jobs) {
    if (r.job.scheme == "Naive" && r.metrics.feasible &&
        r.metrics.makespan_s > 0.0) {
      naive[r.metrics.workload + '/' + std::to_string(r.job.budget_w)] =
          r.metrics.makespan_s;
    }
  }
  for (core::CampaignJobResult& r : jobs) {
    auto it = naive.find(r.metrics.workload + '/' +
                         std::to_string(r.job.budget_w));
    r.speedup_vs_naive =
        (it != naive.end() && r.metrics.feasible && r.metrics.makespan_s > 0.0)
            ? it->second / r.metrics.makespan_s
            : std::nan("");
  }

  std::map<std::string, std::uint64_t> golden;
  {
    std::ifstream in(std::string(VAPB_GOLDEN_DIR) + "/pipeline_golden.csv");
    ASSERT_TRUE(in) << "missing golden file";
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line.front() == '#') continue;
      const std::size_t comma = line.rfind(',');
      if (comma == std::string::npos) continue;
      golden.emplace(line.substr(0, comma),
                     std::strtoull(line.c_str() + comma + 1, nullptr, 16));
    }
  }
  ASSERT_EQ(golden.size(), jobs.size());
  for (const core::CampaignJobResult& r : jobs) {
    std::ostringstream key;
    key << r.metrics.workload << '/' << r.job.budget_w << '/'
        << r.metrics.scheme;
    auto it = golden.find(key.str());
    ASSERT_NE(it, golden.end()) << key.str();
    EXPECT_EQ(digest(r), it->second) << key.str();
  }
}

// ---------------------------------------------------------------------------
// Wire codec + stream server
// ---------------------------------------------------------------------------

TEST(ServiceCodec, ParsesARequestLine) {
  std::int64_t id = -1;
  std::string cmd;
  const BudgetRequest req = parse_request_json(
      R"({"id": 7, "scheme": "VaPc", "workload": "MHD", "budget_w": 2160,)"
      R"( "kind": "solve", "salt": 3})",
      id, cmd);
  EXPECT_EQ(id, 7);
  EXPECT_TRUE(cmd.empty());
  EXPECT_EQ(req.scheme, "VaPc");
  EXPECT_EQ(req.workload, "MHD");
  EXPECT_EQ(req.budget_w, 2160.0);
  EXPECT_EQ(req.kind, RequestKind::kSolve);
  EXPECT_EQ(req.salt, 3u);

  // Integer fields keep their full range: a signed id, unsigned salt and
  // cluster fingerprint.
  const BudgetRequest wide = parse_request_json(
      R"({"id": -7, "scheme": "VaPc", "workload": "MHD", "budget_w": 1e3,)"
      R"( "salt": 18446744073709551615, "cluster": "ffffffffffffffff"})",
      id, cmd);
  EXPECT_EQ(id, -7);
  EXPECT_EQ(wide.budget_w, 1000.0);
  EXPECT_EQ(wide.salt, 18446744073709551615ULL);
  EXPECT_EQ(wide.cluster_fingerprint, 0xffffffffffffffffULL);
  static_cast<void>(
      parse_request_json(R"({"id": -9223372036854775808, "cmd": "stats"})",
                         id, cmd));
  EXPECT_EQ(id, INT64_MIN);
}

TEST(ServiceCodec, UnknownFieldGetsDidYouMean) {
  std::int64_t id = 0;
  std::string cmd;
  try {
    parse_request_json(R"({"budget_W": 5})", id, cmd);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("budget_w"), std::string::npos);
  }
}

TEST(ServiceCodec, RejectsMalformedLines) {
  std::int64_t id = 0;
  std::string cmd;
  EXPECT_THROW(parse_request_json("not json", id, cmd), InvalidArgument);
  EXPECT_THROW(parse_request_json(R"({"id": 1, "id": 2})", id, cmd),
               InvalidArgument);
  EXPECT_THROW(parse_request_json(R"({"scheme": {"x": 1}})", id, cmd),
               InvalidArgument);
  EXPECT_THROW(parse_request_json(R"({"kind": "bogus", "scheme": "VaPc",)"
                                  R"( "workload": "MHD", "budget_w": 1})",
                                  id, cmd),
               InvalidArgument);

  // Numbers that strtod/strtoull used to accept or silently wrap; each
  // error names the offending field.
  const std::string solve = R"("scheme": "VaPc", "workload": "MHD")";
  const std::pair<std::string, std::string> bad_numbers[] = {
      {R"({"budget_w": inf, )" + solve + "}", "budget_w"},
      {R"({"budget_w": -inf, )" + solve + "}", "budget_w"},
      {R"({"budget_w": 1e400, )" + solve + "}", "budget_w"},
      {R"({"budget_w": nan, )" + solve + "}", "budget_w"},
      {R"({"budget_w": 0x10, )" + solve + "}", "budget_w"},
      {R"({"budget_w": "", )" + solve + "}", "budget_w"},
      {R"({"budget_w": 1, "salt": -1, )" + solve + "}", "salt"},
      {R"({"budget_w": 1, "salt": +1, )" + solve + "}", "salt"},
      {R"({"budget_w": 1, "salt": 18446744073709551616, )" + solve + "}",
       "salt"},
      {R"({"budget_w": 1, "cluster": "-1", )" + solve + "}", "cluster"},
      {R"({"budget_w": 1, "cluster": "+ff", )" + solve + "}", "cluster"},
      {R"({"id": 18446744073709551615, "cmd": "stats"})", "id"},
      {R"({"id": 9223372036854775808, "cmd": "stats"})", "id"},
      {R"({"id": 1.5, "cmd": "stats"})", "id"},
  };
  for (const auto& [line, field] : bad_numbers) {
    try {
      static_cast<void>(parse_request_json(line, id, cmd));
      ADD_FAILURE() << "accepted " << line;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find('"' + field + '"'),
                std::string::npos)
          << line << " -> " << e.what();
    }
  }
}

TEST(ServiceCodec, ControlLinesShortCircuit) {
  std::int64_t id = 0;
  std::string cmd;
  static_cast<void>(parse_request_json(R"({"id": 9, "cmd": "stats"})", id,
                                       cmd));
  EXPECT_EQ(id, 9);
  EXPECT_EQ(cmd, "stats");
}

TEST(ServiceCodec, ErrorReplySerializesInBand) {
  BudgetReply reply;
  reply.ok = false;
  reply.error = "unknown scheme \"X\"";
  const std::string line = reply_to_json(reply, 4);
  EXPECT_NE(line.find("\"id\": 4"), std::string::npos);
  EXPECT_NE(line.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(line.find("unknown scheme \\\"X\\\""), std::string::npos);
}

// -- Wire bytes ---------------------------------------------------------------

/// A solve reply whose allocations hold the doubles that stress a formatter:
/// signed zero, the smallest denormal and normal, DBL_MAX, values with no
/// short exact form, and the %g switch points to and from exponent notation.
BudgetReply golden_solve_reply() {
  BudgetReply r;
  r.ok = true;
  r.request.scheme = "VaPc";
  r.request.workload = "*DGEMM";
  r.request.budget_w = 2160.0;
  r.budget.fits_at_fmin = true;
  r.budget.constrained = true;
  r.budget.alpha = 0.7;
  r.budget.target_freq_ghz = util::GigaHertz{2.2};
  r.budget.predicted_total_w = util::Watts{2159.9999999999995};
  const double values[] = {0.0,    -0.0, 5e-324, 2.2250738585072014e-308,
                           DBL_MAX, 0.1, 1.0 / 3.0, 1e21,
                           1e-7,   2160.0, -2.5, 65.0};
  for (std::size_t k = 0; k < std::size(values); k += 3) {
    r.budget.allocations.push_back({util::Watts{values[k]},
                                    util::Watts{values[k + 1]},
                                    util::Watts{values[k + 2]}});
  }
  return r;
}

BudgetReply golden_run_reply(bool feasible) {
  BudgetReply r;
  r.ok = true;
  r.request.scheme = "VaFs";
  r.request.workload = "MHD";
  r.request.budget_w = 1280.0;
  r.request.kind = RequestKind::kRun;
  r.cls = feasible ? core::CellClass::kValid : core::CellClass::kInfeasible;
  r.metrics.feasible = feasible;
  r.metrics.alpha = feasible ? 0.4 : 0.0;
  r.metrics.target_freq_ghz = feasible ? 2.1 : 0.0;
  r.metrics.makespan_s = feasible ? 12.345678901234567 : 0.0;
  r.metrics.total_power_w = feasible ? 1279.5 : 0.0;
  if (feasible) {
    for (const auto& [cpu_w, dram_w, ghz] :
         {std::tuple{100.0, 10.0, 2.7}, std::tuple{90.0, 12.0, 2.4}}) {
      core::ModuleOutcome m;
      m.op.cpu_w = cpu_w;
      m.op.dram_w = dram_w;
      m.op.perf_freq_ghz = ghz;
      r.metrics.modules.push_back(m);
    }
  }
  return r;
}

// The exact bytes of every reply shape, as the snprintf("%.17g") encoder
// wrote them. Any encoder must reproduce them unchanged.
TEST(ServiceCodec, GoldenWireBytes) {
  const BudgetReply solve = golden_solve_reply();
  EXPECT_EQ(
      reply_to_json(solve, 11),
      R"({"id": 11, "ok": true, "scheme": "VaPc", )"
      R"("workload": "*DGEMM", "budget_w": 2160, "fits_at_fmin": true, )"
      R"("constrained": true, "alpha": 0.69999999999999996, )"
      R"("target_freq_ghz": 2.2000000000000002, )"
      R"("predicted_total_w": 2159.9999999999995, "allocations": [[0, )"
      R"(-0, 4.9406564584124654e-324], [2.2250738585072014e-308, )"
      R"(1.7976931348623157e+308, 0.10000000000000001], )"
      R"([0.33333333333333331, 1e+21, 9.9999999999999995e-08], [2160, )"
      R"(-2.5, 65]], "allocation_count": 4})");
  EXPECT_EQ(
      reply_to_json(solve, -7, /*max_allocations=*/2),
      R"({"id": -7, "ok": true, "scheme": "VaPc", )"
      R"("workload": "*DGEMM", "budget_w": 2160, "fits_at_fmin": true, )"
      R"("constrained": true, "alpha": 0.69999999999999996, )"
      R"("target_freq_ghz": 2.2000000000000002, )"
      R"("predicted_total_w": 2159.9999999999995, "allocations": [[0, )"
      R"(-0, 4.9406564584124654e-324], [2.2250738585072014e-308, )"
      R"(1.7976931348623157e+308, 0.10000000000000001]], )"
      R"("allocation_count": 4})");
  EXPECT_EQ(
      reply_to_json(golden_run_reply(true), 12),
      R"({"id": 12, "ok": true, "scheme": "VaFs", "workload": "MHD", )"
      R"("budget_w": 1280, "cell": "X", "feasible": true, )"
      R"("alpha": 0.40000000000000002, )"
      R"("target_freq_ghz": 2.1000000000000001, )"
      R"("makespan_s": 12.345678901234567, "total_power_w": 1279.5, )"
      R"("vp": 1.0784313725490196, "vf": 1.1250000000000002})");
  EXPECT_EQ(
      reply_to_json(golden_run_reply(false), 13),
      R"({"id": 13, "ok": true, "scheme": "VaFs", "workload": "MHD", )"
      R"("budget_w": 1280, "cell": "infeasible", "feasible": false, )"
      R"("alpha": 0, "target_freq_ghz": 0, "makespan_s": 0, )"
      R"("total_power_w": 0})");

  BudgetReply error;
  error.request.scheme = "ignored on error replies";
  error.error = "bad \"q\" \\ path\nline2\x01\ttab\rcr";
  EXPECT_EQ(reply_to_json(error, 14),
            R"({"id": 14, "ok": false, )"
            R"("error": "bad \"q\" \\ path\nline2\u0001\ttab\rcr"})");

  BudgetService::Stats stats;
  stats.requests = 1024;
  stats.computed = 441;
  stats.dedup_hits = 0;
  stats.reply_hits = 583;
  stats.reply_evictions = 18446744073709551615ULL;
  stats.reply_entries = 7;
  stats.batches = 300;
  stats.max_batch = 4;
  EXPECT_EQ(stats_to_json(stats, 15),
            R"({"id": 15, "ok": true, "requests": 1024, "computed": 441, )"
            R"("dedup_hits": 0, "reply_hits": 583, )"
            R"("reply_evictions": 18446744073709551615, "reply_entries": 7, )"
            R"("batches": 300, "max_batch": 4})");
}

/// The number tokens of a solve reply's allocation vector, in order.
std::vector<std::string> allocation_tokens(const std::string& line) {
  const std::string open = "\"allocations\": [";
  const std::size_t begin = line.find(open);
  const std::size_t end = line.find("], \"allocation_count\"");
  std::vector<std::string> tokens;
  if (begin == std::string::npos || end == std::string::npos) return tokens;
  std::string token;
  for (std::size_t i = begin + open.size(); i < end; ++i) {
    const char c = line[i];
    if (c == '[' || c == ']' || c == ',' || c == ' ') {
      if (!token.empty()) tokens.push_back(std::move(token));
      token.clear();
    } else {
      token += c;
    }
  }
  if (!token.empty()) tokens.push_back(std::move(token));
  return tokens;
}

// Every double on the wire is its %.17g text and parses back to the same
// bits, over 10^6 random finite bit patterns (denormals included).
TEST(ServiceCodec, NumbersRoundTripBitForBit) {
  constexpr std::size_t kDoubles = 1'000'000;
  constexpr std::size_t kPerReply = 3 * 1920;
  util::Xoshiro256 gen = util::SeedSequence(0x5eed'd0b1eULL).stream();
  BudgetReply reply;
  reply.ok = true;
  std::vector<double> values;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  while (checked < kDoubles) {
    values.clear();
    while (values.size() < kPerReply) {
      const double v = std::bit_cast<double>(gen.next());
      if (std::isfinite(v)) values.push_back(v);
    }
    reply.budget.allocations.clear();
    for (std::size_t k = 0; k < values.size(); k += 3) {
      reply.budget.allocations.push_back({util::Watts{values[k]},
                                          util::Watts{values[k + 1]},
                                          util::Watts{values[k + 2]}});
    }
    const std::vector<std::string> tokens =
        allocation_tokens(reply_to_json(reply, 0));
    ASSERT_EQ(tokens.size(), values.size());
    for (std::size_t k = 0; k < values.size(); ++k) {
      char want[40];
      std::snprintf(want, sizeof want, "%.17g", values[k]);
      const double back = std::strtod(tokens[k].c_str(), nullptr);
      if (tokens[k] != want || std::bit_cast<std::uint64_t>(back) !=
                                   std::bit_cast<std::uint64_t>(values[k])) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << "wrote " << tokens[k] << " for " << want;
        }
      }
    }
    checked += values.size();
  }
  EXPECT_EQ(mismatches, 0u);
}

// Whatever byte the writer escapes into a string, the reader gives back.
TEST(ServiceCodec, EveryByteRoundTripsThroughTheWire) {
  const std::string key = "\"error\": ";
  for (int b = 0x00; b <= 0xFF; ++b) {
    BudgetReply error;
    error.error = std::string(1, static_cast<char>(b));
    const std::string reply = reply_to_json(error, 0);
    const std::size_t at = reply.find(key);
    ASSERT_NE(at, std::string::npos) << reply;
    const std::size_t from = at + key.size();
    const std::string literal = reply.substr(from, reply.size() - 1 - from);
    const std::string line = "{\"scheme\": " + literal +
                             ", \"workload\": \"MHD\", \"budget_w\": 1}";
    std::int64_t id = 0;
    std::string cmd;
    try {
      EXPECT_EQ(parse_request_json(line, id, cmd).scheme, error.error)
          << "byte " << b;
    } catch (const InvalidArgument& e) {
      ADD_FAILURE() << "byte " << b << ": " << e.what();
    }
  }
}

TEST(ServiceCodec, DecodesJsonEscapes) {
  const auto scheme_of = [](const std::string& literal) {
    std::int64_t id = 0;
    std::string cmd;
    return parse_request_json("{\"scheme\": \"" + literal +
                                  "\", \"workload\": \"MHD\", \"budget_w\": 1}",
                              id, cmd)
        .scheme;
  };
  EXPECT_EQ(scheme_of(R"(\b\f\r\n\t\/\"\\)"), "\b\f\r\n\t/\"\\");
  EXPECT_EQ(scheme_of(R"(A\u00e9\u20ac)"), "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(scheme_of(R"(\ud83d\ude00)"), "\xf0\x9f\x98\x80");
  for (const char* bad : {R"(\ud83d)", R"(\ude00)", R"(\ud83dx)",
                          R"(\ud83dA)", R"(\u12g4)", R"(\u12)",
                          R"(\x41)"}) {
    EXPECT_THROW(scheme_of(bad), InvalidArgument) << bad;
  }
}

TEST_F(ServiceFixture, ServeStreamAnswersOverAStringPair) {
  BudgetService svc(config());
  svc.register_cluster(make_state());
  std::istringstream in(
      R"({"id": 1, "scheme": "VaPc", "workload": "MHD", "budget_w": 1920})"
      "\n"
      R"({"id": 2, "bogus": true})"
      "\n"
      R"({"id": 3, "cmd": "stats"})"
      "\n"
      R"({"cmd": "quit"})"
      "\n");
  std::ostringstream out;
  serve_stream(svc, in, out, /*max_allocations=*/2);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"alpha\": "), std::string::npos);
  EXPECT_NE(text.find("\"allocation_count\": 24"), std::string::npos);
  EXPECT_NE(text.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(text.find("\"requests\": "), std::string::npos);
  // Every line is terminated; the quit ack is the last one.
  EXPECT_EQ(text.back(), '\n');
}

}  // namespace
}  // namespace vapb::service
