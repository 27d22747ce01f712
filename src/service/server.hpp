// The wire front-end of BudgetService: newline-delimited JSON over a local
// AF_UNIX socket (`vapbd --socket PATH`) or over stdio (`vapbd --stdio`),
// plus the request/reply codec, exposed so tests and benches can exercise
// the protocol in-process — the determinism gates never depend on the
// kernel's socket layer.
//
// Protocol: one JSON object per line.
//
//   request  {"id": 7, "scheme": "VaPc", "workload": "MHD",
//             "budget_w": 2160, "kind": "solve", "salt": 0,
//             "cluster": "<hex fingerprint>"}
//   reply    {"id": 7, "ok": true, "alpha": ..., "target_freq_ghz": ...,
//             "constrained": true, "fits_at_fmin": true,
//             "predicted_total_w": ..., "allocations": [[module_w,
//             cpu_cap_w, dram_w], ...]}
//
// "kind": "run" replies carry {"cell", "feasible", "makespan_s",
// "total_power_w", "vp", "vf"} instead of the allocation vector. Control
// lines {"cmd": "stats"} and {"cmd": "quit"} report service counters and
// shut the server down. Malformed lines produce {"ok": false, "error": ...}
// with a did-you-mean suggestion for misspelled fields; they never kill the
// server. Replies are written in completion order (the id, echoed
// verbatim, correlates them), so a pipelining client keeps the batcher fed.
//
// Numbers: reply doubles are the %.17g text (std::to_chars, 17 significant
// digits), so they parse back bit for bit. In requests, "budget_w" must be
// a finite decimal number, "id" a signed 64-bit integer, and "salt"
// (decimal) and "cluster" (hex digits) unsigned 64-bit integers without a
// sign.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "service/budget_service.hpp"

namespace vapb::service {

/// Parses one request line. Throws InvalidArgument on malformed JSON,
/// unknown fields (with a nearest-name suggestion) or bad values. `id_out`
/// receives the "id" field (0 when absent); `cmd_out` the "cmd" field (""
/// when absent — when set, the other fields are ignored).
BudgetRequest parse_request_json(const std::string& line,
                                 std::int64_t& id_out, std::string& cmd_out);

/// Serializes a reply (allocations capped at `max_allocations` entries to
/// bound line length; 0 = all).
std::string reply_to_json(const BudgetReply& reply, std::int64_t id,
                          std::size_t max_allocations = 0);

/// One JSON object of service counters (the {"cmd": "stats"} reply).
std::string stats_to_json(const BudgetService::Stats& stats,
                          std::int64_t id);

struct ServerOptions {
  std::string socket_path;  ///< AF_UNIX path; empty = stdio transport
  /// Truncate reply allocation vectors (0 = send all entries).
  std::size_t max_allocations = 0;
};

/// Serves `service` until EOF (stdio) or a {"cmd": "quit"} line; drains all
/// in-flight requests before returning. Returns a process exit code.
int serve(BudgetService& service, const ServerOptions& options);

/// Serves a line-oriented stream pair directly (the stdio transport, also
/// used by tests). Returns when `in` is exhausted or quit is requested.
void serve_stream(BudgetService& service, std::istream& in, std::ostream& out,
                  std::size_t max_allocations = 0);

// ---------------------------------------------------------------------------
// vapbd / `vapbctl serve` entry point
// ---------------------------------------------------------------------------

struct DaemonOptions {
  std::string arch = "ha8k";
  std::size_t modules = 24;
  std::uint64_t seed = 2015;
  std::string snapshot_path;  ///< warm-start state; empty = calibrate cold
  std::string socket_path;    ///< empty + !stdio also means stdio
  bool stdio = false;
  std::size_t threads = 0;      ///< batch fan-out workers
  std::size_t max_batch = 64;
  std::size_t reply_cache = 1024;
  int iterations = 6;           ///< kRun DES iterations
  std::size_t max_allocations = 0;
};

/// Builds the service (cold-calibrated fleet, or restored from
/// `snapshot_path`) and serves it. Shared by the vapbd binary and
/// `vapbctl serve`.
int run_daemon(const DaemonOptions& options);

}  // namespace vapb::service
