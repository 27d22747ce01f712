#include "service/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <type_traits>
#include <vector>

#include "core/campaign.hpp"
#include "service/snapshot.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vapb::service {

namespace {

// -- JSON helpers ------------------------------------------------------------

const std::vector<std::string>& request_fields() {
  static const std::vector<std::string> fields = {
      "id", "cmd", "scheme", "workload", "budget_w", "kind", "salt",
      "cluster"};
  return fields;
}

// Replies are appended into one string. Every double goes through
// std::to_chars(general, 17), which the standard defines as printf's %.17g
// in the C locale: 17 significant digits survive text -> double -> text.

/// The longest number token: %.17g text such as -2.2250738585072014e-308
/// (24 bytes); a 64-bit integer needs at most 20.
constexpr std::size_t kNumberBytes = 24;
/// One "[module_w, cpu_cap_w, dram_w], " allocation entry at most.
constexpr std::size_t kAllocationBytes = 3 * kNumberBytes + 8;

/// Appends `, "name": ` (every field but the leading "id").
std::string& key(std::string& out, const char* name) {
  out += ", \"";
  out += name;
  out += "\": ";
  return out;
}

void put_num(std::string& out, double v) {
  char buf[kNumberBytes];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

template <typename Int>
void put_int(std::string& out, Int v) {
  char buf[kNumberBytes];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void put_bool(std::string& out, bool v) { out += v ? "true" : "false"; }

/// Appends `s` as a quoted JSON string literal.
void put_str(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (const auto u = static_cast<unsigned char>(c); u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Appends code point `cp` as UTF-8 (a decoded \u escape).
void put_utf8(std::string& out, std::uint32_t cp) {
  const auto byte = [&](std::uint32_t b) { out += static_cast<char>(b); };
  if (cp < 0x80) {
    byte(cp);
  } else if (cp < 0x800) {
    byte(0xc0 | (cp >> 6));
    byte(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    byte(0xe0 | (cp >> 12));
    byte(0x80 | ((cp >> 6) & 0x3f));
    byte(0x80 | (cp & 0x3f));
  } else {
    byte(0xf0 | (cp >> 18));
    byte(0x80 | ((cp >> 12) & 0x3f));
    byte(0x80 | ((cp >> 6) & 0x3f));
    byte(0x80 | (cp & 0x3f));
  }
}

// A single-purpose scanner for the flat request objects the protocol
// allows: one level of {"key": scalar} pairs, scalars being strings,
// numbers, true or false. Anything else is a protocol error with a precise
// message — the server never guesses.
class FlatJsonScanner {
 public:
  explicit FlatJsonScanner(const std::string& line) : s_(line) {}

  /// Returns key -> raw scalar (strings unquoted/unescaped).
  std::map<std::string, std::string> parse() {
    std::map<std::string, std::string> fields;
    ws();
    expect('{', "request must be a JSON object");
    ws();
    if (eat('}')) {
      require_end();
      return fields;
    }
    for (;;) {
      ws();
      std::string key = string_lit("field name");
      ws();
      expect(':', "expected ':' after field name");
      ws();
      std::string value = scalar(key);
      if (!fields.emplace(std::move(key), std::move(value)).second) {
        throw InvalidArgument("duplicate field in request");
      }
      ws();
      if (eat(',')) continue;
      expect('}', "expected ',' or '}' in request object");
      break;
    }
    require_end();
    return fields;
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool eat(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  void expect(char c, const char* what) {
    if (!eat(c)) {
      throw InvalidArgument(std::string(what) + " at offset " +
                            std::to_string(i_));
    }
  }
  void require_end() {
    ws();
    if (i_ != s_.size()) {
      throw InvalidArgument("trailing characters after request object");
    }
  }
  /// The four hex digits of a \u escape.
  std::uint32_t hex4() {
    std::uint32_t v = 0;
    const char* first = s_.data() + i_;
    const char* last = s_.data() + std::min(i_ + 4, s_.size());
    if (std::from_chars(first, last, v, 16).ptr != first + 4) {
      throw InvalidArgument("\\u escape needs four hex digits at offset " +
                            std::to_string(i_));
    }
    i_ += 4;
    return v;
  }
  /// A \uXXXX escape (after the 'u') as one code point; a UTF-16
  /// surrogate must come as a high-low pair.
  std::uint32_t code_point() {
    const std::uint32_t hi = hex4();
    if (hi >= 0xdc00 && hi <= 0xdfff) {
      throw InvalidArgument("lone low surrogate in \\u escape");
    }
    if (hi < 0xd800 || hi > 0xdbff) return hi;
    if (!eat('\\') || !eat('u')) {
      throw InvalidArgument("lone high surrogate in \\u escape");
    }
    const std::uint32_t lo = hex4();
    if (lo < 0xdc00 || lo > 0xdfff) {
      throw InvalidArgument("lone high surrogate in \\u escape");
    }
    return 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
  }
  std::string string_lit(const char* what) {
    expect('"', what);
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) break;
        char e = s_[i_++];
        switch (e) {
          case '"':
          case '\\':
          case '/':
            out += e;
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u':
            put_utf8(out, code_point());
            break;
          default:
            throw InvalidArgument(std::string("unsupported escape '\\") + e +
                                  "' in string");
        }
      } else {
        out += c;
      }
    }
    expect('"', "unterminated string");
    return out;
  }
  std::string scalar(const std::string& key) {
    if (i_ < s_.size() && s_[i_] == '"') return string_lit("string value");
    const std::size_t start = i_;
    while (i_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '-' || s_[i_] == '+' ||
                              s_[i_] == '.' || s_[i_] == 'e' ||
                              s_[i_] == 'E')) {
      ++i_;
    }
    if (i_ == start) {
      throw InvalidArgument("field \"" + key +
                            "\" has no value (nested objects/arrays are not "
                            "part of the protocol)");
    }
    return s_.substr(start, i_ - start);
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// Number fields parse with std::from_chars, which takes the whole token or
// nothing: no leading space, no '+', no hex prefix, no silent wrap-around of
// a negative unsigned, and an out-of-range value is an error.

double parse_budget(const std::string& key, const std::string& raw) {
  double v = 0.0;
  const char* last = raw.data() + raw.size();
  const auto [end, ec] = std::from_chars(raw.data(), last, v);
  if (ec != std::errc{} || end != last || !std::isfinite(v)) {
    throw InvalidArgument("field \"" + key +
                          "\" is not a finite decimal number: " + raw);
  }
  return v;
}

template <typename Int>
Int parse_int(const std::string& key, const std::string& raw, int base) {
  Int v = 0;
  const char* last = raw.data() + raw.size();
  const auto [end, ec] = std::from_chars(raw.data(), last, v, base);
  if (ec != std::errc{} || end != last) {
    throw InvalidArgument("field \"" + key + "\" is not a valid " +
                          (std::is_signed_v<Int> ? "signed" : "unsigned") +
                          " 64-bit integer: " + raw);
  }
  return v;
}

}  // namespace

BudgetRequest parse_request_json(const std::string& line,
                                 std::int64_t& id_out, std::string& cmd_out) {
  id_out = 0;
  cmd_out.clear();
  std::map<std::string, std::string> fields = FlatJsonScanner(line).parse();
  for (const auto& [key, value] : fields) {
    if (std::find(request_fields().begin(), request_fields().end(), key) ==
        request_fields().end()) {
      std::string msg = "unknown request field \"" + key + "\"";
      const std::string suggestion =
          util::nearest_name(key, request_fields());
      if (!suggestion.empty()) {
        msg += " (did you mean \"" + suggestion + "\"?)";
      }
      throw InvalidArgument(msg);
    }
  }
  if (auto it = fields.find("id"); it != fields.end()) {
    id_out = parse_int<std::int64_t>("id", it->second, /*base=*/10);
  }
  if (auto it = fields.find("cmd"); it != fields.end()) {
    cmd_out = it->second;
    return {};
  }
  BudgetRequest req;
  for (const char* required : {"scheme", "workload", "budget_w"}) {
    if (fields.count(required) == 0) {
      throw InvalidArgument(std::string("request is missing field \"") +
                            required + "\"");
    }
  }
  req.scheme = fields.at("scheme");
  req.workload = fields.at("workload");
  req.budget_w = parse_budget("budget_w", fields.at("budget_w"));
  if (auto it = fields.find("kind"); it != fields.end()) {
    req.kind = request_kind_by_name(it->second);
  }
  if (auto it = fields.find("salt"); it != fields.end()) {
    req.salt = parse_int<std::uint64_t>("salt", it->second, /*base=*/10);
  }
  if (auto it = fields.find("cluster"); it != fields.end()) {
    req.cluster_fingerprint =
        parse_int<std::uint64_t>("cluster", it->second, /*base=*/16);
  }
  return req;
}

std::string reply_to_json(const BudgetReply& reply, std::int64_t id,
                          std::size_t max_allocations) {
  const core::BudgetResult& b = reply.budget;
  const bool solve = reply.ok && reply.request.kind == RequestKind::kSolve;
  const std::size_t n =
      !solve ? 0
      : max_allocations == 0
          ? b.allocations.size()
          : std::min(max_allocations, b.allocations.size());
  std::string out;
  out.reserve(256 + reply.error.size() + reply.request.scheme.size() +
              reply.request.workload.size() + n * kAllocationBytes);
  put_int(out += "{\"id\": ", id);
  put_bool(key(out, "ok"), reply.ok);
  if (!reply.ok) {
    put_str(key(out, "error"), reply.error);
    out += '}';
    return out;
  }
  put_str(key(out, "scheme"), reply.request.scheme);
  put_str(key(out, "workload"), reply.request.workload);
  put_num(key(out, "budget_w"), reply.request.budget_w);
  if (!solve) {
    const core::RunMetrics& m = reply.metrics;
    put_str(key(out, "cell"), core::cell_class_name(reply.cls));
    put_bool(key(out, "feasible"), m.feasible);
    put_num(key(out, "alpha"), m.alpha);
    put_num(key(out, "target_freq_ghz"), m.target_freq_ghz);
    put_num(key(out, "makespan_s"), m.makespan_s);
    put_num(key(out, "total_power_w"), m.total_power_w);
    if (m.feasible) {
      put_num(key(out, "vp"), m.vp());
      put_num(key(out, "vf"), m.vf());
    }
    out += '}';
    return out;
  }
  put_bool(key(out, "fits_at_fmin"), b.fits_at_fmin);
  put_bool(key(out, "constrained"), b.constrained);
  put_num(key(out, "alpha"), b.alpha);
  put_num(key(out, "target_freq_ghz"), b.target_freq_ghz.value());
  put_num(key(out, "predicted_total_w"), b.predicted_total_w.value());
  key(out, "allocations") += '[';
  for (std::size_t k = 0; k < n; ++k) {
    if (k != 0) out += ", ";
    put_num(out += '[', b.allocations[k].module_w.value());
    put_num(out += ", ", b.allocations[k].cpu_cap_w.value());
    put_num(out += ", ", b.allocations[k].dram_w.value());
    out += ']';
  }
  out += ']';
  put_int(key(out, "allocation_count"), b.allocations.size());
  out += '}';
  return out;
}

std::string stats_to_json(const BudgetService::Stats& stats,
                          std::int64_t id) {
  std::string out;
  put_int(out += "{\"id\": ", id);
  put_bool(key(out, "ok"), true);
  put_int(key(out, "requests"), stats.requests);
  put_int(key(out, "computed"), stats.computed);
  put_int(key(out, "dedup_hits"), stats.dedup_hits);
  put_int(key(out, "reply_hits"), stats.reply_hits);
  put_int(key(out, "reply_evictions"), stats.reply_evictions);
  put_int(key(out, "reply_entries"), stats.reply_entries);
  put_int(key(out, "batches"), stats.batches);
  put_int(key(out, "max_batch"), stats.max_batch);
  out += '}';
  return out;
}

void serve_stream(BudgetService& service, std::istream& in, std::ostream& out,
                  std::size_t max_allocations) {
  std::mutex mutex;
  std::condition_variable drained;
  std::size_t outstanding = 0;
  auto write_line = [&](const std::string& text) {
    std::lock_guard lock(mutex);
    out << text << '\n';
    out.flush();
  };
  auto wait_drained = [&] {
    std::unique_lock lock(mutex);
    drained.wait(lock, [&] { return outstanding == 0; });
  };

  std::string line;
  while (std::getline(in, line)) {
    if (util::trim(line).empty()) continue;
    std::int64_t id = 0;
    std::string cmd;
    BudgetRequest req;
    try {
      req = parse_request_json(line, id, cmd);
    } catch (const std::exception& e) {
      BudgetReply bad;
      bad.ok = false;
      bad.error = e.what();
      write_line(reply_to_json(bad, id, max_allocations));
      continue;
    }
    if (cmd == "stats") {
      wait_drained();
      write_line(stats_to_json(service.stats(), id));
      continue;
    }
    if (cmd == "quit") {
      wait_drained();
      write_line("{\"id\": " + std::to_string(id) + ", \"ok\": true}");
      return;
    }
    if (!cmd.empty()) {
      BudgetReply bad;
      bad.ok = false;
      bad.error = "unknown cmd \"" + cmd + "\" (stats|quit)";
      write_line(reply_to_json(bad, id, max_allocations));
      continue;
    }
    {
      std::lock_guard lock(mutex);
      ++outstanding;
    }
    // Completion-order replies: the handler runs on the batcher (or, for an
    // LRU hit, right here) and writes under the output lock. A pipelining
    // client correlates via the echoed id.
    service.submit(std::move(req), [&, id](const BudgetReply& r) {
      const std::string text = reply_to_json(r, id, max_allocations);
      {
        std::lock_guard lock(mutex);
        out << text << '\n';
        out.flush();
        --outstanding;
      }
      drained.notify_all();
    });
  }
  wait_drained();
}

namespace {

// Minimal bidirectional streambuf over a connected socket, so the socket
// transport reuses serve_stream verbatim.
class FdStreamBuf final : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) { setg(in_, in_, in_); }

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, in_, sizeof in_);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    const char c = traits_type::to_char_type(ch);
    return write_all(&c, 1) ? ch : traits_type::eof();
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    return write_all(s, static_cast<std::size_t>(n)) ? n : 0;
  }

 private:
  bool write_all(const char* p, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (w <= 0) return false;
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    return true;
  }

  int fd_;
  char in_[4096] = {};
};

}  // namespace

int serve(BudgetService& service, const ServerOptions& options) {
  if (options.socket_path.empty()) {
    serve_stream(service, std::cin, std::cout, options.max_allocations);
    return 0;
  }
  sockaddr_un addr{};
  if (options.socket_path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "vapbd: socket path too long: %s\n",
                 options.socket_path.c_str());
    return 2;
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("vapbd: socket");
    return 2;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ::unlink(options.socket_path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 8) != 0) {
    std::perror("vapbd: bind/listen");
    ::close(listener);
    return 2;
  }
  std::fprintf(stderr, "vapbd: serving on %s\n", options.socket_path.c_str());
  // One connection at a time; a disconnecting client just ends its stream
  // (MSG_NOSIGNAL keeps EPIPE from killing the daemon) and the next accept
  // proceeds. {"cmd": "quit"} stops the daemon.
  for (;;) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      std::perror("vapbd: accept");
      break;
    }
    FdStreamBuf buf(conn);
    std::istream in(&buf);
    std::ostream out(&buf);
    serve_stream(service, in, out, options.max_allocations);
    ::close(conn);
    // serve_stream returns early only on quit; plain EOF (client hangup)
    // keeps the daemon up for the next connection.
    if (!in.eof()) break;
  }
  ::close(listener);
  ::unlink(options.socket_path.c_str());
  return 0;
}

int run_daemon(const DaemonOptions& options) {
  ServiceConfig config;
  config.worker_threads = options.threads;
  config.max_batch = options.max_batch;
  config.reply_cache_capacity = options.reply_cache;
  config.run.iterations = options.iterations;
  BudgetService service(config);
  if (!options.snapshot_path.empty()) {
    Snapshot snap = Snapshot::load(options.snapshot_path);
    ClusterState state = snap.restore();
    std::fprintf(stderr,
                 "vapbd: restored %s fleet (%zu modules, %zu test runs, %zu "
                 "PMTs) from %s\n",
                 snap.arch().c_str(), snap.module_count(),
                 snap.test_run_count(), snap.pmt_count(),
                 options.snapshot_path.c_str());
    service.register_cluster(std::move(state));
  } else {
    ClusterState state;
    state.cluster = std::make_shared<cluster::Cluster>(
        hw::arch_by_name(options.arch), util::SeedSequence(options.seed),
        options.modules);
    state.allocation.resize(options.modules);
    for (std::size_t i = 0; i < options.modules; ++i) {
      state.allocation[i] = static_cast<hw::ModuleId>(i);
    }
    service.register_cluster(std::move(state));
  }
  ServerOptions server_options;
  server_options.socket_path = options.stdio ? "" : options.socket_path;
  server_options.max_allocations = options.max_allocations;
  return serve(service, server_options);
}

}  // namespace vapb::service
