// The traced run's span writer. Spans are recorded by the benchmark around
// its calls into each layer's public functions: name, start, end, parent
// span and (for service requests) the request id every span of one request
// shares. They stay in memory and are written out once, at the end.
//
// A disabled tracer records nothing, so the untraced run pays one branch
// per span.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double now_s();

class Tracer {
 public:
  static constexpr std::int64_t kNone = -1;

  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t parent = kNone;
    std::uint64_t request = 0;  ///< 0 = not part of a service request
  };

  /// Per span name: how many, their summed duration, and their summed self
  /// time (duration minus the part of it that child spans cover).
  struct Summary {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its id (kNone while disabled). `parent` kNone
  /// takes the innermost open Scope on the calling thread.
  std::int64_t begin(std::string_view name, std::int64_t parent = kNone,
                     std::uint64_t request = 0);
  /// Closes a span opened by begin(); may run on another thread.
  void end(std::int64_t id);
  /// The innermost open Scope on the calling thread (kNone outside any), to
  /// parent spans opened on other threads.
  [[nodiscard]] std::int64_t current() const;

  /// Durations [s] of every closed span called `name`, in open order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  [[nodiscard]] std::map<std::string, Summary> summarize() const;
  [[nodiscard]] std::size_t size() const;

  /// One JSON object per line: {"id", "name", "start_s", "end_s", "parent",
  /// "request"}. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

  /// RAII span that is also the parent of spans opened on this thread while
  /// it lives.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name,
          std::int64_t parent = kNone, std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::int64_t id() const { return id_; }

   private:
    Tracer& tracer_;
    std::int64_t id_;
    std::int64_t saved_parent_;
  };

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
