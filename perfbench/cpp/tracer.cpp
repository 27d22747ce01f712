#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

/// Innermost open Scope on this thread (kNone outside any).
thread_local std::int64_t t_current = Tracer::kNone;

std::string escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

std::int64_t Tracer::begin(std::string_view name, std::int64_t parent,
                           std::uint64_t request) {
  if (!enabled_) return kNone;
  Span s;
  s.name = std::string(name);
  s.parent = parent == kNone ? t_current : parent;
  s.request = request;
  s.end_s = std::nan("");
  std::lock_guard lock(mutex_);
  s.start_s = now_s();
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (id == kNone) return;
  const double t = now_s();
  std::lock_guard lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end_s = t;
}

std::int64_t Tracer::current() const { return t_current; }

std::vector<double> Tracer::durations(std::string_view name) const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && !std::isnan(s.end_s)) {
      out.push_back(s.end_s - s.start_s);
    }
  }
  return out;
}

std::map<std::string, Tracer::Summary> Tracer::summarize() const {
  std::lock_guard lock(mutex_);
  // Child intervals per parent, to subtract their union from the parent.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNone && !std::isnan(s.end_s)) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::isnan(s.end_s)) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_s;  // end of the union so far
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end_s);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_s += s.end_s - s.start_s;
    sum.self_s += (s.end_s - s.start_s) - covered;
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  std::lock_guard lock(mutex_);
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %lld, "
                  "\"request\": %llu}\n",
                  s.start_s, std::isnan(s.end_s) ? s.start_s : s.end_s,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    f << "{\"id\": " << i << ", \"name\": \"" << escape(s.name) << buf;
  }
  return static_cast<bool>(f);
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::int64_t parent, std::uint64_t request)
    : tracer_(tracer),
      id_(tracer.begin(name, parent, request)),
      saved_parent_(t_current) {
  if (id_ != kNone) t_current = id_;
}

Tracer::Scope::~Scope() {
  tracer_.end(id_);
  t_current = saved_parent_;
}

}  // namespace perfbench
