#include "inputs.hpp"

#include <cstdio>
#include <utility>

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t SplitMix64::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

SplitMix64 stream(std::uint64_t seed, std::string_view purpose) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the purpose
  for (const char c : purpose) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  SplitMix64 mixer(seed ^ h);
  return SplitMix64(mixer.next());
}

std::vector<std::uint64_t> sweep_salts(std::uint64_t seed,
                                       std::size_t passes) {
  SplitMix64 rng = stream(seed, "sweep_reps/salts");
  std::vector<std::uint64_t> salts(passes);
  for (std::uint64_t& s : salts) s = rng.next();
  return salts;
}

std::vector<std::string> service_lines(std::uint64_t seed, std::size_t count,
                                       std::size_t modules) {
  static const char* const kWorkloads[] = {"MHD", "*DGEMM", "*STREAM",
                                           "NPB-BT"};
  static const double kHotCm[] = {90.0, 80.0};
  static const char* const kSchemes[] = {"VaPc", "VaFs"};
  SplitMix64 rng = stream(seed, "service_mix/requests");
  const std::uint64_t run_salts[] = {rng.next(), rng.next()};
  const auto n = static_cast<double>(modules);

  std::vector<std::string> lines;
  lines.reserve(count);
  char buf[256];
  for (std::size_t i = 0; i < count; ++i) {
    const double u = rng.uniform();
    const char* workload = kWorkloads[rng.below(4)];
    const char* scheme = kSchemes[rng.below(2)];
    const char* kind = "solve";
    std::uint64_t salt = 0;
    double budget_w = 0.0;
    if (u < 0.5) {
      budget_w = kHotCm[rng.below(2)] * n;
    } else if (u < 0.9) {
      // A continuous draw: distinct doubles are distinct cache keys.
      budget_w = (60.0 + 35.0 * rng.uniform()) * n;
    } else {
      kind = "run";
      budget_w = kHotCm[rng.below(2)] * n;
      salt = run_salts[rng.below(2)];
    }
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"scheme\": \"%s\", \"workload\": \"%s\", "
                  "\"budget_w\": %.17g, \"kind\": \"%s\", \"salt\": %llu}",
                  i + 1, scheme, workload, budget_w, kind,
                  static_cast<unsigned long long>(salt));
    lines.emplace_back(buf);
  }
  return lines;
}

std::vector<double> fleet_ladder(std::uint64_t seed, std::size_t rungs) {
  // One draw per equal slice of [66, 94) W/module, in a seed-shuffled order:
  // every seed covers the whole range evenly, so the work per run does not
  // depend on which budgets the seed happened to draw.
  SplitMix64 rng = stream(seed, "fleet_100k/ladder");
  const double width = 28.0 / static_cast<double>(rungs);
  std::vector<double> cm(rungs);
  for (std::size_t r = 0; r < rungs; ++r) {
    cm[r] = 66.0 + width * (static_cast<double>(r) + rng.uniform());
  }
  for (std::size_t r = rungs; r > 1; --r) {
    std::swap(cm[r - 1], cm[rng.below(r)]);
  }
  return cm;
}

std::uint64_t tenancy_salt(std::uint64_t seed) {
  return stream(seed, "tenancy_mix/salt").next();
}

}  // namespace perfbench
