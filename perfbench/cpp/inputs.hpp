// Seed-driven workload inputs. Everything a run varies with --seed is made
// here, by the benchmark's own generator, so the library only ever sees the
// generated requests, salts and budgets, and a change to the library's RNG
// cannot change what the benchmark feeds it. This file depends on nothing
// but the standard library so its test links without vapb.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fast and fully specified, so a seed names the same
/// input stream on every compiler and standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();
  /// Uniform in [0, n); n must be > 0.
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// An independent stream per (seed, purpose), so adding a draw to one
/// workload's inputs never shifts another's.
SplitMix64 stream(std::uint64_t seed, std::string_view purpose);

/// sweep_reps: the run salt of each timed pass (pass k uses element k).
std::vector<std::uint64_t> sweep_salts(std::uint64_t seed, std::size_t passes);

/// service_mix: the vapbd request lines of one pass, `count` lines for a
/// fleet of `modules`. About half are hot budget solves (4 workloads x 2
/// budgets x {VaPc, VaFs}), 40% solves at a budget unique within the pass and
/// 10% full runs over the hot cells with one of two seed-drawn salts.
std::vector<std::string> service_lines(std::uint64_t seed, std::size_t count,
                                       std::size_t modules);

/// fleet_100k: a budget ladder of `rungs` per-module budgets [W/module],
/// one in each equal slice of [66, 94), in a seed-shuffled order.
std::vector<double> fleet_ladder(std::uint64_t seed, std::size_t rungs);

/// tenancy_mix: the DES run salt of every segment. The trace itself stays
/// fixed, so the work per pass does not depend on the seed.
std::uint64_t tenancy_salt(std::uint64_t seed);

}  // namespace perfbench
