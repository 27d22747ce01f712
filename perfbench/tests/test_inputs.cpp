// The workload seed contract: one seed always generates byte-identical
// request streams, salts and budget ladders, and another seed generates
// different ones. Exits non-zero on the first violation.
//
//   ctest --test-dir .bench_build/perfbench
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

/// Every input of every workload, serialized to bytes.
std::string all_inputs(std::uint64_t seed) {
  std::string bytes;
  for (const std::string& line : perfbench::service_lines(seed, 512, 1920)) {
    bytes += line;
    bytes += '\n';
  }
  const auto append = [&bytes](const void* p, std::size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  const std::vector<std::uint64_t> salts = perfbench::sweep_salts(seed, 64);
  append(salts.data(), salts.size() * sizeof salts[0]);
  const std::vector<double> ladder = perfbench::fleet_ladder(seed, 8);
  append(ladder.data(), ladder.size() * sizeof ladder[0]);
  const std::uint64_t salt = perfbench::tenancy_salt(seed);
  append(&salt, sizeof salt);
  return bytes;
}

}  // namespace

int main() {
  for (const std::uint64_t seed : {0ULL, 1ULL, 7ULL, 2015ULL}) {
    expect(all_inputs(seed) == all_inputs(seed),
           "same seed, same bytes");
    expect(all_inputs(seed) != all_inputs(seed + 1),
           "different seed, different inputs");
  }

  // Each input family moves with the seed on its own.
  expect(perfbench::service_lines(1, 64, 1920) !=
             perfbench::service_lines(2, 64, 1920),
         "request stream depends on the seed");
  expect(perfbench::sweep_salts(1, 8) != perfbench::sweep_salts(2, 8),
         "sweep salts depend on the seed");
  expect(perfbench::fleet_ladder(1, 8) != perfbench::fleet_ladder(2, 8),
         "budget ladder depends on the seed");
  expect(perfbench::tenancy_salt(1) != perfbench::tenancy_salt(2),
         "tenancy salt depends on the seed");

  // The mix the workloads document: ~10% of requests are runs, and the
  // ladder has one rung per slice of its range.
  const std::vector<std::string> lines =
      perfbench::service_lines(3, 4000, 1920);
  std::size_t runs = 0;
  for (const std::string& l : lines) {
    runs += l.find("\"kind\": \"run\"") != std::string::npos ? 1 : 0;
  }
  expect(runs > 300 && runs < 500, "about 10% of requests are runs");
  std::vector<double> ladder = perfbench::fleet_ladder(5, 8);
  std::sort(ladder.begin(), ladder.end());
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    expect(ladder[r] >= 66.0 + 3.5 * static_cast<double>(r) &&
               ladder[r] < 66.0 + 3.5 * static_cast<double>(r + 1),
           "one ladder rung in each 3.5 W/module slice of [66, 94)");
  }

  if (failures == 0) std::printf("perfbench inputs: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
