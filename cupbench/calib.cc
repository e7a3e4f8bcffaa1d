// cupbench_calib — host speed probe.
//
//   cupbench_calib --cpus 0,1,2,3
//
// Runs the same fixed chain of work on every listed CPU at once, one
// pinned thread each, and prints the median over the CPUs of the ns per
// step.  A step hashes the running value and reads a table slot chosen by
// it, so each step depends on the last: the chain cannot be vectorised
// and mixes arithmetic with reads that miss the first-level cache.  The
// code is the benchmark's own, so a change to the program never moves it;
// run.py uses it to express timings at a reference host speed.
#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "workload.h"

namespace {

constexpr uint32_t kTableSlots = 1u << 17;  // 512 KiB of uint32_t
constexpr uint32_t kSteps = 1u << 21;

int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double chain_ns_per_step(const std::vector<uint32_t>& table) {
  uint64_t x = 1;
  const int64_t t0 = now_ns();
  for (uint32_t s = 0; s < kSteps; ++s) {
    x = cupbench::mix64(x + table[x & (kTableSlots - 1)]);
  }
  const int64_t t1 = now_ns();
  // Keep the chain's result live.
  if (x == 0) std::fputc('\n', stderr);
  return static_cast<double>(t1 - t0) / kSteps;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> cpus;
  if (argc == 3 && std::string(argv[1]) == "--cpus") {
    std::string list = argv[2];
    for (std::size_t pos = 0; pos < list.size();) {
      const std::size_t comma = std::min(list.find(',', pos), list.size());
      cpus.push_back(std::stoi(list.substr(pos, comma - pos)));
      pos = comma + 1;
    }
  }
  if (cpus.empty()) {
    std::fprintf(stderr, "usage: cupbench_calib --cpus LIST\n");
    return 2;
  }
  std::vector<uint32_t> table(kTableSlots);
  cupbench::Rng rng(42);
  for (auto& slot : table) slot = static_cast<uint32_t>(rng.next());

  std::vector<double> per_cpu(cpus.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads.emplace_back([&, i] {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpus[i], &set);
      pthread_setaffinity_np(pthread_self(), sizeof set, &set);
      per_cpu[i] = chain_ns_per_step(table);
    });
  }
  for (auto& t : threads) t.join();
  std::sort(per_cpu.begin(), per_cpu.end());
  std::printf("%.4f\n", per_cpu[per_cpu.size() / 2]);
  return 0;
}
