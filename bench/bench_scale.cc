// Cluster-size scaling curve: what one Ignem SWIM run costs the host as the
// modelled cluster grows.
//
// Each point runs Ignem mode on the paper testbed with `node_count = N`
// and SWIM scaled as perfbench's swim_scale scales it: 25 jobs per node,
// 170 GB x N/8 of input, 12 s x 8/N mean inter-arrival, so per-node load
// stays the paper's. N = 512 is swim_scale at workload seed 0.
//
// Per N, BENCH_scale.json records setup and run wall time, events/s, the
// block count, the process's peak RSS and the heap bytes in use per block
// at the end of the run (mallinfo2, before the Testbed is destroyed).
// Points run in ascending N, so each peak RSS is that of the largest run
// so far — the current one. The JSON's config fingerprint is the first
// (8-node) point's: BenchReport keeps the first one it is given.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <string>

#include "bench/experiment_common.h"

namespace ignem::bench {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void main_impl() {
  print_header("Scaling: Ignem SWIM run cost vs cluster size");
  TextTable table({"Nodes", "Jobs", "Blocks", "Setup (s)", "Run (s)",
                   "Events/s", "Peak RSS (MB)", "Heap B/block"});
  for (const std::size_t nodes : {8, 64, 256, 512, 1024}) {
    TestbedConfig config = paper_testbed(RunMode::kIgnem);
    config.cluster.node_count = nodes;
    SwimConfig swim = paper_swim();
    swim.job_count = 25 * nodes;
    swim.total_input = 170 * kGiB * static_cast<Bytes>(nodes) / 8;
    swim.mean_interarrival =
        Duration::seconds(12.0 * 8.0 / static_cast<double>(nodes));

    auto start = std::chrono::steady_clock::now();
    auto testbed = std::make_unique<Testbed>(config);
    std::vector<ScheduledJob> jobs = build_swim_workload(*testbed, swim);
    const double setup_s = seconds_since(start);
    start = std::chrono::steady_clock::now();
    testbed->run_workload(std::move(jobs));
    const double run_s = seconds_since(start);

    const auto events = testbed->sim().events_dispatched();
    const std::size_t blocks = testbed->namenode().block_count();
    const double heap_per_block =
        static_cast<double>(mallinfo2().uordblks) /
        static_cast<double>(blocks);
    const double rss = peak_rss_mb();
    report().add_run(*testbed);

    const std::string key = "n" + std::to_string(nodes) + ".";
    report().metric(key + "setup_s", setup_s);
    report().metric(key + "run_s", run_s);
    report().metric(key + "events_per_sec",
                    static_cast<double>(events) / run_s);
    report().metric(key + "blocks", static_cast<double>(blocks));
    report().metric(key + "peak_rss_mb", rss);
    report().metric(key + "heap_bytes_per_block", heap_per_block);
    table.add_row({std::to_string(nodes), std::to_string(swim.job_count),
                   std::to_string(blocks), TextTable::fixed(setup_s, 3),
                   TextTable::fixed(run_s, 3),
                   TextTable::fixed(static_cast<double>(events) / run_s, 0),
                   TextTable::fixed(rss, 1),
                   TextTable::fixed(heap_per_block, 0)});
  }
  std::cout << table.render() << "\n";
}

}  // namespace
}  // namespace ignem::bench

int main() {
  return ignem::bench::bench_main("scale", ignem::bench::main_impl);
}
