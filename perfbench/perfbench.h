// Shared declarations of the repository benchmark (see perfbench/README.md).
//
// A workload is a list of simulated runs ("cases") that together form one
// pass. The driver repeats passes for the requested wall time, checks that
// every pass reproduces the same simulated numbers, and reports host cost as
// the median over passes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "core/testbed.h"
#include "sim/event_queue.h"
#include "workload/swim.h"

namespace perfbench {

/// Whether a metric is what the simulator costs to run (host) or what the
/// modelled cluster does (sim). Sim metrics are deterministic for a seed.
enum class Kind { kHost, kSim };

struct Metric {
  double value = 0.0;
  std::string unit;
  Kind kind = Kind::kSim;
};

using MetricMap = std::map<std::string, Metric>;

/// Arguments of FaultPlan::random for one case.
struct FaultPlanSpec {
  std::uint64_t seed = 0;
  std::size_t fault_count = 0;
  ignem::Duration horizon;
  ignem::Duration min_outage;
  ignem::Duration max_outage;
  std::uint32_t kinds = 0;
};

/// One simulated run: a testbed, the SWIM trace it runs, and an optional
/// fault schedule.
struct CaseSpec {
  std::uint64_t workload_seed = 0;  ///< Groups the modes of one seed.
  ignem::TestbedConfig config;
  ignem::SwimConfig swim;
  std::optional<FaultPlanSpec> faults;
};

struct Workload {
  std::string name;
  std::vector<CaseSpec> cases;  ///< One pass, run in order.
};

/// The workload `name` for driver seed `seed`; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

/// HDFS and Ignem at paper scale over the fixed fidelity seed list: the
/// Table I/II check every untraced run makes after its measured passes.
std::vector<CaseSpec> fidelity_cases();

/// The workload's generated configuration as a JSON object, including the
/// fields ConfigFingerprint omits (racks, control plane, rate limit, Ignem
/// pool) and every fault plan.
std::string config_json(const Workload& workload);

/// Host seconds spent in each phase, summed over the cases of a pass.
struct HostTimes {
  double swim_generate_s = 0;  ///< generate_swim_trace alone (diagnostic).
  double plan_s = 0;           ///< FaultPlan::random.
  double build_s = 0;          ///< Testbed constructor.
  double workload_s = 0;       ///< build_swim_workload (generation + files).
  double run_s = 0;            ///< run_workload_limited.

  double setup_s() const { return build_s + workload_s + plan_s; }
  double generate_s() const { return swim_generate_s + plan_s; }
  /// build_swim_workload minus its trace generation: create_file, replica
  /// placement and DataNode::add_block.
  double create_files_s() const { return workload_s - swim_generate_s; }
};

/// Simulated numbers gathered over the cases of a pass. Kernel and job
/// counts cover every case; the other layers cover Ignem-mode cases.
struct Accum {
  // Kernel (every case).
  std::uint64_t events = 0;  ///< Dispatched inside run_workload.
  bool profiled = true;
  std::uint64_t max_pending = 0;
  std::uint64_t pending_sum = 0;
  std::uint64_t profiled_events = 0;
  std::array<std::uint64_t, ignem::kEventClassCount> classes{};

  // Jobs (every case).
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_failed = 0;  ///< Failed or never terminated.

  // Ignem-mode cases.
  double input_bytes = 0;
  ignem::Samples job_s;
  ignem::Samples queue_wait_s;
  ignem::Samples map_s;
  ignem::Samples read_ms;
  ignem::Samples migration_s;  ///< Traced passes only.
  double map_read_s = 0;
  double map_total_s = 0;
  std::uint64_t tasks = 0;
  std::uint64_t blocks = 0;
  std::uint64_t migrations = 0;
  double bytes_migrated = 0;
  std::uint64_t evictions = 0;
  std::uint64_t missed_read_discards = 0;
  std::uint64_t reads = 0;
  std::uint64_t memory_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t read_retries = 0;
  std::uint64_t reads_failed = 0;
  std::uint64_t repl_repaired = 0;
  double repl_bytes = 0;
  std::uint64_t repl_unrepairable = 0;
  std::uint64_t repl_throttled = 0;
  std::uint64_t repl_discarded = 0;
  std::uint64_t repl_excess_deleted = 0;
  double disk_bytes = 0;
  double disk_busy_frac_sum = 0;
  std::uint64_t disk_count = 0;
  double cache_peak_bytes = 0;
  double net_bytes = 0;
  std::uint64_t rpc_calls = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t rpc_unreachable = 0;
  std::uint64_t oneways_dropped = 0;
  std::uint64_t transfers_severed = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t false_dead = 0;
  std::uint64_t false_dead_control = 0;
  bool detect_latency_known = true;
  double detect_latency_sum_us = 0;
  std::uint64_t detect_latency_count = 0;
  std::uint64_t scrub_scanned = 0;
  std::uint64_t scrub_corrupt = 0;
  std::uint64_t scrub_throttled = 0;
  std::uint64_t cache_copies_purged = 0;
  std::uint64_t trace_events = 0;

  /// Mean job and mean map-task seconds per (workload seed, mode).
  std::map<std::pair<std::uint64_t, ignem::RunMode>, std::pair<double, double>>
      fidelity;
};

struct PassOptions {
  bool trace = false;       ///< enable_trace on every case.
  bool invariants = false;  ///< check_invariants on every case.
  bool metrics = true;      ///< enable_metrics (the default configuration).
};

struct PassResult {
  HostTimes host;
  Accum accum;
  std::vector<std::string> failures;  ///< Output checks that did not hold.
};

/// Runs every case of `cases` once and gathers its numbers and checks.
PassResult run_pass(const std::vector<CaseSpec>& cases,
                    const PassOptions& options);

/// Turns a pass's simulated numbers into named sim metrics.
MetricMap sim_metrics(const Accum& accum);

}  // namespace perfbench
