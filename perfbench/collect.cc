// Runs a pass of cases and gathers every layer's numbers through the public
// getters, the run records and (in traced passes) the event trace.
#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>

#include "fault/fault_injector.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace ignem;
using Clock = std::chrono::steady_clock;

/// Simulated time a workload may take before the run counts as wedged.
constexpr Duration kRunLimit = Duration::seconds(4.0 * 3600.0);
/// Simulated time run after the workload (and after the last fault window)
/// so detection, repair, rejoin and eviction settle before the checks.
constexpr Duration kDrain = Duration::seconds(120.0);

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double gib(double bytes) { return bytes / static_cast<double>(kGiB); }

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

NodeId node_id(std::size_t i) { return NodeId(static_cast<std::int64_t>(i)); }

/// Every count the benchmark reads passes through here. A value at or above
/// 2^63 is an unsigned underflow (a delta taken the wrong way round), never a
/// real count, so it fails the run instead of becoming a baseline.
class CountGuard {
 public:
  explicit CountGuard(std::vector<std::string>& failures)
      : failures_(failures) {}

  std::uint64_t operator()(std::uint64_t value, const char* what) {
    if (value >= (std::uint64_t{1} << 63)) {
      failures_.push_back(std::string("count ") + what + " = " +
                          std::to_string(value) + " is an underflow");
      return 0;
    }
    return value;
  }

 private:
  std::vector<std::string>& failures_;
};

/// Page-in spans (kMigrationStart -> finished kMigrationComplete) per node;
/// a slave runs one migration at a time.
void add_migration_spans(const TraceRecorder& trace, Samples& out) {
  std::unordered_map<std::int64_t, SimTime> started;
  for (const TraceEvent& e : trace.events()) {
    if (e.type == TraceEventType::kMigrationStart) {
      started[e.node.value()] = e.time;
    } else if (e.type == TraceEventType::kMigrationComplete) {
      const auto it = started.find(e.node.value());
      if (it == started.end()) continue;
      if (e.detail == 0) out.add((e.time - it->second).to_seconds());
      started.erase(it);
    }
  }
}

void run_case(const CaseSpec& spec, const PassOptions& options,
              PassResult& out) {
  Accum& acc = out.accum;
  CountGuard count(out.failures);
  TestbedConfig config = spec.config;
  config.enable_trace = options.trace;
  config.check_invariants = options.invariants;
  config.enable_metrics = options.metrics;

  // Trace generation alone, so dfs.create_files_s can be split out of
  // build_swim_workload (which generates the same trace again).
  auto t0 = Clock::now();
  const std::size_t trace_jobs = generate_swim_trace(spec.swim).size();
  out.host.swim_generate_s += seconds_since(t0);

  t0 = Clock::now();
  auto testbed = std::make_unique<Testbed>(config);
  out.host.build_s += seconds_since(t0);

  t0 = Clock::now();
  std::vector<ScheduledJob> jobs = build_swim_workload(*testbed, spec.swim);
  out.host.workload_s += seconds_since(t0);
  if (jobs.size() != trace_jobs) {
    out.failures.push_back("build_swim_workload made a different job count");
  }

  Simulator& sim = testbed->sim();
  std::unique_ptr<FaultInjector> injector;
  Duration last_fault_end = Duration::zero();
  if (spec.faults.has_value()) {
    const FaultPlanSpec& f = *spec.faults;
    t0 = Clock::now();
    Rng rng(f.seed);
    FaultPlan plan =
        FaultPlan::random(rng, config.cluster.node_count, f.fault_count,
                          f.horizon, f.min_outage, f.max_outage, f.kinds);
    out.host.plan_s += seconds_since(t0);
    for (const FaultSpec& fault : plan.faults) {
      last_fault_end = std::max(last_fault_end, fault.at + fault.duration);
    }
    injector = std::make_unique<FaultInjector>(sim, *testbed, std::move(plan));
    injector->arm();
  }

  const std::size_t submitted = jobs.size();
  const SimTime start = sim.now();
  const std::uint64_t events_before = sim.events_dispatched();
  t0 = Clock::now();
  const bool completed =
      testbed->run_workload_limited(std::move(jobs), kRunLimit);
  out.host.run_s += seconds_since(t0);
  const SimTime end = sim.now();
  const bool ignem = config.mode == RunMode::kIgnem;
  const std::size_t nodes = config.cluster.node_count;

  // Kernel and storage numbers describe the workload itself, so they are
  // read before the drain.
  acc.events += count(sim.events_dispatched() - events_before, "sim.events");
  if (sim.profiling_enabled()) {
    const KernelProfile& p = sim.profile();
    acc.max_pending = std::max(acc.max_pending,
                               count(p.max_pending, "sim.max_pending"));
    acc.pending_sum += count(p.pending_sum, "sim.pending_sum");
    acc.profiled_events += count(p.events_dispatched, "sim.profiled_events");
    for (std::size_t i = 0; i < kEventClassCount; ++i) {
      acc.classes[i] += count(p.class_counts[i], "sim.class");
    }
  } else {
    acc.profiled = false;
  }
  if (ignem) {
    const double makespan = (end - start).to_seconds();
    for (std::size_t i = 0; i < nodes; ++i) {
      DataNode& dn = testbed->datanode(node_id(i));
      StorageDevice& disk = dn.primary_device();
      acc.disk_bytes += static_cast<double>(disk.total_bytes_completed());
      acc.disk_busy_frac_sum += ratio(disk.busy_time().to_seconds(), makespan);
      ++acc.disk_count;
      acc.cache_peak_bytes = std::max(
          acc.cache_peak_bytes, static_cast<double>(dn.cache().peak_used()));
    }
  }

  const SimTime drain_from = std::max(end, SimTime::zero() + last_fault_end);
  sim.run(drain_from + kDrain);

  // Output checks.
  const RunMetrics& metrics = testbed->metrics();
  acc.jobs_submitted += submitted;
  std::uint64_t failed = 0;
  for (const JobRecord& job : metrics.jobs()) failed += job.failed ? 1 : 0;
  acc.jobs_failed += failed + (submitted - metrics.jobs().size());
  const std::string where = std::string(run_mode_name(config.mode)) +
                            " seed " + std::to_string(spec.workload_seed);
  if (!completed || metrics.jobs().size() != submitted) {
    out.failures.push_back(where + ": " +
                           std::to_string(submitted - metrics.jobs().size()) +
                           " jobs never terminated");
  }
  if (config.mode != RunMode::kHdfsInputsInRam) {
    Bytes locked = 0;
    for (std::size_t i = 0; i < nodes; ++i) {
      locked += testbed->datanode(node_id(i)).cache().used();
    }
    if (locked != 0) {
      out.failures.push_back(where + ": " + std::to_string(locked) +
                             " locked bytes remain after the drain");
    }
  }
  std::size_t over_replicated = 0;
  for (const auto& [block, info] : testbed->namenode().all_blocks()) {
    (void)info;
    if (testbed->namenode().live_locations(block).size() >
        static_cast<std::size_t>(config.replication)) {
      ++over_replicated;
    }
  }
  if (over_replicated != 0) {
    out.failures.push_back(where + ": " + std::to_string(over_replicated) +
                           " blocks above their replication target");
  }
  if (options.invariants) {
    const std::string report = testbed->invariant_checker()->report();
    if (!report.empty()) out.failures.push_back(where + ": " + report);
    const std::string replicas = testbed->replica_model_mismatch();
    if (!replicas.empty()) out.failures.push_back(where + ": " + replicas);
    const std::string integrity = testbed->integrity_accounting_mismatch();
    if (!integrity.empty()) out.failures.push_back(where + ": " + integrity);
  }

  acc.fidelity[{spec.workload_seed, config.mode}] = {
      metrics.mean_job_duration_seconds(), metrics.mean_map_task_seconds()};
  if (testbed->trace() != nullptr) {
    acc.trace_events += testbed->trace()->size();
  }
  if (!ignem) return;

  // Ignem-mode layers; cumulative counters include the drain's recovery.
  for (const JobRecord& job : metrics.jobs()) {
    acc.input_bytes += static_cast<double>(job.input_bytes);
    acc.job_s.add(job.duration.to_seconds());
    acc.queue_wait_s.add((job.first_task_start - job.submit).to_seconds());
  }
  acc.tasks += metrics.tasks().size();
  for (const TaskRecord& task : metrics.tasks()) {
    if (task.kind != TaskKind::kMap) continue;
    acc.map_s.add(task.duration.to_seconds());
    acc.map_read_s += task.read_time.to_seconds();
    acc.map_total_s += task.duration.to_seconds();
  }
  for (const BlockReadRecord& read : metrics.block_reads()) {
    if (!read.failed) acc.read_ms.add(read.duration.to_millis());
  }
  acc.blocks += testbed->namenode().block_count();

  for (std::size_t i = 0; i < nodes; ++i) {
    const IgnemSlave* slave = testbed->ignem_slave(node_id(i));
    if (slave == nullptr) continue;
    const SlaveStats& s = slave->stats();
    acc.migrations += count(s.migrations_completed, "core.migrations");
    acc.bytes_migrated += static_cast<double>(s.bytes_migrated);
    acc.evictions += count(s.evictions, "core.evictions");
    acc.missed_read_discards +=
        count(s.commands_discarded_missed_read, "core.missed_read_discards");
  }

  const DfsStats& d = testbed->dfs().stats();
  acc.reads += count(d.reads_completed, "dfs.reads_completed");
  acc.memory_reads += count(d.memory_reads, "dfs.memory_reads");
  acc.remote_reads += count(d.remote_reads, "dfs.remote_reads");
  acc.read_retries += count(d.retries, "dfs.read_retries");
  acc.reads_failed += count(d.reads_failed, "dfs.reads_failed");

  const ReplicationStats& r = testbed->replication_manager().stats();
  acc.repl_repaired += count(r.blocks_repaired, "dfs.repl.blocks_repaired");
  acc.repl_bytes += static_cast<double>(r.bytes_repaired);
  acc.repl_unrepairable +=
      count(r.blocks_unrepairable, "dfs.repl.unrepairable");
  acc.repl_throttled += count(r.repairs_throttled, "dfs.repl.throttled");
  acc.repl_discarded += count(r.repairs_discarded, "dfs.repl.discarded");
  acc.repl_excess_deleted +=
      count(r.excess_deleted, "dfs.repl.excess_deleted");

  for (std::size_t i = 0; i < nodes; ++i) {
    acc.net_bytes +=
        static_cast<double>(testbed->network().total_bytes_sent(node_id(i)));
  }
  acc.transfers_severed +=
      count(testbed->network().transfers_severed(), "net.transfers_severed");
  if (const RpcRouter* rpc = testbed->rpc_router(); rpc != nullptr) {
    const RpcStats& s = rpc->stats();
    acc.rpc_calls += count(s.calls, "net.rpc_calls");
    acc.rpc_retries += count(s.retries, "net.rpc_retries");
    acc.rpc_timeouts += count(s.timeouts, "net.rpc_timeouts");
    acc.rpc_unreachable += count(s.unreachable, "net.rpc_unreachable");
    acc.oneways_dropped += count(s.oneways_dropped, "net.oneways_dropped");
  }

  if (injector != nullptr) {
    acc.faults_injected += count(injector->injected(), "fault.injected");
  }
  if (const FailureDetector* det = testbed->failure_detector();
      det != nullptr) {
    acc.false_dead += count(det->false_dead_total(), "fault.false_dead");
    acc.false_dead_control +=
        count(det->false_dead_control_total(), "fault.false_dead_control");
  }
  if (options.metrics) {
    const auto& hists = testbed->metrics_registry().histograms();
    const auto it = hists.find("fault.detection_latency_us");
    if (it != hists.end()) {
      acc.detect_latency_sum_us += static_cast<double>(it->second.sum());
      acc.detect_latency_count +=
          count(it->second.count(), "fault.detect_latency_count");
    }
  } else {
    acc.detect_latency_known = false;
  }

  if (const Scrubber* scrubber = testbed->scrubber(); scrubber != nullptr) {
    const ScrubberStats& s = scrubber->stats();
    acc.scrub_scanned += count(s.blocks_scanned, "integrity.blocks_scanned");
    acc.scrub_corrupt += count(s.corrupt_found, "integrity.corrupt_found");
    acc.scrub_throttled +=
        count(s.scans_throttled, "integrity.scans_throttled");
  }
  acc.cache_copies_purged +=
      count(testbed->integrity_manager().stats().cache_copies_purged,
            "integrity.cache_copies_purged");

  if (testbed->trace() != nullptr) {
    add_migration_spans(*testbed->trace(), acc.migration_s);
  }
}

double percentile_or_zero(const Samples& s, double p) {
  return s.empty() ? 0.0 : s.percentile(p);
}

}  // namespace

PassResult run_pass(const std::vector<CaseSpec>& cases,
                    const PassOptions& options) {
  PassResult out;
  for (const CaseSpec& spec : cases) run_case(spec, options, out);
  return out;
}

MetricMap sim_metrics(const Accum& a) {
  MetricMap m;
  const auto put = [&m](const std::string& name, double value,
                        const char* unit) {
    m[name] = Metric{value, unit, Kind::kSim};
  };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };

  // End to end.
  put("sim_job_p50_s", percentile_or_zero(a.job_s, 50), "s");
  put("sim_job_p99_s", percentile_or_zero(a.job_s, 99), "s");
  put("jobs_failed_frac", ratio(n(a.jobs_failed), n(a.jobs_submitted)),
      "frac");
  double job_speedup = 0, map_speedup = 0;
  std::size_t seeds = 0;
  for (const auto& [key, means] : a.fidelity) {
    if (key.second != RunMode::kHdfs) continue;
    const auto ig = a.fidelity.find({key.first, RunMode::kIgnem});
    if (ig == a.fidelity.end()) continue;
    job_speedup += (means.first - ig->second.first) / means.first;
    map_speedup += (means.second - ig->second.second) / means.second;
    ++seeds;
  }
  if (seeds > 0) {
    // Seed-mean Ignem speedups over HDFS in mean job duration (Table I)
    // and mean mapper duration (Table II).
    job_speedup = 100.0 * job_speedup / static_cast<double>(seeds);
    map_speedup = 100.0 * map_speedup / static_cast<double>(seeds);
    put("fidelity.job_speedup_pct", job_speedup, "%");
    put("fidelity.map_speedup_pct", map_speedup, "%");
    put("fidelity.seeds", n(seeds), "count");
  }

  // workload
  put("workload.jobs", n(a.jobs_submitted), "count");
  put("workload.job_samples", n(a.job_s.count()), "count");
  put("workload.input_gib", gib(a.input_bytes), "GiB");
  // core
  put("core.migrations", n(a.migrations), "count");
  put("core.gib_migrated", gib(a.bytes_migrated), "GiB");
  put("core.evictions", n(a.evictions), "count");
  put("core.missed_read_discards", n(a.missed_read_discards), "count");
  put("core.migration_hit_frac", ratio(n(a.memory_reads), n(a.migrations)),
      "frac");
  if (!a.migration_s.empty()) {
    put("core.migration_p50_s", a.migration_s.percentile(50), "s");
  }
  // dfs
  put("dfs.blocks", n(a.blocks), "count");
  put("dfs.read_p50_ms", percentile_or_zero(a.read_ms, 50), "ms");
  put("dfs.read_p99_ms", percentile_or_zero(a.read_ms, 99), "ms");
  put("dfs.memory_read_frac", ratio(n(a.memory_reads), n(a.reads)), "frac");
  put("dfs.remote_read_frac", ratio(n(a.remote_reads), n(a.reads)), "frac");
  put("dfs.read_retries", n(a.read_retries), "count");
  put("dfs.reads_failed", n(a.reads_failed), "count");
  put("dfs.repl.blocks_repaired", n(a.repl_repaired), "count");
  put("dfs.repl.gib_repaired", gib(a.repl_bytes), "GiB");
  put("dfs.repl.unrepairable", n(a.repl_unrepairable), "count");
  put("dfs.repl.throttled", n(a.repl_throttled), "count");
  put("dfs.repl.discarded", n(a.repl_discarded), "count");
  put("dfs.repl.excess_deleted", n(a.repl_excess_deleted), "count");
  // sim (kernel)
  put("sim.events", n(a.events), "count");
  if (a.profiled) {
    put("sim.max_pending", n(a.max_pending), "count");
    put("sim.mean_pending", ratio(n(a.pending_sum), n(a.profiled_events)),
        "count");
    for (std::size_t i = 0; i < kEventClassCount; ++i) {
      put(std::string("sim.class.") +
              event_class_name(static_cast<EventClass>(i)),
          n(a.classes[i]), "count");
    }
  }
  // storage
  put("storage.disk_busy_frac",
      ratio(a.disk_busy_frac_sum, n(a.disk_count)), "frac");
  put("storage.disk_gib", gib(a.disk_bytes), "GiB");
  put("storage.cache_peak_gib", gib(a.cache_peak_bytes), "GiB");
  // cluster
  put("cluster.queue_wait_p50_s", percentile_or_zero(a.queue_wait_s, 50),
      "s");
  put("cluster.queue_wait_p99_s", percentile_or_zero(a.queue_wait_s, 99),
      "s");
  put("cluster.tasks", n(a.tasks), "count");
  // mapreduce
  put("mapreduce.map_p50_s", percentile_or_zero(a.map_s, 50), "s");
  put("mapreduce.map_read_frac", ratio(a.map_read_s, a.map_total_s), "frac");
  // net
  put("net.gib_sent", gib(a.net_bytes), "GiB");
  put("net.rpc_calls", n(a.rpc_calls), "count");
  put("net.rpc_retries", n(a.rpc_retries), "count");
  put("net.rpc_timeouts", n(a.rpc_timeouts), "count");
  put("net.rpc_unreachable", n(a.rpc_unreachable), "count");
  put("net.oneways_dropped", n(a.oneways_dropped), "count");
  put("net.transfers_severed", n(a.transfers_severed), "count");
  // fault
  put("fault.injected", n(a.faults_injected), "count");
  put("fault.false_dead", n(a.false_dead), "count");
  put("fault.false_dead_control", n(a.false_dead_control), "count");
  if (a.detect_latency_known) {
    put("fault.detect_latency_mean_s",
        ratio(a.detect_latency_sum_us, n(a.detect_latency_count)) / 1e6, "s");
  }
  // integrity
  put("integrity.blocks_scanned", n(a.scrub_scanned), "count");
  put("integrity.corrupt_found", n(a.scrub_corrupt), "count");
  put("integrity.scans_throttled", n(a.scrub_throttled), "count");
  put("integrity.cache_copies_purged", n(a.cache_copies_purged), "count");
  // obs
  if (a.trace_events > 0) put("obs.trace_events", n(a.trace_events), "count");
  return m;
}

}  // namespace perfbench
