// The benchmark's three workloads and their generated configuration.
#include <sstream>

#include "fault/fault_plan.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using ignem::Duration;
using ignem::kGiB;
using ignem::kMiB;
using ignem::RunMode;
using ignem::SwimConfig;
using ignem::TestbedConfig;

/// Paper-scale SWIM seeds per paper_swim pass. SWIM's tail is a handful of
/// multi-GB jobs per seed; pooling 80 seeds keeps the p99 job duration
/// steady from one driver seed to the next.
constexpr std::uint64_t kPaperSeedsPerRun = 80;
/// Fault plans (and SWIM traces) per fault_storm pass; one plan's p99 job
/// duration swings with where its worst faults land.
constexpr std::uint64_t kStormSeedsPerRun = 4;
/// The fixed seed list of the Table I/II fidelity check: workload seeds
/// 0..39, the list the verdicts in EXPERIMENTS.md were checked against.
constexpr std::uint64_t kFidelitySeeds = 40;

/// Workload seed w maps to TestbedConfig::seed 42 + w and SwimConfig::seed
/// 7 + w, so w = 0 is the configuration EXPERIMENTS.md reports.
constexpr std::uint64_t kTestbedSeedBase = 42;
constexpr std::uint64_t kSwimSeedBase = 7;

/// The paper's 8-server testbed (§IV-A), as the paper benches build it.
TestbedConfig paper_testbed(RunMode mode, std::uint64_t workload_seed) {
  TestbedConfig config;
  config.mode = mode;
  config.storage_media = ignem::MediaType::kHdd;
  config.cluster.node_count = 8;
  config.cluster.slots_per_node = 6;
  config.cluster.heartbeat_interval = Duration::seconds(3.0);
  config.cluster.locality_delay = Duration::seconds(3.0);
  config.cluster.container_launch = Duration::seconds(1.0);
  config.cache_capacity_per_node = 100 * kGiB;
  config.ignem.slave_memory_capacity = 16 * kGiB;
  config.replication = 3;
  config.block_size = 64 * kMiB;
  config.seed = kTestbedSeedBase + workload_seed;
  return config;
}

/// SWIM at paper scale (200 jobs, 170 GB) scaled to `nodes` servers the way
/// the cluster-size probes scale it: 25 jobs and 170/8 GB of input per node,
/// arrivals compressed by 8/nodes so per-node load stays the paper's.
SwimConfig scaled_swim(std::size_t nodes, std::uint64_t workload_seed) {
  SwimConfig swim;
  swim.job_count = 25 * nodes;
  swim.total_input = 170 * kGiB * static_cast<ignem::Bytes>(nodes) / 8;
  swim.mean_interarrival =
      Duration::seconds(12.0 * 8.0 / static_cast<double>(nodes));
  swim.seed = kSwimSeedBase + workload_seed;
  return swim;
}

/// Driver seed n owns workload seeds [n * per_run, (n + 1) * per_run).
std::vector<std::uint64_t> seeds_for(std::uint64_t seed,
                                     std::uint64_t per_run) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < per_run; ++i) {
    seeds.push_back(seed * per_run + i);
  }
  return seeds;
}

std::vector<CaseSpec> paper_cases(const std::vector<std::uint64_t>& seeds,
                                  const std::vector<RunMode>& modes) {
  std::vector<CaseSpec> cases;
  for (std::uint64_t w : seeds) {
    for (RunMode mode : modes) {
      CaseSpec spec;
      spec.workload_seed = w;
      spec.config = paper_testbed(mode, w);
      spec.swim = scaled_swim(8, w);
      cases.push_back(spec);
    }
  }
  return cases;
}

Workload swim_scale(std::uint64_t seed) {
  constexpr std::size_t kNodes = 512;
  CaseSpec spec;
  spec.workload_seed = seed;
  spec.config = paper_testbed(RunMode::kIgnem, seed);
  spec.config.cluster.node_count = kNodes;
  spec.swim = scaled_swim(kNodes, seed);
  return Workload{"swim_scale", {spec}};
}

Workload fault_storm(std::uint64_t seed) {
  constexpr std::size_t kNodes = 64;
  Workload workload{"fault_storm", {}};
  for (std::uint64_t w : seeds_for(seed, kStormSeedsPerRun)) {
    CaseSpec spec;
    spec.workload_seed = w;
    TestbedConfig& config = spec.config;
    config = paper_testbed(RunMode::kIgnem, w);
    config.cluster.node_count = kNodes;
    config.rack_count = 4;
    config.fault_tolerance = true;
    config.detector.suspicion_grace = Duration::seconds(4.0);
    config.replication_rate_limit = ignem::mib_per_sec(200);
    config.control_plane.routed = true;
    config.control_plane.sever_transfers = true;
    config.integrity.enable_scrubber = true;
    config.integrity.scrub_interval = Duration::seconds(10);
    spec.swim = scaled_swim(kNodes, w);
    spec.faults = FaultPlanSpec{9000 + w,
                                64,
                                Duration::seconds(600),
                                Duration::seconds(5),
                                Duration::seconds(40),
                                ignem::kEveryFaultKind};
    workload.cases.push_back(spec);
  }
  return workload;
}

double secs(Duration d) { return d.to_seconds(); }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "paper_swim") {
    return Workload{name, paper_cases(seeds_for(seed, kPaperSeedsPerRun),
                                      {RunMode::kHdfs, RunMode::kIgnem,
                                       RunMode::kHdfsInputsInRam})};
  }
  if (name == "swim_scale") return swim_scale(seed);
  if (name == "fault_storm") return fault_storm(seed);
  return std::nullopt;
}

std::vector<CaseSpec> fidelity_cases() {
  return paper_cases(seeds_for(0, kFidelitySeeds),
                     {RunMode::kHdfs, RunMode::kIgnem});
}

std::string config_json(const Workload& workload) {
  const CaseSpec& first = workload.cases.front();
  const TestbedConfig& c = first.config;
  const SwimConfig& s = first.swim;
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": " << json_string(workload.name);
  os << ", \"modes\": [";
  for (std::size_t i = 0; i < workload.cases.size(); ++i) {
    if (i > 0 && workload.cases[i].workload_seed != first.workload_seed) break;
    os << (i == 0 ? "" : ", ")
       << json_string(ignem::run_mode_name(workload.cases[i].config.mode));
  }
  os << "], \"workload_seeds\": [";
  std::uint64_t last = ~std::uint64_t{0};
  bool any = false;
  for (const CaseSpec& spec : workload.cases) {
    if (spec.workload_seed == last) continue;
    last = spec.workload_seed;
    os << (any ? ", " : "") << spec.workload_seed;
    any = true;
  }
  os << "], \"fidelity_seeds\": [0, " << kFidelitySeeds - 1 << "]";
  os << ", \"testbed_seed_base\": " << kTestbedSeedBase
     << ", \"swim_seed_base\": " << kSwimSeedBase;
  os << ", \"nodes\": " << c.cluster.node_count
     << ", \"racks\": " << c.rack_count
     << ", \"slots_per_node\": " << c.cluster.slots_per_node
     << ", \"heartbeat_s\": " << secs(c.cluster.heartbeat_interval)
     << ", \"replication\": " << c.replication
     << ", \"block_size\": " << c.block_size
     << ", \"cache_capacity_per_node\": " << c.cache_capacity_per_node
     << ", \"ignem_slave_memory\": " << c.ignem.slave_memory_capacity
     << ", \"fault_tolerance\": " << (c.fault_tolerance ? "true" : "false")
     << ", \"suspicion_grace_s\": " << secs(c.detector.suspicion_grace)
     << ", \"replication_rate_limit\": " << c.replication_rate_limit
     << ", \"replication_burst\": " << c.replication_burst
     << ", \"scrubber\": " << (c.integrity.enable_scrubber ? "true" : "false")
     << ", \"scrub_interval_s\": " << secs(c.integrity.scrub_interval);
  const ignem::ControlPlaneConfig& cp = c.control_plane;
  os << ", \"control_plane\": {\"routed\": " << (cp.routed ? "true" : "false")
     << ", \"control_node\": " << cp.control_node.value()
     << ", \"rpc_deadline_s\": " << secs(cp.rpc_deadline)
     << ", \"rpc_max_retries\": " << cp.rpc_max_retries
     << ", \"rpc_backoff_base_s\": " << secs(cp.rpc_backoff_base)
     << ", \"rpc_backoff_cap_s\": " << secs(cp.rpc_backoff_cap)
     << ", \"sever_transfers\": " << (cp.sever_transfers ? "true" : "false")
     << "}";
  os << ", \"swim\": {\"job_count\": " << s.job_count
     << ", \"total_input\": " << s.total_input
     << ", \"small_job_fraction\": " << s.small_job_fraction
     << ", \"medium_job_fraction\": " << s.medium_job_fraction
     << ", \"tail_max\": " << s.tail_max
     << ", \"tail_pareto_alpha\": " << s.tail_pareto_alpha
     << ", \"mean_interarrival_s\": " << secs(s.mean_interarrival) << "}";
  os << ", \"fault_plans\": [";
  bool first_plan = true;
  for (const CaseSpec& spec : workload.cases) {
    if (!spec.faults.has_value()) continue;
    const FaultPlanSpec& f = *spec.faults;
    ignem::Rng rng(f.seed);
    const ignem::FaultPlan plan = ignem::FaultPlan::random(
        rng, spec.config.cluster.node_count, f.fault_count, f.horizon,
        f.min_outage, f.max_outage, f.kinds);
    os << (first_plan ? "" : ", ") << "{\"seed\": " << f.seed
       << ", \"faults\": " << f.fault_count
       << ", \"horizon_s\": " << secs(f.horizon)
       << ", \"outage_s\": [" << secs(f.min_outage) << ", "
       << secs(f.max_outage) << "], \"kinds_mask\": " << f.kinds
       << ", \"plan\": " << json_string(plan.to_string()) << "}";
    first_plan = false;
  }
  os << "]}";
  return os.str();
}

}  // namespace perfbench
