// perfbench: the repository benchmark driver.
//
//   perfbench --workload <paper_swim|swim_scale|fault_storm> --seed <n>
//             --seconds <s> --trace <0|1> [--out <details.json>]
//
// Repeats the workload's pass until --seconds of wall time have gone (at
// least kMinPasses times), fails unless every pass reproduces the first
// pass's simulated numbers, and prints each metric with its unit and its
// host/sim tag. The last stdout line is one JSON object: with --trace 0 it
// holds the end-to-end metrics, with --trace 1 the per-layer metrics, which
// add one traced pass and one pass with enable_metrics off.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinPasses = 3;

const std::vector<std::string> kEndToEnd = {
    "setup_s",       "run_s",         "peak_rss_mb",  "sim_job_p50_s",
    "sim_job_p99_s", "table1_err_pp", "table2_err_pp",
};

const std::vector<std::string> kPerLayer = {
    "workload.generate_s",
    "workload.jobs",
    "workload.job_samples",
    "workload.input_gib",
    "core.build_s",
    "core.migrations",
    "core.gib_migrated",
    "core.evictions",
    "core.missed_read_discards",
    "core.migration_hit_frac",
    "core.migration_p50_s",
    "dfs.create_files_s",
    "dfs.blocks",
    "dfs.read_p50_ms",
    "dfs.read_p99_ms",
    "dfs.memory_read_frac",
    "dfs.remote_read_frac",
    "dfs.read_retries",
    "dfs.reads_failed",
    "dfs.repl.blocks_repaired",
    "dfs.repl.gib_repaired",
    "dfs.repl.unrepairable",
    "dfs.repl.throttled",
    "dfs.repl.discarded",
    "dfs.repl.excess_deleted",
    "sim.events",
    "sim.host_ns_per_event",
    "sim.max_pending",
    "sim.mean_pending",
    "sim.class.generic",
    "sim.class.transfer",
    "sim.class.periodic",
    "sim.class.rpc",
    "sim.class.migration",
    "sim.class.retry",
    "storage.disk_busy_frac",
    "storage.disk_gib",
    "storage.cache_peak_gib",
    "cluster.queue_wait_p50_s",
    "cluster.queue_wait_p99_s",
    "cluster.tasks",
    "mapreduce.map_p50_s",
    "mapreduce.map_read_frac",
    "net.gib_sent",
    "net.rpc_calls",
    "net.rpc_retries",
    "net.rpc_timeouts",
    "net.rpc_unreachable",
    "net.oneways_dropped",
    "net.transfers_severed",
    "fault.injected",
    "fault.false_dead",
    "fault.false_dead_control",
    "fault.detect_latency_mean_s",
    "integrity.blocks_scanned",
    "integrity.corrupt_found",
    "integrity.scans_throttled",
    "integrity.cache_copies_purged",
    "obs.trace_overhead_frac",
    "obs.trace_events",
    "metrics.overhead_frac",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1" ? 1 : 0;
    } else if (key == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         args.trace >= 0;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A measured pass, reduced to what the report needs.
struct PassSummary {
  HostTimes host;
  MetricMap sims;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

PassSummary summarize(PassResult pass, std::vector<std::string>& failures) {
  failures.insert(failures.end(), pass.failures.begin(), pass.failures.end());
  return PassSummary{pass.host, sim_metrics(pass.accum),
                     pass.accum.jobs_submitted, pass.accum.jobs_failed};
}

/// Every sim metric present in both maps must be bit-identical: the
/// simulator is deterministic, and a mismatch is a bug, never noise.
void expect_same(const MetricMap& reference, const MetricMap& other,
                 const std::string& what, std::vector<std::string>& failures) {
  for (const auto& [name, metric] : reference) {
    const auto it = other.find(name);
    if (it == other.end() || it->second.value == metric.value) continue;
    std::ostringstream os;
    os.precision(17);
    os << what << ": sim metric " << name << " = " << it->second.value
       << ", first pass gave " << metric.value;
    failures.push_back(os.str());
  }
}

std::string format(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

int run(const Args& args) {
  std::optional<Workload> workload = make_workload(args.workload, args.seed);
  if (!workload.has_value()) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::vector<std::string> failures;

  const auto measure_start = Clock::now();
  std::vector<PassSummary> passes;
  while (passes.size() < kMinPasses ||
         seconds_since(measure_start) < args.seconds) {
    passes.push_back(summarize(run_pass(workload->cases, {}), failures));
    expect_same(passes.front().sims, passes.back().sims,
                "pass " + std::to_string(passes.size()), failures);
  }
  const double rss_mb = peak_rss_mb();

  const auto median_of = [&passes](auto field) {
    std::vector<double> v;
    for (const PassSummary& p : passes) v.push_back(field(p));
    return median(v);
  };
  const double run_s =
      median_of([](const PassSummary& p) { return p.host.run_s; });

  MetricMap m = passes.front().sims;
  const auto host = [&m](const std::string& name, double value,
                         const char* unit) {
    m[name] = Metric{value, unit, Kind::kHost};
  };
  host("setup_s",
       median_of([](const PassSummary& p) { return p.host.setup_s(); }), "s");
  host("run_s", run_s, "s");
  host("peak_rss_mb", rss_mb, "MB");
  host("workload.generate_s",
       median_of([](const PassSummary& p) { return p.host.generate_s(); }),
       "s");
  host("core.build_s",
       median_of([](const PassSummary& p) { return p.host.build_s; }), "s");
  host("dfs.create_files_s",
       median_of([](const PassSummary& p) { return p.host.create_files_s(); }),
       "s");
  host("sim.host_ns_per_event",
       run_s * 1e9 / std::max(1.0, m["sim.events"].value), "ns");
  host("measure.passes", static_cast<double>(passes.size()), "count");

  if (args.trace == 0) {
    // The Table I/II verdicts must hold on every run: the paper reports an
    // Ignem speedup over HDFS of 12% in mean job duration and 38% in mean
    // mapper duration. Untimed, and on the fixed fidelity seeds.
    const PassSummary fidelity =
        summarize(run_pass(fidelity_cases(), {}), failures);
    const auto sim = [&m](const std::string& name, double value) {
      m[name] = Metric{value, "pp", Kind::kSim};
    };
    sim("table1_err_pp",
        std::abs(fidelity.sims.at("fidelity.job_speedup_pct").value - 12.0));
    sim("table2_err_pp",
        std::abs(fidelity.sims.at("fidelity.map_speedup_pct").value - 38.0));
  } else {
    PassOptions traced_options;
    traced_options.trace = true;
    traced_options.invariants = workload->name == "fault_storm";
    const PassSummary traced =
        summarize(run_pass(workload->cases, traced_options), failures);
    expect_same(passes.front().sims, traced.sims, "traced pass", failures);
    for (const auto& [name, metric] : traced.sims) m.emplace(name, metric);
    host("obs.trace_overhead_frac", traced.host.run_s / run_s - 1.0, "frac");

    PassOptions metrics_off;
    metrics_off.metrics = false;
    const PassSummary off =
        summarize(run_pass(workload->cases, metrics_off), failures);
    expect_same(passes.front().sims, off.sims, "enable_metrics=false pass",
                failures);
    host("metrics.overhead_frac", run_s / off.host.run_s - 1.0, "frac");
  }

  const std::vector<std::string>& selected =
      args.trace == 0 ? kEndToEnd : kPerLayer;
  for (const std::string& name : selected) {
    const auto it = m.find(name);
    if (it == m.end()) {
      failures.push_back("metric " + name + " was not measured");
    } else if (!std::isfinite(it->second.value)) {
      failures.push_back("metric " + name + " is not finite");
    }
  }

  std::cout << "workload " << workload->name << ", seed " << args.seed
            << ", " << passes.size() << " measured passes\n";
  for (const auto& [name, metric] : m) {
    std::printf("  %-32s %24s %-6s %s\n", name.c_str(),
                format(metric.value).c_str(), metric.unit.c_str(),
                metric.kind == Kind::kHost ? "host" : "sim");
  }
  for (const std::string& failure : failures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }

  if (!args.out.empty()) {
    std::ofstream out(args.out, std::ios::trunc);
    out << "{\"seed\": " << args.seed << ", \"trace\": " << args.trace
        << ",\n \"config\": " << config_json(*workload)
        << ",\n \"failures\": " << failures.size() << ",\n \"passes\": [";
    for (std::size_t i = 0; i < passes.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "{\"setup_s\": "
          << format(passes[i].host.setup_s())
          << ", \"run_s\": " << format(passes[i].host.run_s) << "}";
    }
    out << "],\n \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : m) {
      out << (first ? "\n" : ",\n") << "  \"" << name
          << "\": {\"value\": " << format(metric.value) << ", \"unit\": \""
          << metric.unit << "\", \"kind\": \""
          << (metric.kind == Kind::kHost ? "host" : "sim") << "\"}";
      first = false;
    }
    out << "\n }}\n";
    if (!out.good()) failures.push_back("cannot write " + args.out);
    std::cout << "details -> " << args.out << "\n";
  }

  const bool correct = failures.empty();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << passes.front().attempted
            << ", \"failed\": " << passes.front().failed << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : selected) {
    const auto it = m.find(name);
    if (it == m.end() || !std::isfinite(it->second.value)) continue;
    std::cout << (first ? "" : ", ") << "\"" << name
              << "\": {\"value\": " << format(it->second.value)
              << ", \"unit\": \"" << it->second.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <details.json>]\n";
    return 2;
  }
  return perfbench::run(args);
}
