// Run-level measurement collection.
//
// Every experiment drives the cluster with a RunMetrics sink attached;
// benches aggregate these records into the paper's tables and figures.
// Records are flat structs (no behaviour) so analysis code can slice them
// freely. The per-read, per-task and memory logs grow with the run, so they
// are deques: appending never copies what is already stored.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/stats.h"
#include "common/units.h"

namespace ignem {

/// One HDFS block read observed at a DataNode (paper Figs. 1 and 6).
struct BlockReadRecord {
  BlockId block;
  JobId job;
  NodeId reader;
  NodeId source;             ///< Replica that served the read (invalid if failed).
  Bytes bytes = 0;
  SimTime start;
  Duration duration;
  bool from_memory = false;  ///< Served from the locked buffer-cache pool.
  bool remote = false;       ///< Read over the network from another node.
  bool failed = false;       ///< Terminal error: retry deadline exhausted.
};

enum class TaskKind { kMap, kReduce };

/// One task execution (paper Fig. 2, Table II).
struct TaskRecord {
  TaskId task;
  JobId job;
  NodeId node;
  TaskKind kind = TaskKind::kMap;
  Bytes input_bytes = 0;
  SimTime launch;
  Duration duration;
  Duration read_time;  ///< Portion spent reading input.
};

/// One job execution (paper Tables I/III, Figs. 5, 8, 9).
struct JobRecord {
  JobId job;
  std::string name;
  Bytes input_bytes = 0;
  SimTime submit;
  SimTime first_task_start;
  SimTime end;
  Duration duration;  ///< end - submit (includes queueing, as in the paper).
  bool failed = false;  ///< A task hit a terminal read error (lost data).
};

/// Periodic sample of one node's migration-memory footprint (paper Fig. 7).
/// Only non-zero samples are stored: a (node, tick) with no sample held
/// 0 bytes.
struct MemorySample {
  NodeId node;
  SimTime when;
  Bytes locked_bytes = 0;
};

class RunMetrics {
 public:
  void add_block_read(const BlockReadRecord& r) { block_reads_.push_back(r); }
  void add_task(const TaskRecord& r) { tasks_.push_back(r); }
  void add_job(const JobRecord& r) { jobs_.push_back(r); }
  /// Keeps `s` only when the node holds migration memory (see MemorySample).
  void add_memory_sample(const MemorySample& s) {
    if (s.locked_bytes > 0) memory_samples_.push_back(s);
  }

  const std::deque<BlockReadRecord>& block_reads() const { return block_reads_; }
  const std::deque<TaskRecord>& tasks() const { return tasks_; }
  const std::vector<JobRecord>& jobs() const { return jobs_; }
  const std::deque<MemorySample>& memory_samples() const { return memory_samples_; }

  /// Convenience aggregates used by many benches.
  Samples job_durations_seconds() const;
  Samples task_durations_seconds(TaskKind kind) const;
  Samples block_read_seconds() const;
  double mean_job_duration_seconds() const;
  double mean_map_task_seconds() const;
  double mean_block_read_seconds() const;

  /// Fraction of block reads served from memory.
  double memory_read_fraction() const;

  void clear();

 private:
  std::deque<BlockReadRecord> block_reads_;
  std::deque<TaskRecord> tasks_;
  std::vector<JobRecord> jobs_;
  std::deque<MemorySample> memory_samples_;
};

}  // namespace ignem
