// Processor-sharing bandwidth model.
//
// A SharedBandwidthResource represents one channel (a disk, an SSD, a DRAM
// controller, a NIC) whose active transfers share bandwidth fairly. The
// aggregate bandwidth can degrade with the number of concurrent streams —
// the dominant effect on spinning disks, where interleaved streams force
// seeks:
//
//     aggregate(n) = seq_bw / (1 + degradation * (n - 1))
//     per_stream(n) = min(aggregate(n) / n, per_stream_cap)
//
// Fair sharing means every active stream progresses at the same per-stream
// rate, so a transfer-set change does not need to touch every transfer.
// Instead, each settle appends the bytes progressed per stream to a log and
// advances a virtual clock (vtime_ = running sum of the log) — O(1). Each
// transfer is keyed in a credit-ordered set by vtime-at-last-sync plus its
// remaining bytes; starts and aborts are O(log n) set updates. A transfer's
// *exact* remaining (the same clamped subtraction chain the event-time
// arithmetic has always used, so event timestamps are bit-identical to the
// historical per-transfer model) is recovered lazily by replaying its
// missed log slice — and only transfers whose credit sits within a small,
// error-bound-derived slack of the minimum ever replay. The earliest
// finisher is always among those candidates; its completion event is
// (re)scheduled whenever the set changes. The old implementation walked all
// n transfers on every change, which went quadratic exactly in the
// high-concurrency bursts the paper's Fig. 1 contention collapse is about
// (see docs/PERF.md for the design and the equivalence argument — goldens
// are bit-identical).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/small_function.h"
#include "common/units.h"
#include "obs/trace_recorder.h"
#include "sim/simulator.h"

namespace ignem {

/// Identifies one in-flight transfer on a resource.
class TransferHandle {
 public:
  constexpr TransferHandle() = default;
  constexpr explicit TransferHandle(std::uint64_t id) : id_(id) {}
  static constexpr TransferHandle invalid() { return TransferHandle(); }
  constexpr bool valid() const { return id_ != 0; }
  constexpr std::uint64_t id() const { return id_; }
  constexpr auto operator<=>(const TransferHandle&) const = default;

 private:
  std::uint64_t id_ = 0;
};

/// Static description of a bandwidth channel.
struct BandwidthProfile {
  Bandwidth sequential_bw = 0;  ///< Aggregate bandwidth with one stream.
  double degradation = 0;       ///< Aggregate loss per extra stream (HDD ~0.4).
  Bandwidth per_stream_cap =
      std::numeric_limits<double>::infinity();  ///< e.g. one DMA engine's limit.
};

class SharedBandwidthResource {
 public:
  using Callback = SmallFunction;

  SharedBandwidthResource(Simulator& sim, std::string name,
                          BandwidthProfile profile);

  SharedBandwidthResource(const SharedBandwidthResource&) = delete;
  SharedBandwidthResource& operator=(const SharedBandwidthResource&) = delete;

  /// Begins a transfer of `bytes`; `on_complete` fires when it finishes.
  /// Zero-byte transfers complete on the next event dispatch.
  TransferHandle start(Bytes bytes, Callback on_complete);

  /// Aborts an in-flight transfer; its callback never fires. Returns false
  /// if the transfer already completed or was never started.
  bool abort(TransferHandle handle);

  /// Exact unserved bytes of an in-flight transfer (rounded up to whole
  /// bytes), or -1 when the handle is unknown (completed or aborted).
  /// Settles the channel and replays this transfer's missed log slice —
  /// the same clamped chain event times derive from — without scheduling
  /// anything, so callers (partition severing) can account partial
  /// progress at the cut instant.
  std::int64_t remaining_bytes(TransferHandle handle);

  std::size_t active_transfers() const { return transfers_.size(); }

  /// Current per-stream rate, given the active transfer count.
  Bandwidth current_per_stream_rate() const;

  /// Lifetime totals, for utilization accounting.
  Bytes total_bytes_completed() const { return bytes_completed_; }
  Duration busy_time() const;

  const std::string& name() const { return name_; }
  const BandwidthProfile& profile() const { return profile_; }

  /// Emits kBandwidthChange (active streams + per-stream rate) whenever the
  /// transfer set changes; `node` attributes the channel to its owner.
  void set_trace(TraceRecorder* trace, NodeId node) {
    trace_ = trace;
    trace_node_ = node;
  }

 private:
  struct Transfer {
    double remaining;      ///< Exact remaining bytes as of settle_log_[log_pos).
    std::size_t log_pos;   ///< First settle-log entry not yet applied.
    double credit;         ///< Set key: vtime at last sync + remaining.
    Bytes total_bytes;
    Callback on_complete;
  };

  /// Advances the virtual clock by the per-stream progress since
  /// last_update_ and appends it to the settle log. O(1): individual
  /// transfers are never touched.
  void settle();

  /// Replays the transfer's missed settle-log slice (the exact clamped
  /// subtraction chain) and refreshes its credit key. Returns true if any
  /// log entries were applied.
  bool sync(std::map<std::uint64_t, Transfer>::iterator it);

  /// Syncs every transfer whose credit is within `limit`; loops until no
  /// replay occurs (syncing nudges credits by far less than the slack).
  void sync_through(double limit);

  /// Exact minimum remaining bytes over the set — syncs the slack band
  /// around the smallest credit and compares exact values.
  double exact_min_remaining();

  /// Upper bound on how far a stale credit can drift from the transfer's
  /// exact remaining, in bytes. Candidates for minimum / drain are selected
  /// with this much slack, then compared exactly.
  double slack_bytes() const;

  /// Clears the virtual clock and settle log when the channel goes idle.
  void reset_idle();

  /// Emits kBandwidthChange reflecting the current transfer set.
  void emit_change();

  /// Cancels the pending completion event, if any.
  void cancel_pending();

  /// Emits the set change, then cancels the pending completion event and
  /// schedules one for the earliest finisher of the current set. Every
  /// start, abort and completion calls it.
  void reschedule();

  /// Fires when the earliest transfer should have drained.
  void on_completion_event();

  Bandwidth per_stream_rate(std::size_t n) const;

  Simulator& sim_;
  std::string name_;
  BandwidthProfile profile_;
  TraceRecorder* trace_ = nullptr;
  NodeId trace_node_;

  std::map<std::uint64_t, Transfer> transfers_;           // id -> transfer
  std::set<std::pair<double, std::uint64_t>> by_credit_;  // (credit, id)
  /// Per-settle per-stream progress since the channel went idle; entry k is
  /// what the historical model subtracted from every transfer at settle k.
  std::vector<double> settle_log_;
  /// Running sum of settle_log_ — per-stream service since idle.
  double vtime_ = 0.0;
  std::uint64_t next_id_ = 1;
  SimTime last_update_ = SimTime::zero();
  EventHandle pending_event_ = EventHandle::invalid();

  Bytes bytes_completed_ = 0;
  // Busy-time accounting: accumulated whenever >=1 transfer is active.
  Duration busy_accum_ = Duration::zero();
  SimTime busy_since_ = SimTime::zero();
};

}  // namespace ignem
