#include "storage/bandwidth_resource.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace ignem {

namespace {
// Transfers within this many bytes of zero are considered drained; guards
// against floating-point residue after settling.
constexpr double kEpsilonBytes = 1e-3;
// Memory backstop: if a single busy period accumulates this many settles,
// fully sync every transfer and drop the log. Each entry is applied to each
// transfer at most once, so the amortized cost stays below the historical
// settle-everything model.
constexpr std::size_t kLogCompactThreshold = std::size_t{1} << 20;
}  // namespace

SharedBandwidthResource::SharedBandwidthResource(Simulator& sim,
                                                 std::string name,
                                                 BandwidthProfile profile)
    : sim_(sim), name_(std::move(name)), profile_(profile) {
  IGNEM_CHECK(profile_.sequential_bw > 0);
  IGNEM_CHECK(profile_.degradation >= 0);
  IGNEM_CHECK(profile_.per_stream_cap > 0);
  last_update_ = sim_.now();
}

Bandwidth SharedBandwidthResource::per_stream_rate(std::size_t n) const {
  if (n == 0) return 0;
  const double aggregate =
      profile_.sequential_bw /
      (1.0 + profile_.degradation * static_cast<double>(n - 1));
  return std::min(aggregate / static_cast<double>(n), profile_.per_stream_cap);
}

Bandwidth SharedBandwidthResource::current_per_stream_rate() const {
  return per_stream_rate(transfers_.size());
}

TransferHandle SharedBandwidthResource::start(Bytes bytes,
                                              Callback on_complete) {
  IGNEM_CHECK(bytes >= 0);
  IGNEM_CHECK(on_complete != nullptr);
  settle();
  if (transfers_.empty()) busy_since_ = sim_.now();
  const TransferHandle handle(next_id_++);
  const double remaining = static_cast<double>(bytes);
  const double credit = vtime_ + remaining;
  transfers_.emplace(handle.id(), Transfer{remaining, settle_log_.size(),
                                           credit, bytes,
                                           std::move(on_complete)});
  by_credit_.insert({credit, handle.id()});
  reschedule();
  return handle;
}

bool SharedBandwidthResource::abort(TransferHandle handle) {
  if (!handle.valid()) return false;
  const auto it = transfers_.find(handle.id());
  if (it == transfers_.end()) return false;
  settle();
  by_credit_.erase({it->second.credit, it->first});
  transfers_.erase(it);
  if (transfers_.empty()) {
    busy_accum_ += sim_.now() - busy_since_;
    reset_idle();
  }
  reschedule();
  return true;
}

std::int64_t SharedBandwidthResource::remaining_bytes(TransferHandle handle) {
  if (!handle.valid()) return -1;
  const auto it = transfers_.find(handle.id());
  if (it == transfers_.end()) return -1;
  settle();
  sync(it);
  return static_cast<std::int64_t>(
      std::ceil(std::max(0.0, it->second.remaining)));
}

void SharedBandwidthResource::settle() {
  const Duration elapsed = sim_.now() - last_update_;
  last_update_ = sim_.now();
  if (elapsed <= Duration::zero() || transfers_.empty()) return;
  const Bandwidth rate = per_stream_rate(transfers_.size());
  const double progressed = rate * elapsed.to_seconds();
  settle_log_.push_back(progressed);
  vtime_ += progressed;
  if (settle_log_.size() >= kLogCompactThreshold) {
    for (auto it = transfers_.begin(); it != transfers_.end(); ++it) sync(it);
    settle_log_.clear();
    for (auto& [id, t] : transfers_) t.log_pos = 0;
  }
}

bool SharedBandwidthResource::sync(
    std::map<std::uint64_t, Transfer>::iterator it) {
  Transfer& t = it->second;
  if (t.log_pos == settle_log_.size()) return false;
  // The exact chain the historical settle-everything model applied: one
  // clamped subtraction per settle, in order. Event times derive from these
  // values, so the chain (not a vtime difference) is what must be exact.
  double r = t.remaining;
  for (std::size_t k = t.log_pos; k < settle_log_.size(); ++k) {
    r = std::max(0.0, r - settle_log_[k]);
  }
  t.remaining = r;
  t.log_pos = settle_log_.size();
  const double credit = vtime_ + r;
  if (credit != t.credit) {
    by_credit_.erase({t.credit, it->first});
    t.credit = credit;
    by_credit_.insert({credit, it->first});
  }
  return true;
}

double SharedBandwidthResource::slack_bytes() const {
  // A stale credit drifts from vtime_ + exact_remaining only through
  // rounding: one ulp-scale error per settle since the transfer's last
  // sync, in either the vtime sum or the transfer's own chain. Bound it by
  // settles-per-period * vtime * 2^-52, with ~64x margin and a 1-byte
  // floor. Selection with this slack is conservative — candidates are then
  // compared on their exact values.
  const double per_entry = std::scalbn(vtime_, -46);  // vtime * 2^-52 * 64
  return 1.0 + per_entry * static_cast<double>(settle_log_.size() + 64);
}

void SharedBandwidthResource::sync_through(double limit) {
  // Collect only stale candidates (syncing mutates the set, so ids are
  // gathered before replaying); in the common case everything in range is
  // already synced and the single walk is all this costs.
  for (;;) {
    std::vector<std::uint64_t> stale;
    for (auto it = by_credit_.begin();
         it != by_credit_.end() && it->first <= limit; ++it) {
      if (transfers_.find(it->second)->second.log_pos != settle_log_.size()) {
        stale.push_back(it->second);
      }
    }
    if (stale.empty()) return;
    for (const std::uint64_t id : stale) sync(transfers_.find(id));
  }
}

double SharedBandwidthResource::exact_min_remaining() {
  // One walk over the slack band: take the exact minimum of synced
  // candidates, replaying stale ones first (rare — only after a settle).
  for (;;) {
    const double limit = by_credit_.begin()->first + slack_bytes();
    double min_remaining = std::numeric_limits<double>::infinity();
    std::vector<std::uint64_t> stale;
    for (auto it = by_credit_.begin();
         it != by_credit_.end() && it->first <= limit; ++it) {
      const auto tit = transfers_.find(it->second);
      if (tit->second.log_pos != settle_log_.size()) {
        stale.push_back(it->second);
      } else {
        min_remaining = std::min(min_remaining, tit->second.remaining);
      }
    }
    if (stale.empty()) return min_remaining;
    for (const std::uint64_t id : stale) sync(transfers_.find(id));
  }
}

void SharedBandwidthResource::reset_idle() {
  vtime_ = 0.0;
  settle_log_.clear();
}

void SharedBandwidthResource::cancel_pending() {
  if (pending_event_.valid()) {
    sim_.cancel(pending_event_);
    pending_event_ = EventHandle::invalid();
  }
}

void SharedBandwidthResource::emit_change() {
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kBandwidthChange, trace_node_,
                 BlockId::invalid(), JobId::invalid(),
                 static_cast<Bytes>(profile_.sequential_bw),
                 static_cast<std::int64_t>(transfers_.size()),
                 per_stream_rate(transfers_.size()));
  }
}

void SharedBandwidthResource::reschedule() {
  cancel_pending();
  emit_change();
  if (transfers_.empty()) return;
  const Bandwidth rate = per_stream_rate(transfers_.size());
  // The earliest finisher is within slack of the smallest credit; the exact
  // minimum comes from syncing and comparing that band.
  const double min_remaining = exact_min_remaining();
  Duration eta = Duration::micros(1);
  if (min_remaining > kEpsilonBytes) {
    const double seconds = min_remaining / rate;
    eta = Duration::micros(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(std::ceil(seconds * 1e6))));
  }
  pending_event_ = sim_.schedule(eta, [this] { on_completion_event(); },
                                 EventClass::kTransfer);
}

void SharedBandwidthResource::on_completion_event() {
  pending_event_ = EventHandle::invalid();
  settle();
  // Collect all drained transfers before invoking callbacks: a callback may
  // start new transfers on this same resource. Drained == exact remaining
  // within epsilon; any such transfer's credit sits within slack of
  // vtime_ + epsilon, so syncing that band finds them all.
  struct Done {
    std::uint64_t id;
    Callback on_complete;
  };
  std::vector<Done> done;
  if (!transfers_.empty()) {
    sync_through(vtime_ + kEpsilonBytes + slack_bytes());
    const double limit = vtime_ + kEpsilonBytes + slack_bytes();
    std::vector<std::uint64_t> drained;
    for (auto it = by_credit_.begin();
         it != by_credit_.end() && it->first <= limit; ++it) {
      if (transfers_.at(it->second).remaining <= kEpsilonBytes) {
        drained.push_back(it->second);
      }
    }
    for (const std::uint64_t id : drained) {
      const auto it = transfers_.find(id);
      bytes_completed_ += it->second.total_bytes;
      by_credit_.erase({it->second.credit, id});
      done.push_back(Done{id, std::move(it->second.on_complete)});
      transfers_.erase(it);
    }
  }
  if (transfers_.empty() && !done.empty()) {
    busy_accum_ += sim_.now() - busy_since_;
    reset_idle();
  }
  reschedule();
  // Callbacks fire in transfer-id (start) order, as the historical model
  // did by iterating its id-ordered map.
  std::sort(done.begin(), done.end(),
            [](const Done& a, const Done& b) { return a.id < b.id; });
  for (Done& d : done) {
    d.on_complete();
  }
}

Duration SharedBandwidthResource::busy_time() const {
  Duration d = busy_accum_;
  if (!transfers_.empty()) d += sim_.now() - busy_since_;
  return d;
}

}  // namespace ignem
