// RequestQueue: the ResourceManager's pending container requests, indexed
// so that a heartbeat costs O(grants), not O(pending requests).
//
// Grant order is FIFO-with-delay-scheduling (see ResourceManager): a beat
// from node n first takes, in arrival order, the requests that prefer n
// together with its fair share (`budget`) of location-free requests; if
// slots remain, it then takes located requests that have outwaited the
// locality delay. Three FIFOs of sequence numbers serve those two passes
// directly, each with lazy deletion (an entry whose request was granted
// through another index is skipped and popped when it reaches the front):
//   - per node, the requests that list it as preferred;
//   - the location-free requests;
//   - the located requests, whose ages grow towards the front, so the ones
//     past the locality delay form a prefix.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace ignem {

/// A granted container: the slot's node plus a unique id so a release after
/// the node was declared dead (and its slots purged) is a safe no-op.
struct ContainerGrant {
  std::uint64_t id = 0;
  NodeId node;
};

/// A request for one container, with locality preferences.
struct ContainerRequest {
  JobId job;
  std::vector<NodeId> preferred;  ///< Empty means "anywhere".
  std::function<void(const ContainerGrant&)> on_allocated;
  /// Optional: fired when the container's node is declared dead before the
  /// container was released — the owner should re-request elsewhere.
  std::function<void()> on_lost;
};

class RequestQueue {
 public:
  /// `node_count` sizes the per-node index and divides the fair share of
  /// location-free requests. Preferred ids outside [0, node_count) never
  /// match a heartbeat, so they are not indexed.
  explicit RequestQueue(std::size_t node_count);

  void push(ContainerRequest request, SimTime now);

  /// Requests waiting for a container.
  std::size_t size() const { return live_; }

  /// Removes the requests a heartbeat from `node` with `free_slots` free
  /// slots is granted at `now` and appends them to `granted`, in grant
  /// order (at most `free_slots` of them).
  void take(NodeId node, int free_slots, SimTime now, Duration locality_delay,
            std::vector<ContainerRequest>& granted);

 private:
  struct Entry {
    ContainerRequest request;
    SimTime enqueued;
    bool live = true;
  };
  using Fifo = std::deque<std::uint64_t>;

  bool live(std::uint64_t seq) const {
    return seq >= base_ && table_[seq - base_].live;
  }
  Entry& entry(std::uint64_t seq) { return table_[seq - base_]; }
  /// Pops granted entries off the front of `fifo`.
  void drop_granted(Fifo& fifo) const;
  void grant(std::uint64_t seq, std::vector<ContainerRequest>& granted);

  // Requests by sequence number: table_[i] holds seq base_ + i. Granted
  // entries are released from the front as soon as they lead the table.
  std::deque<Entry> table_;
  std::uint64_t base_ = 0;
  std::size_t live_ = 0;
  std::vector<Fifo> by_node_;  // index == NodeId value
  Fifo unlocated_;
  Fifo located_;
};

}  // namespace ignem
