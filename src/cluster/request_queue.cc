#include "cluster/request_queue.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace ignem {

RequestQueue::RequestQueue(std::size_t node_count) : by_node_(node_count) {
  IGNEM_CHECK(node_count > 0);
}

void RequestQueue::push(ContainerRequest request, SimTime now) {
  const std::uint64_t seq = base_ + table_.size();
  if (request.preferred.empty()) {
    unlocated_.push_back(seq);
  } else {
    located_.push_back(seq);
    for (const NodeId node : request.preferred) {
      if (!node.valid() ||
          static_cast<std::size_t>(node.value()) >= by_node_.size()) {
        continue;
      }
      Fifo& mine = by_node_[static_cast<std::size_t>(node.value())];
      if (mine.empty() || mine.back() != seq) mine.push_back(seq);  // dedupe
    }
  }
  table_.push_back(Entry{std::move(request), now});
  ++live_;
}

void RequestQueue::drop_granted(Fifo& fifo) const {
  while (!fifo.empty() && !live(fifo.front())) fifo.pop_front();
}

void RequestQueue::grant(std::uint64_t seq,
                         std::vector<ContainerRequest>& granted) {
  Entry& e = entry(seq);
  e.live = false;
  --live_;
  granted.push_back(std::move(e.request));
  while (!table_.empty() && !table_.front().live) {
    table_.pop_front();
    ++base_;
  }
}

void RequestQueue::take(NodeId node, int free_slots, SimTime now,
                        Duration locality_delay,
                        std::vector<ContainerRequest>& granted) {
  IGNEM_CHECK(node.valid() &&
              static_cast<std::size_t>(node.value()) < by_node_.size());
  Fifo& mine = by_node_[static_cast<std::size_t>(node.value())];
  // Pop entries granted elsewhere even on a full beat, so a busy node's
  // index does not keep every request that ever preferred it.
  drop_granted(mine);
  if (free_slots <= 0) return;

  // A node only takes its fair share of location-free requests per
  // heartbeat, so e.g. a reduce wave spreads across the cluster instead of
  // piling onto whichever node beats first (YARN's round-robin offers).
  const std::size_t count = by_node_.size();
  std::size_t budget = std::max<std::size_t>(1, (live_ + count - 1) / count);

  // Pass 1, locality: in arrival order, every request preferring this node
  // and the first `budget` location-free ones.
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  while (free_slots > 0) {
    drop_granted(mine);
    drop_granted(unlocated_);
    const std::uint64_t preferring = mine.empty() ? kNone : mine.front();
    const std::uint64_t anywhere =
        budget == 0 || unlocated_.empty() ? kNone : unlocated_.front();
    if (preferring == kNone && anywhere == kNone) break;
    if (preferring < anywhere) {
      mine.pop_front();
      grant(preferring, granted);
    } else {
      unlocated_.pop_front();
      --budget;
      grant(anywhere, granted);
    }
    --free_slots;
  }

  // Pass 2, delay scheduling: reached with free slots only once pass 1 ran
  // dry, so every request still eligible there is located elsewhere (the
  // fair-share budget binds location-free requests in both passes; the
  // relaxation waives locality, it is no license to drain the queue).
  // Enqueue times never decrease, so the requests past the locality delay
  // are a prefix of the located FIFO.
  while (free_slots > 0) {
    drop_granted(located_);
    if (located_.empty()) break;
    const std::uint64_t seq = located_.front();
    if (now - entry(seq).enqueued < locality_delay) break;
    located_.pop_front();
    grant(seq, granted);
    --free_slots;
  }
}

}  // namespace ignem
