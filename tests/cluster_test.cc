#include "cluster/resource_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ignem {
namespace {

ClusterConfig small_cluster(std::size_t nodes, int slots) {
  ClusterConfig c;
  c.node_count = nodes;
  c.slots_per_node = slots;
  c.heartbeat_interval = Duration::seconds(3.0);
  c.locality_delay = Duration::seconds(3.0);
  c.container_launch = Duration::zero();
  return c;
}

TEST(NodeManagerTest, SlotAccounting) {
  NodeManager nm(NodeId(0), 2);
  EXPECT_EQ(nm.free_slots(), 2);
  nm.allocate();
  nm.allocate();
  EXPECT_EQ(nm.free_slots(), 0);
  EXPECT_THROW(nm.allocate(), CheckFailure);
  nm.release();
  EXPECT_EQ(nm.free_slots(), 1);
  nm.set_alive(false);
  EXPECT_EQ(nm.free_slots(), 0);  // dead nodes offer nothing
}

TEST(ResourceManager, AllocationWaitsForHeartbeat) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(1, 4));
  double allocated_at = -1;
  ContainerRequest request;
  request.job = JobId(1);
  request.on_allocated = [&](const ContainerGrant&) { allocated_at = sim.now().to_seconds(); };
  rm.request_container(std::move(request));
  sim.run(SimTime::zero() + Duration::seconds(10));
  // Single node's first heartbeat is at one full interval (3 s).
  EXPECT_NEAR(allocated_at, 3.0, 1e-6);
}

TEST(ResourceManager, HeartbeatsStaggeredAcrossNodes) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(4, 1));
  std::vector<double> times;
  for (int i = 0; i < 4; ++i) {
    ContainerRequest request;
    request.job = JobId(1);
    request.on_allocated = [&](const ContainerGrant&) {
      times.push_back(sim.now().to_seconds());
    };
    rm.request_container(std::move(request));
  }
  sim.run(SimTime::zero() + Duration::seconds(4));
  ASSERT_EQ(times.size(), 4u);
  // First beats at 0.75, 1.5, 2.25, 3.0 s.
  EXPECT_NEAR(times[0], 0.75, 1e-6);
  EXPECT_NEAR(times[3], 3.0, 1e-6);
}

TEST(ResourceManager, PrefersRequestedNode) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(4, 1));
  NodeId got = NodeId::invalid();
  ContainerRequest request;
  request.job = JobId(1);
  request.preferred = {NodeId(3)};
  request.on_allocated = [&](const ContainerGrant& grant) { got = grant.node; };
  rm.request_container(std::move(request));
  sim.run(SimTime::zero() + Duration::seconds(2));
  // Nodes 0..2 beat first but must be skipped (locality delay not expired).
  EXPECT_FALSE(got.valid());
  sim.run(SimTime::zero() + Duration::seconds(3.1));
  EXPECT_EQ(got, NodeId(3));
}

TEST(ResourceManager, DelaySchedulingGivesUpLocality) {
  Simulator sim;
  ClusterConfig config = small_cluster(2, 1);
  config.locality_delay = Duration::seconds(4.0);
  ResourceManager rm(sim, config);
  // Fill node 1 (the preferred node) so the request cannot go there.
  ContainerRequest filler;
  filler.job = JobId(1);
  filler.preferred = {NodeId(1)};
  filler.on_allocated = [](const ContainerGrant&) {};
  rm.request_container(std::move(filler));

  NodeId got = NodeId::invalid();
  double when = -1;
  ContainerRequest request;
  request.job = JobId(2);
  request.preferred = {NodeId(1)};
  request.on_allocated = [&](const ContainerGrant& grant) {
    got = grant.node;
    when = sim.now().to_seconds();
  };
  rm.request_container(std::move(request));

  sim.run(SimTime::zero() + Duration::seconds(20));
  EXPECT_EQ(got, NodeId(0));  // fell back to the non-preferred node
  EXPECT_GE(when, 4.0);       // but only after the locality delay
}

TEST(ResourceManager, ReleaseMakesSlotVisibleNextHeartbeat) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(1, 1));
  ContainerGrant first;
  ContainerRequest a;
  a.job = JobId(1);
  a.on_allocated = [&](const ContainerGrant& grant) { first = grant; };
  rm.request_container(std::move(a));

  double second_at = -1;
  ContainerRequest b;
  b.job = JobId(2);
  b.on_allocated = [&](const ContainerGrant&) { second_at = sim.now().to_seconds(); };
  rm.request_container(std::move(b));

  sim.run(SimTime::zero() + Duration::seconds(3.5));
  ASSERT_EQ(first.node, NodeId(0));
  EXPECT_EQ(second_at, -1);  // no free slot yet
  rm.release_container(first);
  sim.run(SimTime::zero() + Duration::seconds(10));
  EXPECT_NEAR(second_at, 6.0, 1e-6);  // the next beat after release
}

TEST(ResourceManager, DeadNodeStopsAllocating) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(2, 1));
  rm.set_node_alive(NodeId(0), false);
  std::vector<NodeId> allocated;
  for (int i = 0; i < 2; ++i) {
    ContainerRequest request;
    request.job = JobId(1);
    request.on_allocated = [&](const ContainerGrant& grant) { allocated.push_back(grant.node); };
    rm.request_container(std::move(request));
  }
  sim.run(SimTime::zero() + Duration::seconds(30));
  ASSERT_EQ(allocated.size(), 1u);  // only node 1 has capacity
  EXPECT_EQ(allocated[0], NodeId(1));
  EXPECT_EQ(rm.pending_requests(), 1u);
}

TEST(ResourceManager, ContainerLaunchDelayApplied) {
  Simulator sim;
  ClusterConfig config = small_cluster(1, 1);
  config.container_launch = Duration::seconds(1.0);
  ResourceManager rm(sim, config);
  double at = -1;
  ContainerRequest request;
  request.job = JobId(1);
  request.on_allocated = [&](const ContainerGrant&) { at = sim.now().to_seconds(); };
  rm.request_container(std::move(request));
  sim.run(SimTime::zero() + Duration::seconds(10));
  EXPECT_NEAR(at, 4.0, 1e-6);  // 3 s heartbeat + 1 s launch
}

TEST(ResourceManager, JobLivenessOracle) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(1, 1));
  EXPECT_FALSE(rm.is_job_running(JobId(5)));
  rm.register_job(JobId(5));
  EXPECT_TRUE(rm.is_job_running(JobId(5)));
  rm.complete_job(JobId(5));
  EXPECT_FALSE(rm.is_job_running(JobId(5)));
}

TEST(ResourceManager, FifoAmongEquallyEligible) {
  Simulator sim;
  ResourceManager rm(sim, small_cluster(1, 2));
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    ContainerRequest request;
    request.job = JobId(1);
    request.on_allocated = [&order, i](const ContainerGrant&) { order.push_back(i); };
    rm.request_container(std::move(request));
  }
  sim.run(SimTime::zero() + Duration::seconds(4));
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// The reference queue: the two-pass scan ResourceManager::on_heartbeat ran
// before RequestQueue — one FIFO deque walked once for locality and once
// for delay scheduling, grants erased from the middle. Kept here,
// test-only, as the differential oracle for the indexed queue.
class ScanRequestQueue {
 public:
  explicit ScanRequestQueue(std::size_t node_count)
      : node_count_(node_count) {}

  void push(ContainerRequest request, SimTime now) {
    queue_.push_back(Queued{std::move(request), now});
  }
  std::size_t size() const { return queue_.size(); }

  void take(NodeId node, int free_slots, SimTime now, Duration locality_delay,
            std::vector<ContainerRequest>& granted) {
    std::size_t unpreferred_budget = std::max<std::size_t>(
        1, (queue_.size() + node_count_ - 1) / node_count_);
    for (const bool locality_pass : {true, false}) {
      auto it = queue_.begin();
      while (it != queue_.end() && free_slots > 0) {
        const auto& preferred = it->request.preferred;
        const bool unpreferred = preferred.empty();
        const bool prefers =
            unpreferred || std::find(preferred.begin(), preferred.end(),
                                     node) != preferred.end();
        const bool budget_ok = !unpreferred || unpreferred_budget > 0;
        const bool eligible =
            locality_pass ? prefers && budget_ok
                          : now - it->enqueued >= locality_delay && budget_ok;
        if (!eligible) {
          ++it;
          continue;
        }
        if (unpreferred) --unpreferred_budget;
        granted.push_back(std::move(it->request));
        it = queue_.erase(it);
        --free_slots;
      }
      if (free_slots == 0) break;
    }
  }

 private:
  struct Queued {
    ContainerRequest request;
    SimTime enqueued;
  };
  std::size_t node_count_;
  std::deque<Queued> queue_;
};

struct Granted {
  std::uint64_t id;
  NodeId node;
  JobId job;
  bool operator==(const Granted&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Granted& g) {
  return os << "{container " << g.id << ", node " << g.node.value()
            << ", job " << g.job.value() << "}";
}

// ResourceManager's bookkeeping around its queue — slots, kills, declared-
// dead purges that re-request the lost containers, rejoins, container ids —
// so both queues see the beats a real cluster would give them.
template <typename Queue>
class SchedulerModel {
 public:
  SchedulerModel(std::size_t nodes, int slots, Duration locality_delay)
      : queue_(nodes),
        slots_(nodes, slots),
        used_(nodes, 0),
        alive_(nodes, true),
        dead_marked_(nodes, false),
        locality_delay_(locality_delay) {}

  void request(JobId job, std::vector<NodeId> preferred, SimTime now) {
    ContainerRequest r;
    r.job = job;
    r.preferred = std::move(preferred);
    queue_.push(std::move(r), now);
  }

  void release(std::uint64_t id) {
    const auto it = active_.find(id);
    if (it == active_.end()) return;  // purged by a declared death
    --used_[index(it->second.node)];
    active_.erase(it);
  }

  void set_alive(NodeId node, bool alive) { alive_[index(node)] = alive; }

  // Failure detection gave up on `node`: its slots reset and every
  // container it ran is re-requested, in container-id order.
  void declare_dead(NodeId node, SimTime now) {
    const std::size_t i = index(node);
    dead_marked_[i] = true;
    alive_[i] = false;
    used_[i] = 0;
    for (auto it = active_.begin(); it != active_.end();) {
      if (it->second.node == node) {
        request(it->second.job, it->second.preferred, now);
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<Granted> beat(NodeId node, SimTime now) {
    const std::size_t i = index(node);
    if (dead_marked_[i]) {  // rejoin with a clean slate
      dead_marked_[i] = false;
      alive_[i] = true;
      used_[i] = 0;
    }
    std::vector<Granted> out;
    if (!alive_[i]) return out;
    std::vector<ContainerRequest> granted;
    queue_.take(node, slots_[i] - used_[i], now, locality_delay_, granted);
    for (ContainerRequest& r : granted) {
      ++used_[i];
      const std::uint64_t id = next_id_++;
      active_.emplace(id, Active{node, r.job, std::move(r.preferred)});
      out.push_back(Granted{id, node, r.job});
    }
    return out;
  }

  std::size_t pending() const { return queue_.size(); }
  std::vector<std::uint64_t> active_ids() const {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, active] : active_) ids.push_back(id);
    return ids;
  }

 private:
  struct Active {
    NodeId node;
    JobId job;
    std::vector<NodeId> preferred;
  };
  static std::size_t index(NodeId node) {
    return static_cast<std::size_t>(node.value());
  }

  Queue queue_;
  std::vector<int> slots_;
  std::vector<int> used_;
  std::vector<bool> alive_;
  std::vector<bool> dead_marked_;
  Duration locality_delay_;
  std::map<std::uint64_t, Active> active_;
  std::uint64_t next_id_ = 1;
};

// The indexed queue against the scan oracle under random request mixes
// (location-free, one to three preferred nodes, duplicates), ages on both
// sides of the locality delay (equal included), releases, kills, declared
// deaths and rejoins: after every beat both must have granted the same
// containers, in the same order, and hold the same number of requests.
TEST(RequestQueueOracle, IndexedQueueMatchesTwoPassScan) {
  Rng rng(test::seed_for(14));
  std::size_t total_grants = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const int slots = static_cast<int>(rng.uniform_int(1, 3));
    const Duration delay = Duration::millis(500 * rng.uniform_int(0, 8));
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": " << nodes << " nodes, " << slots
                 << " slots, delay " << delay.to_seconds() << " s");
    SchedulerModel<RequestQueue> indexed(nodes, slots, delay);
    SchedulerModel<ScanRequestQueue> scan(nodes, slots, delay);
    const auto random_node = [&] {
      return NodeId(rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    };

    SimTime now = SimTime::zero();
    std::int64_t next_job = 1;
    for (int step = 0; step < 300; ++step) {
      now = now + Duration::millis(500 * rng.uniform_int(0, 3));
      for (std::int64_t k = rng.uniform_int(0, 3); k > 0; --k) {
        std::vector<NodeId> preferred;
        const std::int64_t wanted = rng.uniform_int(0, 3);
        for (std::int64_t p = 0; p < wanted; ++p) {
          preferred.push_back(random_node());
        }
        if (!preferred.empty() && rng.bernoulli(0.1)) {
          preferred.push_back(preferred.front());  // duplicate preference
        }
        const JobId job(next_job++);
        indexed.request(job, preferred, now);
        scan.request(job, preferred, now);
      }
      const std::vector<std::uint64_t> active = indexed.active_ids();
      if (!active.empty() && rng.bernoulli(0.5)) {
        const std::uint64_t id = active[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(active.size()) - 1))];
        indexed.release(id);
        scan.release(id);
      }
      if (rng.bernoulli(0.05)) {
        const NodeId node = random_node();
        const bool alive = rng.bernoulli(0.5);
        indexed.set_alive(node, alive);
        scan.set_alive(node, alive);
      }
      if (rng.bernoulli(0.03)) {
        const NodeId node = random_node();
        indexed.declare_dead(node, now);
        scan.declare_dead(node, now);
      }
      const NodeId node = random_node();
      const std::vector<Granted> got = indexed.beat(node, now);
      const std::vector<Granted> want = scan.beat(node, now);
      ASSERT_EQ(got, want) << "step " << step << ", beat of node "
                           << node.value();
      ASSERT_EQ(indexed.pending(), scan.pending()) << "step " << step;
      total_grants += got.size();
    }
  }
  EXPECT_GT(total_grants, 10'000u);  // the mixes really exercise grants
}

}  // namespace
}  // namespace ignem
