#include "dfs/namenode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ignem {
namespace {

class NameNodeTest : public ::testing::Test {
 protected:
  void build(std::size_t nodes, int replication, Bytes block_size = 64 * kMiB,
             int racks = 1) {
    namenode_ =
        std::make_unique<NameNode>(Rng(1), replication, block_size, racks);
    for (std::size_t i = 0; i < nodes; ++i) {
      datanodes_.push_back(std::make_unique<DataNode>(
          sim_, NodeId(static_cast<std::int64_t>(i)),
          two_tier_specs(hdd_profile(), 16 * kGiB), Rng(100 + i)));
      namenode_->register_datanode(datanodes_.back().get());
    }
  }

  Simulator sim_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::unique_ptr<NameNode> namenode_;
};

TEST_F(NameNodeTest, FileSplitsIntoBlocks) {
  build(4, 3);
  const FileId id = namenode_->create_file("/a", 200 * kMiB);
  const FileInfo& info = namenode_->file(id);
  ASSERT_EQ(info.blocks.size(), 4u);  // 64+64+64+8
  EXPECT_EQ(namenode_->block(info.blocks[0]).size, 64 * kMiB);
  EXPECT_EQ(namenode_->block(info.blocks[3]).size, 8 * kMiB);
  Bytes total = 0;
  for (const BlockId b : info.blocks) total += namenode_->block(b).size;
  EXPECT_EQ(total, 200 * kMiB);
}

TEST_F(NameNodeTest, SmallFileIsOneBlock) {
  build(4, 3);
  const FileId id = namenode_->create_file("/small", 1 * kMiB);
  EXPECT_EQ(namenode_->file(id).blocks.size(), 1u);
}

TEST_F(NameNodeTest, ReplicasAreDistinctNodes) {
  build(8, 3);
  const FileId id = namenode_->create_file("/a", 640 * kMiB);
  for (const BlockId b : namenode_->file(id).blocks) {
    const auto& replicas = namenode_->block(b).replicas;
    EXPECT_EQ(replicas.size(), 3u);
    const std::set<NodeId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), replicas.size());
  }
}

TEST_F(NameNodeTest, ReplicationCappedByClusterSize) {
  build(2, 3);
  const FileId id = namenode_->create_file("/a", 64 * kMiB);
  EXPECT_EQ(namenode_->block(namenode_->file(id).blocks[0]).replicas.size(),
            2u);
}

TEST_F(NameNodeTest, BlocksRegisteredOnDataNodes) {
  build(4, 2);
  const FileId id = namenode_->create_file("/a", 64 * kMiB);
  const BlockId block = namenode_->file(id).blocks[0];
  for (const NodeId node : namenode_->block(block).replicas) {
    EXPECT_TRUE(namenode_->datanode(node)->has_block(block));
    EXPECT_EQ(namenode_->datanode(node)->block_size(block), 64 * kMiB);
  }
}

TEST_F(NameNodeTest, LookupByPath) {
  build(2, 1);
  const FileId id = namenode_->create_file("/x/y", 1 * kMiB);
  EXPECT_EQ(namenode_->lookup("/x/y"), id);
  EXPECT_FALSE(namenode_->lookup("/nope").valid());
}

TEST_F(NameNodeTest, DuplicatePathRejected) {
  build(2, 1);
  namenode_->create_file("/a", 1 * kMiB);
  EXPECT_THROW(namenode_->create_file("/a", 1 * kMiB), CheckFailure);
}

TEST_F(NameNodeTest, DeadNodeLeavesLocations) {
  build(4, 3);
  const FileId id = namenode_->create_file("/a", 64 * kMiB);
  const BlockId block = namenode_->file(id).blocks[0];
  const NodeId victim = namenode_->block(block).replicas[0];
  namenode_->set_node_alive(victim, false);
  const auto live = namenode_->live_locations(block);
  EXPECT_EQ(live.size(), 2u);
  for (const NodeId node : live) EXPECT_NE(node, victim);
  // Recovery restores it.
  namenode_->set_node_alive(victim, true);
  EXPECT_EQ(namenode_->live_locations(block).size(), 3u);
}

TEST_F(NameNodeTest, PlacementSkipsDeadNodes) {
  build(4, 3);
  namenode_->set_node_alive(NodeId(0), false);
  const FileId id = namenode_->create_file("/a", 640 * kMiB);
  for (const BlockId b : namenode_->file(id).blocks) {
    for (const NodeId node : namenode_->block(b).replicas) {
      EXPECT_NE(node, NodeId(0));
    }
  }
}

TEST_F(NameNodeTest, PlacementSpreadsLoad) {
  build(8, 1);
  const FileId id = namenode_->create_file("/big", 64 * 64 * kMiB);
  std::set<NodeId> used;
  for (const BlockId b : namenode_->file(id).blocks) {
    used.insert(namenode_->block(b).replicas[0]);
  }
  // 64 single-replica blocks over 8 nodes should touch most nodes.
  EXPECT_GE(used.size(), 6u);
}

TEST_F(NameNodeTest, TotalBytes) {
  build(2, 1);
  const FileId a = namenode_->create_file("/a", 10 * kMiB);
  const FileId b = namenode_->create_file("/b", 30 * kMiB);
  EXPECT_EQ(namenode_->total_bytes({a, b}), 40 * kMiB);
}

TEST_F(NameNodeTest, Counts) {
  build(3, 2);
  namenode_->create_file("/a", 130 * kMiB);
  EXPECT_EQ(namenode_->file_count(), 1u);
  EXPECT_EQ(namenode_->block_count(), 3u);
  EXPECT_EQ(namenode_->node_count(), 3u);
}

TEST_F(NameNodeTest, RackAwarePlacementSpansTwoRacks) {
  build(8, 3, 64 * kMiB, /*racks=*/2);
  const FileId id = namenode_->create_file("/a", 64 * 20 * kMiB);
  for (const BlockId b : namenode_->file(id).blocks) {
    const auto& replicas = namenode_->block(b).replicas;
    ASSERT_EQ(replicas.size(), 3u);
    std::set<int> racks;
    for (const NodeId node : replicas) racks.insert(namenode_->rack_of(node));
    // HDFS default: exactly two racks per 3-replicated block.
    EXPECT_EQ(racks.size(), 2u);
    // Second and third replicas share a rack.
    EXPECT_EQ(namenode_->rack_of(replicas[1]), namenode_->rack_of(replicas[2]));
    EXPECT_NE(namenode_->rack_of(replicas[0]), namenode_->rack_of(replicas[1]));
  }
}

TEST_F(NameNodeTest, WholeRackFailureLosesNoBlocks) {
  build(8, 3, 64 * kMiB, /*racks=*/2);
  const FileId id = namenode_->create_file("/a", 64 * 30 * kMiB);
  // Kill every node in rack 0 (over a snapshot: marking a node dead
  // updates the live index live_nodes() refers to).
  const std::vector<NodeId> nodes = namenode_->live_nodes();
  for (const NodeId node : nodes) {
    if (namenode_->rack_of(node) == 0) namenode_->set_node_alive(node, false);
  }
  for (const BlockId b : namenode_->file(id).blocks) {
    EXPECT_GE(namenode_->live_locations(b).size(), 1u)
        << "block " << b.value() << " lost to a single-rack failure";
  }
}

TEST_F(NameNodeTest, SingleRackDegradesToUniform) {
  build(4, 3, 64 * kMiB, /*racks=*/1);
  const FileId id = namenode_->create_file("/a", 640 * kMiB);
  for (const BlockId b : namenode_->file(id).blocks) {
    EXPECT_EQ(namenode_->block(b).replicas.size(), 3u);
  }
  EXPECT_EQ(namenode_->rack_count(), 1);
  EXPECT_EQ(namenode_->rack_of(NodeId(3)), 0);
}

TEST_F(NameNodeTest, RejectsUnknownIds) {
  build(2, 1);
  EXPECT_THROW(namenode_->file(FileId(99)), CheckFailure);
  EXPECT_THROW(namenode_->block(BlockId(99)), CheckFailure);
  EXPECT_THROW(namenode_->create_file("/zero", 0), CheckFailure);
  // The tables are dense: one past the last id and the invalid id fail too.
  const FileId a = namenode_->create_file("/a", 64 * kMiB);
  EXPECT_THROW(namenode_->file(FileId(a.value() + 1)), CheckFailure);
  EXPECT_THROW(namenode_->file(FileId::invalid()), CheckFailure);
  EXPECT_THROW(namenode_->block(BlockId(1)), CheckFailure);
  EXPECT_THROW(namenode_->block(BlockId::invalid()), CheckFailure);
  // A file refused for want of live nodes leaves no table entry behind.
  namenode_->set_node_alive(NodeId(0), false);
  namenode_->set_node_alive(NodeId(1), false);
  EXPECT_THROW(namenode_->create_file("/b", 64 * kMiB), CheckFailure);
  EXPECT_EQ(namenode_->file_count(), 1u);
  EXPECT_EQ(namenode_->block_count(), 1u);
  EXPECT_EQ(namenode_->all_blocks().size(), 1u);
}

TEST_F(NameNodeTest, AddReplicaOfOlderBlockKeepsNodeTableSorted) {
  build(4, 1);
  std::vector<BlockId> blocks;
  for (int i = 0; i < 12; ++i) {
    const FileId f = namenode_->create_file("/f" + std::to_string(i), kMiB);
    blocks.push_back(namenode_->file(f).blocks[0]);
  }
  // Node 0's newest block, and an older block it does not hold yet: the
  // repair copy lands below ids the node already stores.
  DataNode& dn = *datanodes_[0];
  const std::vector<BlockId> before = dn.blocks_sorted();
  ASSERT_FALSE(before.empty());
  BlockId older = BlockId::invalid();
  for (const BlockId b : blocks) {
    if (b < before.back() && !dn.has_block(b)) {
      older = b;
      break;
    }
  }
  ASSERT_TRUE(older.valid()) << "seeded placement left no older gap";
  namenode_->add_replica(older, NodeId(0));
  const std::vector<BlockId> after = dn.blocks_sorted();
  EXPECT_EQ(after.size(), before.size() + 1);
  EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));
  EXPECT_TRUE(dn.has_block(older));
  EXPECT_FALSE(dn.is_corrupt(older));
  // The scrub cursor walks the new copy in id order.
  const auto pos = std::find(after.begin(), after.end(), older);
  ASSERT_NE(pos, after.end());
  const BlockId prev = pos == after.begin() ? BlockId::invalid() : *(pos - 1);
  EXPECT_EQ(dn.next_block_after(prev), older);
}

// The reference placement: the O(N) scan NameNode::place_replicas ran
// before the live-node index — copy the live list, filter each step's
// candidates, draw an index, erase the pick. Kept here, test-only, as the
// differential oracle for the indexed placement.
std::vector<NodeId> scan_place_replicas(Rng& rng, std::vector<NodeId> live,
                                        int rack_count, std::size_t count) {
  const auto rack_of = [rack_count](NodeId n) {
    return static_cast<int>(n.value() % rack_count);
  };
  count = std::min(count, live.size());
  auto pick_where = [&](auto&& pred) -> NodeId {
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (pred(live[i])) eligible.push_back(i);
    }
    if (eligible.empty()) return NodeId::invalid();
    const std::size_t idx = eligible[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(eligible.size()) - 1))];
    const NodeId node = live[idx];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    return node;
  };
  const auto any = [](NodeId) { return true; };

  std::vector<NodeId> chosen;
  chosen.push_back(pick_where(any));
  if (chosen.size() < count) {
    const int first_rack = rack_of(chosen[0]);
    NodeId second =
        pick_where([&](NodeId n) { return rack_of(n) != first_rack; });
    if (!second.valid()) second = pick_where(any);
    if (second.valid()) chosen.push_back(second);
  }
  if (chosen.size() < count && chosen.size() >= 2) {
    const int second_rack = rack_of(chosen[1]);
    NodeId third =
        pick_where([&](NodeId n) { return rack_of(n) == second_rack; });
    if (!third.valid()) third = pick_where(any);
    if (third.valid()) chosen.push_back(third);
  }
  while (chosen.size() < count) {
    const NodeId extra = pick_where(any);
    if (!extra.valid()) break;
    chosen.push_back(extra);
  }
  return chosen;
}

// The indexed placement against the scan oracle, both fed identically
// seeded streams, over random cluster shapes and dead sets that change
// between files: every block's replica vector must match, and so must the
// next draw once placement is done (same number of draws, same values).
TEST(NameNodePlacementOracle, IndexedPlacementMatchesScan) {
  Rng shape(test::seed_for(13));
  for (int trial = 0; trial < 300; ++trial) {
    const auto node_count = static_cast<std::size_t>(shape.uniform_int(1, 64));
    const int racks = static_cast<int>(shape.uniform_int(1, 5));
    const int replication = static_cast<int>(shape.uniform_int(1, 5));
    const std::uint64_t seed = shape.next_u64();
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": " << node_count << " nodes, "
                 << racks << " racks, replication " << replication);

    Simulator sim;
    NameNode namenode(Rng(seed), replication, kMiB, racks);
    std::vector<std::unique_ptr<DataNode>> datanodes;
    for (std::size_t i = 0; i < node_count; ++i) {
      datanodes.push_back(std::make_unique<DataNode>(
          sim, NodeId(static_cast<std::int64_t>(i)),
          two_tier_specs(hdd_profile(), kGiB), Rng(i)));
      namenode.register_datanode(datanodes.back().get());
    }
    Rng oracle(seed);
    std::vector<bool> alive(node_count, true);

    for (int f = 0; f < 10; ++f) {
      // Flip a random subset (re-asserting some unchanged states too),
      // keeping at least one node live.
      for (std::size_t i = 0; i < node_count; ++i) {
        if (shape.bernoulli(0.25)) alive[i] = !alive[i];
        if (shape.bernoulli(0.3)) {
          namenode.set_node_alive(NodeId(static_cast<std::int64_t>(i)),
                                  alive[i]);
        }
      }
      if (std::none_of(alive.begin(), alive.end(), [](bool a) { return a; })) {
        alive[static_cast<std::size_t>(shape.uniform_int(
            0, static_cast<std::int64_t>(node_count) - 1))] = true;
      }
      std::vector<NodeId> live;
      for (std::size_t i = 0; i < node_count; ++i) {
        namenode.set_node_alive(NodeId(static_cast<std::int64_t>(i)),
                                alive[i]);
        if (alive[i]) live.push_back(NodeId(static_cast<std::int64_t>(i)));
      }
      ASSERT_EQ(namenode.live_nodes(), live);

      const Bytes size = shape.uniform_int(1, 6) * kMiB;
      const FileId id = namenode.create_file("/f" + std::to_string(f), size);
      for (const BlockId b : namenode.file(id).blocks) {
        const std::vector<NodeId> expected = scan_place_replicas(
            oracle, live, racks, static_cast<std::size_t>(replication));
        ASSERT_EQ(namenode.block(b).replicas, expected)
            << "file " << f << " block " << b.value();
      }
    }
    Rng next = namenode.placement_rng();
    EXPECT_EQ(next.next_u64(), oracle.next_u64());
  }
}

}  // namespace
}  // namespace ignem
