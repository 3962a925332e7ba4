#include "dfs/datanode.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "sim/simulator.h"

namespace ignem {
namespace {

DeviceProfile quiet_hdd() {
  DeviceProfile p = hdd_profile();
  p.access_jitter = 0.0;
  return p;
}

class RecordingListener : public BlockReadListener {
 public:
  void on_block_read(NodeId node, BlockId block, JobId job) override {
    events.push_back({node, block, job});
  }
  struct Event {
    NodeId node;
    BlockId block;
    JobId job;
  };
  std::vector<Event> events;
};

class DataNodeTest : public ::testing::Test {
 protected:
  DataNodeTest()
      : node_(sim_, NodeId(0), two_tier_specs(quiet_hdd(), 1 * kGiB),
              Rng(1)) {}

  Simulator sim_;
  DataNode node_;
};

TEST_F(DataNodeTest, DiskReadIsSlowCacheReadIsFast) {
  node_.add_block(BlockId(1), 64 * kMiB);
  BlockReadResult disk{};
  node_.read_block(BlockId(1), JobId(1),
                   [&](const BlockReadResult& r) { disk = r; });
  sim_.run();
  EXPECT_FALSE(disk.from_memory);
  EXPECT_GT(disk.duration.to_seconds(), 0.1);

  ASSERT_TRUE(node_.cache().lock(BlockId(1), 64 * kMiB));
  BlockReadResult ram{};
  node_.read_block(BlockId(1), JobId(1),
                   [&](const BlockReadResult& r) { ram = r; });
  sim_.run();
  EXPECT_TRUE(ram.from_memory);
  EXPECT_LT(ram.duration.to_seconds(), disk.duration.to_seconds() / 10);
}

TEST_F(DataNodeTest, ListenerFiresAfterRead) {
  RecordingListener listener;
  node_.set_read_listener(&listener);
  node_.add_block(BlockId(7), 1 * kMiB);
  node_.read_block(BlockId(7), JobId(3), [](const BlockReadResult&) {});
  EXPECT_TRUE(listener.events.empty());  // fires on completion, not start
  sim_.run();
  ASSERT_EQ(listener.events.size(), 1u);
  EXPECT_EQ(listener.events[0].node, NodeId(0));
  EXPECT_EQ(listener.events[0].block, BlockId(7));
  EXPECT_EQ(listener.events[0].job, JobId(3));
}

TEST_F(DataNodeTest, ReadUnknownBlockRejected) {
  EXPECT_THROW(node_.read_block(BlockId(9), JobId(1),
                                [](const BlockReadResult&) {}),
               CheckFailure);
}

TEST_F(DataNodeTest, FailClearsCacheAndBlocksReads) {
  node_.add_block(BlockId(1), 64 * kMiB);
  node_.cache().lock(BlockId(1), 64 * kMiB);
  node_.fail();
  EXPECT_FALSE(node_.alive());
  EXPECT_EQ(node_.cache().used(), 0);
  // Dead-node IO fails asynchronously (so clients can retry a replica)
  // rather than crashing the caller.
  BlockReadResult result;
  node_.read_block(BlockId(1), JobId(1),
                   [&](const BlockReadResult& r) { result = r; });
  bool write_done = false;
  node_.write(1, [&] { write_done = true; });
  sim_.run();
  EXPECT_TRUE(result.failed);
  EXPECT_TRUE(write_done);  // lost but completed: barriers never hang
  EXPECT_EQ(node_.primary_device().total_bytes_completed(), 0);
}

TEST_F(DataNodeTest, RestartServesFromDiskAgain) {
  node_.add_block(BlockId(1), 64 * kMiB);
  node_.fail();
  node_.restart();
  EXPECT_TRUE(node_.alive());
  EXPECT_TRUE(node_.has_block(BlockId(1)));  // disk data survives
  bool read_done = false;
  node_.read_block(BlockId(1), JobId(1), [&](const BlockReadResult& r) {
    read_done = true;
    EXPECT_FALSE(r.from_memory);  // the locked pool did not survive
  });
  sim_.run();
  EXPECT_TRUE(read_done);
}

TEST_F(DataNodeTest, WriteGoesToPrimaryDevice) {
  bool done = false;
  node_.write(64 * kMiB, [&] { done = true; });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(node_.primary_device().total_bytes_completed(), 64 * kMiB);
}

TEST_F(DataNodeTest, BlockSizeLookup) {
  node_.add_block(BlockId(2), 5 * kMiB);
  EXPECT_EQ(node_.block_size(BlockId(2)), 5 * kMiB);
  EXPECT_THROW(node_.block_size(BlockId(3)), CheckFailure);
}

// Replica table: one sorted entry per stored block (size + checksum).

TEST_F(DataNodeTest, ReAddingAReplicaRewritesItClean) {
  node_.add_block(BlockId(4), 64 * kMiB);
  node_.corrupt_block(BlockId(4));
  ASSERT_TRUE(node_.is_corrupt(BlockId(4)));
  // A repair copy over the old replica is a fresh write: clean checksum,
  // new size, still one entry.
  node_.add_block(BlockId(4), 32 * kMiB);
  EXPECT_FALSE(node_.is_corrupt(BlockId(4)));
  EXPECT_EQ(node_.stored_checksum(BlockId(4)),
            DataNode::expected_checksum(BlockId(4), 32 * kMiB));
  EXPECT_EQ(node_.block_size(BlockId(4)), 32 * kMiB);
  EXPECT_EQ(node_.block_count(), 1u);
}

TEST_F(DataNodeTest, RemoveBlockForgetsTheReplica) {
  node_.add_block(BlockId(1), 64 * kMiB);
  node_.add_block(BlockId(2), 64 * kMiB);
  node_.add_block(BlockId(3), 8 * kMiB);
  node_.remove_block(BlockId(2));
  EXPECT_FALSE(node_.has_block(BlockId(2)));
  EXPECT_THROW(node_.block_size(BlockId(2)), CheckFailure);
  EXPECT_THROW(node_.stored_checksum(BlockId(2)), CheckFailure);
  EXPECT_FALSE(node_.is_corrupt(BlockId(2)));
  EXPECT_EQ(node_.block_count(), 2u);
  EXPECT_EQ(node_.block_size(BlockId(3)), 8 * kMiB);
  // Removing an absent replica is a no-op.
  node_.remove_block(BlockId(2));
  node_.remove_block(BlockId(9));
  EXPECT_EQ(node_.blocks_sorted(),
            (std::vector<BlockId>{BlockId(1), BlockId(3)}));
}

TEST_F(DataNodeTest, NextBlockAfterWalksAscendingThenWraps) {
  // Out-of-order adds (a repair of an older block) still walk ascending.
  node_.add_block(BlockId(3), kMiB);
  node_.add_block(BlockId(7), kMiB);
  node_.add_block(BlockId(5), kMiB);
  EXPECT_EQ(node_.blocks_sorted(),
            (std::vector<BlockId>{BlockId(3), BlockId(5), BlockId(7)}));
  EXPECT_EQ(node_.next_block_after(BlockId::invalid()), BlockId(3));
  EXPECT_EQ(node_.next_block_after(BlockId(3)), BlockId(5));
  EXPECT_EQ(node_.next_block_after(BlockId(4)), BlockId(5));
  EXPECT_EQ(node_.next_block_after(BlockId(5)), BlockId(7));
  EXPECT_EQ(node_.next_block_after(BlockId(7)), BlockId::invalid());
  EXPECT_EQ(node_.next_block_after(BlockId(100)), BlockId::invalid());
}

TEST_F(DataNodeTest, CorruptBlockMarksOnlyTheStoredCopy) {
  node_.add_block(BlockId(1), 64 * kMiB);
  node_.add_block(BlockId(2), 64 * kMiB);
  ASSERT_TRUE(node_.cache().lock(BlockId(1), 64 * kMiB));
  node_.corrupt_block(BlockId(1));
  EXPECT_TRUE(node_.is_corrupt(BlockId(1)));
  EXPECT_FALSE(node_.is_corrupt(BlockId(2)));
  EXPECT_FALSE(node_.cache().is_corrupt(BlockId(1)));
  EXPECT_NE(node_.stored_checksum(BlockId(1)),
            DataNode::expected_checksum(BlockId(1), 64 * kMiB));
  // A second hit keeps the copy bad; an absent block cannot rot.
  node_.corrupt_block(BlockId(1));
  EXPECT_TRUE(node_.is_corrupt(BlockId(1)));
  EXPECT_THROW(node_.corrupt_block(BlockId(3)), CheckFailure);
}

// The corrupt-replica count behind is_corrupt's no-rot fast path.

TEST_F(DataNodeTest, CorruptingTwiceCountsOnce) {
  node_.add_block(BlockId(1), 64 * kMiB);
  node_.add_block(BlockId(2), 64 * kMiB);
  EXPECT_EQ(node_.corrupt_replica_count(), 0u);
  node_.corrupt_block(BlockId(1));
  node_.corrupt_block(BlockId(1));
  EXPECT_EQ(node_.corrupt_replica_count(), 1u);
  node_.corrupt_block(BlockId(2));
  EXPECT_EQ(node_.corrupt_replica_count(), 2u);
}

TEST_F(DataNodeTest, RewriteHealsTheCorruptCount) {
  node_.add_block(BlockId(1), 64 * kMiB);
  node_.add_block(BlockId(2), 64 * kMiB);
  node_.corrupt_block(BlockId(1));
  node_.add_block(BlockId(1), 64 * kMiB);
  EXPECT_EQ(node_.corrupt_replica_count(), 0u);
  EXPECT_FALSE(node_.is_corrupt(BlockId(1)));
  // Re-writing a clean replica leaves the count alone.
  node_.corrupt_block(BlockId(2));
  node_.add_block(BlockId(1), 64 * kMiB);
  EXPECT_EQ(node_.corrupt_replica_count(), 1u);
  EXPECT_TRUE(node_.is_corrupt(BlockId(2)));
}

TEST_F(DataNodeTest, RemovingACorruptReplicaDecrementsTheCount) {
  node_.add_block(BlockId(1), 64 * kMiB);
  node_.add_block(BlockId(2), 64 * kMiB);
  node_.add_block(BlockId(3), 64 * kMiB);
  node_.corrupt_block(BlockId(1));
  node_.corrupt_block(BlockId(3));
  node_.remove_block(BlockId(2));  // clean: no change
  EXPECT_EQ(node_.corrupt_replica_count(), 2u);
  node_.remove_block(BlockId(3));
  EXPECT_EQ(node_.corrupt_replica_count(), 1u);
  EXPECT_FALSE(node_.is_corrupt(BlockId(3)));
  EXPECT_TRUE(node_.is_corrupt(BlockId(1)));
  node_.remove_block(BlockId(1));
  EXPECT_EQ(node_.corrupt_replica_count(), 0u);
}

}  // namespace
}  // namespace ignem
