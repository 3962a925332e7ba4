#include "dfs/namenode.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace ignem {

NameNode::NameNode(Rng rng, int replication, Bytes block_size, int rack_count)
    : rng_(rng),
      replication_(replication),
      block_size_(block_size),
      rack_count_(rack_count) {
  IGNEM_CHECK(replication >= 1);
  IGNEM_CHECK(block_size > 0);
  IGNEM_CHECK(rack_count >= 1);
  rack_live_.resize(static_cast<std::size_t>(rack_count));
}

int NameNode::rack_of(NodeId node) const {
  IGNEM_CHECK(node.valid());
  return static_cast<int>(node.value() % rack_count_);
}

void NameNode::register_datanode(DataNode* node) {
  IGNEM_CHECK(node != nullptr);
  IGNEM_CHECK_MSG(node->id().value() == static_cast<std::int64_t>(nodes_.size()),
                  "DataNodes must register in NodeId order");
  nodes_.push_back(node);
  last_heartbeat_.push_back(SimTime::zero());
  alive_.push_back(1);
  // Registration is in id order, so appending keeps the index ascending.
  live_.push_back(node->id());
  rack_live_[static_cast<std::size_t>(rack_of(node->id()))].push_back(
      node->id());
}

void NameNode::record_heartbeat(NodeId id, SimTime now) {
  IGNEM_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < last_heartbeat_.size());
  last_heartbeat_[static_cast<std::size_t>(id.value())] = now;
}

std::vector<NodeId> NameNode::expired_nodes(SimTime now) const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < last_heartbeat_.size(); ++i) {
    if (alive_[i] == 0) continue;
    if (now - last_heartbeat_[i] > liveness_timeout_) {
      out.push_back(NodeId(static_cast<std::int64_t>(i)));
    }
  }
  return out;
}

namespace {

/// The `k`-th node (0-based) of ascending `pool` that is not in `skip`.
/// The answer is pool[k + s], s being the number of skipped pool positions
/// at or below it: iterate k + s to its least fixed point, which is never
/// itself a skipped position. `skip` holds the few already-chosen replicas.
NodeId nth_skipping(const std::vector<NodeId>& pool, std::size_t k,
                    const std::vector<NodeId>& skip) {
  std::size_t idx = k;
  for (;;) {
    std::size_t skipped = 0;
    for (const NodeId node : skip) {
      const auto it = std::lower_bound(pool.begin(), pool.end(), node);
      if (it != pool.end() && *it == node &&
          static_cast<std::size_t>(it - pool.begin()) <= idx) {
        ++skipped;
      }
    }
    if (k + skipped == idx) return pool[idx];
    idx = k + skipped;
  }
}

/// The `k`-th node (0-based) of ascending `live` that is not in its
/// ascending subset `on_rack`. The answer is live[k + j], j being the
/// number of on_rack nodes below it: the first j with on_rack[j] >
/// live[k + j], found by one binary search.
NodeId nth_off_rack(const std::vector<NodeId>& live,
                    const std::vector<NodeId>& on_rack, std::size_t k) {
  std::size_t lo = 0;
  std::size_t hi = on_rack.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (on_rack[mid] <= live[k + mid]) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return live[k + lo];
}

}  // namespace

std::vector<NodeId> NameNode::place_replicas(std::size_t count) {
  // Each step's candidates are the not-yet-chosen live nodes in ascending
  // id order, filtered by the step's rack rule. The step draws one index
  // below the candidate count — or draws nothing when no candidate exists
  // — and maps it to a node through the index, never materialising the
  // list. The candidate lists and draws are exactly those of a scan over
  // live_nodes(), so placements (and every later RNG draw) do not depend
  // on how they are computed; tests/namenode_test.cc holds that scan as
  // the differential oracle.
  count = std::min(count, live_.size());
  std::vector<NodeId> chosen;
  chosen.reserve(count);
  const auto draw = [this](std::size_t eligible) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(eligible) - 1));
  };
  const auto pick_any = [&] {
    return nth_skipping(live_, draw(live_.size() - chosen.size()), chosen);
  };

  // First replica: uniform over live nodes.
  chosen.push_back(pick_any());
  // Second replica: off the first one's rack (HDFS default), when another
  // rack has a live node; else anywhere.
  if (chosen.size() < count) {
    const std::vector<NodeId>& first_rack =
        rack_live_[static_cast<std::size_t>(rack_of(chosen[0]))];
    const std::size_t off_rack = live_.size() - first_rack.size();
    chosen.push_back(off_rack > 0
                         ? nth_off_rack(live_, first_rack, draw(off_rack))
                         : pick_any());
  }
  // Third replica: same rack as the second (HDFS default), else anywhere.
  if (chosen.size() < count) {
    const int second_rack = rack_of(chosen[1]);
    const std::vector<NodeId>& pool =
        rack_live_[static_cast<std::size_t>(second_rack)];
    const std::size_t taken = static_cast<std::size_t>(
        std::count_if(chosen.begin(), chosen.end(), [&](NodeId n) {
          return rack_of(n) == second_rack;
        }));
    const std::size_t on_rack = pool.size() - taken;
    chosen.push_back(on_rack > 0 ? nth_skipping(pool, draw(on_rack), chosen)
                                 : pick_any());
  }
  // Replication factors beyond 3: uniform over the remainder.
  while (chosen.size() < count) chosen.push_back(pick_any());
  return chosen;
}

FileId NameNode::create_file(const std::string& path, Bytes size) {
  IGNEM_CHECK(size > 0);
  IGNEM_CHECK_MSG(!paths_.contains(path), "duplicate path: " << path);
  // Checked before the tables grow, so a refused file leaves no entry.
  IGNEM_CHECK_MSG(!live_.empty(), "no live DataNodes");
  const FileId id(static_cast<std::int64_t>(files_.size()));
  FileInfo& info = files_.emplace_back();
  info.id = id;
  info.path = path;
  info.size = size;
  for (Bytes offset = 0; offset < size; offset += block_size_) {
    const Bytes block_bytes = std::min(block_size_, size - offset);
    const BlockId block_id(static_cast<std::int64_t>(blocks_.size()));
    BlockInfo& block = blocks_.emplace_back();
    block.id = block_id;
    block.file = id;
    block.size = block_bytes;
    block.replicas = place_replicas(static_cast<std::size_t>(replication_));
    for (const NodeId node : block.replicas) {
      datanode(node)->add_block(block_id, block_bytes);
    }
    info.blocks.push_back(block_id);
  }
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kFileCreate, NodeId::invalid(),
                 BlockId::invalid(), JobId::invalid(), size,
                 static_cast<std::int64_t>(info.blocks.size()));
  }
  paths_.emplace(path, id);
  return id;
}

const FileInfo& NameNode::file(FileId id) const {
  IGNEM_CHECK_MSG(
      id.valid() && static_cast<std::size_t>(id.value()) < files_.size(),
      "unknown file " << id.value());
  return files_[static_cast<std::size_t>(id.value())];
}

FileId NameNode::lookup(const std::string& path) const {
  const auto it = paths_.find(path);
  return it == paths_.end() ? FileId::invalid() : it->second;
}

const BlockInfo& NameNode::block(BlockId id) const {
  IGNEM_CHECK_MSG(
      id.valid() && static_cast<std::size_t>(id.value()) < blocks_.size(),
      "unknown block " << id.value());
  return blocks_[static_cast<std::size_t>(id.value())];
}

BlockInfo& NameNode::block_entry(BlockId id) {
  return const_cast<BlockInfo&>(std::as_const(*this).block(id));
}

std::vector<NodeId> NameNode::live_locations(BlockId id) const {
  std::vector<NodeId> out;
  const auto corrupt = corrupt_.find(id);
  for (const NodeId node : block(id).replicas) {
    if (alive_[static_cast<std::size_t>(node.value())] == 0) continue;
    if (corrupt != corrupt_.end() && corrupt->second.contains(node)) continue;
    out.push_back(node);
  }
  return out;
}

void NameNode::mark_replica_corrupt(BlockId block, NodeId node) {
  const auto& replicas = this->block(block).replicas;
  IGNEM_CHECK_MSG(
      std::find(replicas.begin(), replicas.end(), node) != replicas.end(),
      "marking corrupt a replica node " << node.value()
                                        << " does not hold of block "
                                        << block.value());
  corrupt_[block].insert(node);
}

bool NameNode::is_replica_corrupt(BlockId block, NodeId node) const {
  const auto it = corrupt_.find(block);
  return it != corrupt_.end() && it->second.contains(node);
}

std::vector<NodeId> NameNode::corrupt_replicas(BlockId block) const {
  const auto it = corrupt_.find(block);
  if (it == corrupt_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::size_t NameNode::corrupt_replica_count() const {
  std::size_t count = 0;
  for (const auto& [block, nodes] : corrupt_) count += nodes.size();
  return count;
}

void NameNode::invalidate_replica(BlockId block, NodeId node) {
  BlockInfo& info = block_entry(block);
  auto& replicas = info.replicas;
  const auto pos = std::find(replicas.begin(), replicas.end(), node);
  IGNEM_CHECK_MSG(pos != replicas.end(), "invalidating a replica node "
                                             << node.value()
                                             << " does not hold of block "
                                             << block.value());
  replicas.erase(pos);
  const auto marks = corrupt_.find(block);
  if (marks != corrupt_.end()) {
    marks->second.erase(node);
    if (marks->second.empty()) corrupt_.erase(marks);
  }
  datanode(node)->remove_block(block);
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kReplicaInvalidate, node, block,
                 JobId::invalid(), info.size);
  }
}

DataNode* NameNode::datanode(NodeId id) const {
  IGNEM_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < nodes_.size());
  return nodes_[static_cast<std::size_t>(id.value())];
}

void NameNode::set_node_alive(NodeId id, bool alive) {
  IGNEM_CHECK(id.valid() &&
              static_cast<std::size_t>(id.value()) < nodes_.size());
  char& flag = alive_[static_cast<std::size_t>(id.value())];
  if ((flag != 0) != alive) {
    flag = alive ? 1 : 0;
    // Liveness flips are rare next to placements: keep the index sorted
    // here so placement never rebuilds it.
    for (std::vector<NodeId>* index :
         {&live_, &rack_live_[static_cast<std::size_t>(rack_of(id))]}) {
      const auto pos = std::lower_bound(index->begin(), index->end(), id);
      if (alive) {
        index->insert(pos, id);
      } else {
        index->erase(pos);
      }
    }
  }
  if (trace_ != nullptr) {
    trace_->emit(alive ? TraceEventType::kNodeAlive : TraceEventType::kNodeDead,
                 id);
  }
}

void NameNode::add_replica(BlockId block, NodeId node) {
  BlockInfo& info = block_entry(block);
  IGNEM_CHECK_MSG(is_node_alive(node),
                  "cannot place replica on dead node " << node.value());
  auto& replicas = info.replicas;
  IGNEM_CHECK_MSG(
      std::find(replicas.begin(), replicas.end(), node) == replicas.end(),
      "node " << node.value() << " already holds block " << block.value());
  replicas.push_back(node);
  datanode(node)->add_block(block, info.size);
}

Bytes NameNode::total_bytes(const std::vector<FileId>& files) const {
  Bytes total = 0;
  for (const FileId id : files) total += file(id).size;
  return total;
}

}  // namespace ignem
