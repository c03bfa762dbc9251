#ifndef COLMR_HDFS_BLOCK_CACHE_H_
#define COLMR_HDFS_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace colmr {

class Counter;
class MetricsRegistry;

/// Sharded, byte-charged LRU cache of verified HDFS block contents — the
/// simulator's analogue of the datanode/OS page cache that a real Hadoop
/// scan hits on a re-read. An entry means "these exact bytes passed their
/// CRC check": FileReader inserts a block only after checksum
/// verification succeeds, and a hit is served without re-verification,
/// replica selection, or fault draws (a memory hit has no disk/network
/// cost, so nothing is charged to IoStats).
///
/// Keying is (block id, generation). The namenode bumps a block's
/// generation whenever the mapping from id to trustworthy bytes may have
/// changed (CorruptReplica, ReReplicate of that block) and additionally
/// erases the id, so a reader holding an older snapshot can never be
/// served bytes cached under a different notion of the block. Delete
/// erases the ids; LoadImage clears the whole cache (image block ids can
/// collide with previous ones).
///
/// Thread-safety: all methods are safe to call concurrently; each shard
/// has its own mutex, and entries are immutable shared_ptrs, so a hit
/// pins the bytes without copying them.
class BlockCache {
 public:
  /// capacity_bytes is the total charge budget across shards (each shard
  /// gets an equal slice). metrics == nullptr falls back to
  /// MetricsRegistry::Default(); handles are resolved once here.
  explicit BlockCache(uint64_t capacity_bytes,
                      MetricsRegistry* metrics = nullptr);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Returns the cached bytes for (block_id, generation), or nullptr.
  /// Bumps hdfs.cache.{hits,misses} and the entry's LRU position; a hit
  /// adds `served_bytes`, the part of the block the caller serves from
  /// it, to hdfs.cache.hit_bytes.
  std::shared_ptr<const std::string> Lookup(uint64_t block_id,
                                            uint64_t generation,
                                            uint64_t served_bytes = 0);

  /// Presence probe for prefetch planning: no metric bump, no LRU touch.
  bool Contains(uint64_t block_id, uint64_t generation) const;

  /// Caches verified block bytes under (block_id, generation), charging
  /// data->size() bytes and evicting LRU entries of the shard to fit. An
  /// entry larger than the per-shard budget is not admitted. Re-inserting
  /// an existing key refreshes its LRU position.
  void Insert(uint64_t block_id, uint64_t generation,
              std::shared_ptr<const std::string> data);

  /// Drops every generation of a block id (namenode invalidation hook).
  void Erase(uint64_t block_id);

  /// Drops everything (LoadImage invalidation hook).
  void Clear();

  /// Current total charged bytes (sums shard sizes; approximate under
  /// concurrent mutation).
  uint64_t SizeBytes() const;

 private:
  struct Key {
    uint64_t block_id;
    uint64_t generation;
    bool operator==(const Key& o) const {
      return block_id == o.block_id && generation == o.generation;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // splitmix64-style mix; generation rarely exceeds a few bits.
      uint64_t x = k.block_id * 0x9e3779b97f4a7c15ull + k.generation;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      return static_cast<size_t>(x);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const std::string> data;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index;
    uint64_t bytes = 0;
  };

  static constexpr int kNumShards = 8;

  Shard& ShardFor(uint64_t block_id) {
    return shards_[block_id % kNumShards];
  }
  const Shard& ShardFor(uint64_t block_id) const {
    return shards_[block_id % kNumShards];
  }
  /// Evicts from the back of shard's LRU until it fits its budget.
  /// Caller holds shard.mu.
  void EvictToFitLocked(Shard& shard);

  uint64_t capacity_bytes_;
  uint64_t shard_capacity_;
  Shard shards_[kNumShards];

  Counter* m_hits_;
  Counter* m_misses_;
  Counter* m_evictions_;
  Counter* m_hit_bytes_;
  Counter* m_insert_bytes_;
};

}  // namespace colmr

#endif  // COLMR_HDFS_BLOCK_CACHE_H_
