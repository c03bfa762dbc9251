#include "hdfs/block_cache.h"

#include "obs/metrics.h"

namespace colmr {

BlockCache::BlockCache(uint64_t capacity_bytes, MetricsRegistry* metrics)
    : capacity_bytes_(capacity_bytes),
      shard_capacity_(capacity_bytes / kNumShards) {
  MetricsRegistry& registry =
      metrics != nullptr ? *metrics : MetricsRegistry::Default();
  m_hits_ = registry.counter("hdfs.cache.hits");
  m_misses_ = registry.counter("hdfs.cache.misses");
  m_evictions_ = registry.counter("hdfs.cache.evictions");
  m_hit_bytes_ = registry.counter("hdfs.cache.hit_bytes");
  m_insert_bytes_ = registry.counter("hdfs.cache.insert_bytes");
}

std::shared_ptr<const std::string> BlockCache::Lookup(uint64_t block_id,
                                                      uint64_t generation,
                                                      uint64_t served_bytes) {
  Shard& shard = ShardFor(block_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(Key{block_id, generation});
  if (it == shard.index.end()) {
    m_misses_->Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  m_hits_->Increment();
  m_hit_bytes_->Increment(served_bytes);
  return it->second->data;
}

bool BlockCache::Contains(uint64_t block_id, uint64_t generation) const {
  const Shard& shard = ShardFor(block_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.index.count(Key{block_id, generation}) > 0;
}

void BlockCache::Insert(uint64_t block_id, uint64_t generation,
                        std::shared_ptr<const std::string> data) {
  if (data == nullptr) return;
  const uint64_t charge = data->size();
  if (charge > shard_capacity_) return;  // would evict the whole shard
  Shard& shard = ShardFor(block_id);
  const Key key{block_id, generation};
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    // Same (id, generation) always means the same bytes; just refresh
    // recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{key, std::move(data)});
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += charge;
  m_insert_bytes_->Increment(charge);
  EvictToFitLocked(shard);
}

void BlockCache::EvictToFitLocked(Shard& shard) {
  while (shard.bytes > shard_capacity_ && !shard.lru.empty()) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.data->size();
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    m_evictions_->Increment();
  }
}

void BlockCache::Erase(uint64_t block_id) {
  Shard& shard = ShardFor(block_id);
  std::lock_guard<std::mutex> lock(shard.mu);
  for (auto it = shard.lru.begin(); it != shard.lru.end();) {
    if (it->key.block_id == block_id) {
      shard.bytes -= it->data->size();
      shard.index.erase(it->key);
      it = shard.lru.erase(it);
    } else {
      ++it;
    }
  }
}

void BlockCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

uint64_t BlockCache::SizeBytes() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

}  // namespace colmr
