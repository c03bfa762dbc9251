#include "hdfs/mini_hdfs.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/thread_pool.h"
#include "hdfs/block_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace colmr {

MiniHdfs::MiniHdfs(ClusterConfig config,
                   std::unique_ptr<BlockPlacementPolicy> placement)
    : config_(config), placement_(std::move(placement)) {}

MiniHdfs::~MiniHdfs() = default;

std::unique_ptr<MiniHdfs> MiniHdfs::CreateDefault() {
  return std::make_unique<MiniHdfs>(
      ClusterConfig(), std::make_unique<DefaultPlacementPolicy>());
}

Status MiniHdfs::Create(const std::string& path,
                        std::unique_ptr<FileWriter>* writer) {
  return Create(path, WriteContext{}, writer);
}

Status MiniHdfs::Create(const std::string& path, const WriteContext& context,
                        std::unique_ptr<FileWriter>* writer) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: " + path);
  }
  std::unique_lock lock(mu_);
  if (files_.count(path) > 0) {
    return Status::AlreadyExists(path);
  }
  files_.emplace(path, FileMeta{});
  writer->reset(
      new FileWriter(this, path, context, FaultInjector(fault_config_)));
  return Status::OK();
}

Status MiniHdfs::Rename(const std::string& from, const std::string& to) {
  if (from.empty() || from[0] != '/' || to.empty() || to[0] != '/') {
    return Status::InvalidArgument("rename paths must be absolute");
  }
  std::string from_prefix = from;
  if (from_prefix.back() != '/') from_prefix += '/';
  std::string to_prefix = to;
  if (to_prefix.back() != '/') to_prefix += '/';
  if (from == to ||
      to_prefix.compare(0, from_prefix.size(), from_prefix) == 0) {
    return Status::InvalidArgument("cannot rename " + from +
                                   " into itself: " + to);
  }
  std::unique_lock lock(mu_);
  // Exact-file move.
  auto it = files_.find(from);
  if (it != files_.end()) {
    if (files_.count(to) > 0) return Status::AlreadyExists(to);
    FileMeta meta = std::move(it->second);
    files_.erase(it);
    files_.emplace(to, std::move(meta));
    return Status::OK();
  }
  // Directory move: every file under from/ moves under to/, preserving
  // relative paths. All-or-nothing: destinations are checked before any
  // entry moves, so a collision mutates nothing.
  std::vector<std::pair<std::string, std::string>> moves;
  for (const auto& [file_path, meta] : files_) {
    if (file_path.size() > from_prefix.size() &&
        file_path.compare(0, from_prefix.size(), from_prefix) == 0) {
      moves.emplace_back(file_path,
                         to_prefix + file_path.substr(from_prefix.size()));
    }
  }
  if (moves.empty()) return Status::NotFound(from);
  for (const auto& [src, dst] : moves) {
    if (files_.count(dst) > 0) return Status::AlreadyExists(dst);
  }
  for (const auto& [src, dst] : moves) {
    FileMeta meta = std::move(files_.at(src));
    files_.erase(src);
    files_.emplace(dst, std::move(meta));
  }
  return Status::OK();
}

Status MiniHdfs::DeleteRecursive(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: " + path);
  }
  std::string prefix = path;
  if (prefix.back() != '/') prefix += '/';
  std::unique_lock lock(mu_);
  std::vector<std::string> victims;
  for (const auto& [file_path, meta] : files_) {
    if (file_path == path ||
        (file_path.size() > prefix.size() &&
         file_path.compare(0, prefix.size(), prefix) == 0)) {
      victims.push_back(file_path);
    }
  }
  for (const std::string& victim : victims) {
    auto it = files_.find(victim);
    for (const BlockInfo& block : it->second.blocks) {
      block_data_.erase(block.id);  // readers keep their snapshot
      if (block_cache_ != nullptr) block_cache_->Erase(block.id);
      for (NodeId node : block.replicas) ForgetReplicaLocked(block.id, node);
    }
    files_.erase(it);
  }
  // Idempotent by design: abort paths may run after a crash already
  // removed everything, or twice — both must succeed.
  return Status::OK();
}

Status MiniHdfs::Open(const std::string& path, const ReadContext& context,
                      std::unique_ptr<FileReader>* reader) const {
  std::shared_lock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  // Snapshot block metadata and take shared ownership of the data: the
  // reader stays valid across a concurrent Delete/LoadImage, serving the
  // bytes the file had when it was opened.
  std::vector<FileReader::BlockRef> blocks;
  blocks.reserve(it->second.blocks.size());
  for (const BlockInfo& block : it->second.blocks) {
    blocks.push_back(FileReader::BlockRef{block, block_data_.at(block.id)});
  }
  reader->reset(new FileReader(this, path, std::move(blocks), it->second.size,
                               context, FaultInjector(fault_config_),
                               block_cache_));
  return Status::OK();
}

// ---- Block cache ----

void MiniHdfs::SetBlockCache(std::shared_ptr<BlockCache> cache) {
  std::unique_lock lock(mu_);
  block_cache_ = std::move(cache);
}

std::shared_ptr<BlockCache> MiniHdfs::EnsureBlockCache(
    uint64_t capacity_bytes, MetricsRegistry* metrics) {
  std::unique_lock lock(mu_);
  if (block_cache_ == nullptr) {
    block_cache_ = std::make_shared<BlockCache>(capacity_bytes, metrics);
  }
  return block_cache_;
}

std::shared_ptr<BlockCache> MiniHdfs::block_cache() const {
  std::shared_lock lock(mu_);
  return block_cache_;
}

bool MiniHdfs::Exists(const std::string& path) const {
  std::shared_lock lock(mu_);
  return files_.count(path) > 0;
}

bool MiniHdfs::IsNodeDead(NodeId node) const {
  std::shared_lock lock(mu_);
  return dead_nodes_.count(node) > 0;
}

std::set<NodeId> MiniHdfs::dead_nodes() const {
  std::shared_lock lock(mu_);
  return dead_nodes_;
}

Status MiniHdfs::GetFileSize(const std::string& path, uint64_t* size) const {
  std::shared_lock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  *size = it->second.size;
  return Status::OK();
}

Status MiniHdfs::Delete(const std::string& path) {
  std::unique_lock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  for (const BlockInfo& block : it->second.blocks) {
    block_data_.erase(block.id);  // readers keep their shared_ptr snapshot
    if (block_cache_ != nullptr) block_cache_->Erase(block.id);
    for (NodeId node : block.replicas) ForgetReplicaLocked(block.id, node);
  }
  files_.erase(it);
  return Status::OK();
}

Status MiniHdfs::ListDir(const std::string& path,
                         std::vector<std::string>* children) const {
  children->clear();
  std::string prefix = path;
  if (prefix.empty() || prefix.back() != '/') prefix += '/';
  std::shared_lock lock(mu_);
  std::set<std::string> unique_children;
  for (const auto& [file_path, meta] : files_) {
    if (file_path.size() > prefix.size() &&
        file_path.compare(0, prefix.size(), prefix) == 0) {
      const std::string rest = file_path.substr(prefix.size());
      const size_t slash = rest.find('/');
      unique_children.insert(slash == std::string::npos ? rest
                                                        : rest.substr(0, slash));
    }
  }
  children->assign(unique_children.begin(), unique_children.end());
  if (children->empty()) {
    return Status::NotFound("empty or missing directory: " + path);
  }
  return Status::OK();
}

Status MiniHdfs::GetBlockLocations(const std::string& path,
                                   std::vector<BlockInfo>* blocks) const {
  std::shared_lock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  *blocks = it->second.blocks;
  // A replica marked bad must not look like local data to the scheduler.
  for (BlockInfo& block : *blocks) {
    block.replicas.erase(
        std::remove_if(block.replicas.begin(), block.replicas.end(),
                       [&](NodeId node) {
                         return bad_replicas_.count({block.id, node}) > 0;
                       }),
        block.replicas.end());
  }
  return Status::OK();
}

std::vector<NodeId> MiniHdfs::CommonReplicaNodes(
    const std::vector<std::string>& paths) const {
  std::shared_lock lock(mu_);
  std::set<NodeId> common;
  bool first = true;
  for (const std::string& path : paths) {
    auto it = files_.find(path);
    if (it == files_.end()) return {};
    for (const BlockInfo& block : it->second.blocks) {
      std::set<NodeId> holders;
      for (NodeId node : block.replicas) {
        if (bad_replicas_.count({block.id, node}) == 0) holders.insert(node);
      }
      if (first) {
        common = holders;
        first = false;
      } else {
        std::set<NodeId> next;
        std::set_intersection(common.begin(), common.end(), holders.begin(),
                              holders.end(),
                              std::inserter(next, next.begin()));
        common = std::move(next);
      }
      if (common.empty()) return {};
    }
  }
  return std::vector<NodeId>(common.begin(), common.end());
}

// ---- Fault injection ----

void MiniHdfs::SetFaultConfig(const FaultConfig& config) {
  std::unique_lock lock(mu_);
  fault_config_ = config;
}

FaultConfig MiniHdfs::fault_config() const {
  std::shared_lock lock(mu_);
  return fault_config_;
}

Status MiniHdfs::CorruptReplica(const std::string& path, size_t block_index,
                                size_t replica_ordinal, NodeId* node) {
  std::unique_lock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  if (block_index >= it->second.blocks.size()) {
    return Status::InvalidArgument("block index out of range");
  }
  BlockInfo& block = it->second.blocks[block_index];
  if (replica_ordinal >= block.replicas.size()) {
    return Status::InvalidArgument("replica ordinal out of range");
  }
  const NodeId target = block.replicas[replica_ordinal];
  corrupted_.insert({block.id, target});
  // The id's trustworthy-bytes mapping changed: readers opened from now
  // on must re-verify through the replica path, never hit older cache
  // entries (and their own inserts must not collide with them).
  ++block.generation;
  if (block_cache_ != nullptr) block_cache_->Erase(block.id);
  if (node != nullptr) *node = target;
  return Status::OK();
}

Status MiniHdfs::MarkReplicaBad(uint64_t block_id, NodeId node) const {
  std::unique_lock lock(mu_);
  if (block_data_.count(block_id) == 0) {
    return Status::NotFound("no such block");
  }
  if (bad_replicas_.insert({block_id, node}).second) {
    ++bad_replica_marks_;
  }
  return Status::OK();
}

uint64_t MiniHdfs::bad_replica_marks() const {
  std::shared_lock lock(mu_);
  return bad_replica_marks_;
}

void MiniHdfs::ForgetReplicaLocked(uint64_t block_id, NodeId node) {
  corrupted_.erase({block_id, node});
  bad_replicas_.erase({block_id, node});
}

std::vector<MiniHdfs::ReplicaCandidate> MiniHdfs::ReadCandidates(
    const BlockInfo& snapshot, NodeId prefer) const {
  std::shared_lock lock(mu_);
  std::vector<ReplicaCandidate> candidates;
  candidates.reserve(snapshot.replicas.size());
  std::vector<NodeId> nodes = snapshot.replicas;
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  // Local replica first (that choice is what the locality accounting and
  // the paper's co-location experiment measure), then ascending node id
  // for a deterministic failover order.
  auto prefer_it = std::find(nodes.begin(), nodes.end(), prefer);
  if (prefer_it != nodes.end()) {
    std::rotate(nodes.begin(), prefer_it, prefer_it + 1);
  }
  for (NodeId node : nodes) {
    if (dead_nodes_.count(node) > 0) continue;
    if (bad_replicas_.count({snapshot.id, node}) > 0) continue;
    candidates.push_back(
        ReplicaCandidate{node, corrupted_.count({snapshot.id, node}) > 0});
  }
  return candidates;
}

// ---- Datanode failure and recovery ----

Status MiniHdfs::KillNode(NodeId node) {
  if (node < 0 || node >= config_.num_nodes) {
    return Status::InvalidArgument("no such node");
  }
  std::unique_lock lock(mu_);
  if (!dead_nodes_.insert(node).second) {
    return Status::AlreadyExists("node already dead");
  }
  for (auto& [path, meta] : files_) {
    for (BlockInfo& block : meta.blocks) {
      auto held = std::find(block.replicas.begin(), block.replicas.end(), node);
      if (held == block.replicas.end()) continue;
      block.replicas.erase(
          std::remove(block.replicas.begin(), block.replicas.end(), node),
          block.replicas.end());
      ForgetReplicaLocked(block.id, node);
    }
  }
  return Status::OK();
}

namespace {

/// Live replicas of a block not marked bad. Caller holds the lock.
size_t GoodReplicaCount(const BlockInfo& block,
                        const std::set<std::pair<uint64_t, NodeId>>& bad) {
  size_t good = 0;
  for (NodeId node : block.replicas) {
    if (bad.count({block.id, node}) == 0) ++good;
  }
  return good;
}

}  // namespace

uint64_t MiniHdfs::UnderReplicatedBlockCount() const {
  std::shared_lock lock(mu_);
  const size_t target = static_cast<size_t>(
      std::min(config_.replication,
               config_.num_nodes - static_cast<int>(dead_nodes_.size())));
  uint64_t count = 0;
  for (const auto& [path, meta] : files_) {
    for (const BlockInfo& block : meta.blocks) {
      if (GoodReplicaCount(block, bad_replicas_) < target) ++count;
    }
  }
  return count;
}

uint64_t MiniHdfs::LostBlockCount() const {
  std::shared_lock lock(mu_);
  uint64_t count = 0;
  for (const auto& [path, meta] : files_) {
    for (const BlockInfo& block : meta.blocks) {
      if (GoodReplicaCount(block, bad_replicas_) == 0) ++count;
    }
  }
  return count;
}

Status MiniHdfs::ReReplicate() {
  std::unique_lock lock(mu_);
  const size_t target = static_cast<size_t>(
      std::min(config_.replication,
               config_.num_nodes - static_cast<int>(dead_nodes_.size())));
  uint64_t lost = 0;
  for (auto& [path, meta] : files_) {
    for (BlockInfo& block : meta.blocks) {
      // Drop replicas reported bad: re-replication copies from a good
      // replica, and the bad copy's slot is what gets refilled.
      bool changed = false;
      block.replicas.erase(
          std::remove_if(block.replicas.begin(), block.replicas.end(),
                         [&](NodeId node) {
                           if (bad_replicas_.count({block.id, node}) == 0) {
                             return false;
                           }
                           ForgetReplicaLocked(block.id, node);
                           changed = true;
                           return true;
                         }),
          block.replicas.end());
      if (block.replicas.empty()) {
        // No good copy to replicate from — the data is gone. Never
        // resurrect it from the simulator's in-memory bytes.
        ++lost;
        continue;
      }
      while (block.replicas.size() < target) {
        const NodeId fresh = placement_->ChooseReplacement(
            path, block.replicas, config_.num_nodes, dead_nodes_);
        if (fresh == kAnyNode) {
          return Status::IoError("no eligible node for re-replication");
        }
        // The fresh copy is written from a verified-good replica; stale
        // health marks for this (block, node) pair no longer apply.
        ForgetReplicaLocked(block.id, fresh);
        block.replicas.push_back(fresh);
        changed = true;
      }
      if (changed) {
        // Conservative cache invalidation: the replica set moved, so
        // start a fresh generation and drop cached bytes keyed to the
        // old one.
        ++block.generation;
        if (block_cache_ != nullptr) block_cache_->Erase(block.id);
      }
    }
  }
  if (lost > 0) {
    return Status::DataLoss("blocks with no surviving good replica: " +
                            std::to_string(lost));
  }
  return Status::OK();
}

uint64_t MiniHdfs::TotalStoredBytes() const {
  std::shared_lock lock(mu_);
  uint64_t total = 0;
  for (const auto& [path, meta] : files_) total += meta.size;
  return total;
}

namespace {
constexpr char kImageMagic[4] = {'C', 'H', 'F', 'S'};
}  // namespace

Status MiniHdfs::SaveImage(const std::string& local_path) const {
  std::shared_lock lock(mu_);
  Buffer image;
  image.Append(Slice(kImageMagic, 4));
  PutVarint64(&image, static_cast<uint64_t>(config_.num_nodes));
  PutVarint64(&image, static_cast<uint64_t>(config_.replication));
  PutVarint64(&image, config_.block_size);
  PutVarint64(&image, config_.io_buffer_size);
  PutVarint64(&image, next_block_id_);
  PutVarint64(&image, dead_nodes_.size());
  for (NodeId node : dead_nodes_) {
    PutVarint64(&image, static_cast<uint64_t>(node));
  }
  PutVarint64(&image, files_.size());
  for (const auto& [path, meta] : files_) {
    PutLengthPrefixed(&image, path);
    PutVarint64(&image, meta.blocks.size());
    for (const BlockInfo& block : meta.blocks) {
      PutVarint64(&image, block.id);
      PutVarint64(&image, block.replicas.size());
      for (NodeId node : block.replicas) {
        PutVarint64(&image, static_cast<uint64_t>(node));
      }
      PutLengthPrefixed(&image, *block_data_.at(block.id));
    }
  }
  // Replica-health sections. Appended after the original layout so images
  // written by older builds (which end at the files section) still load.
  PutVarint64(&image, corrupted_.size());
  for (const auto& [block_id, node] : corrupted_) {
    PutVarint64(&image, block_id);
    PutVarint64(&image, static_cast<uint64_t>(node));
  }
  PutVarint64(&image, bad_replicas_.size());
  for (const auto& [block_id, node] : bad_replicas_) {
    PutVarint64(&image, block_id);
    PutVarint64(&image, static_cast<uint64_t>(node));
  }

  std::ofstream out(local_path, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    return Status::IoError("cannot open image file: " + local_path);
  }
  out.write(image.data(), static_cast<std::streamsize>(image.size()));
  out.close();
  if (!out.good()) return Status::IoError("short write: " + local_path);
  return Status::OK();
}

Status MiniHdfs::LoadImage(const std::string& local_path) {
  std::ifstream in(local_path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open image file: " + local_path);
  }
  std::string raw((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  Slice cursor(raw);
  if (cursor.size() < 4 || memcmp(cursor.data(), kImageMagic, 4) != 0) {
    return Status::Corruption("not a colmr filesystem image");
  }
  cursor.RemovePrefix(4);

  std::unique_lock lock(mu_);
  MiniHdfs loaded(config_, nullptr);
  uint64_t v;
  COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &v));
  loaded.config_.num_nodes = static_cast<int>(v);
  COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &v));
  loaded.config_.replication = static_cast<int>(v);
  COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &loaded.config_.block_size));
  COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &loaded.config_.io_buffer_size));
  COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &loaded.next_block_id_));
  uint64_t dead_count;
  COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &dead_count));
  for (uint64_t i = 0; i < dead_count; ++i) {
    COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &v));
    loaded.dead_nodes_.insert(static_cast<NodeId>(v));
  }
  uint64_t file_count;
  COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &file_count));
  for (uint64_t f = 0; f < file_count; ++f) {
    Slice path;
    COLMR_RETURN_IF_ERROR(GetLengthPrefixed(&cursor, &path));
    FileMeta meta;
    uint64_t block_count;
    COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &block_count));
    for (uint64_t b = 0; b < block_count; ++b) {
      BlockInfo block;
      COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &block.id));
      uint64_t replica_count;
      COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &replica_count));
      for (uint64_t r = 0; r < replica_count; ++r) {
        COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &v));
        block.replicas.push_back(static_cast<NodeId>(v));
      }
      Slice data;
      COLMR_RETURN_IF_ERROR(GetLengthPrefixed(&cursor, &data));
      block.size = data.size();
      // Images don't carry checksums; the namenode-recorded CRC is
      // recomputed from the stored (uncorrupted) bytes.
      block.crc = Crc32(data);
      meta.size += data.size();
      loaded.block_data_[block.id] =
          std::make_shared<const std::string>(data.ToString());
      meta.blocks.push_back(std::move(block));
    }
    loaded.files_.emplace(path.ToString(), std::move(meta));
  }
  // Optional replica-health sections (absent in images from older builds).
  if (!cursor.empty()) {
    uint64_t corrupt_count;
    COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &corrupt_count));
    for (uint64_t i = 0; i < corrupt_count; ++i) {
      uint64_t block_id;
      COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &block_id));
      COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &v));
      loaded.corrupted_.insert({block_id, static_cast<NodeId>(v)});
    }
    uint64_t bad_count;
    COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &bad_count));
    for (uint64_t i = 0; i < bad_count; ++i) {
      uint64_t block_id;
      COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &block_id));
      COLMR_RETURN_IF_ERROR(GetVarint64(&cursor, &v));
      loaded.bad_replicas_.insert({block_id, static_cast<NodeId>(v)});
    }
    loaded.bad_replica_marks_ = bad_count;
  }
  if (!cursor.empty()) return Status::Corruption("trailing bytes in image");

  // Adopt the loaded state, keeping our placement policy (future writes)
  // and fault config (runtime-only, never persisted). The block cache
  // stays attached but is emptied: image block ids can collide with ids
  // this namespace already issued, and generations are not persisted.
  if (block_cache_ != nullptr) block_cache_->Clear();
  config_ = loaded.config_;
  files_ = std::move(loaded.files_);
  block_data_ = std::move(loaded.block_data_);
  dead_nodes_ = std::move(loaded.dead_nodes_);
  corrupted_ = std::move(loaded.corrupted_);
  bad_replicas_ = std::move(loaded.bad_replicas_);
  bad_replica_marks_ = loaded.bad_replica_marks_;
  next_block_id_ = loaded.next_block_id_;
  return Status::OK();
}

// ---- FileWriter ----

FileWriter::FileWriter(MiniHdfs* fs, std::string path, WriteContext context,
                       FaultInjector faults)
    : fs_(fs),
      path_(std::move(path)),
      context_(context),
      faults_(std::move(faults)),
      path_key_(FaultInjector::PathKey(path_)) {
  MetricsRegistry& metrics = context_.metrics != nullptr
                                 ? *context_.metrics
                                 : MetricsRegistry::Default();
  m_write_faults_ = metrics.counter("hdfs.write.faults");
}

FileWriter::~FileWriter() {
  if (!closed_) Close();
}

void FileWriter::Append(Slice data) {
  if (!status_.ok()) return;  // sticky-bad: the pipeline is torn
  pending_.append(data.data(), data.size());
  bytes_written_ += data.size();
  while (status_.ok() && pending_.size() >= fs_->config_.block_size) {
    SealBlock();
  }
}

void FileWriter::SealBlock() {
  // Fault consultation happens before the namespace lock is taken:
  // KillNode acquires it itself, and the sleep must not serialize the
  // namenode. Draw coordinates follow the header contract — write domain,
  // keyed by (hash(path) + block index, node, salt, draw).
  if (faults_.config().write_active() || context_.node != kAnyNode) {
    if (faults_.WriterNodeDies(context_.node)) {
      // The datanode dies the moment this writer's pipeline touches it.
      // AlreadyExists (already dead) is fine — a dead node still cannot
      // complete the seal.
      fs_->KillNode(context_.node);
      status_ = Status::IoError("node " + std::to_string(context_.node) +
                                " died mid-write of " + path_ + " (injected)");
      m_write_faults_->Increment();
      if (context_.stats != nullptr) context_.stats->write_faults += 1;
      pending_.clear();
      return;
    }
    if (context_.node != kAnyNode && fs_->IsNodeDead(context_.node)) {
      status_ = Status::IoError("node " + std::to_string(context_.node) +
                                " is dead; cannot write " + path_);
      m_write_faults_->Increment();
      if (context_.stats != nullptr) context_.stats->write_faults += 1;
      pending_.clear();
      return;
    }
    if (faults_.WriteAttemptFails(
            path_key_ + static_cast<uint64_t>(next_block_index_),
            context_.node, context_.fault_salt, fault_draws_++)) {
      status_ = Status::IoError("injected transient write fault sealing block " +
                                std::to_string(next_block_index_) + " of " +
                                path_);
      m_write_faults_->Increment();
      if (context_.stats != nullptr) context_.stats->write_faults += 1;
      pending_.clear();
      return;
    }
    const double stall = faults_.WriteStallSeconds(context_.node);
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall));
      if (context_.stats != nullptr) context_.stats->stall_seconds += stall;
    }
  }
  const uint64_t block_size = fs_->config_.block_size;
  const size_t take = std::min<size_t>(pending_.size(), block_size);
  std::unique_lock lock(fs_->mu_);
  BlockInfo block;
  block.id = fs_->next_block_id_++;
  block.size = take;
  block.crc = Crc32(Slice(pending_.data(), take));
  block.replicas = fs_->placement_->ChooseTargets(
      path_, next_block_index_++, fs_->config_.num_nodes,
      fs_->config_.replication);
  fs_->block_data_[block.id] =
      std::make_shared<const std::string>(pending_.substr(0, take));
  pending_.erase(0, take);

  auto& meta = fs_->files_[path_];
  meta.blocks.push_back(std::move(block));
  meta.size += take;
}

Status FileWriter::Close() {
  if (closed_) return status_;
  closed_ = true;
  while (status_.ok() && !pending_.empty()) SealBlock();
  return status_;
}

// ---- FileReader ----

FileReader::FileReader(const MiniHdfs* fs, std::string path,
                       std::vector<BlockRef> blocks, uint64_t size,
                       ReadContext context, FaultInjector faults,
                       std::shared_ptr<BlockCache> cache)
    : fs_(fs),
      path_(std::move(path)),
      blocks_(std::move(blocks)),
      context_(context),
      size_(size),
      faults_(std::move(faults)),
      cache_(std::move(cache)) {
  MetricsRegistry& metrics =
      context_.metrics != nullptr ? *context_.metrics : MetricsRegistry::Default();
  m_read_ops_ = metrics.counter("hdfs.read.ops");
  m_local_bytes_ = metrics.counter("hdfs.read.local_bytes");
  m_remote_bytes_ = metrics.counter("hdfs.read.remote_bytes");
  m_failover_reads_ = metrics.counter("hdfs.read.failover");
  m_checksum_failures_ = metrics.counter("hdfs.read.checksum_failures");
  m_seeks_ = metrics.counter("hdfs.seek.count");
  m_read_bytes_ = metrics.histogram("hdfs.read.bytes");
  m_prefetch_issued_ = metrics.counter("cif.prefetch.issued");
  m_prefetch_blocks_ = metrics.counter("cif.prefetch.blocks");
  m_prefetch_bytes_ = metrics.counter("cif.prefetch.bytes");
  m_prefetch_dropped_ = metrics.counter("cif.prefetch.dropped");
  metrics.counter("hdfs.open.count")->Increment();
}

void FileReader::CountSeek() const {
  if (context_.stats != nullptr) context_.stats->seeks += 1;
  m_seeks_->Increment();
}

namespace {

/// CRC-32 of a block as served by one replica: the stored bytes, with one
/// bit flipped when the replica is registered corrupt. Computed by
/// chaining over slices so the corrupt case needs no block-sized copy.
uint32_t ServedCrc(const std::string& data, bool corrupted) {
  if (!corrupted || data.empty()) return Crc32(Slice(data));
  const size_t flip = data.size() / 2;
  const char flipped = static_cast<char>(data[flip] ^ 0x01);
  uint32_t crc = Crc32Extend(0, Slice(data.data(), flip));
  crc = Crc32Extend(crc, Slice(&flipped, 1));
  return Crc32Extend(crc, Slice(data.data() + flip + 1,
                                data.size() - flip - 1));
}

}  // namespace

Status FileReader::ReadBlock(const BlockRef& block, uint64_t from, uint64_t to,
                             bool probe_cache,
                             std::shared_ptr<const std::string>* data) const {
  if (context_.cancel != nullptr &&
      context_.cancel->load(std::memory_order_relaxed)) {
    return Status::IoError("read canceled by the issuing task");
  }
  if (faults_.ExecutionNodeBroken(context_.node)) {
    return Status::IoError("node " + std::to_string(context_.node) +
                           " cannot read (broken-node fault)");
  }
  // Read-through cache: a hit serves already-verified bytes with no
  // replica selection, fault draws, or re-verification, and charges
  // nothing to IoStats — a memory hit has no simulated disk/network cost.
  // Entries only ever hold bytes that passed the CRC check below under
  // the same (id, generation), so a registered-corrupt replica can never
  // be behind a hit (CorruptReplica bumps the generation and erases).
  if (cache_ != nullptr && probe_cache) {
    if (std::shared_ptr<const std::string> cached =
            cache_->Lookup(block.info.id, block.info.generation, to - from)) {
      *data = std::move(cached);
      return Status::OK();
    }
  }
  const std::vector<MiniHdfs::ReplicaCandidate> candidates =
      fs_->ReadCandidates(block.info, context_.node);
  size_t transient_failures = 0;
  for (const MiniHdfs::ReplicaCandidate& candidate : candidates) {
    // Injected transient error: charge the failover (plus a reconnect
    // seek) and move on to the next replica.
    if (faults_.active() &&
        faults_.ReadAttemptFails(block.info.id, candidate.node,
                                 context_.fault_salt, fault_draws_++)) {
      ++transient_failures;
      if (context_.stats != nullptr) {
        context_.stats->failover_reads += 1;
        context_.stats->seeks += 1;
      }
      m_failover_reads_->Increment();
      m_seeks_->Increment();
      continue;
    }
    // Verify the block checksum the first time this replica serves this
    // reader. A mismatch permanently reports the replica to the namenode.
    if (verified_.count({block.info.id, candidate.node}) == 0) {
      if (ServedCrc(*block.data, candidate.corrupted) != block.info.crc) {
        if (context_.stats != nullptr) {
          context_.stats->checksum_failures += 1;
          context_.stats->failover_reads += 1;
          context_.stats->seeks += 1;
        }
        m_checksum_failures_->Increment();
        m_failover_reads_->Increment();
        m_seeks_->Increment();
        fs_->MarkReplicaBad(block.info.id, candidate.node);
        continue;
      }
      verified_.insert({block.info.id, candidate.node});
    }
    // The serve below comes from the pristine stored bytes (a corrupt
    // replica never reaches this point — its flipped CRC fails above), so
    // they are safe to share through the cache under this generation.
    if (cache_ != nullptr) {
      cache_->Insert(block.info.id, block.info.generation, block.data);
    }
    *data = block.data;
    // Local-first candidate order means the local replica serves
    // whenever it is live and good, so fault-free accounting matches
    // the pre-failover definition ("local iff the reading node holds a
    // replica") byte for byte.
    const bool is_local =
        context_.node == kAnyNode || candidate.node == context_.node;
    (is_local ? m_local_bytes_ : m_remote_bytes_)->Increment(to - from);
    // Slow-node stall: sleep for real so the injected latency shows up in
    // measured wall time (and straggler defenses have something to race),
    // and charge it to stats so the cost model sees it too. The sleep is
    // sliced so a canceled reader (a superseded speculative attempt) bails
    // out mid-stall instead of serving latency nobody will use; only the
    // portion actually slept is charged.
    double stall = faults_.ServeStallSeconds(candidate.node);
    bool canceled = false;
    if (stall > 0) {
      constexpr double kSliceSeconds = 1e-3;
      double remaining = stall;
      while (remaining > 0) {
        if (context_.cancel != nullptr &&
            context_.cancel->load(std::memory_order_relaxed)) {
          canceled = true;
          break;
        }
        const double slice = remaining < kSliceSeconds ? remaining
                                                       : kSliceSeconds;
        std::this_thread::sleep_for(std::chrono::duration<double>(slice));
        remaining -= slice;
      }
      stall -= remaining;
    }
    if (context_.stats != nullptr) {
      if (is_local) {
        context_.stats->local_bytes += to - from;
      } else {
        context_.stats->remote_bytes += to - from;
      }
      context_.stats->stall_seconds += stall;
    }
    if (canceled) {
      return Status::IoError("read canceled by the issuing task mid-stall");
    }
    return Status::OK();
  }
  if (transient_failures > 0) {
    // Some replica may still be good — the failure is retryable at the
    // task level, so it must not be reported as data loss.
    return Status::IoError("all replicas of block " +
                           std::to_string(block.info.id) + " of " + path_ +
                           " failed transiently");
  }
  return Status::DataLoss("no live good replica of block " +
                          std::to_string(block.info.id) + " of " + path_);
}

Status FileReader::Read(uint64_t offset, size_t n, Slice* out,
                        std::shared_ptr<const std::string>* pin,
                        size_t cached_min) const {
  *out = Slice();
  pin->reset();
  if (offset >= size_) return Status::OK();
  n = std::min<uint64_t>(n, size_ - offset);
  // A fill probes the cache once: a miss here is not looked up again
  // below.
  bool probed = false;
  if (cached_min > 0 &&
      ServeCached(offset, n, std::min(cached_min, n), out, pin, &probed)) {
    return Status::OK();
  }

  if (context_.stats != nullptr) {
    context_.stats->reads += 1;
  }
  m_read_ops_->Increment();
  m_read_bytes_->Observe(n);
  ScopedSpan span(context_.trace, "hdfs.read", "hdfs");
  if (span.active()) {
    span.AddArg("path", path_);
    span.AddArg("offset", offset);
    span.AddArg("bytes", static_cast<uint64_t>(n));
  }
  if (n == 0) return Status::OK();

  uint64_t block_start = 0;
  size_t index = BlockIndexOf(offset, &block_start);
  uint64_t from = offset - block_start;
  if (from + n <= blocks_[index].info.size) {
    COLMR_RETURN_IF_ERROR(
        ReadBlock(blocks_[index], from, from + n, !probed, pin));
    *out = Slice((*pin)->data() + from, n);
    return Status::OK();
  }
  // The range spans blocks: join their parts.
  auto joined = std::make_shared<std::string>();
  joined->reserve(n);
  for (; joined->size() < n; ++index, from = 0, probed = false) {
    const uint64_t to = std::min<uint64_t>(blocks_[index].info.size,
                                           from + n - joined->size());
    std::shared_ptr<const std::string> data;
    COLMR_RETURN_IF_ERROR(ReadBlock(blocks_[index], from, to, !probed, &data));
    joined->append(*data, from, to - from);
  }
  *out = Slice(*joined);
  *pin = std::move(joined);
  return Status::OK();
}

Status FileReader::Read(uint64_t offset, size_t n, std::string* out) const {
  Slice view;
  std::shared_ptr<const std::string> pin;
  const Status status = Read(offset, n, &view, &pin);
  out->assign(view.data(), view.size());
  return status;
}

size_t FileReader::BlockIndexOf(uint64_t offset, uint64_t* block_start) const {
  uint64_t start = 0;
  for (size_t i = 0; i < blocks_.size(); ++i) {
    const uint64_t end = start + blocks_[i].info.size;
    if (offset < end) {
      *block_start = start;
      return i;
    }
    start = end;
  }
  *block_start = start;
  return blocks_.size();
}

bool FileReader::ServeCached(uint64_t offset, uint64_t n, uint64_t min_held,
                             Slice* out,
                             std::shared_ptr<const std::string>* pin,
                             bool* probed) const {
  *probed = false;
  if (cache_ == nullptr) return false;
  uint64_t block_start = 0;
  const BlockRef& block = blocks_[BlockIndexOf(offset, &block_start)];
  const uint64_t in_block = offset - block_start;
  const uint64_t held = block.info.size - in_block;
  if (held < min_held) return false;
  const uint64_t len = std::min(n, held);
  *probed = true;
  std::shared_ptr<const std::string> cached =
      cache_->Lookup(block.info.id, block.info.generation, len);
  if (cached == nullptr) return false;
  m_read_ops_->Increment();
  m_read_bytes_->Observe(len);
  *out = Slice(cached->data() + in_block, len);
  *pin = std::move(cached);
  return true;
}

bool FileReader::TryReadView(uint64_t offset, uint64_t max_len, Slice* view,
                             std::shared_ptr<const std::string>* pin) const {
  bool probed = false;
  return offset < size_ && max_len > 0 &&
         ServeCached(offset, max_len, 1, view, pin, &probed);
}

void FileReader::Prefetch(uint64_t offset) const {
  if (!prefetch_enabled() || offset >= size_) return;
  uint64_t block_start = 0;
  size_t index = BlockIndexOf(offset, &block_start);
  index = std::max(index, prefetch_next_block_);
  const size_t limit = std::min(
      blocks_.size(), index + static_cast<size_t>(context_.prefetch_depth));
  int scheduled = 0;
  for (; index < limit; ++index) {
    const BlockRef& block = blocks_[index];
    if (cache_->Contains(block.info.id, block.info.generation)) continue;
    // Warm only blocks a foreground read could serve verified: some
    // live, good, uncorrupted replica must exist — otherwise inserting
    // the pristine stored bytes would resurrect data every replica has
    // lost (the PR-2 invariant ReReplicate also preserves).
    const std::vector<MiniHdfs::ReplicaCandidate> candidates =
        fs_->ReadCandidates(block.info, context_.node);
    bool servable = false;
    for (const MiniHdfs::ReplicaCandidate& candidate : candidates) {
      if (!candidate.corrupted) {
        servable = true;
        break;
      }
    }
    if (!servable) {
      m_prefetch_dropped_->Increment();
      continue;
    }
    // The warm task is self-contained (cache + data + expected CRC +
    // counters): it never touches this reader or the namenode, so it may
    // outlive both the reader and the map task that issued it.
    std::shared_ptr<BlockCache> cache = cache_;
    std::shared_ptr<const std::string> data = block.data;
    const uint64_t id = block.info.id;
    const uint64_t generation = block.info.generation;
    const uint32_t crc = block.info.crc;
    Counter* warmed_bytes = m_prefetch_bytes_;
    Counter* dropped = m_prefetch_dropped_;
    context_.prefetch_pool->Submit(
        [cache, data, id, generation, crc, warmed_bytes, dropped] {
          // Same gate as the foreground path: only verified bytes enter
          // the cache.
          if (Crc32(Slice(*data)) != crc) {
            dropped->Increment();
            return;
          }
          cache->Insert(id, generation, data);
          warmed_bytes->Increment(data->size());
        });
    m_prefetch_blocks_->Increment();
    ++scheduled;
  }
  prefetch_next_block_ = std::max(prefetch_next_block_, index);
  if (scheduled > 0) m_prefetch_issued_->Increment();
}

}  // namespace colmr
