#ifndef COLMR_HDFS_MINI_HDFS_H_
#define COLMR_HDFS_MINI_HDFS_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/slice.h"
#include "common/status.h"
#include "hdfs/cluster.h"
#include "hdfs/fault_injector.h"
#include "hdfs/placement.h"

namespace colmr {

class FileWriter;
class FileReader;
class BlockCache;

/// One replicated block of a file. Data is stored once in the process;
/// `replicas` is the placement metadata that drives locality accounting
/// and scheduling. `crc` is the CRC-32 of the block contents, recorded by
/// the namenode at seal time and verified per replica on read.
/// `generation` versions the id for the shared block cache: the namenode
/// bumps it whenever the id's trustworthy bytes may have changed
/// (CorruptReplica, ReReplicate), so cache entries keyed by
/// (id, generation) from before the event can never serve a reader
/// opened after it. Runtime-only; not persisted in images.
struct BlockInfo {
  uint64_t id = 0;
  uint64_t size = 0;
  uint32_t crc = 0;
  uint64_t generation = 0;
  std::vector<NodeId> replicas;
};

class Counter;
class Histogram;
class MetricsRegistry;
class TraceCollector;

/// Where a read is executing, for locality accounting. node == kAnyNode
/// means "no placement": every byte counts as local. fault_salt
/// identifies the task attempt issuing reads, so a re-executed task draws
/// a fresh (but still deterministic) fault schedule.
///
/// metrics/trace are optional observability sinks (DESIGN.md §8): a null
/// metrics falls back to MetricsRegistry::Default(); a null trace
/// disables span emission. New fields are appended so existing aggregate
/// initializations keep their meaning.
struct ReadContext {
  NodeId node = kAnyNode;
  IoStats* stats = nullptr;  // optional sink; may be null
  uint64_t fault_salt = 0;
  MetricsRegistry* metrics = nullptr;  // null -> MetricsRegistry::Default()
  TraceCollector* trace = nullptr;     // null -> tracing off
  /// Cooperative cancellation (DESIGN.§11): when set and it becomes true,
  /// in-flight reads stop early with IoError — including mid-stall on an
  /// injected slow node, so a superseded speculative attempt never holds
  /// the job's wall clock hostage for latency nobody will use. Not owned;
  /// must outlive every reader opened with this context.
  const std::atomic<bool>* cancel = nullptr;
};

/// Where a write is executing, for fault injection and stall accounting.
/// node == kAnyNode means "no placement": node-keyed write faults
/// (slow_write_nodes, write_death_nodes) never hit, but transient
/// write_error_p draws still apply. fault_salt identifies the task attempt
/// issuing the write, so a re-executed attempt draws a fresh deterministic
/// fault schedule (see the FaultInjector draw-keying contract).
struct WriteContext {
  NodeId node = kAnyNode;
  IoStats* stats = nullptr;  // optional sink; may be null
  uint64_t fault_salt = 0;
  MetricsRegistry* metrics = nullptr;  // null -> MetricsRegistry::Default()
};

/// In-process HDFS: a namenode namespace of append-only files split into
/// replicated blocks, with pluggable block placement. Blocks live in
/// memory; the "cluster" exists as placement metadata plus the cost model,
/// which is all the paper's techniques interact with.
///
/// Failure model (DESIGN.md §7): every sealed block carries a CRC-32;
/// FileReader verifies it per replica and fails over across replicas on
/// injected transient errors or checksum mismatches, reporting corrupt
/// replicas back to the namenode (MarkReplicaBad). Replicas marked bad
/// count as missing for UnderReplicatedBlockCount and are repaired by
/// ReReplicate; a block with no live good replica reads as DataLoss.
/// Faults are injected deterministically via SetFaultConfig.
///
/// Thread-safety contract (the parallel JobRunner depends on it): namenode
/// metadata is guarded by a shared_mutex — any number of concurrent
/// readers (Open, FileReader::Read, GetBlockLocations, ListDir,
/// CommonReplicaNodes, Exists, ...) may run alongside each other, while
/// mutations (Create, Delete, KillNode, ReReplicate, LoadImage, and block
/// seals from FileWriter) take the lock exclusively. Block data is
/// immutable once its file's writer is Close()d and FileReader snapshots
/// block metadata plus shared ownership of the data at Open, so Delete,
/// KillNode, and LoadImage are safe while readers of the file are in
/// flight: in-flight readers keep serving their snapshot, and later reads
/// observe liveness changes (dead nodes, bad replicas) per call.
class MiniHdfs {
 public:
  /// Takes ownership of the placement policy (HDFS's
  /// dfs.block.replicator.classname configuration point).
  MiniHdfs(ClusterConfig config,
           std::unique_ptr<BlockPlacementPolicy> placement);
  ~MiniHdfs();

  MiniHdfs(const MiniHdfs&) = delete;
  MiniHdfs& operator=(const MiniHdfs&) = delete;

  /// Convenience: default config + default placement.
  static std::unique_ptr<MiniHdfs> CreateDefault();

  const ClusterConfig& config() const { return config_; }

  /// Creates a new file for appending. Fails if the path exists.
  Status Create(const std::string& path, std::unique_ptr<FileWriter>* writer);

  /// Create with an execution context: the writer consults the installed
  /// fault schedule (snapshotted at Create) on every block seal and
  /// charges stalls/faults to context.stats.
  Status Create(const std::string& path, const WriteContext& context,
                std::unique_ptr<FileWriter>* writer);

  /// Opens an existing file for positioned reads in the given context.
  /// The reader snapshots the file's block metadata and takes shared
  /// ownership of the block data, so it stays valid (and keeps serving)
  /// across a concurrent Delete or LoadImage.
  Status Open(const std::string& path, const ReadContext& context,
              std::unique_ptr<FileReader>* reader) const;

  bool Exists(const std::string& path) const;
  Status GetFileSize(const std::string& path, uint64_t* size) const;
  Status Delete(const std::string& path);

  /// Namenode-atomic rename. `from` may name a file (exact-path move) or
  /// a directory (every file under `from/` moves under `to/`, preserving
  /// relative paths, all-or-nothing under one exclusive namespace lock).
  /// Fails with AlreadyExists — mutating nothing — when any destination
  /// path exists; NotFound when `from` names neither a file nor a
  /// non-empty directory. Pure metadata move: block ids, data, and
  /// generations are untouched, so block-cache entries stay valid and
  /// in-flight readers of the old paths keep serving their snapshots.
  /// This is the primitive the OutputCommitter's commit steps build on —
  /// its atomicity is what makes task/job commit crash-safe.
  Status Rename(const std::string& from, const std::string& to);

  /// Deletes `path` (when it is a file) and every file under `path/`.
  /// Idempotent: returns OK when nothing exists — abort paths may run
  /// twice or race a completed commit without failing.
  Status DeleteRecursive(const std::string& path);

  /// Immediate children (files and subdirectories) of a directory path,
  /// sorted, without the parent prefix.
  Status ListDir(const std::string& path,
                 std::vector<std::string>* children) const;

  /// Block placement metadata of a file, for locality-aware scheduling.
  /// Replicas marked bad are excluded: the scheduler must not treat a
  /// corrupt copy as local data.
  Status GetBlockLocations(const std::string& path,
                           std::vector<BlockInfo>* blocks) const;

  /// Nodes holding a good local replica of every block of every listed
  /// file — the candidate nodes on which a split over those files is fully
  /// local. Empty when no such node exists (the Fig. 3a situation).
  std::vector<NodeId> CommonReplicaNodes(
      const std::vector<std::string>& paths) const;

  /// Total bytes stored (pre-replication), for space-usage reporting.
  uint64_t TotalStoredBytes() const;

  // ---- Block cache ----

  /// Attaches a shared cache of verified block bytes; readers opened
  /// after this call read through it (DESIGN.md §9). Passing nullptr
  /// detaches. The namenode invalidates entries on Delete /
  /// CorruptReplica / ReReplicate and clears the cache on LoadImage.
  void SetBlockCache(std::shared_ptr<BlockCache> cache);

  /// Attaches a new cache of `capacity_bytes` if none is attached yet
  /// (metric handles resolve from `metrics`, nullptr -> process default);
  /// returns the attached cache either way. Lets repeated jobs over one
  /// filesystem share a warm cache without coordinating ownership.
  std::shared_ptr<BlockCache> EnsureBlockCache(uint64_t capacity_bytes,
                                               MetricsRegistry* metrics);

  std::shared_ptr<BlockCache> block_cache() const;

  // ---- Fault injection ----

  /// Installs a deterministic fault schedule consulted by readers opened
  /// after this call (FileReader snapshots the config at Open).
  void SetFaultConfig(const FaultConfig& config);
  FaultConfig fault_config() const;

  /// Registers permanent corruption (a bit-flip) of one replica of one
  /// block: reads served by `replicas[replica_ordinal]` of block
  /// `block_index` return flipped bytes, which the per-replica CRC check
  /// catches. Other replicas are untouched. Reports the corrupted node
  /// through *node when non-null.
  Status CorruptReplica(const std::string& path, size_t block_index,
                        size_t replica_ordinal, NodeId* node = nullptr);

  /// Reports a replica as bad (checksum mismatch observed by a client).
  /// The replica stops serving reads, counts as missing for
  /// UnderReplicatedBlockCount, and is replaced by ReReplicate. Called by
  /// FileReader on CRC mismatch; public for tests and tools. Const
  /// because replica health is client-observed state layered over the
  /// immutable placement snapshot readers hold.
  Status MarkReplicaBad(uint64_t block_id, NodeId node) const;

  /// Total replicas ever reported bad (for tools and tests).
  uint64_t bad_replica_marks() const;

  // ---- Datanode failure and recovery (the paper's Section 4.3 future
  // work: "re-replication after failures") ----

  /// Marks a datanode dead: its replicas vanish from every block. Blocks
  /// whose last replica dies are lost: reads return DataLoss and
  /// ReReplicate reports them instead of resurrecting the data.
  Status KillNode(NodeId node);

  bool IsNodeDead(NodeId node) const;
  /// Snapshot of the dead-node set (copied under the namespace lock).
  std::set<NodeId> dead_nodes() const;

  /// Number of blocks currently holding fewer than `replication` live
  /// good replicas (replicas marked bad count as missing).
  uint64_t UnderReplicatedBlockCount() const;

  /// Number of blocks with no live good replica at all — their data is
  /// unrecoverable.
  uint64_t LostBlockCount() const;

  /// Restores full replication by dropping replicas marked bad and asking
  /// the placement policy for a replacement node per missing replica.
  /// Under ColumnPlacementPolicy the files of each split-directory move to
  /// the same fresh nodes, so co-location survives the failure. Blocks
  /// with no surviving good replica cannot be re-replicated — they are
  /// left as-is and reported via a DataLoss status (the repairable blocks
  /// are still repaired).
  Status ReReplicate();

  // ---- Image persistence ----

  /// Serializes the entire filesystem (cluster config, namespace, block
  /// placement, block contents, dead-node set, corrupt/bad replica marks)
  /// to one local file, so the command-line tools can operate on datasets
  /// across process runs.
  Status SaveImage(const std::string& local_path) const;

  /// Replaces this filesystem's state with a previously saved image.
  /// The placement policy is kept (it only matters for future writes).
  Status LoadImage(const std::string& local_path);

 private:
  friend class FileWriter;
  friend class FileReader;

  struct FileMeta {
    std::vector<BlockInfo> blocks;
    uint64_t size = 0;
  };

  /// (block id, node): identifies one replica of one block.
  using ReplicaKey = std::pair<uint64_t, NodeId>;

  /// One replica a reader may fetch a block from, in failover order.
  struct ReplicaCandidate {
    NodeId node = kAnyNode;
    bool corrupted = false;
  };

  /// Live, good replicas of a block in deterministic failover order:
  /// `prefer` (the reading node) first when it holds one, then ascending
  /// node id. Dead nodes and replicas marked bad are excluded; corruption
  /// flags are attached. Takes the namespace lock (shared).
  std::vector<ReplicaCandidate> ReadCandidates(
      const BlockInfo& snapshot, NodeId prefer) const;

  /// Drops entries of corrupted_/bad_replicas_ for a replica that no
  /// longer exists. Caller holds the lock exclusively.
  void ForgetReplicaLocked(uint64_t block_id, NodeId node);

  ClusterConfig config_;
  std::unique_ptr<BlockPlacementPolicy> placement_;

  /// Guards every field below. config_ and placement_ are fixed after
  /// construction (LoadImage excepted) and read without the lock.
  mutable std::shared_mutex mu_;
  std::map<std::string, FileMeta> files_;
  /// Block contents, shared with reader snapshots so a Delete/LoadImage
  /// cannot pull data out from under an in-flight read.
  std::map<uint64_t, std::shared_ptr<const std::string>> block_data_;
  std::set<NodeId> dead_nodes_;
  /// Shared cache of verified block bytes (DESIGN.md §9); may be null.
  /// The pointer is guarded by mu_; the cache itself is internally
  /// synchronized, so invalidation hooks may call it under mu_ (the
  /// cache never calls back into the namenode).
  std::shared_ptr<BlockCache> block_cache_;
  FaultConfig fault_config_;
  /// Replicas with registered permanent corruption (bit-flip on serve).
  std::set<ReplicaKey> corrupted_;
  /// Replicas reported bad by clients. Mutable: marking is a client-side
  /// health observation that must work through the const read path.
  mutable std::set<ReplicaKey> bad_replicas_;
  mutable uint64_t bad_replica_marks_ = 0;
  uint64_t next_block_id_ = 1;
};

/// Append-only writer (HDFS files cannot be modified in place — the
/// constraint that forces CIF skip-list construction to double-buffer,
/// paper Appendix B.3). Close() must be called; it seals the file.
///
/// Failure model (DESIGN.md §11): the writer snapshots the installed
/// fault schedule at Create and consults it on every block seal (from
/// Append once a block's worth of bytes is pending, and from Close for
/// the tail). A failed seal makes the writer sticky-bad: further Appends
/// are dropped, Close returns the first error, and the file keeps only
/// the blocks sealed before the fault — exactly the torn state an
/// atomic-commit protocol must make invisible.
class FileWriter {
 public:
  ~FileWriter();

  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  void Append(Slice data);
  uint64_t BytesWritten() const { return bytes_written_; }
  Status Close();

  /// First seal error, or OK. Callers that Append in a loop can poll this
  /// to stop early instead of discovering the fault at Close.
  const Status& status() const { return status_; }

 private:
  friend class MiniHdfs;
  FileWriter(MiniHdfs* fs, std::string path, WriteContext context,
             FaultInjector faults);

  void SealBlock();

  MiniHdfs* fs_;
  std::string path_;
  WriteContext context_;
  FaultInjector faults_;
  /// Write-draw key of block 0 of this path (PathKey); block i draws at
  /// key base + i.
  uint64_t path_key_ = 0;
  /// Running fault-draw counter (see the FaultInjector keying contract).
  uint64_t fault_draws_ = 0;
  Status status_;        // sticky first failure
  std::string pending_;  // bytes not yet sealed into a block
  uint64_t bytes_written_ = 0;
  int next_block_index_ = 0;
  bool closed_ = false;
  Counter* m_write_faults_ = nullptr;
};

/// Positioned reader with local/remote byte accounting and per-replica
/// checksummed reads. Each Read selects a replica per block (the reading
/// node first, then ascending node id), verifies the block CRC the first
/// time a (block, replica) pair serves this reader, and on an injected
/// transient error or checksum mismatch fails over to the next live
/// replica — charging the failover to IoStats and, for mismatches,
/// reporting the bad replica to the namenode. A read returns DataLoss
/// only when no live good replica remains.
///
/// The reader owns a snapshot of the file's block metadata and data taken
/// at Open, so it remains valid across concurrent Delete/LoadImage. Many
/// FileReaders may read the same (sealed) file concurrently; one
/// FileReader must not be shared across threads, because its IoStats sink
/// and verification cache are used without synchronization — the engine
/// gives every task attempt its own reader and stats, merged at join.
class FileReader {
 public:
  uint64_t size() const { return size_; }

  /// Charges one positioned seek to the stats sink and the
  /// hdfs.seek.count metric. BufferedReader calls this whenever it
  /// positions the stream.
  void CountSeek() const;

  /// The trace collector this reader emits hdfs.read spans to (null when
  /// tracing is off). Downstream layers (CIF) reuse it for their spans.
  TraceCollector* trace() const { return context_.trace; }

  /// Reads up to n bytes at offset as a view: *out stays valid while *pin
  /// is held, whatever later happens to this reader, the file or the
  /// cache. Short reads happen only at end-of-file. A range inside one
  /// block is a view of that block's immutable bytes (a cache entry and
  /// the stored block are the same buffer); a range spanning blocks is
  /// joined into a fresh buffer. One read op either way.
  ///
  /// With cached_min > 0 the read may stop early: when the block holding
  /// `offset` is cached and holds at least min(cached_min, n) of the
  /// range, only that block's part is served, as a memory hit — counted
  /// in hdfs.read.{ops,bytes}, but charged nothing in IoStats and traced
  /// by no hdfs.read span (a memory hit has no simulated I/O cost).
  Status Read(uint64_t offset, size_t n, Slice* out,
              std::shared_ptr<const std::string>* pin,
              size_t cached_min = 0) const;

  /// Copying form of the view read: replaces *out with the bytes.
  Status Read(uint64_t offset, size_t n, std::string* out) const;

  /// The memory-hit half of Read alone, for jumps that must not read:
  /// when the block holding `offset` is cached, sets *view to the bytes
  /// [offset, min(offset + max_len, block end)) pinned by *pin and
  /// returns true; otherwise returns false with nothing charged.
  bool TryReadView(uint64_t offset, uint64_t max_len, Slice* view,
                   std::shared_ptr<const std::string>* pin) const;

 private:
  friend class MiniHdfs;

  /// Snapshot of one block: metadata plus shared ownership of its data.
  struct BlockRef {
    BlockInfo info;
    std::shared_ptr<const std::string> data;
  };

  FileReader(const MiniHdfs* fs, std::string path,
             std::vector<BlockRef> blocks, uint64_t size, ReadContext context,
             FaultInjector faults, std::shared_ptr<BlockCache> cache);

  /// Index of the block containing file offset `offset` plus that block's
  /// start offset; blocks_.size() when past EOF.
  size_t BlockIndexOf(uint64_t offset, uint64_t* block_start) const;

  /// Serves [from, to) of one block (offsets block-relative) from the
  /// cache or, with replica selection, checksum verification and
  /// failover, from a replica: *data is the block's bytes either way.
  /// `probe_cache` false skips the cache lookup, for a block whose entry
  /// the caller has just looked up and missed.
  Status ReadBlock(const BlockRef& block, uint64_t from, uint64_t to,
                   bool probe_cache,
                   std::shared_ptr<const std::string>* data) const;

  /// Read's memory hit: serves [offset, offset + min(n, block rest)) from
  /// the cached block holding `offset` when that block holds at least
  /// `min_held` bytes from it. offset < size(). *probed says whether the
  /// block's cache entry was looked up (it was, and missed, when this
  /// returns false with *probed set).
  bool ServeCached(uint64_t offset, uint64_t n, uint64_t min_held,
                   Slice* out, std::shared_ptr<const std::string>* pin,
                   bool* probed) const;

  const MiniHdfs* fs_;
  std::string path_;
  std::vector<BlockRef> blocks_;
  ReadContext context_;
  uint64_t size_;
  FaultInjector faults_;
  /// Cache snapshot taken at Open (null = filesystem has none attached).
  std::shared_ptr<BlockCache> cache_;
  /// Running fault-draw counter: makes successive attempts draw fresh
  /// outcomes while staying a pure function of this reader's history.
  mutable uint64_t fault_draws_ = 0;
  /// (block, node) pairs whose CRC this reader has already verified.
  mutable std::set<std::pair<uint64_t, NodeId>> verified_;

  /// Metric handles resolved once at Open (registry lookups take a
  /// mutex; increments are relaxed atomics — the hot-path contract of
  /// DESIGN.md §8).
  Counter* m_read_ops_;
  Counter* m_local_bytes_;
  Counter* m_remote_bytes_;
  Counter* m_failover_reads_;
  Counter* m_checksum_failures_;
  Counter* m_seeks_;
  Histogram* m_read_bytes_;
};

}  // namespace colmr

#endif  // COLMR_HDFS_MINI_HDFS_H_
