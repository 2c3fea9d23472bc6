// Tiered context store (host → disk lifecycle): the policy layer that keeps
// ContextStore under a host-byte budget by spilling cold contexts to the
// vector file system (§7.3) and demand-paging them back on prefix hits.
//
// Division of labor: ContextStore owns the residency *mechanism* (spilled
// placeholders that keep winning prefix matches, atomic detach/restore,
// incremental byte totals); this layer owns the *policy* — who to evict
// (LRU × modeled rebuild cost × prefix popularity), when (budget headroom
// before a new context lands, never on the decode path), and where the bytes
// go (ContextSerializer onto a VectorFileSystem, in-memory for tests or a
// real directory for durability). It also gives AlayaDB restart semantics:
// WarmStart() enumerates the manifest namespace and re-registers every
// persisted context as a spilled placeholder, so a fresh process serves
// stored prefixes immediately and pays the KV load only on first use.
//
// The same host budget covers preempted requests: a suspension whose parked
// KV would push host usage past it parks the KV here (ParkKv) instead of in
// host DRAM. Parked entries are never published or prefix-matched; they live
// under DB-unique "parked<key>" names that WarmStart never registers.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "src/common/thread_pool.h"
#include "src/core/context_serializer.h"
#include "src/core/context_store.h"
#include "src/device/device.h"

namespace alaya {

/// Tiering knobs (DbOptions::tier). Tiering engages when any knob is set;
/// the all-defaults struct keeps the DB byte-identical to the untired one.
struct TierOptions {
  /// Host budget over store-resident KV bytes. Publishing past it evicts the
  /// coldest contexts first (spill to disk); 0 = unbounded, never evict.
  uint64_t host_budget_bytes = 0;
  /// Directory for the spill files. Empty = in-memory backing (tests; dies
  /// with the process), non-empty = POSIX files that survive restarts.
  std::string spill_dir;
  /// Write-through: persist every context when it publishes, not only when
  /// it is evicted — an engine kill then loses no stored context.
  bool durable = false;
  /// Enumerate the manifest namespace at DB open and register every persisted
  /// context as a spilled placeholder (restart semantics).
  bool warm_start = false;
  /// Block size of the spill files (and their shared buffer pool).
  uint32_t file_block_size = 4096;
  /// Half-life (in virtual-time ticks — one tick per store touch) of the
  /// eviction score's popularity term: a context's accumulated prefix-hit
  /// weight halves every this-many touches it goes without one, so a
  /// formerly-hot context loses to a currently-hot one instead of being
  /// immortalized by hits since boot. 0 disables decay (the legacy
  /// count-forever behavior).
  double popularity_half_life = 512;

  bool Enabled() const {
    return host_budget_bytes > 0 || durable || warm_start || !spill_dir.empty();
  }
};

class TieredContextStore {
 public:
  /// Lifetime counters (all monotone) plus a residency snapshot.
  struct Stats {
    uint64_t spills = 0;     ///< Contexts detached to disk.
    uint64_t page_ins = 0;   ///< Spilled contexts made resident again.
    uint64_t prefetches = 0; ///< Page-ins requested off the decode path.
    uint64_t persisted = 0;  ///< Contexts written through the serializer.
    uint64_t warm_started = 0;       ///< Placeholders registered by WarmStart.
    uint64_t warm_start_skipped = 0; ///< Torn/corrupt manifests skipped at boot.
    uint64_t page_in_failures = 0;
    uint64_t eviction_stalls = 0;  ///< Budget exceeded but every context pinned.
    uint64_t parked_spills = 0;    ///< Suspended KVs parked on disk (ParkKv).
    uint64_t parked_restores = 0;  ///< Parked KVs loaded back (UnparkKv).
    uint64_t host_budget_bytes = 0;
    uint64_t resident_kv_bytes = 0;
    size_t resident_contexts = 0;
    size_t spilled_contexts = 0;
  };

  /// `store`, `env` and `pool` must outlive this object. `graph` restores
  /// fine indices with the same options they were built with; spill-file
  /// geometry derives from `model` (rows are head_dim floats wide).
  TieredContextStore(ContextStore* store, SimEnvironment* env,
                     const ModelConfig& model, const RoarGraphOptions& graph,
                     const TierOptions& options, ThreadPool* pool);
  /// Blocks until every in-flight prefetch has landed (they capture `this`).
  ~TieredContextStore();

  TieredContextStore(const TieredContextStore&) = delete;
  TieredContextStore& operator=(const TieredContextStore&) = delete;

  /// Restart semantics: scans the VFS for "ctx<id>_manifest" files and
  /// registers each as a spilled placeholder (tokens into the trie, payload
  /// stays on disk until a prefix hit pages it in). A torn or corrupt
  /// manifest (bad trailer/checksum — the expected residue of a crash
  /// mid-persist) is silently skipped and counted in warm_start_skipped;
  /// other per-manifest failures are skipped too but the first is returned.
  /// Ids already live in the store are left alone. Idempotent.
  Status WarmStart();

  /// A context became visible in the store (Add or Publish): starts its
  /// recency/popularity tracking, write-through-persists it when durable,
  /// then enforces the budget. Runs on the publishing thread — the
  /// materialize pool for StoreAsync, the caller for Import/Store.
  void NotifyPublished(uint64_t id);

  /// A prefix match chose this context (CreateSession): bumps its popularity
  /// and recency — the signals the eviction score protects hot prefixes with.
  void OnPrefixHit(uint64_t id);

  /// Makes room for `incoming_bytes` of new resident KV BEFORE they are
  /// attached: evicts coldest-first until resident + incoming fits the
  /// budget, so the host tracker's PEAK (not just its settle point) stays
  /// under budget. Best-effort — when everything evictable is pinned by
  /// running sessions it stops (eviction_stalls) rather than deadlock.
  void EnsureHeadroom(uint64_t incoming_bytes);

  /// Spills one published context now (policy bypass; eviction and tests).
  /// Persists it first unless already on disk, then detaches the resident
  /// payload — host bytes free when the last session pin drops.
  Status SpillContext(uint64_t id);

  /// Demand page-in: loads a spilled context from disk, re-attaches it to
  /// the store and returns it pinned. Resident ids return immediately;
  /// concurrent page-ins of the same id coalesce into one load. Fails with
  /// NotFound for unknown ids and the serializer's error on a bad read.
  Result<std::shared_ptr<Context>> PageIn(uint64_t id);

  /// Schedules PageIn(id) on the worker pool (admission-time prefetch: the
  /// scheduler probe sees `spilled` and warms the context before the session
  /// is created). Duplicate requests for an id already resident or already
  /// loading are dropped.
  void PrefetchAsync(uint64_t id);

  /// True when `incoming_bytes` more in host DRAM would push host usage past
  /// host_budget_bytes (never when the budget is 0).
  bool HostOverBudget(uint64_t incoming_bytes) const;

  /// Parks a suspended request's KV on disk and returns its DB-unique key
  /// (never 0). `kv` is left empty on success and untouched on failure. The
  /// parked bytes hold a disk-tier reservation until UnparkKv or DropParkedKv.
  Result<uint64_t> ParkKv(KvCache* kv);

  /// Loads a parked KV back (bit-identical: the serializer round-trip is
  /// exact) and retires the key. A manifest whose generation stamp is not the
  /// one ParkKv wrote is Corruption.
  Result<KvCache> UnparkKv(uint64_t key);

  /// Retires a parked key without loading it (the request ended while
  /// suspended): returns its disk reservation and frees the key (and so its
  /// file names) for reuse. Unknown keys are ignored.
  void DropParkedKv(uint64_t key);

  Stats stats() const;
  const Status& warm_start_status() const { return warm_start_status_; }
  VectorFileSystem& vfs() { return vfs_; }
  const TierOptions& options() const { return options_; }

  /// The VFS namespace prefix for a context id ("ctx42").
  static std::string SpillName(uint64_t id);

 private:
  /// Per-context policy state. `kv_bytes` mirrors the payload size so
  /// headroom checks know what a page-in will cost before loading it.
  struct Meta {
    uint64_t last_touch = 0;
    /// Exponentially decayed prefix-hit weight as of virtual time `hits_tick`
    /// (half-life TierOptions::popularity_half_life). Read it through
    /// DecayedHitsLocked — the raw value is stale by (tick_ - hits_tick).
    double hits = 0;
    uint64_t hits_tick = 0;
    /// Index build cost, build_stats().reported_seconds: host wall time of the
    /// whole (concurrent) build's CPU stages plus the modeled GPU kNN time.
    double rebuild_seconds = 0;
    uint64_t kv_bytes = 0;
    bool persisted = false;  ///< On disk already; spill skips the write.
  };

  void Touch(uint64_t id, bool hit);
  /// `m.hits` discounted from `m.hits_tick` to now (tick_). meta_mu_ held.
  double DecayedHitsLocked(const Meta& m) const;
  /// Highest eviction score among resident, unpinned contexts; 0 when none.
  uint64_t PickVictim();
  /// Persists `context` under SpillName(id) once (serialized on the id's io
  /// shard, stamped with the next generation) and grows the disk-tier
  /// reservation. No-op if already persisted.
  Status PersistOnce(uint64_t id, const Context& context);

  static VectorFileSystem::Options MakeVfsOptions(const ModelConfig& model,
                                                  const RoarGraphOptions& graph,
                                                  const TierOptions& options);

  ContextStore* store_;
  SimEnvironment* env_;
  ModelConfig model_;
  RoarGraphOptions graph_;
  TierOptions options_;
  ThreadPool* pool_;
  VectorFileSystem vfs_;
  ContextSerializer serializer_;
  Status warm_start_status_;

  /// Serializes Persist/Load I/O *per context id* (16-way sharded): distinct
  /// contexts stream through distinct VectorFiles and the internally locked
  /// buffer pool, so they may overlap; two operations on the SAME id (e.g. a
  /// demand page-in racing a warm-start load, or a durable re-persist) must
  /// not interleave their multi-file sequences. Never held with meta_mu_.
  static constexpr size_t kIoShards = 16;
  std::array<std::mutex, kIoShards> io_shards_;
  std::mutex& IoMutexFor(uint64_t id) { return io_shards_[id % kIoShards]; }

  mutable std::mutex meta_mu_;
  std::condition_variable page_in_cv_;
  std::map<uint64_t, Meta> meta_;
  std::set<uint64_t> page_ins_in_flight_;
  size_t pending_async_ = 0;  ///< Prefetch jobs queued or running on pool_.
  uint64_t tick_ = 1;  ///< Logical recency clock (bumped per touch).
  /// Disk-tier bytes of persisted contexts and parked KVs.
  MemoryReservation disk_reservation_;
  /// Parked KVs by key (guarded by meta_mu_): disk bytes and the generation
  /// stamp their manifest carries. ParkKv takes the lowest free key, so the
  /// parked file set stays bounded by the peak number parked at once.
  struct Parked {
    uint64_t disk_bytes = 0;
    uint64_t generation = 0;
  };
  std::map<uint64_t, Parked> parked_;
  /// Next manifest generation stamp; WarmStart re-seeds it past the highest
  /// generation found on disk so re-persists after restart stay monotone.
  std::atomic<uint64_t> generation_{1};

  std::atomic<uint64_t> spills_{0};
  std::atomic<uint64_t> page_ins_{0};
  std::atomic<uint64_t> prefetches_{0};
  std::atomic<uint64_t> persisted_{0};
  std::atomic<uint64_t> warm_started_{0};
  std::atomic<uint64_t> warm_start_skipped_{0};
  std::atomic<uint64_t> page_in_failures_{0};
  std::atomic<uint64_t> eviction_stalls_{0};
  std::atomic<uint64_t> parked_spills_{0};
  std::atomic<uint64_t> parked_restores_{0};
};

}  // namespace alaya
