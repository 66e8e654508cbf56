// PoolManager: the cross-node memory-pool control plane.
//
// The paper's templates live in a disaggregated pool that every worker node
// attaches remotely (sections 4-5); TrEnv-X pushes template management onto
// the pool side. This module is that control plane for the simulated rack:
//
//   * Sharded template store — the dedup store's content-addressed chunks
//     become shards, placed across pool nodes by consistent hashing
//     (HashRing) with a configurable replication factor. Placement is a pure
//     function of (fingerprint, live membership): no directory service.
//   * Lease-based remote attach — a worker taking a template pays the
//     shard transfers once, then holds a refcounted, TTL-expiring lease;
//     further attaches on that worker are metadata-only until every grant
//     window lapses. Expiry is driven by the control plane's own
//     EventScheduler, which the Cluster advances in lock-step with the
//     worker clocks.
//   * Failure wiring — a pool-node crash (FaultDomain::kPoolNodeCrash)
//     revokes nothing when replication >= 2: a surviving replica is promoted
//     to primary and leases stay valid. With replication 1 the lost shards'
//     leases are revoked and the shard is reseeded from the dedup store (the
//     durable content source) on next use.
//   * Placement repair — one algorithm, ReconcileShard, moves a shard toward
//     its ring owners (copies first, then drops). Static membership runs it
//     over every shard, unbudgeted, `rebalance_delay` after a change; the
//     continuous control plane (src/poolctl) ticks it under a page budget.
//   * Per-NIC fetch path — shard transfers go through each worker's
//     NicFetchQueue (batching, coalescing, incast-aware queueing) on top of
//     the fabric backend's load-dependent latency and fault injection.
//
// Everything is deterministic: placement is arithmetic, transfers draw from
// the fabric's seeded Rng in call order, and all bookkeeping iterates in
// shard-index / FunctionId order.
#ifndef TRENV_POOLMGR_POOL_MANAGER_H_
#define TRENV_POOLMGR_POOL_MANAGER_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/interner.h"
#include "src/common/time.h"
#include "src/criu/deduplicator.h"
#include "src/obs/registry.h"
#include "src/poolmgr/fetch_queue.h"
#include "src/poolmgr/hash_ring.h"
#include "src/sim/event_scheduler.h"

namespace trenv {

struct PoolManagerConfig {
  // false leaves the cluster exactly as it was before the control plane
  // existed (node-local stores, no leases) — the bit-identical default.
  bool enabled = false;
  uint32_t pool_nodes = 4;
  uint32_t replication = 2;
  uint32_t vnodes_per_node = 48;
  // How long one attach grant keeps a worker's lease alive; each grant is
  // one refcount for one TTL window.
  SimDuration lease_ttl = SimDuration::Seconds(60);
  // Static membership: settle time between a membership change and the
  // unbudgeted reconcile pass that restores replication / ring placement.
  SimDuration rebalance_delay = SimDuration::Seconds(5);
  // NIC fan-in penalty per concurrent source beyond the first.
  double incast_penalty = 0.04;
  // Control-plane metadata costs (lease table + template descriptor copy).
  SimDuration attach_metadata_base = SimDuration::FromMicrosF(25.0);
  SimDuration attach_metadata_per_shard = SimDuration::FromMicrosF(2.0);
};

// Read / admission policy installed by the poolctl continuous control plane
// (src/poolctl). Only active after EnableContinuousControl; static
// membership never consults it, so the default cluster stays bit-identical.
struct ContinuousPoolPolicy {
  // Spread lease-miss reads across a shard's whole replica set (hashed by
  // fingerprint and worker) instead of always hitting the primary.
  bool spread_reads = true;
  // Charged once per down-but-undeclared replica the read path skips: the
  // fetch RPC to a node the membership protocol has not yet declared dead
  // times out before failing over to the next copy.
  SimDuration dead_read_timeout = SimDuration::FromMicrosF(200.0);
  // Cold attaches arriving while the worker NIC's residual backlog exceeds
  // this are shed to the NAS fallback path instead of deepening the incast
  // queue. Zero disables shedding. The invocation is never dropped: it pays
  // the (slower, contention-free) NAS cost and still gets its lease.
  SimDuration shed_queue_threshold;
  SimDuration nas_fallback_base = SimDuration::FromMicrosF(400.0);
  SimDuration nas_fallback_per_page = SimDuration::FromMicrosF(1.2);
};

class PoolManager {
 public:
  // `fabric` models the inter-node transfer path (not owned); `stats` may be
  // null. Worker NICs are indexed [0, worker_nodes).
  PoolManager(PoolManagerConfig config, uint32_t worker_nodes, MemoryBackend* fabric,
              obs::Registry* stats);
  PoolManager(const PoolManager&) = delete;
  PoolManager& operator=(const PoolManager&) = delete;

  // The control plane's clock; the Cluster advances it in lock-step with
  // the worker-node schedulers and drains it at end of run.
  EventScheduler& clock() { return clock_; }

  // Registers a function's consolidated image: every chunk fingerprint
  // becomes (or joins) a shard placed on the ring. Idempotent per fid.
  void RegisterTemplate(FunctionId fid, const ConsolidatedImage& image);

  struct AttachOutcome {
    SimDuration latency;        // metadata + (on miss) shard transfers
    uint64_t fetched_pages = 0;  // remote pages pulled over the NIC
    bool lease_hit = false;
  };
  // A worker attaches fid's template at `now`: lease hit renews for another
  // TTL window and costs metadata only; a miss fetches every shard through
  // the worker's NIC queue and grants a fresh lease.
  AttachOutcome Attach(uint32_t worker, FunctionId fid, SimTime now);

  // Active grant windows the worker holds on fid's template (0 = no lease).
  uint32_t LeaseRefs(uint32_t worker, FunctionId fid) const;
  // Drops every lease a crashed worker held (nothing orderly to tear down).
  void ReleaseWorker(uint32_t worker);

  // Static-membership failure wiring (driven by the Cluster's fault plan):
  // each couples physical liveness and the membership decision —
  // OnPoolNodeDown + DeclareDead, or OnPoolNodeUp + DeclareJoined — then
  // schedules RunRebalance `rebalance_delay` later. No-ops when the node is
  // already down (crash) or up (restart).
  void OnPoolNodeCrash(uint32_t pool_node, SimTime when);
  void OnPoolNodeRestart(uint32_t pool_node, SimTime when);
  bool pool_node_alive(uint32_t pool_node) const {
    return pool_node < alive_.size() && alive_[pool_node];
  }
  uint32_t pool_node_count() const { return static_cast<uint32_t>(alive_.size()); }

  // --- continuous control (poolctl) ----------------------------------------
  // Splits the static crash/restart coupling in two: the *data plane* learns
  // a node stopped answering (reads skip it, paying a dead-read timeout),
  // while the *membership decision* — ring removal, promotion, revocation —
  // waits for the gossip protocol's declaration. Installed once by
  // PoolControlPlane; everything below is inert until then.
  void EnableContinuousControl(const ContinuousPoolPolicy& policy);
  bool continuous() const { return continuous_; }

  // Data-plane liveness only: no ring change, no promotion, no revocation.
  void OnPoolNodeDown(uint32_t pool_node);
  void OnPoolNodeUp(uint32_t pool_node);
  // Membership declarations from the gossip protocol. DeclareDead removes
  // the node from the ring, promotes replicas, and revokes leases on fully
  // lost shards; DeclareJoined re-adds it (its copies were dropped from the
  // metadata at declaration, so the rebalancer re-copies incrementally).
  // Both are idempotent.
  void DeclareDead(uint32_t pool_node, SimTime when);
  void DeclareJoined(uint32_t pool_node, SimTime when);

  struct ReconcileResult {
    uint64_t pages_moved = 0;
    // False when the shard still needs copies: the budget ran out or a
    // desired owner is down. Extra copies are only dropped once converged.
    bool converged = true;
  };
  // Moves one shard incrementally toward the ring owners at
  // `target_replication`, copying at most `budget_pages` pages. Additions
  // (restore replication first) precede drops; the serving primary is
  // preserved when it remains a desired owner; when it does not, the new
  // front copy counts as a replica promotion. The continuous rebalancer's
  // per-tick primitive and the body of RunRebalance.
  ReconcileResult ReconcileShard(uint32_t shard_index, uint32_t target_replication,
                                 uint64_t budget_pages);

  // Static membership's repair: one unbudgeted ReconcileShard pass over every
  // shard at base replication. Normally fires `rebalance_delay` after a
  // membership change; exposed for tests. Idempotent: a converged shard
  // (same owner set) is left untouched, so repeat invocations — including
  // after a node rejoin — change nothing.
  void RunRebalance(SimTime now);

  // --- accounting -----------------------------------------------------------
  const Histogram& attach_ms() const { return attach_ms_; }
  uint64_t remote_fetch_pages() const { return remote_fetch_pages_; }
  uint64_t remote_fetch_ops() const { return remote_fetch_ops_; }
  uint64_t coalesced_requests() const { return coalesced_requests_; }
  uint64_t lease_hits() const { return lease_hits_; }
  uint64_t lease_misses() const { return lease_misses_; }
  uint64_t leases_expired() const { return leases_expired_; }
  uint64_t leases_revoked() const { return leases_revoked_; }
  uint64_t replica_promotions() const { return replica_promotions_; }
  uint64_t rebalance_moves() const { return rebalance_moves_; }
  uint64_t rebalanced_pages() const { return rebalanced_pages_; }
  uint64_t reseeded_shards() const { return reseeded_shards_; }
  uint64_t shed_attaches() const { return shed_attaches_; }
  uint64_t shed_pages() const { return shed_pages_; }
  uint64_t dead_read_hops() const { return dead_read_hops_; }
  uint64_t nas_fallback_pages() const { return nas_fallback_pages_; }
  size_t shard_count() const { return shards_.size(); }
  uint32_t base_replication() const { return config_.replication; }
  // Lease-miss fetches this shard has served (the hot-shard signal).
  uint64_t ShardFetches(uint32_t shard_index) const;
  uint64_t ShardPages(uint32_t shard_index) const;
  // Current replica set, primary first (introspection for poolctl + tests).
  std::vector<uint32_t> ShardReplicas(uint32_t shard_index) const;
  // True when the shard holds fewer *live* copies than
  // min(replication, live ring nodes) — what the continuous rebalancer's
  // restore-first pass targets.
  bool ShardUnderReplicated(uint32_t shard_index) const;
  uint32_t UnderReplicatedShards() const;
  // Residual NIC drain time at `now` for one worker (the admission signal).
  SimDuration NicBacklog(uint32_t worker, SimTime now) const;
  // Pages each pool node currently stores (primaries + replicas).
  std::vector<uint64_t> ShardPagesPerNode() const;
  // Pages each pool node serves as primary (the copy lease misses read).
  std::vector<uint64_t> PrimaryPagesPerNode() const;
  // Pages each pool node has actually served to lease misses — the observed
  // per-node lease traffic the hot-shard gate measures.
  const std::vector<uint64_t>& ServedPagesPerNode() const { return served_pages_; }
  uint64_t PeakServedPages() const;

 private:
  struct Shard {
    uint64_t fingerprint = 0;
    uint64_t npages = 0;
    // Lease-miss fetches served (all replicas combined); the control plane
    // diffs this per tick to score popularity.
    uint64_t fetches = 0;
    // Live replica set, primary first. Empty = lost (every holder crashed);
    // reseeded from the dedup store on next use or rebalance.
    std::vector<uint32_t> replicas;
  };
  struct Lease {
    uint32_t refs = 0;
    SimTime expires;
  };

  void GrantLease(uint32_t worker, FunctionId fid, SimTime now);
  void ScheduleRebalance(SimTime when);
  // Picks the replica a lease miss reads for this shard. Static: always the
  // primary. Continuous: spread by (fingerprint, worker) hash, skipping
  // down-but-undeclared nodes (each skip is one timed-out read, counted into
  // `dead_hops`). Returns false when no listed replica answers.
  bool PickReadReplica(const Shard& shard, uint32_t worker, uint32_t* source,
                       uint64_t* dead_hops) const;
  // Ensures the shard has a live primary, reseeding from the dedup store if
  // every replica died. Returns false only when no pool node is alive.
  bool EnsureLivePrimary(uint32_t shard_index);
  void Count(obs::Counter* counter, double delta = 1.0) {
    if (counter != nullptr) {
      counter->Add(delta);
    }
  }

  PoolManagerConfig config_;
  MemoryBackend* fabric_;
  EventScheduler clock_;
  HashRing ring_;
  std::vector<bool> alive_;          // pool-node liveness
  std::vector<NicFetchQueue> nics_;  // one per worker node

  std::vector<Shard> shards_;
  std::map<uint64_t, uint32_t> shard_by_fingerprint_;
  // fid -> shard indices (sparse, indexed by interned FunctionId).
  std::vector<std::vector<uint32_t>> templates_;
  // Per worker: fid -> lease. std::map so revocation scans are in id order.
  std::vector<std::map<FunctionId, Lease>> leases_;
  bool rebalance_pending_ = false;
  bool continuous_ = false;
  ContinuousPoolPolicy policy_;
  // Lease-miss pages served per pool node (both modes; the hot-shard gate's
  // static-vs-continuous comparison reads it).
  std::vector<uint64_t> served_pages_;

  Histogram attach_ms_;
  uint64_t remote_fetch_pages_ = 0;
  uint64_t remote_fetch_ops_ = 0;
  uint64_t coalesced_requests_ = 0;
  uint64_t lease_hits_ = 0;
  uint64_t lease_misses_ = 0;
  uint64_t leases_expired_ = 0;
  uint64_t leases_revoked_ = 0;
  uint64_t replica_promotions_ = 0;
  uint64_t rebalance_moves_ = 0;
  uint64_t rebalanced_pages_ = 0;
  uint64_t reseeded_shards_ = 0;
  uint64_t shed_attaches_ = 0;
  uint64_t shed_pages_ = 0;
  uint64_t dead_read_hops_ = 0;
  uint64_t nas_fallback_pages_ = 0;

  obs::Counter* attaches_counter_ = nullptr;
  obs::Counter* lease_hits_counter_ = nullptr;
  obs::Counter* lease_misses_counter_ = nullptr;
  obs::Counter* expired_counter_ = nullptr;
  obs::Counter* revoked_counter_ = nullptr;
  obs::Counter* promotions_counter_ = nullptr;
  obs::Counter* fetch_pages_counter_ = nullptr;
  obs::Counter* fetch_ops_counter_ = nullptr;
  obs::Counter* coalesced_counter_ = nullptr;
  obs::Counter* rebalance_counter_ = nullptr;
  obs::Counter* reseed_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* shed_pages_counter_ = nullptr;
  obs::Counter* dead_read_counter_ = nullptr;
  obs::Counter* nas_fallback_counter_ = nullptr;
};

}  // namespace trenv

#endif  // TRENV_POOLMGR_POOL_MANAGER_H_
