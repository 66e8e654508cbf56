// PoolControlPlane: the continuous control loop over the poolmgr store.
//
// Static membership (this module off) rewires the ring the instant a pool
// node crashes or restarts and repairs placement with one unbudgeted
// reconcile pass `rebalance_delay` after the change. This module replaces
// that with a running control plane on the pool clock, ticking the same
// PoolManager::ReconcileShard primitive under a budget
// (docs/control_plane.md):
//
//   * Membership — a GossipMembership detector observes heartbeats and
//     declares deaths/rejoins; ring surgery (DeclareDead/DeclareJoined)
//     happens only on declarations, so a node the network merely muted
//     keeps its copies and the read path pays dead-read timeouts instead of
//     losing replication.
//   * Continuous rebalancing — every tick reconciles shards toward their
//     ring owners under a per-tick page budget: a restore-first pass tops
//     up under-replicated shards, then a cursor walks the remaining shards
//     round-robin so ring alignment makes progress without ever saturating
//     the fabric. Rolling restarts therefore re-replicate incrementally
//     while the trace is still running.
//   * Hot-shard mitigation — per-shard fetch deltas feed a decaying score;
//     shards scoring above the promote threshold get up to
//     `max_extra_replicas` extra copies beyond the static factor (spread
//     reads fan the lease traffic across them), and decayed scores demote
//     the extras again (the drop is metadata-only).
//   * Admission control — installs the ContinuousPoolPolicy that makes the
//     poolmgr shed cold attaches to NAS when a worker NIC's backlog passes
//     the threshold (never dropping an accepted invocation).
//
// Determinism: every decision runs on the lock-stepped pool clock, iterates
// in node/shard order, and draws randomness only from the membership
// detector's private seeded Rng — output stays byte-identical across
// --jobs and --shards.
#ifndef TRENV_POOLCTL_CONTROL_PLANE_H_
#define TRENV_POOLCTL_CONTROL_PLANE_H_

#include <cstdint>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/time.h"
#include "src/fault/fault_schedule.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/poolctl/membership.h"
#include "src/poolmgr/pool_manager.h"

namespace trenv {

struct PoolCtlConfig {
  // false builds no control plane: static membership, where a pool-node
  // crash or restart is one unbudgeted reconcile pass `rebalance_delay`
  // after the change; the cluster stays bit-identical to before this
  // subsystem existed.
  bool enabled = false;
  MembershipConfig membership;
  // Continuous rebalancer cadence and its per-tick fabric budget (pages of
  // background copy traffic per tick — the "per-epoch budget").
  SimDuration rebalance_interval = SimDuration::Millis(500);
  uint64_t rebalance_budget_pages = 8192;
  // Hot-shard mitigation: fetch-score decay is a halving per tick; every
  // `hot_promote_score` points of score buys one extra replica, capped.
  bool hot_shard_mitigation = true;
  uint64_t hot_promote_score = 24;
  uint32_t max_extra_replicas = 3;
  // Read/admission policy installed into the PoolManager.
  ContinuousPoolPolicy policy;
};

class PoolControlPlane {
 public:
  // `mgr` must outlive the plane; `faults` (nullable) supplies the RDMA-flap
  // windows that drive heartbeat loss; `stats`/`tracer` may be null.
  PoolControlPlane(PoolCtlConfig config, PoolManager* mgr, const FaultSchedule* faults,
                   obs::Registry* stats, obs::Tracer* tracer);
  PoolControlPlane(const PoolControlPlane&) = delete;
  PoolControlPlane& operator=(const PoolControlPlane&) = delete;

  // Starts the heartbeat and rebalance ticks (idempotent).
  void Start(SimTime now);
  // Cancels both periodic ticks so the pool clock's RunUntilIdle can drain.
  // Deliberately does NOT run a final unbudgeted converge: "replication
  // restored by trace end" must be earned by the continuous loop.
  void Quiesce();

  GossipMembership& membership() { return membership_; }
  const GossipMembership& membership() const { return membership_; }

  // Dispatch consult: extra cost (milliseconds, quantized) of routing an
  // invocation to `worker` now — its NIC backlog, doubled while the
  // membership view is degraded (cold pulls risk dead-read timeouts).
  uint64_t DispatchPenaltyMs(uint32_t worker, SimTime now) const;

  uint64_t rebalance_ticks() const { return rebalance_ticks_; }
  uint64_t pages_moved() const { return pages_moved_; }
  uint64_t hot_promotions() const { return hot_promotions_; }
  uint64_t hot_demotions() const { return hot_demotions_; }
  // Extra replicas currently promoted for a shard (0 when not hot).
  uint32_t ExtraReplicas(uint32_t shard_index) const {
    return shard_index < extra_.size() ? extra_[shard_index] : 0;
  }
  // Pages of background copy traffic per rebalance tick.
  const Histogram& tick_pages() const { return tick_pages_; }

 private:
  void OnTransition(const GossipMembership::Transition& transition);
  void RebalanceTick();

  PoolCtlConfig config_;
  PoolManager* mgr_;
  GossipMembership membership_;
  obs::Tracer* tracer_ = nullptr;
  obs::ProcessId trace_pid_ = 0;
  EventId rebalance_event_ = kInvalidEventId;
  bool running_ = false;

  // Hot-shard state, indexed by shard (grown lazily to shard_count).
  std::vector<uint64_t> scores_;
  std::vector<uint64_t> last_fetches_;
  std::vector<uint32_t> extra_;
  // Round-robin resume point for the budget-bound alignment pass.
  uint32_t cursor_ = 0;

  uint64_t rebalance_ticks_ = 0;
  uint64_t pages_moved_ = 0;
  uint64_t hot_promotions_ = 0;
  uint64_t hot_demotions_ = 0;
  Histogram tick_pages_;

  obs::Counter* ticks_counter_ = nullptr;
  obs::Counter* moved_counter_ = nullptr;
  obs::Counter* promotions_counter_ = nullptr;
  obs::Counter* demotions_counter_ = nullptr;
  obs::Gauge* under_replicated_gauge_ = nullptr;
};

}  // namespace trenv

#endif  // TRENV_POOLCTL_CONTROL_PLANE_H_
