// Cluster: a rack of nodes sharing one disaggregated memory pool — the
// "across nodes" half of the paper's title.
//
// Every node runs its own ServerlessPlatform (local DRAM, sandbox pool,
// TrEnv engine), but all nodes attach to the SAME CXL multi-headed device
// and the SAME content-addressed snapshot store. Deploying a function on N
// nodes therefore stores its image once per rack (paper section 8.2: "Only
// one copy is needed per rack if it is read-only, reducing the cost by a
// factor of the number of machines").
#ifndef TRENV_PLATFORM_CLUSTER_H_
#define TRENV_PLATFORM_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/criu/trenv_engine.h"
#include "src/fault/fault_injector.h"
#include "src/mempool/cxl_pool.h"
#include "src/mempool/rdma_pool.h"
#include "src/obs/registry.h"
#include "src/platform/platform.h"
#include "src/poolctl/control_plane.h"
#include "src/poolmgr/pool_manager.h"
#include "src/shstate/region_manager.h"
#include "src/sim/shard_coordinator.h"
#include "src/workload/arrival_stream.h"

namespace trenv {

// How the rack reacts to a node death. Recovered invocations restart from
// the shared snapshot on a survivor; the only question is how long detection
// and (for the cold-redeploy baseline) snapshot re-distribution take.
struct FailoverPolicy {
  // Health-check lag before the dispatcher notices a dead node and
  // re-dispatches its accepted-but-incomplete invocations.
  SimDuration detection_latency = SimDuration::Millis(50);
  // Extra delay charged per recovered invocation before it can restart.
  // Zero for TrEnv (the template is already in the shared pool); set it to
  // a snapshot-pull cost to model conventional per-node re-deployment.
  SimDuration redeploy_penalty;
};

// How Cluster::RunSharded splits one run across threads.
struct ShardedRunOptions {
  // Worker threads driving disjoint node ranges; clamped to the node count.
  // Every setting produces byte-identical results — shards only decide how
  // much of each epoch's node-drain work runs concurrently.
  uint32_t shards = 1;
  // Conservative-lookahead window. Zero: one synchronization epoch per
  // arrival, so every dispatch sees exactly the load state the sequential
  // Run() would see — byte-identical to Run() on the same schedule. Positive:
  // all arrivals inside one window are dispatched against the load snapshot
  // taken at the window start (plus a deterministic count of the window's own
  // placements per node), amortizing the barrier across many arrivals. The
  // window grid depends only on the trace, never on the shard count, so
  // output is still independent of --shards.
  SimDuration lookahead;
};

struct ClusterConfig {
  uint32_t nodes = 4;
  PlatformConfig node_config;
  uint64_t cxl_pool_bytes = 512 * kGiB;  // the 7.5 TB-class MHD, scaled down
  // kTemplateLocality routes an invocation to the node already holding a
  // warm instance or a template lease for the function (falling back to
  // least-loaded), so attaches are metadata-only instead of shard pulls.
  enum class Dispatch { kRoundRobin, kLeastLoaded, kTemplateLocality };
  Dispatch dispatch = Dispatch::kLeastLoaded;
  // Cross-node memory-pool control plane (sharded template store + leases).
  // Disabled by default: the cluster then behaves bit-identically to one
  // built before the control plane existed.
  PoolManagerConfig poolmgr;
  // Continuous pool control plane (gossip membership, budgeted rebalancing,
  // admission control, hot-shard replication) layered over poolmgr; requires
  // poolmgr.enabled. Disabled by default: pool membership is static (one
  // unbudgeted reconcile pass `rebalance_delay` after each pool-node crash
  // or restart), and every existing run is byte-identical.
  PoolCtlConfig poolctl;
  // Shared-state data plane (writable regions + ownership transfer over the
  // pool). Disabled by default: no RegionManager is built and every existing
  // code path is byte-identical.
  ShStateConfig shstate;
  // Fault-injection campaign; an empty schedule means the fault-free fabric
  // (bit-identical behaviour to a cluster with no injector at all).
  FaultSchedule faults;
  RetryPolicy retry;
  FailoverPolicy failover;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Deploys a function on every node; the snapshot dedups into the shared
  // pool, so the rack stores one copy regardless of node count.
  [[nodiscard]] Status Deploy(const FunctionProfile& profile);
  [[nodiscard]] Status DeployTable4Functions();

  // Dispatches an invocation to a node per the configured policy. If every
  // node is down (mid-crash-window), the invocation is parked and
  // re-dispatched when a node restarts. Errors name the rejecting node.
  [[nodiscard]] Status Submit(SimTime arrival, const std::string& function);

  // Extra dispatch controls for pipeline drivers.
  struct SubmitOptions {
    // Fires when the invocation completes; survives crash re-dispatch.
    CompletionFn on_complete;
    // Data-locality hint: dispatch here when the node is alive (the node
    // already attached the invocation's input region's pool home). Negative
    // = use the configured policy.
    int32_t preferred_node = -1;
  };
  [[nodiscard]] Status Submit(SimTime arrival, const std::string& function,
                              SubmitOptions options);
  [[nodiscard]] Status Run(const Schedule& schedule);

  // Sharded run: the trace pulls lazily from `arrivals` (a 10M-invocation
  // trace never materializes) and the per-node EventSchedulers advance in
  // parallel epochs under conservative-lookahead synchronization. Cross-shard
  // interactions (dispatch, poolmgr attach, failover re-dispatch) stay on the
  // coordinator thread between epochs; platform submits travel through
  // per-shard mailboxes drained in deterministic global-sequence order at the
  // next epoch. Output is byte-identical at any `shards` setting, and with
  // lookahead zero it is byte-identical to Run() on the collected schedule.
  //
  // Preconditions for cross-thread sharding: no fault injector, no tracer,
  // no prewarm policy, density off, shstate off. When any of those is
  // configured the run degrades to one shard (same epoch algorithm, same
  // output at any requested shard count) — see docs/simulation_model.md.
  [[nodiscard]] Status RunSharded(ArrivalStream& arrivals,
                                  const ShardedRunOptions& options = {});

  // Introspection for the last RunSharded (the sharded_scale bench reports
  // synchronization overhead from these).
  uint32_t sharded_effective_shards() const { return sharded_effective_shards_; }
  uint64_t sharded_epochs() const { return sharded_epochs_; }
  double sharded_barrier_wait_seconds() const { return sharded_barrier_wait_; }

  size_t node_count() const { return nodes_.size(); }
  ServerlessPlatform& node(size_t i) { return *nodes_[i]->platform; }
  bool node_alive(size_t i) const { return nodes_[i]->alive; }
  CxlPool& cxl() { return *cxl_; }
  const SnapshotDedupStore& dedup() const { return *dedup_; }
  // Null when the configured FaultSchedule is empty.
  FaultInjector* fault_injector() { return injector_.get(); }
  // Null unless ClusterConfig::poolmgr.enabled.
  PoolManager* pool_manager() { return pool_mgr_.get(); }
  const PoolManager* pool_manager() const { return pool_mgr_.get(); }
  // Null unless ClusterConfig::poolctl.enabled (and poolmgr.enabled).
  PoolControlPlane* pool_control() { return pool_ctl_.get(); }
  const PoolControlPlane* pool_control() const { return pool_ctl_.get(); }
  // Null unless ClusterConfig::shstate.enabled.
  RegionManager* shared_state() { return shstate_.get(); }
  const RegionManager* shared_state() const { return shstate_.get(); }

  // --- pipeline-driver hooks -------------------------------------------------
  // An external driver (shstate::PipelineDriver) interleaves its own action
  // queue with the cluster's timeline through these instead of Run().
  //
  // Earliest pending event across node schedulers and control-plane clocks.
  std::optional<SimTime> NextEventTime();
  // Runs every clock up to t in lock-step (wraps the private AdvanceAllTo).
  void AdvanceClocksTo(SimTime t);
  // Node-level fault plan (empty without an injector) and its application,
  // so a driver can merge crash/restart events into its own loop exactly
  // like Run() does.
  std::vector<FaultInjector::NodeEvent> PlanFaultEvents();
  void ApplyFaultEvent(const FaultInjector::NodeEvent& event);
  // Drains every scheduler (wraps the private RunAllToCompletion).
  void DrainAll();
  // Invocations the cluster accepted via Submit — the chaos bench's
  // zero-loss check compares this against completed counts.
  uint64_t accepted_invocations() const { return accepted_; }
  // Stats of the shared pool devices (fetches, fetch CPU). Cluster-owned so
  // concurrent clusters never race on the process-wide DefaultRegistry().
  obs::Registry& registry() { return stats_; }
  const obs::Registry& registry() const { return stats_; }

  // Rack-level memory accounting: one shared pool copy + per-node DRAM.
  uint64_t PoolBytes() const { return cxl_->used_bytes(); }
  uint64_t NodeDramBytes() const;
  uint64_t RackTotalBytes() const { return PoolBytes() + NodeDramBytes(); }

  // Aggregated metrics across nodes.
  FunctionMetrics AggregateMetrics() const;
  uint64_t TotalInvocations() const;

 private:
  struct Node {
    std::unique_ptr<SandboxFactory> sandbox_factory;
    std::unique_ptr<SandboxPool> sandbox_pool;
    std::unique_ptr<MmtApi> mmt;
    std::unique_ptr<TrEnvEngine> engine;
    std::unique_ptr<ServerlessPlatform> platform;
    bool alive = true;
  };

  // An invocation accepted while every node was down, parked until restart.
  struct Deferred {
    SimTime arrival;  // the invocation's original arrival
    std::string function;
    CompletionFn on_complete;
  };

  // A platform Submit deferred into a per-shard mailbox: the owning shard
  // applies it at the start of the next epoch, in global push order, before
  // draining any scheduler — so event sequence numbers match the sequential
  // run's exactly.
  struct SubmitCmd {
    SimTime start;
    uint32_t node;
    std::string function;
    CompletionFn on_complete;
  };
  // Mailbox state live only inside RunSharded; Dispatch routes platform
  // submits here instead of calling Submit directly when non-null.
  struct MailboxSink {
    std::vector<SubmitCmd> cmds;                // global (time, seq) order
    std::vector<std::vector<size_t>> inboxes;   // per shard: indices into cmds
    std::vector<Status> statuses;               // indexed like cmds
    std::vector<uint32_t> shard_of;             // node index -> shard
  };

  bool AnyAlive() const;
  // True when node drains may run on concurrent threads: the injector binds
  // per-node state, the tracer and prewarm policy are cross-node-shared and
  // unsynchronized, and density migration writes the shared pools.
  bool CanShardAcrossThreads() const;
  // Placements already made in the current lookahead window; zero in
  // per-arrival and legacy modes (window_dispatches_ is empty there).
  uint32_t WindowLoad(size_t node) const {
    return window_dispatches_.empty() ? 0u : window_dispatches_[node];
  }
  size_t PickNode(const std::string& function, SimTime arrival);
  // Submit minus acceptance accounting: used both for fresh arrivals and for
  // re-dispatching recovered invocations (which were already counted).
  Status Dispatch(SimTime arrival, const std::string& function) {
    return Dispatch(arrival, function, SubmitOptions{});
  }
  Status Dispatch(SimTime arrival, const std::string& function,
                  SubmitOptions options);
  // Points the injector's clock and CXL-port scope at node i before its
  // scheduler is drained (node clocks diverge during RunAllToCompletion).
  void FocusNode(size_t i);
  // Runs every node's scheduler up to t in lock-step.
  void AdvanceAllTo(SimTime t);
  // The control-plane clocks (poolmgr, shstate) in lock-step with the nodes:
  // advanced to t after every node, and drained after the nodes finish.
  // Shared by the sequential and sharded run loops.
  void AdvanceControlClocksTo(SimTime t);
  void DrainControlClocks();
  void ApplyNodeEvent(const FaultInjector::NodeEvent& event);
  void CrashNode(size_t i, SimTime when);
  void RestartNode(size_t i, SimTime when);
  // One virtual timeline shared by all nodes: Run drains schedulers in
  // lock-step so cross-node ordering stays deterministic.
  void RunAllToCompletion();

  ClusterConfig config_;
  obs::Registry stats_;
  std::shared_ptr<FsLayer> base_layer_;
  std::unique_ptr<CxlPool> cxl_;
  BackendRegistry backends_;
  TieredPool tiered_;
  std::unique_ptr<SnapshotDedupStore> dedup_;
  std::unique_ptr<FaultInjector> injector_;
  // Inter-node transfer fabric for the pool control plane's shard pulls;
  // separate from the MHD so attach traffic contends on its own NIC path.
  std::unique_ptr<RdmaPool> fabric_;
  std::unique_ptr<PoolManager> pool_mgr_;
  std::unique_ptr<PoolControlPlane> pool_ctl_;
  std::unique_ptr<RegionManager> shstate_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Deferred> deferred_;
  size_t next_node_ = 0;
  uint64_t accepted_ = 0;
  // Non-null only while RunSharded is on the stack.
  MailboxSink* mailbox_ = nullptr;
  // Windowed dispatch only: per-node count of placements already made in the
  // current lookahead window, added to the load key so a burst inside one
  // window spreads instead of dog-piling the snapshot's least-loaded node.
  // Empty in per-arrival and legacy modes (PickNode then reads all zeros).
  std::vector<uint32_t> window_dispatches_;
  uint32_t sharded_effective_shards_ = 0;
  uint64_t sharded_epochs_ = 0;
  double sharded_barrier_wait_ = 0;
};

}  // namespace trenv

#endif  // TRENV_PLATFORM_CLUSTER_H_
