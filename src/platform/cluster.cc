#include "src/platform/cluster.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <tuple>
#include <utility>

#include "src/common/interner.h"

namespace trenv {

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      base_layer_(std::make_shared<FsLayer>("debian-base")),
      cxl_(std::make_unique<CxlPool>(config.cxl_pool_bytes)) {
  backends_.Register(cxl_.get());
  tiered_.AddTier(cxl_.get());
  dedup_ = std::make_unique<SnapshotDedupStore>(&tiered_);
  // The shared device belongs to no single node; its fetch stats go to the
  // cluster-owned registry (never the process-wide one: concurrent clusters
  // in a parallel sweep would race on it).
  cxl_->BindStats(&stats_);
  if (!config_.faults.empty()) {
    injector_ = std::make_unique<FaultInjector>(config_.faults, &stats_);
    injector_->set_retry_policy(config_.retry);
    cxl_->BindFaultInjector(injector_.get());
  }
  if (config_.poolmgr.enabled) {
    // Shard pulls ride their own RDMA fabric (not the MHD ports), so attach
    // traffic sees NIC-style load-dependent latency and fault injection.
    fabric_ = std::make_unique<RdmaPool>(config_.cxl_pool_bytes,
                                         config_.node_config.seed ^ 0xfab);
    fabric_->BindStats(&stats_);
    if (injector_ != nullptr) {
      fabric_->BindFaultInjector(injector_.get());
    }
    pool_mgr_ = std::make_unique<PoolManager>(config_.poolmgr, config_.nodes, fabric_.get(),
                                              &stats_);
    if (config_.poolctl.enabled) {
      // The continuous control plane runs on the pool clock from time zero;
      // it installs the continuous read/admission policy into the manager
      // and takes over crash/restart routing (see ApplyNodeEvent).
      pool_ctl_ = std::make_unique<PoolControlPlane>(config_.poolctl, pool_mgr_.get(),
                                                     &config_.faults, &stats_,
                                                     config_.node_config.tracer);
      pool_ctl_->Start(SimTime());
    }
  }
  if (config_.shstate.enabled) {
    // Shared-state regions live on the same tiered pool as templates; the
    // data plane's clock joins the lock-step advance like poolmgr's.
    shstate_ = std::make_unique<RegionManager>(config_.shstate, config_.nodes, &tiered_,
                                               &backends_, &stats_);
  }

  for (uint32_t i = 0; i < config_.nodes; ++i) {
    // Each node occupies one port of the multi-headed device.
    (void)cxl_->AttachNode(i);
    auto node = std::make_unique<Node>();
    node->sandbox_factory =
        std::make_unique<SandboxFactory>(base_layer_, config_.node_config.seed ^ (0x5b + i));
    node->sandbox_pool = std::make_unique<SandboxPool>();
    node->mmt = std::make_unique<MmtApi>(&backends_);
    node->engine = std::make_unique<TrEnvEngine>(node->sandbox_factory.get(),
                                                 node->sandbox_pool.get(), node->mmt.get(),
                                                 dedup_.get());
    PlatformConfig node_config = config_.node_config;
    node_config.seed ^= 0x900d + i;
    node_config.node_index = i;
    if (node_config.tracer != nullptr) {
      // Each node is its own trace process (clock domain): one swim lane per
      // node in the exported view.
      node_config.trace_process = "node" + std::to_string(i);
    }
    node->platform =
        std::make_unique<ServerlessPlatform>(node_config, node->engine.get(), &backends_);
    node->mmt->BindStats(&node->platform->metrics().registry());
    nodes_.push_back(std::move(node));
  }
}

Status Cluster::Deploy(const FunctionProfile& profile) {
  for (auto& node : nodes_) {
    node->sandbox_pool->RegisterFunctionLayer(
        profile.name, std::make_shared<FsLayer>(profile.name + "-deps"));
    // Every node runs Prepare; snapshot chunks dedup against the shared
    // store, so only the first node actually writes pool pages.
    TRENV_RETURN_IF_ERROR(node->platform->Deploy(profile));
  }
  if (pool_mgr_ != nullptr && !nodes_.empty()) {
    // Shard the deduplicated image across the pool nodes; RegisterTemplate
    // is idempotent, so one registration covers every node's deployment.
    const FunctionId fid = GlobalFunctionInterner().Find(profile.name);
    const ConsolidatedImage* image = nodes_[0]->engine->ImageFor(profile.name);
    if (fid != kInvalidFunctionId && image != nullptr) {
      pool_mgr_->RegisterTemplate(fid, *image);
    }
  }
  return Status::Ok();
}

Status Cluster::DeployTable4Functions() {
  for (const FunctionProfile& profile : Table4Functions()) {
    TRENV_RETURN_IF_ERROR(Deploy(profile));
  }
  return Status::Ok();
}

bool Cluster::AnyAlive() const {
  for (const auto& node : nodes_) {
    if (node->alive) {
      return true;
    }
  }
  return false;
}

size_t Cluster::PickNode(const std::string& function, SimTime arrival) {
  // Callers guarantee at least one node is alive.
  if (config_.dispatch == ClusterConfig::Dispatch::kRoundRobin) {
    while (!nodes_[next_node_]->alive) {
      next_node_ = (next_node_ + 1) % nodes_.size();
    }
    const size_t node = next_node_;
    next_node_ = (next_node_ + 1) % nodes_.size();
    return node;
  }
  if (config_.dispatch == ClusterConfig::Dispatch::kTemplateLocality) {
    // Template locality: prefer a node that already has the function warm
    // (keep-alive instance), then one holding a live template lease (attach
    // is metadata-only there), then fall back to least-loaded. Ties break by
    // node index, so placement is deterministic.
    const FunctionId fid = GlobalFunctionInterner().Find(function);
    const auto key = [&](size_t i) {
      const Node& n = *nodes_[i];
      const bool warm =
          fid != kInvalidFunctionId && n.platform->keep_alive().CountFor(fid) > 0;
      const bool leased = fid != kInvalidFunctionId && pool_mgr_ != nullptr &&
                          pool_mgr_->LeaseRefs(static_cast<uint32_t>(i), fid) > 0;
      // Membership-view consult: with the continuous control plane on, a
      // node whose NIC is backlogged (or, during a degraded view, any cold
      // pull at all) is penalized before the load tie-breakers. Zero for
      // every node when poolctl is off, so legacy ordering is unchanged.
      const uint64_t penalty =
          pool_ctl_ != nullptr
              ? pool_ctl_->DispatchPenaltyMs(static_cast<uint32_t>(i), arrival)
              : 0;
      return std::make_tuple(!warm, !leased, penalty,
                             n.platform->concurrent_startups() + WindowLoad(i),
                             n.platform->frames().used_bytes());
    };
    size_t best = nodes_.size();
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i]->alive) {
        continue;
      }
      if (best == nodes_.size() || key(i) < key(best)) {
        best = i;
      }
    }
    return best;
  }
  // Least-loaded: fewest in-flight startups, then least DRAM in use — the
  // "dispatch to whichever node has available CPU" ideal of section 3.2.
  size_t best = nodes_.size();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!nodes_[i]->alive) {
      continue;
    }
    if (best == nodes_.size()) {
      best = i;
      continue;
    }
    const auto key = [&](size_t j) {
      const Node& n = *nodes_[j];
      return std::make_pair(n.platform->concurrent_startups() + WindowLoad(j),
                            n.platform->frames().used_bytes());
    };
    if (key(i) < key(best)) {
      best = i;
    }
  }
  return best;
}

Status Cluster::Submit(SimTime arrival, const std::string& function) {
  return Submit(arrival, function, SubmitOptions{});
}

Status Cluster::Submit(SimTime arrival, const std::string& function, SubmitOptions options) {
  const Status status = Dispatch(arrival, function, std::move(options));
  if (status.ok()) {
    ++accepted_;
  }
  return status;
}

Status Cluster::Dispatch(SimTime arrival, const std::string& function,
                         SubmitOptions options) {
  if (!AnyAlive()) {
    if (injector_ == nullptr) {
      return Status::Unavailable("no node alive to accept invocation of '" + function + "'");
    }
    // Whole-rack outage mid-chaos: park the invocation; the next restart
    // flushes the deferred queue.
    deferred_.push_back(Deferred{arrival, function, std::move(options.on_complete)});
    injector_->CountDeferred();
    return Status::Ok();
  }
  const size_t node_index =
      (options.preferred_node >= 0 &&
       static_cast<size_t>(options.preferred_node) < nodes_.size() &&
       nodes_[options.preferred_node]->alive)
          ? static_cast<size_t>(options.preferred_node)
          : PickNode(function, arrival);
  ServerlessPlatform& platform = *nodes_[node_index]->platform;
  if (platform.tracer() != nullptr) {
    // Dispatch marker on the chosen node's control track (track 0).
    const obs::SpanId id =
        platform.tracer()->Instant({platform.trace_pid(), 0}, "dispatch", "cluster");
    platform.tracer()->Annotate(id, "function", function);
    platform.tracer()->Annotate(id, "node", static_cast<int64_t>(node_index));
  }
  SimTime start = arrival;
  if (pool_mgr_ != nullptr) {
    // Attach the template through the control plane before the invocation
    // can start: a lease hit is metadata-only; a miss pulls the shards over
    // the chosen node's NIC. Expired leases up to `arrival` lapse first.
    pool_mgr_->clock().RunUntil(arrival);
    const FunctionId fid = GlobalFunctionInterner().Find(function);
    const PoolManager::AttachOutcome attach =
        pool_mgr_->Attach(static_cast<uint32_t>(node_index), fid, arrival);
    start = arrival + attach.latency;
    if (platform.tracer() != nullptr) {
      const obs::SpanId id =
          platform.tracer()->Instant({platform.trace_pid(), 0}, "poolmgr.attach", "poolmgr");
      platform.tracer()->Annotate(id, "lease_hit", attach.lease_hit ? int64_t{1} : int64_t{0});
      platform.tracer()->Annotate(id, "fetched_pages",
                                  static_cast<int64_t>(attach.fetched_pages));
      platform.tracer()->Annotate(id, "latency_us", attach.latency.nanos() / 1000);
    }
  }
  if (mailbox_ != nullptr) {
    // Sharded run: defer the platform submit into the owning shard's mailbox;
    // it is applied at the start of the next epoch, before any scheduler
    // drains, so event sequence numbers match an immediate submit. A
    // rejection surfaces when the mailbox drains (it still aborts the run).
    mailbox_->cmds.push_back(SubmitCmd{start, static_cast<uint32_t>(node_index), function,
                                       std::move(options.on_complete)});
    mailbox_->inboxes[mailbox_->shard_of[node_index]].push_back(mailbox_->cmds.size() - 1);
    if (!window_dispatches_.empty()) {
      ++window_dispatches_[node_index];
    }
    return Status::Ok();
  }
  const Status status = platform.Submit(start, function, std::move(options.on_complete));
  if (!status.ok()) {
    // Name the rejecting node: "invocation failed" without a culprit is
    // useless in a rack-sized log.
    return Status(status.code(), "node " + std::to_string(node_index) +
                                     " rejected invocation of '" + function +
                                     "': " + status.message());
  }
  return status;
}

void Cluster::FocusNode(size_t i) {
  if (injector_ == nullptr) {
    return;
  }
  injector_->BindClock(&nodes_[i]->platform->scheduler());
  injector_->SetActiveNode(static_cast<uint32_t>(i));
}

void Cluster::AdvanceAllTo(SimTime t) {
  // Dead nodes advance too (their queue is empty; only the clock moves), so
  // a restarted node rejoins at the cluster-wide instant.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    FocusNode(i);
    nodes_[i]->platform->scheduler().RunUntil(t);
  }
  AdvanceControlClocksTo(t);
}

void Cluster::AdvanceControlClocksTo(SimTime t) {
  if (pool_mgr_ != nullptr) {
    // The control plane's clock (lease expiries, rebalances) moves in
    // lock-step with the worker nodes.
    pool_mgr_->clock().RunUntil(t);
  }
  if (shstate_ != nullptr) {
    // Invalidation shootdowns and reader-lease expiries follow the same
    // lock-step timeline.
    shstate_->clock().RunUntil(t);
  }
}

void Cluster::DrainControlClocks() {
  if (pool_ctl_ != nullptr) {
    // Cancel the periodic ticks (heartbeats, rebalancing) so the drain
    // below terminates; lease expiries still lapse on their own. No final
    // converge: replication at trace end is whatever the continuous loop
    // actually restored.
    pool_ctl_->Quiesce();
  }
  if (pool_mgr_ != nullptr) {
    // Let outstanding lease-expiry and rebalance events lapse; every grant
    // schedules exactly one expiry, so this drains.
    pool_mgr_->clock().RunUntilIdle();
  }
  if (shstate_ != nullptr) {
    // Same for invalidation shootdowns and reader-lease expiries.
    shstate_->clock().RunUntilIdle();
  }
}

void Cluster::CrashNode(size_t i, SimTime when) {
  Node& node = *nodes_[i];
  if (!node.alive) {
    return;
  }
  node.alive = false;
  injector_->RecordInjection(when, FaultDomain::kNodeCrash, static_cast<uint32_t>(i));
  std::vector<LostInvocation> lost = node.platform->Crash();
  node.sandbox_pool->Clear();
  if (pool_mgr_ != nullptr) {
    // A dead worker tears down nothing orderly; its leases just vanish.
    pool_mgr_->ReleaseWorker(static_cast<uint32_t>(i));
  }
  if (shstate_ != nullptr) {
    // Region ownership the dead worker held becomes vacant (the bytes are
    // durable in the pool); its reader leases vanish like poolmgr's.
    shstate_->ReleaseWorker(static_cast<uint32_t>(i));
  }
  // Failover: everything the dead node had accepted restarts on a survivor
  // once the dispatcher's health check fires. TrEnv restores from the shared
  // snapshot (redeploy_penalty zero); the cold-redeploy baseline pays a
  // snapshot pull per recovered invocation first.
  const SimTime redispatch =
      when + config_.failover.detection_latency + config_.failover.redeploy_penalty;
  for (LostInvocation& invocation : lost) {
    injector_->CountFailover(redispatch - invocation.arrival);
    SubmitOptions options;
    options.on_complete = std::move(invocation.on_complete);
    (void)Dispatch(redispatch, invocation.function, std::move(options));
  }
}

void Cluster::RestartNode(size_t i, SimTime when) {
  Node& node = *nodes_[i];
  if (node.alive) {
    return;
  }
  node.alive = true;
  injector_->CountRestart();
  if (deferred_.empty()) {
    return;
  }
  // Flush invocations parked during a whole-rack outage.
  std::vector<Deferred> parked;
  parked.swap(deferred_);
  const SimTime ready = when + config_.failover.detection_latency;
  for (Deferred& d : parked) {
    injector_->CountFailover(ready - d.arrival);
    SubmitOptions options;
    options.on_complete = std::move(d.on_complete);
    (void)Dispatch(std::max(ready, d.arrival), d.function, std::move(options));
  }
}

void Cluster::ApplyNodeEvent(const FaultInjector::NodeEvent& event) {
  switch (event.kind) {
    case FaultInjector::NodeEvent::Kind::kCrash:
      if (event.node < nodes_.size()) {
        CrashNode(event.node, event.time);
      }
      break;
    case FaultInjector::NodeEvent::Kind::kRestart:
      if (event.node < nodes_.size()) {
        RestartNode(event.node, event.time);
      }
      break;
    case FaultInjector::NodeEvent::Kind::kPressureStart:
    case FaultInjector::NodeEvent::Kind::kPressureEnd:
      for (size_t i = 0; i < nodes_.size(); ++i) {
        if (event.node == kAnyTarget || event.node == i) {
          FocusNode(i);
          nodes_[i]->platform->SetSoftMemCapScale(event.severity);
        }
      }
      break;
    case FaultInjector::NodeEvent::Kind::kPoolCrash:
      if (pool_mgr_ != nullptr && pool_mgr_->pool_node_alive(event.node)) {
        injector_->RecordInjection(event.time, FaultDomain::kPoolNodeCrash, event.node);
        if (pool_ctl_ != nullptr) {
          // Continuous mode: the data plane learns the node is silent, but
          // ring surgery waits for the membership protocol's declaration.
          pool_mgr_->OnPoolNodeDown(event.node);
          pool_ctl_->membership().NodeDown(event.node);
        } else {
          pool_mgr_->OnPoolNodeCrash(event.node, event.time);
        }
      }
      break;
    case FaultInjector::NodeEvent::Kind::kPoolRestart:
      if (pool_mgr_ != nullptr) {
        if (pool_ctl_ != nullptr) {
          if (!pool_mgr_->pool_node_alive(event.node)) {
            pool_mgr_->OnPoolNodeUp(event.node);
            pool_ctl_->membership().NodeUp(event.node);
          }
        } else {
          pool_mgr_->OnPoolNodeRestart(event.node, event.time);
        }
      }
      break;
  }
}

Status Cluster::Run(const Schedule& schedule) {
  // Dispatch decisions use the load at submission time, so interleave:
  // advance every node up to each arrival before placing it. Node-level
  // fault events (crashes, restarts, pressure windows) merge into the same
  // timeline so their ordering against arrivals is exact.
  std::vector<FaultInjector::NodeEvent> plan;
  if (injector_ != nullptr) {
    plan = injector_->PlanNodeEvents(static_cast<uint32_t>(nodes_.size()),
                                     pool_mgr_ != nullptr ? config_.poolmgr.pool_nodes : 0);
  }
  size_t next_event = 0;
  for (const Invocation& invocation : schedule) {
    while (next_event < plan.size() && plan[next_event].time <= invocation.arrival) {
      AdvanceAllTo(plan[next_event].time);
      ApplyNodeEvent(plan[next_event]);
      ++next_event;
    }
    AdvanceAllTo(invocation.arrival);
    TRENV_RETURN_IF_ERROR(Submit(invocation.arrival, invocation.function));
  }
  while (next_event < plan.size()) {
    AdvanceAllTo(plan[next_event].time);
    ApplyNodeEvent(plan[next_event]);
    ++next_event;
  }
  RunAllToCompletion();
  return Status::Ok();
}

bool Cluster::CanShardAcrossThreads() const {
  // shstate is cross-node-shared and unsynchronized (region maps, clock), so
  // it degrades sharded runs to one shard like the other shared components.
  return injector_ == nullptr && config_.node_config.tracer == nullptr &&
         config_.node_config.prewarm == nullptr && !config_.node_config.density.enabled &&
         shstate_ == nullptr;
}

Status Cluster::RunSharded(ArrivalStream& arrivals, const ShardedRunOptions& options) {
  std::vector<FaultInjector::NodeEvent> plan;
  if (injector_ != nullptr) {
    plan = injector_->PlanNodeEvents(static_cast<uint32_t>(nodes_.size()),
                                     pool_mgr_ != nullptr ? config_.poolmgr.pool_nodes : 0);
  }
  // Shard count: clamped to the node count; degraded to one shard when a
  // cross-node-shared component (injector, tracer, prewarm, density) is
  // configured. Degradation changes only how much work runs concurrently —
  // the epoch algorithm below is identical, so output is still independent
  // of the requested shard count.
  uint32_t shards = std::max<uint32_t>(1, options.shards);
  shards = std::min<uint32_t>(shards, static_cast<uint32_t>(nodes_.size()));
  if (!CanShardAcrossThreads()) {
    shards = 1;
  }
  sharded_effective_shards_ = shards;

  // Contiguous node ranges per shard; node -> shard for the mailbox router.
  std::vector<std::pair<size_t, size_t>> shard_range(shards);
  MailboxSink sink;
  sink.inboxes.resize(shards);
  sink.shard_of.resize(nodes_.size());
  for (uint32_t s = 0; s < shards; ++s) {
    shard_range[s] = {nodes_.size() * s / shards, nodes_.size() * (s + 1) / shards};
    for (size_t i = shard_range[s].first; i < shard_range[s].second; ++i) {
      sink.shard_of[i] = s;
    }
  }
  mailbox_ = &sink;
  const bool windowed = options.lookahead > SimDuration::Zero();
  if (windowed) {
    window_dispatches_.assign(nodes_.size(), 0);
  }
  struct SinkGuard {
    Cluster* cluster;
    ~SinkGuard() {
      cluster->mailbox_ = nullptr;
      cluster->window_dispatches_.clear();
    }
  } guard{this};

  ShardCoordinator coordinator(shards);

  // One epoch: each shard first applies its mailbox (in global push order,
  // before any drain, so scheduler sequence numbers match an immediate
  // submit), then drains its nodes in index order up to the target. The
  // control-plane clocks follow on the coordinator thread. Lambdas are
  // built once; `target` is rebound per epoch.
  SimTime target;
  const std::function<void(size_t)> advance_shard = [&](size_t s) {
    for (const size_t idx : sink.inboxes[s]) {
      const SubmitCmd& cmd = sink.cmds[idx];
      sink.statuses[idx] =
          nodes_[cmd.node]->platform->Submit(cmd.start, cmd.function, cmd.on_complete);
    }
    for (size_t i = shard_range[s].first; i < shard_range[s].second; ++i) {
      if (injector_ != nullptr) {
        FocusNode(i);  // injector implies shards == 1: still coordinator-serial
      }
      nodes_[i]->platform->scheduler().RunUntil(target);
    }
  };
  const std::function<void(size_t)> finish_shard = [&](size_t s) {
    for (const size_t idx : sink.inboxes[s]) {
      const SubmitCmd& cmd = sink.cmds[idx];
      sink.statuses[idx] =
          nodes_[cmd.node]->platform->Submit(cmd.start, cmd.function, cmd.on_complete);
    }
    for (size_t i = shard_range[s].first; i < shard_range[s].second; ++i) {
      if (injector_ != nullptr) {
        FocusNode(i);
      }
      nodes_[i]->platform->RunToCompletion();
    }
  };

  // Scans mailbox outcomes in global sequence order (the deterministic
  // (time, shard, seq) drain order), clears the epoch's mailboxes, and
  // surfaces the first rejection exactly as the sequential Dispatch would.
  const auto settle_mailbox = [&]() -> Status {
    Status first = Status::Ok();
    for (size_t idx = 0; idx < sink.cmds.size(); ++idx) {
      const Status& status = sink.statuses[idx];
      if (!status.ok() && first.ok()) {
        first = Status(status.code(),
                       "node " + std::to_string(sink.cmds[idx].node) +
                           " rejected invocation of '" + sink.cmds[idx].function +
                           "': " + status.message());
      }
    }
    sink.cmds.clear();
    sink.statuses.clear();
    for (auto& inbox : sink.inboxes) {
      inbox.clear();
    }
    return first;
  };
  const auto epoch_advance = [&](SimTime t) -> Status {
    target = t;
    sink.statuses.resize(sink.cmds.size());
    coordinator.RunEpoch(advance_shard);
    TRENV_RETURN_IF_ERROR(settle_mailbox());
    AdvanceControlClocksTo(t);
    if (windowed) {
      // A sync point refreshes the real load state; the window's provisional
      // placement counts are now visible as concurrent startups.
      std::fill(window_dispatches_.begin(), window_dispatches_.end(), 0u);
    }
    return Status::Ok();
  };

  // The main loop mirrors Run(): node-level fault events merge into the
  // arrival timeline at exactly the sequential interleaving.
  size_t next_event = 0;
  std::optional<Invocation> pending = arrivals.Next();
  while (pending.has_value() || next_event < plan.size()) {
    if (next_event < plan.size() &&
        (!pending.has_value() || plan[next_event].time <= pending->arrival)) {
      TRENV_RETURN_IF_ERROR(epoch_advance(plan[next_event].time));
      ApplyNodeEvent(plan[next_event]);
      ++next_event;
      continue;
    }
    const SimTime window_start = pending->arrival;
    TRENV_RETURN_IF_ERROR(epoch_advance(window_start));
    if (!windowed) {
      // Per-arrival epochs: dispatch sees exactly the sequential load state.
      TRENV_RETURN_IF_ERROR(Submit(pending->arrival, pending->function));
      pending = arrivals.Next();
      continue;
    }
    // Batched dispatch: every arrival inside [window_start, window_start +
    // lookahead) places against the snapshot at window_start plus this
    // window's own placements. Fault events still cut the window short so
    // their interleaving matches the sequential run.
    const SimTime window_end = window_start + options.lookahead;
    while (pending.has_value() && pending->arrival < window_end &&
           !(next_event < plan.size() && plan[next_event].time <= pending->arrival)) {
      TRENV_RETURN_IF_ERROR(Submit(pending->arrival, pending->function));
      pending = arrivals.Next();
    }
  }

  // Final epoch: flush the last window's mailboxes, then drain every node to
  // completion (nodes diverge in time here, exactly like RunAllToCompletion —
  // no cross-node interaction remains).
  sink.statuses.resize(sink.cmds.size());
  coordinator.RunEpoch(finish_shard);
  TRENV_RETURN_IF_ERROR(settle_mailbox());
  DrainControlClocks();
  sharded_epochs_ = coordinator.epochs();
  sharded_barrier_wait_ = coordinator.barrier_wait_seconds();
  return Status::Ok();
}

void Cluster::RunAllToCompletion() {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    FocusNode(i);
    nodes_[i]->platform->RunToCompletion();
  }
  DrainControlClocks();
}

std::optional<SimTime> Cluster::NextEventTime() {
  std::optional<SimTime> earliest;
  const auto consider = [&](std::optional<SimTime> t) {
    if (t.has_value() && (!earliest.has_value() || *t < *earliest)) {
      earliest = t;
    }
  };
  for (auto& node : nodes_) {
    consider(node->platform->scheduler().NextEventTime());
  }
  if (pool_mgr_ != nullptr) {
    consider(pool_mgr_->clock().NextEventTime());
  }
  if (shstate_ != nullptr) {
    consider(shstate_->clock().NextEventTime());
  }
  return earliest;
}

void Cluster::AdvanceClocksTo(SimTime t) { AdvanceAllTo(t); }

std::vector<FaultInjector::NodeEvent> Cluster::PlanFaultEvents() {
  if (injector_ == nullptr) {
    return {};
  }
  return injector_->PlanNodeEvents(static_cast<uint32_t>(nodes_.size()),
                                   pool_mgr_ != nullptr ? config_.poolmgr.pool_nodes : 0);
}

void Cluster::ApplyFaultEvent(const FaultInjector::NodeEvent& event) { ApplyNodeEvent(event); }

void Cluster::DrainAll() { RunAllToCompletion(); }

uint64_t Cluster::NodeDramBytes() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->platform->frames().used_bytes();
  }
  return total;
}

FunctionMetrics Cluster::AggregateMetrics() const {
  FunctionMetrics total;
  for (const auto& node : nodes_) {
    FunctionMetrics agg = node->platform->metrics().Aggregate();
    total.e2e_ms.MergeFrom(agg.e2e_ms);
    total.startup_ms.MergeFrom(agg.startup_ms);
    total.exec_ms.MergeFrom(agg.exec_ms);
    total.invocations += agg.invocations;
    total.warm_starts += agg.warm_starts;
    total.repurposed_starts += agg.repurposed_starts;
    total.cold_starts += agg.cold_starts;
  }
  return total;
}

uint64_t Cluster::TotalInvocations() const { return AggregateMetrics().invocations; }

}  // namespace trenv
