// GossipMembership: a deterministic gossip-style failure detector for the
// memory-pool fleet.
//
// The poolmgr's static wiring learns about pool-node deaths instantly and
// perfectly — the fault plan calls OnPoolNodeCrash the moment the node dies.
// Production control planes have neither luxury: they observe heartbeats,
// accrue suspicion, and sometimes declare a live node dead because the
// *network* dropped its beats (an RDMA flap), not the node. This module is
// that detector, collapsed onto the control plane's own EventScheduler:
//
//   * One periodic tick delivers (or drops) a heartbeat per up node, in node
//     order, then re-evaluates suspicion — a phi-accrual detector simplified
//     to missed-interval counts (phi = elapsed / interval).
//   * Heartbeat loss is driven by the fault schedule's kRdmaFlap windows
//     through a caller-supplied probability function, drawn from the
//     detector's private seeded Rng — so false suspicion happens exactly
//     when the fabric is flapping, and identically on every run.
//   * The state machine is kAlive -> kSuspect -> kDead -> kJoining ->
//     kAlive. A suspect that beats again recovers (counted as a false
//     suspicion when the node never actually went down); a dead node must
//     deliver `join_beats` consecutive beats to rejoin, so one lucky beat
//     through a flap storm doesn't flap the ring too.
//
// The detector only observes and declares; ring surgery happens in the
// listener (PoolControlPlane -> PoolManager::DeclareDead/DeclareJoined).
#ifndef TRENV_POOLCTL_MEMBERSHIP_H_
#define TRENV_POOLCTL_MEMBERSHIP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/obs/registry.h"
#include "src/sim/event_scheduler.h"

namespace trenv {

struct MembershipConfig {
  SimDuration heartbeat_interval = SimDuration::Millis(500);
  // Missed-interval thresholds: a node is suspected after phi_suspect
  // silent intervals and declared dead after phi_dead.
  double phi_suspect = 3.0;
  double phi_dead = 8.0;
  // Consecutive delivered beats a dead node needs to rejoin the view.
  uint32_t join_beats = 2;
  uint64_t seed = 0x60551b;
};

class GossipMembership {
 public:
  enum class State : uint8_t { kAlive, kSuspect, kDead, kJoining };

  struct Transition {
    uint32_t node = 0;
    State from = State::kAlive;
    State to = State::kAlive;
    SimTime when;
  };
  using Listener = std::function<void(const Transition&)>;

  // `clock` is the control plane's scheduler (not owned); `stats` may be
  // null. Nothing is scheduled until Start().
  GossipMembership(MembershipConfig config, uint32_t fleet, EventScheduler* clock,
                   obs::Registry* stats);
  GossipMembership(const GossipMembership&) = delete;
  GossipMembership& operator=(const GossipMembership&) = delete;

  // Fires on every view change (suspicion, death, rejoin start, rejoin).
  void SetListener(Listener listener) { listener_ = std::move(listener); }
  // Probability that an up node's heartbeat this tick is lost in the
  // fabric; evaluated as loss(now, node). Null = lossless. Drawn from the
  // private Rng only when positive, so fault-free runs draw nothing.
  void SetHeartbeatLoss(std::function<double(SimTime, uint32_t)> loss) {
    loss_ = std::move(loss);
  }

  // Schedules the first tick one interval after `now`; every node starts
  // alive with its last beat stamped at `now`.
  void Start(SimTime now);
  // Cancels the pending tick so RunUntilIdle can drain (quiesce).
  void Stop();

  // Physical liveness from the fault plan. The detector never reads these
  // directly for state — it only stops/resumes the node's heartbeats and
  // uses them to tell false suspicion from true.
  void NodeDown(uint32_t node);
  void NodeUp(uint32_t node);

  State state(uint32_t node) const { return nodes_[node].state; }
  // In the view = counted as a member (alive or merely suspected).
  bool InView(uint32_t node) const {
    return nodes_[node].state == State::kAlive || nodes_[node].state == State::kSuspect;
  }
  uint32_t fleet() const { return static_cast<uint32_t>(nodes_.size()); }
  uint32_t alive_in_view() const;
  // Bumped on every death and every completed rejoin — the rebalancer's
  // cheap "membership changed" signal.
  uint64_t epoch() const { return epoch_; }

  uint64_t heartbeats_sent() const { return heartbeats_sent_; }
  uint64_t heartbeats_dropped() const { return heartbeats_dropped_; }
  uint64_t suspicions() const { return suspicions_; }
  uint64_t false_suspicions() const { return false_suspicions_; }
  uint64_t deaths() const { return deaths_; }
  uint64_t rejoins() const { return rejoins_; }
  // Down -> declared-dead lag per true death (the detector's latency).
  const Histogram& detection_ms() const { return detection_ms_; }

 private:
  struct NodeState {
    State state = State::kAlive;
    bool up = true;
    SimTime last_beat;
    SimTime down_since;
    // Down-transition count at suspicion time: if unchanged when the node
    // recovers, the node never died and the suspicion was the network's
    // fault — a false suspicion.
    uint64_t downs = 0;
    uint64_t downs_at_suspicion = 0;
    bool was_up_at_suspicion = false;
    uint32_t join_streak = 0;
  };

  void Tick();
  void Deliver(uint32_t node, SimTime now);
  void Evaluate(uint32_t node, SimTime now);
  void Announce(uint32_t node, State from, State to, SimTime when);

  MembershipConfig config_;
  EventScheduler* clock_;
  Rng rng_;
  std::vector<NodeState> nodes_;
  Listener listener_;
  std::function<double(SimTime, uint32_t)> loss_;
  EventId tick_event_ = kInvalidEventId;
  bool running_ = false;
  uint64_t epoch_ = 0;

  uint64_t heartbeats_sent_ = 0;
  uint64_t heartbeats_dropped_ = 0;
  uint64_t suspicions_ = 0;
  uint64_t false_suspicions_ = 0;
  uint64_t deaths_ = 0;
  uint64_t rejoins_ = 0;
  Histogram detection_ms_;

  obs::Counter* heartbeats_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* suspicions_counter_ = nullptr;
  obs::Counter* false_suspicions_counter_ = nullptr;
  obs::Counter* deaths_counter_ = nullptr;
  obs::Counter* rejoins_counter_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
};

}  // namespace trenv

#endif  // TRENV_POOLCTL_MEMBERSHIP_H_
