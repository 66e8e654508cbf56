// Cluster::RunSharded contract: the rack's run loop is byte-identical to a
// loop that steps the rack through its public API. "Byte-identical" is
// checked through a fingerprint that serializes every externally observable
// quantity (per-function histograms at full precision, per-node memory, every
// registry counter), so any divergence in event ordering, RNG draws, or
// placement shows up as a string mismatch.
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/interner.h"
#include "src/platform/cluster.h"
#include "src/workload/arrival_stream.h"

namespace trenv {
namespace {

void FingerprintHistogram(std::ostringstream& out, const char* label, const Histogram& h) {
  out << ' ' << label << ":n=" << h.count();
  if (!h.empty()) {
    out << ",min=" << h.Min() << ",max=" << h.Max() << ",mean=" << h.Mean()
        << ",sd=" << h.Stddev() << ",p50=" << h.Median() << ",p99=" << h.P99();
  }
}

std::string Fingerprint(const Cluster& cluster) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "accepted=" << cluster.accepted_invocations() << '\n';
  Cluster& mut = const_cast<Cluster&>(cluster);
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    ServerlessPlatform& node = mut.node(i);
    out << "node " << i << " alive=" << cluster.node_alive(i)
        << " failed=" << node.failed_invocations()
        << " frames=" << node.frames().used_bytes()
        << " frames_peak=" << node.frames().peak_used_bytes()
        << " mem_peak=" << node.metrics().peak_memory_bytes()
        << " fetch_cpu=" << node.metrics().fetch_cpu_seconds() << '\n';
    for (const auto& [fn, m] : node.metrics().per_function()) {
      out << "  fn " << fn << " inv=" << m.invocations << " warm=" << m.warm_starts
          << " cold=" << m.cold_starts << " rep=" << m.repurposed_starts;
      FingerprintHistogram(out, "e2e", m.e2e_ms);
      FingerprintHistogram(out, "startup", m.startup_ms);
      FingerprintHistogram(out, "exec", m.exec_ms);
      out << '\n';
    }
  }
  out << "pool=" << cluster.PoolBytes() << " dram=" << cluster.NodeDramBytes() << '\n';
  for (const auto& [name, counter] : cluster.registry().counters()) {
    out << "ctr " << name << '=' << counter->value() << '\n';
  }
  return out.str();
}

Schedule TestSchedule(uint64_t seed) {
  std::vector<std::string> fns = {"JS", "DH", "IR", "CR", "PR"};
  Rng rng(seed);
  return MakePoissonWorkload(fns, 40.0, SimDuration::Seconds(20), 0.7, rng);
}

ClusterConfig BaseConfig() {
  ClusterConfig config;
  config.nodes = 4;
  // Short TTL keeps restores (the expensive shared-pool path) in the mix.
  config.node_config.keep_alive_ttl = SimDuration::Seconds(2);
  return config;
}

// The independent reference: advance every clock to each fault event and
// arrival, apply or submit it, then drain. Built from public calls only, so
// it shares no loop with RunSharded.
Status RunStepped(Cluster& cluster, const Schedule& schedule) {
  const std::vector<FaultInjector::NodeEvent> plan = cluster.PlanFaultEvents();
  size_t next_event = 0;
  const auto apply_events_until = [&](SimTime t) {
    while (next_event < plan.size() && plan[next_event].time <= t) {
      cluster.AdvanceClocksTo(plan[next_event].time);
      cluster.ApplyFaultEvent(plan[next_event]);
      ++next_event;
    }
  };
  for (const Invocation& invocation : schedule) {
    apply_events_until(invocation.arrival);
    cluster.AdvanceClocksTo(invocation.arrival);
    TRENV_RETURN_IF_ERROR(cluster.Submit(invocation.arrival, invocation.function));
  }
  apply_events_until(SimTime::Max());
  cluster.DrainAll();
  return Status::Ok();
}

std::string RunLegacy(const ClusterConfig& config, const Schedule& schedule) {
  Cluster cluster(config);
  EXPECT_TRUE(cluster.DeployTable4Functions().ok());
  EXPECT_TRUE(RunStepped(cluster, schedule).ok());
  return Fingerprint(cluster);
}

std::string RunShardedOn(const ClusterConfig& config, const Schedule& schedule) {
  Cluster cluster(config);
  EXPECT_TRUE(cluster.DeployTable4Functions().ok());
  ScheduleStream stream(schedule);
  EXPECT_TRUE(cluster.RunSharded(stream).ok());
  return Fingerprint(cluster);
}

TEST(ShardedClusterTest, PerArrivalRunMatchesSteppedLoop) {
  const Schedule schedule = TestSchedule(42);
  const ClusterConfig config = BaseConfig();
  const std::string legacy = RunLegacy(config, schedule);
  ASSERT_NE(legacy.find("fn JS"), std::string::npos);
  EXPECT_EQ(legacy, RunShardedOn(config, schedule));
}

TEST(ShardedClusterTest, OneSyncPointPerArrivalPlusTheFinalDrain) {
  const Schedule schedule = TestSchedule(3);
  Cluster cluster(BaseConfig());
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  ScheduleStream stream(schedule);
  ASSERT_TRUE(cluster.RunSharded(stream).ok());
  EXPECT_EQ(cluster.sharded_epochs(), schedule.size() + 1);
  EXPECT_EQ(cluster.sharded_barrier_wait_seconds(), 0.0);
}

TEST(ShardedClusterTest, MoreThanOneShardIsRefused) {
  // The rack runs on one thread; a multi-shard request must fail loudly
  // instead of silently running on one shard.
  const Schedule schedule = TestSchedule(3);
  Cluster cluster(BaseConfig());
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  ScheduleStream stream(schedule);
  ShardedRunOptions options;
  options.shards = 4;
  const Status status = cluster.RunSharded(stream, options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("shards=4"), std::string::npos) << status;
  EXPECT_EQ(cluster.accepted_invocations(), 0u);
}

TEST(ShardedClusterTest, RoundRobinAndTemplateLocalityMatchSteppedLoop) {
  const Schedule schedule = TestSchedule(11);
  for (const auto dispatch : {ClusterConfig::Dispatch::kRoundRobin,
                              ClusterConfig::Dispatch::kTemplateLocality}) {
    ClusterConfig config = BaseConfig();
    config.dispatch = dispatch;
    EXPECT_EQ(RunLegacy(config, schedule), RunShardedOn(config, schedule));
  }
}

TEST(ShardedClusterTest, PoolManagerRunMatchesSteppedLoop) {
  ClusterConfig config = BaseConfig();
  config.poolmgr.enabled = true;
  config.dispatch = ClusterConfig::Dispatch::kTemplateLocality;
  const Schedule schedule = TestSchedule(13);
  EXPECT_EQ(RunLegacy(config, schedule), RunShardedOn(config, schedule));
}

TEST(ShardedClusterTest, FaultedRunMatchesSteppedLoop) {
  ClusterConfig config = BaseConfig();
  config.faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Seconds(4),
                                    SimTime::Zero() + SimDuration::Seconds(6), 1.0, 1,
                                    SimDuration::Seconds(3)));
  config.faults.Add(PoolPressureWindow(SimTime::Zero() + SimDuration::Seconds(8),
                                       SimTime::Zero() + SimDuration::Seconds(12), 0.5));
  const Schedule schedule = TestSchedule(21);
  // Crash, failover re-dispatch and pressure events interleave with the
  // arrivals exactly as in the stepped run.
  EXPECT_EQ(RunLegacy(config, schedule), RunShardedOn(config, schedule));
}

TEST(ShardedClusterTest, ShStateClockAdvancesAndDrainsLikeRun) {
  // The shared-state plane's events (reader-lease expiries, shootdowns) must
  // follow the run loop's sync points and drain at the end exactly as in the
  // stepped loop: a reader lease lapsing before the only arrival is unmapped,
  // and no event is left pending. With poolmgr on, its template lease shares the
  // control clock and the two runs must still agree.
  ClusterConfig config;
  config.nodes = 2;
  config.shstate.enabled = true;
  config.shstate.lease_ttl = SimDuration::Seconds(1);
  config.poolmgr.lease_ttl = SimDuration::Seconds(3);
  const Schedule schedule = {{SimTime::Zero() + SimDuration::Seconds(2), "JS"}};
  for (const bool poolmgr : {false, true}) {
    config.poolmgr.enabled = poolmgr;
    std::vector<std::string> fingerprints;
    for (const bool sharded : {false, true}) {
      SCOPED_TRACE(std::string(sharded ? "RunSharded" : "stepped") +
                   (poolmgr ? " +poolmgr" : ""));
      Cluster cluster(config);
      ASSERT_TRUE(cluster.DeployTable4Functions().ok());
      RegionManager& sh = *cluster.shared_state();
      auto id_or = sh.CreateRegion("r", 16, /*owner=*/0, SimTime::Zero());
      ASSERT_TRUE(id_or.ok());
      const RegionId id = *id_or;
      ASSERT_TRUE(sh.OpenReader(id, 1, SimTime::Zero()).ok());
      ASSERT_TRUE(sh.ReaderMapped(id, 1));
      if (sharded) {
        ScheduleStream stream(schedule);
        ASSERT_TRUE(cluster.RunSharded(stream).ok());
      } else {
        ASSERT_TRUE(RunStepped(cluster, schedule).ok());
      }
      EXPECT_FALSE(sh.ReaderMapped(id, 1));
      EXPECT_FALSE(cluster.NextEventTime().has_value());
      fingerprints.push_back(Fingerprint(cluster));
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]);
  }
}

TEST(ShardedClusterTest, PoolAndShStateLeasesShareOneControlClock) {
  // poolmgr and shstate on together: a template lease (3 s TTL) and a reader
  // lease (1 s TTL) live on the cluster's one control clock. Each expires at
  // its own TTL, NextEventTime sees the earlier one, and the drain empties
  // the clock.
  ClusterConfig config;
  config.nodes = 2;
  config.dispatch = ClusterConfig::Dispatch::kTemplateLocality;
  config.node_config.keep_alive_ttl = SimDuration::Seconds(10);
  config.poolmgr.enabled = true;
  config.poolmgr.lease_ttl = SimDuration::Seconds(3);
  config.shstate.enabled = true;
  config.shstate.lease_ttl = SimDuration::Seconds(1);
  const auto at = [](int64_t ms) { return SimTime::Zero() + SimDuration::Millis(ms); };
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  RegionManager& sh = *cluster.shared_state();
  PoolManager& pool = *cluster.pool_manager();
  const FunctionId js = GlobalFunctionInterner().Find("JS");
  auto id_or = sh.CreateRegion("r", 16, /*owner=*/0, at(0));
  ASSERT_TRUE(id_or.ok());
  const RegionId id = *id_or;
  ASSERT_TRUE(sh.OpenReader(id, 1, at(0)).ok());
  cluster.AdvanceClocksTo(at(0));
  Cluster::SubmitOptions on_node0;
  on_node0.preferred_node = 0;
  ASSERT_TRUE(cluster.Submit(at(0), "JS", on_node0).ok());
  ASSERT_EQ(pool.LeaseRefs(0, js), 1u);

  // The invocation has finished; its keep-alive timer is due at >= 10 s.
  cluster.AdvanceClocksTo(at(500));
  ASSERT_TRUE(cluster.NextEventTime().has_value());
  EXPECT_EQ(cluster.NextEventTime()->nanos(), at(1000).nanos());
  cluster.AdvanceClocksTo(at(999));
  EXPECT_TRUE(sh.ReaderMapped(id, 1));
  cluster.AdvanceClocksTo(at(1000));
  EXPECT_FALSE(sh.ReaderMapped(id, 1));
  EXPECT_EQ(pool.LeaseRefs(0, js), 1u);

  ASSERT_TRUE(cluster.NextEventTime().has_value());
  EXPECT_EQ(cluster.NextEventTime()->nanos(), at(3000).nanos());
  cluster.AdvanceClocksTo(at(2999));
  EXPECT_EQ(pool.LeaseRefs(0, js), 1u);
  cluster.AdvanceClocksTo(at(3000));
  EXPECT_EQ(pool.LeaseRefs(0, js), 0u);
  EXPECT_EQ(pool.leases_expired(), 1u);
  EXPECT_EQ(sh.leases_expired(), 1u);

  cluster.DrainAll();
  EXPECT_FALSE(cluster.NextEventTime().has_value());
  EXPECT_EQ(cluster.TotalInvocations(), 1u);
}

TEST(ShardedClusterTest, StreamingTraceMatchesMaterializedSchedule) {
  // Feeding the generator stream straight into RunSharded must equal
  // materializing the same seed's schedule and running it — the 10M-trace
  // memory win cannot change results.
  const ClusterConfig config = BaseConfig();
  std::vector<std::string> fns = {"JS", "DH", "IR", "CR", "PR"};
  Rng seed_rng(42);
  const Schedule materialized =
      MakePoissonWorkload(fns, 40.0, SimDuration::Seconds(20), 0.7, seed_rng);
  const std::string legacy = RunLegacy(config, materialized);

  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  Rng rng(42);
  PoissonArrivalStream stream(fns, 40.0, SimDuration::Seconds(20), 0.7, &rng);
  ASSERT_TRUE(cluster.RunSharded(stream).ok());
  EXPECT_EQ(legacy, Fingerprint(cluster));
}

TEST(ShardedClusterTest, CrashRecoveryOrderIsArrivalThenTicket) {
  // Queued invocations sharing an arrival time must come back from Crash()
  // in acceptance-ticket order — the (arrival, ticket) total order that keeps
  // failover re-dispatch deterministic.
  ClusterConfig config;
  config.nodes = 1;
  Cluster cluster(config);
  ASSERT_TRUE(cluster.DeployTable4Functions().ok());
  const SimTime early = SimTime::Zero() + SimDuration::Millis(5);
  const SimTime late = SimTime::Zero() + SimDuration::Millis(10);
  ASSERT_TRUE(cluster.Submit(late, "JS").ok());
  ASSERT_TRUE(cluster.Submit(late, "DH").ok());
  ASSERT_TRUE(cluster.Submit(early, "IR").ok());
  ASSERT_TRUE(cluster.Submit(late, "CR").ok());
  ASSERT_TRUE(cluster.Submit(early, "PR").ok());
  const std::vector<LostInvocation> lost = cluster.node(0).Crash();
  ASSERT_EQ(lost.size(), 5u);
  const std::vector<std::string> want = {"IR", "PR", "JS", "DH", "CR"};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(lost[i].function, want[i]) << "position " << i;
  }
  for (size_t i = 1; i < lost.size(); ++i) {
    const bool ordered = lost[i - 1].arrival < lost[i].arrival ||
                         (lost[i - 1].arrival == lost[i].arrival &&
                          lost[i - 1].ticket < lost[i].ticket);
    EXPECT_TRUE(ordered) << "position " << i;
  }
}

}  // namespace
}  // namespace trenv
