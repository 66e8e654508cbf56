// Continuous pool control plane under adversarial churn: 16-64 pool nodes.
//
// Every run is an 8-worker rack whose template store spans {16,32,64} pool
// nodes, driven by the same fixed-seed Poisson workload while the fault plan
// churns the fleet: a rolling-restart wave (every 4th pool node dies in
// sequence and returns 15 s later), one long outage (a node that never comes
// back), and two RDMA flap storms that eat heartbeats — the
// flapping-membership schedule that manufactures false suspicions.
//
// Each fleet size runs twice: `static` keeps static membership (instant
// crash knowledge, one delayed unbudgeted reconcile pass per change) and
// `continuous` runs the poolctl control plane (gossip membership with
// phi-accrual suspicion, budgeted continuous rebalancing, NIC admission
// shedding, hot-shard mitigation).
//
// Gates (exit 1 on violation):
//   * Zero accepted-invocation loss on EVERY run — churn may slow attaches
//     (dead-read timeouts, NAS fallback) but never drops accepted work.
//   * Continuous runs end with zero under-replicated shards: replication is
//     restored by trace end by the budgeted loop itself (the drain performs
//     no final converge).
//   * Continuous runs declare >= 1 death and complete >= 1 rejoin — the
//     schedule actually exercises the membership machine.
//   * Hot-shard section: with a skewed single-template hammer at replication
//     1, mitigation (score-driven extra replicas + spread reads) must cut
//     the peak per-node lease traffic by >= 2x vs static replication.
//
// The report is byte-identical at any --jobs value (runs are
// self-contained; all randomness is seeded), which CI enforces with cmp.
//
// Flags:
//   --jobs=N            sweep threads; the report is byte-identical at any N
//   --bench-json=PATH   append a JSON-lines record to the BENCH trajectory
//   --bench-label=TEXT  label stored in the JSON record
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fault/fault_schedule.h"
#include "src/mempool/rdma_pool.h"
#include "src/platform/cluster.h"
#include "src/poolctl/control_plane.h"

namespace trenv {
namespace {

constexpr uint64_t kSeed = 42;
constexpr uint32_t kWorkers = 8;
constexpr double kPagesPerMiB = 256.0;  // 4 KiB pages
constexpr uint64_t kRebalanceBudget = 32768;  // pages per 500 ms tick

SimTime Sec(double seconds) {
  return SimTime::Zero() + SimDuration::FromMicrosF(seconds * 1e6);
}

Schedule ChurnWorkload() {
  Rng rng(kSeed ^ 0x9001);
  return MakePoissonWorkload({"JS", "DH", "IR", "CR"}, 8.0, SimDuration::Minutes(2), 0.3,
                             rng);
}

// Rolling restarts + one long outage + heartbeat-eating flap storms.
FaultSchedule ChurnFaults(uint32_t pool_nodes) {
  FaultSchedule faults;
  faults.seed = kSeed;
  // Rolling-restart wave: every 4th pool node dies in sequence, 3 s apart,
  // each returning 15 s later — long enough past phi_dead (4 s of silence)
  // that every crash is declared, every return is a rejoin, and several
  // nodes are down concurrently at the larger fleet sizes.
  uint32_t wave = 0;
  for (uint32_t node = 0; node < pool_nodes; node += 4, ++wave) {
    const SimTime start = Sec(10.0 + 3.0 * wave);
    faults.Add(PoolCrashWindow(start, start + SimDuration::Seconds(1), /*probability=*/1.0,
                               node, /*restart_after=*/SimDuration::Seconds(15)));
  }
  // One long outage: pool node 1 (not in the wave) dies at t=70s and never
  // returns — the survivors must absorb its shards for the rest of the run.
  faults.Add(PoolCrashWindow(Sec(70.0), Sec(71.0), /*probability=*/1.0, /*pool_node=*/1,
                             /*restart_after=*/SimDuration::Zero()));
  // Flapping membership: two RDMA flap storms eat heartbeats fleet-wide
  // (and fail fetch attempts, exercising the retry path). The first lands
  // mid-wave; the second hits a healthy fleet to manufacture pure false
  // suspicions.
  faults.Add(LinkFaultWindow(FaultDomain::kRdmaFlap, Sec(30.0), Sec(34.0),
                             /*probability=*/0.7));
  faults.Add(LinkFaultWindow(FaultDomain::kRdmaFlap, Sec(95.0), Sec(98.0),
                             /*probability=*/0.5));
  return faults;
}

struct ChurnResult {
  bool ok = false;
  uint64_t accepted = 0;
  uint64_t completed = 0;
  uint64_t deaths = 0;
  uint64_t false_suspicions = 0;
  uint64_t rejoins = 0;
  uint64_t moved_pages = 0;
  uint64_t shed = 0;
  uint64_t nas_pages = 0;
  uint64_t dead_hops = 0;
  uint64_t revoked = 0;
  uint64_t under_replicated = 0;
  double attach_p99_ms = 0;
  double e2e_p99_ms = 0;
};

ChurnResult RunChurn(uint32_t pool_nodes, bool continuous) {
  ClusterConfig config;
  config.nodes = kWorkers;
  config.dispatch = ClusterConfig::Dispatch::kTemplateLocality;
  config.poolmgr.enabled = true;
  config.poolmgr.pool_nodes = pool_nodes;
  config.poolmgr.replication = 2;
  config.poolctl.enabled = continuous;
  config.poolctl.rebalance_budget_pages = kRebalanceBudget;
  config.faults = ChurnFaults(pool_nodes);
  Cluster cluster(config);
  if (!cluster.DeployTable4Functions().ok()) {
    return {};
  }
  if (!cluster.Run(ChurnWorkload()).ok()) {
    return {};
  }
  ChurnResult r;
  r.ok = true;
  const PoolManager& mgr = *cluster.pool_manager();
  const FunctionMetrics agg = cluster.AggregateMetrics();
  r.accepted = cluster.accepted_invocations();
  r.completed = agg.invocations;
  r.moved_pages = mgr.rebalanced_pages();
  r.shed = mgr.shed_attaches();
  r.nas_pages = mgr.nas_fallback_pages();
  r.dead_hops = mgr.dead_read_hops();
  r.revoked = mgr.leases_revoked();
  r.under_replicated = mgr.UnderReplicatedShards();
  if (!mgr.attach_ms().empty()) {
    r.attach_p99_ms = mgr.attach_ms().P99();
  }
  r.e2e_p99_ms = agg.e2e_ms.P99();
  if (cluster.pool_control() != nullptr) {
    const GossipMembership& membership = cluster.pool_control()->membership();
    r.deaths = membership.deaths();
    r.false_suspicions = membership.false_suspicions();
    r.rejoins = membership.rejoins();
  }
  return r;
}

// --------------------------------------------------------------- hot shards
//
// One template, replication 1, hammered from every worker with a short lease
// TTL so each round is a fresh miss. Static replication funnels every fetch
// of a shard into its single primary; mitigation promotes extra replicas
// from the observed fetch score and spread reads fan the same traffic across
// them. The gate compares the hottest node's served pages.

constexpr uint32_t kHotPoolNodes = 16;
constexpr uint32_t kHotWorkers = 16;
constexpr int kHotRounds = 600;  // 30 s of 50 ms rounds

ConsolidatedImage HotImage() {
  // One chunk == one shard: the entire template is THE hot shard, so static
  // replication funnels every fetch into its single primary.
  ConsolidatedImage image;
  PlacedRegion placed;
  placed.chunks.push_back(PlacedChunk{PoolKind::kCxl, 0, 512, 0xA07ULL});
  image.processes.push_back({placed});
  image.total_pages = 512;
  return image;
}

struct HotResult {
  uint64_t peak_pages = 0;
  uint64_t total_pages = 0;
  uint64_t promotions = 0;
  uint64_t demotions = 0;
};

HotResult RunHotShard(bool mitigation) {
  RdmaPool fabric(kGiB);
  PoolManagerConfig pool;
  pool.enabled = true;
  pool.pool_nodes = kHotPoolNodes;
  pool.replication = 1;
  pool.lease_ttl = SimDuration::Millis(40);  // every 50 ms round is a miss
  EventScheduler clock;
  PoolManager mgr(pool, kHotWorkers, &fabric, &clock, nullptr);
  PoolCtlConfig ctl;
  ctl.hot_shard_mitigation = mitigation;
  ctl.hot_promote_score = 16;
  ctl.max_extra_replicas = 7;  // a hammered shard may grow to 8 replicas
  ctl.rebalance_budget_pages = kRebalanceBudget;
  if (!mitigation) {
    ctl.policy.spread_reads = false;  // static replication reads the primary
  }
  PoolControlPlane plane(ctl, &mgr, /*faults=*/nullptr, /*stats=*/nullptr,
                         /*tracer=*/nullptr);
  plane.Start(SimTime::Zero());
  mgr.RegisterTemplate(0, HotImage());
  SimTime t = SimTime::Zero();
  for (int round = 1; round <= kHotRounds; ++round) {
    t = SimTime::Zero() + SimDuration::Millis(50) * round;
    mgr.clock().RunUntil(t);
    for (uint32_t worker = 0; worker < kHotWorkers; ++worker) {
      (void)mgr.Attach(worker, 0, t);
    }
  }
  plane.Quiesce();
  mgr.clock().RunUntilIdle();
  HotResult r;
  r.peak_pages = mgr.PeakServedPages();
  for (const uint64_t pages : mgr.ServedPagesPerNode()) {
    r.total_pages += pages;
  }
  r.promotions = plane.hot_promotions();
  r.demotions = plane.hot_demotions();
  return r;
}

int RunBench(bench::BenchEnv& env) {
  std::cout << "=== Continuous pool control under churn: rolling restarts + long outage "
               "+ flap storms ===\n";

  const std::vector<uint32_t> fleets = {16, 32, 64};
  struct Point {
    uint32_t pool_nodes;
    bool continuous;
  };
  std::vector<Point> points;
  for (const uint32_t pool_nodes : fleets) {
    points.push_back({pool_nodes, false});
    points.push_back({pool_nodes, true});
  }
  const std::vector<ChurnResult> sweep = bench::ParallelSweep(
      points.size(), env.jobs,
      [&](size_t i) { return RunChurn(points[i].pool_nodes, points[i].continuous); });

  Table table({"Pool nodes", "Mode", "Accepted", "Completed", "Deaths", "FalseSusp",
               "Rejoins", "Moved MiB", "Shed", "NAS MiB", "UnderRepl", "Attach p99 ms"});
  for (size_t i = 0; i < points.size(); ++i) {
    const ChurnResult& r = sweep[i];
    if (!r.ok) {
      std::cerr << "churn run " << i << " failed\n";
      return 1;
    }
    table.AddRow({std::to_string(points[i].pool_nodes),
                  points[i].continuous ? "continuous" : "static", std::to_string(r.accepted),
                  std::to_string(r.completed), std::to_string(r.deaths),
                  std::to_string(r.false_suspicions), std::to_string(r.rejoins),
                  Table::Num(static_cast<double>(r.moved_pages) / kPagesPerMiB, 1),
                  std::to_string(r.shed),
                  Table::Num(static_cast<double>(r.nas_pages) / kPagesPerMiB, 1),
                  std::to_string(r.under_replicated), Table::Num(r.attach_p99_ms, 3)});
  }
  table.Print(std::cout);

  bool gates_ok = true;
  for (size_t i = 0; i < points.size(); ++i) {
    const ChurnResult& r = sweep[i];
    const char* mode = points[i].continuous ? "continuous" : "static";
    if (r.accepted != r.completed) {
      std::cerr << "FAIL: n=" << points[i].pool_nodes << " " << mode
                << " lost invocations: accepted " << r.accepted << " completed "
                << r.completed << "\n";
      gates_ok = false;
    }
    if (!points[i].continuous) {
      continue;
    }
    if (r.under_replicated != 0) {
      std::cerr << "FAIL: n=" << points[i].pool_nodes
                << " continuous ended with " << r.under_replicated
                << " under-replicated shard(s)\n";
      gates_ok = false;
    }
    if (r.deaths == 0 || r.rejoins == 0) {
      std::cerr << "FAIL: n=" << points[i].pool_nodes
                << " continuous never exercised the membership machine (deaths="
                << r.deaths << " rejoins=" << r.rejoins << ")\n";
      gates_ok = false;
    }
  }
  if (!gates_ok) {
    return 1;
  }
  std::cout << "Zero accepted-invocation loss on every run; continuous fleets end fully "
               "replicated with every declared death rejoined or absorbed.\n\n";

  std::cout << "=== Hot-shard mitigation: one hammered template, replication 1, "
            << kHotPoolNodes << " pool nodes ===\n";
  const std::vector<HotResult> hot =
      bench::ParallelSweep(2, env.jobs, [&](size_t i) { return RunHotShard(i == 1); });
  const HotResult& flat = hot[0];
  const HotResult& mitigated = hot[1];
  Table hot_table({"Mode", "Peak node MiB", "Total MiB", "Promotions", "Demotions"});
  hot_table.AddRow({"static r=1",
                    Table::Num(static_cast<double>(flat.peak_pages) / kPagesPerMiB, 1),
                    Table::Num(static_cast<double>(flat.total_pages) / kPagesPerMiB, 1),
                    std::to_string(flat.promotions), std::to_string(flat.demotions)});
  hot_table.AddRow({"mitigated",
                    Table::Num(static_cast<double>(mitigated.peak_pages) / kPagesPerMiB, 1),
                    Table::Num(static_cast<double>(mitigated.total_pages) / kPagesPerMiB, 1),
                    std::to_string(mitigated.promotions), std::to_string(mitigated.demotions)});
  hot_table.Print(std::cout);
  const double ratio = mitigated.peak_pages == 0
                           ? 0.0
                           : static_cast<double>(flat.peak_pages) /
                                 static_cast<double>(mitigated.peak_pages);
  std::cout << "Peak per-node lease traffic cut " << Table::Num(ratio, 2)
            << "x by hot-shard mitigation (gate: >= 2x)\n";
  if (ratio < 2.0) {
    std::cerr << "FAIL: hot-shard mitigation cut peak traffic only "
              << Table::Num(ratio, 2) << "x (< 2x)\n";
    return 1;
  }

  const std::string json_path = env.ExtraValue("--bench-json=");
  if (json_path.empty()) {
    return 0;
  }
  const std::string label = env.ExtraValue("--bench-label=");
  return bench::AppendJsonRecord(json_path, label, env.jobs, [&](std::ostream& out) {
    for (size_t i = 0; i < points.size(); ++i) {
      const ChurnResult& r = sweep[i];
      out << "\"poolctl_churn/n" << points[i].pool_nodes << "_"
          << (points[i].continuous ? "continuous" : "static")
          << "\":{\"accepted\":" << r.accepted << ",\"completed\":" << r.completed
          << ",\"deaths\":" << r.deaths << ",\"rejoins\":" << r.rejoins
          << ",\"moved_pages\":" << r.moved_pages
          << ",\"under_replicated\":" << r.under_replicated
          << ",\"real_ns\":" << static_cast<uint64_t>(r.attach_p99_ms * 1e6) << "},";
    }
    out << "\"poolctl_churn/hot_shard\":{\"peak_static\":" << flat.peak_pages
        << ",\"peak_mitigated\":" << mitigated.peak_pages << ",\"ratio\":"
        << Table::Num(ratio, 3) << "}";
  });
}

}  // namespace
}  // namespace trenv

int main(int argc, char** argv) {
  trenv::bench::BenchEnv env(argc, argv,
                             {{"--bench-json=", "--bench-json=<file>"},
                              {"--bench-label=", "--bench-label=<text>"}});
  const int rc = trenv::RunBench(env);
  env.Finish();
  return rc;
}
