// Pool-control-plane scale sweep: nodes x replication x dispatch policy.
//
// Every run is a rack with the PoolManager enabled — dedup'd template chunks
// sharded across 4 pool nodes by consistent hashing — driven by the same
// fixed-seed Poisson workload. The sweep crosses worker-node count {2,4,8},
// shard replication {1,2} and dispatch policy {least-loaded,
// template-locality} and reports what the control plane moved: remote fetch
// traffic, lease hit rate, attach latency, and end-to-end p99.
//
// The claim under test (checked, not just printed): at >= 4 nodes,
// kTemplateLocality routes invocations to workers that already hold a lease
// (or a warm instance), so it pulls strictly fewer remote pages AND lands a
// p99 attach no worse than kLeastLoaded, which first-touches every function
// on every node. Replication is placement-only on the hot path — lease
// misses read the primary — so r=1 and r=2 rows of the steady sweep match;
// what replication buys is the chaos section below.
//
// Chaos section: a 4-node locality rack where pool node 1 crashes mid-run
// (restarting 30 s later), compared at replication 1 vs 2 and — at
// replication 2 — static vs continuous membership. With replication >= 2 a
// surviving replica is promoted and NO lease is revoked — the run must
// complete every accepted invocation (enforced; exit 1 on loss). With
// replication 1 the lost shards' leases are revoked and reseeded from the
// dedup store, visible as revocations + reseeds + extra refetched pages.
// The continuous row swaps instant crash knowledge for gossip detection
// (phi-accrual suspicion then declaration) and the one unbudgeted reconcile
// pass for the budgeted continuous loop; it must still lose nothing, declare and
// rejoin the node, and end fully replicated.
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
#include "src/platform/cluster.h"
#include "src/poolctl/control_plane.h"

namespace trenv {
namespace {

using Dispatch = ClusterConfig::Dispatch;

constexpr uint64_t kSeed = 42;
constexpr uint32_t kPoolNodes = 4;
constexpr double kPagesPerMiB = 256.0;  // 4 KiB pages

const char* DispatchName(Dispatch d) {
  return d == Dispatch::kTemplateLocality ? "locality" : "least-loaded";
}

Schedule SweepWorkload() {
  Rng rng(kSeed ^ 0x9001);
  return MakePoissonWorkload({"JS", "DH", "IR", "CR"}, 8.0, SimDuration::Minutes(2), 0.3,
                             rng);
}

struct RunResult {
  bool ok = false;
  uint64_t accepted = 0;
  uint64_t completed = 0;
  uint64_t fetch_pages = 0;
  uint64_t fetch_ops = 0;
  uint64_t coalesced = 0;
  uint64_t lease_hits = 0;
  uint64_t lease_misses = 0;
  uint64_t promotions = 0;
  uint64_t revoked = 0;
  uint64_t reseeded = 0;
  uint64_t deaths = 0;
  uint64_t rejoins = 0;
  uint64_t under_replicated = 0;
  double attach_p50_ms = 0;
  double attach_p99_ms = 0;
  double e2e_p99_ms = 0;
};

RunResult Collect(Cluster& cluster) {
  RunResult r;
  const PoolManager& mgr = *cluster.pool_manager();
  const FunctionMetrics agg = cluster.AggregateMetrics();
  r.ok = true;
  r.accepted = cluster.accepted_invocations();
  r.completed = agg.invocations;
  r.fetch_pages = mgr.remote_fetch_pages();
  r.fetch_ops = mgr.remote_fetch_ops();
  r.coalesced = mgr.coalesced_requests();
  r.lease_hits = mgr.lease_hits();
  r.lease_misses = mgr.lease_misses();
  r.promotions = mgr.replica_promotions();
  r.revoked = mgr.leases_revoked();
  r.reseeded = mgr.reseeded_shards();
  r.under_replicated = mgr.UnderReplicatedShards();
  if (cluster.pool_control() != nullptr) {
    r.deaths = cluster.pool_control()->membership().deaths();
    r.rejoins = cluster.pool_control()->membership().rejoins();
  }
  if (!mgr.attach_ms().empty()) {
    r.attach_p50_ms = mgr.attach_ms().Median();
    r.attach_p99_ms = mgr.attach_ms().P99();
  }
  r.e2e_p99_ms = agg.e2e_ms.P99();
  return r;
}

RunResult RunScale(uint32_t nodes, uint32_t replication, Dispatch dispatch) {
  ClusterConfig config;
  config.nodes = nodes;
  config.dispatch = dispatch;
  config.poolmgr.enabled = true;
  config.poolmgr.pool_nodes = kPoolNodes;
  config.poolmgr.replication = replication;
  Cluster cluster(config);
  if (!cluster.DeployTable4Functions().ok()) {
    return {};
  }
  if (!cluster.Run(SweepWorkload()).ok()) {
    return {};
  }
  return Collect(cluster);
}

// One pool node dies mid-run and returns 30 s later. The workload and the
// rack are identical to the replication-2 sweep row; `replication` decides
// whether leases survive the crash, and `continuous` swaps the unbudgeted
// reconcile pass + instant crash knowledge for the poolctl control plane (gossip
// membership must *detect* the death before the budgeted rebalancer may
// react to it).
RunResult RunChaos(uint32_t replication, bool continuous) {
  ClusterConfig config;
  config.nodes = 4;
  config.dispatch = Dispatch::kTemplateLocality;
  config.poolmgr.enabled = true;
  config.poolmgr.pool_nodes = kPoolNodes;
  config.poolmgr.replication = replication;
  config.poolctl.enabled = continuous;
  // ~10^5 pages live on the crashed node; size the per-tick budget so the
  // continuous loop restores replication well before trace end.
  config.poolctl.rebalance_budget_pages = 32768;
  config.faults.seed = kSeed;
  config.faults.Add(PoolCrashWindow(SimTime::Zero() + SimDuration::Seconds(45),
                                    SimTime::Zero() + SimDuration::Seconds(46), 1.0,
                                    /*pool_node=*/1,
                                    /*restart_after=*/SimDuration::Seconds(30)));
  Cluster cluster(config);
  if (!cluster.DeployTable4Functions().ok()) {
    return {};
  }
  if (!cluster.Run(SweepWorkload()).ok()) {
    return {};
  }
  return Collect(cluster);
}

struct SweepPoint {
  uint32_t nodes;
  uint32_t replication;
  Dispatch dispatch;
};

int RunBench(bench::BenchEnv& env) {
  std::cout << "=== Pool control plane: nodes x replication x dispatch ===\n";

  std::vector<SweepPoint> points;
  for (const uint32_t nodes : {2u, 4u, 8u}) {
    for (const uint32_t replication : {1u, 2u}) {
      for (const Dispatch dispatch : {Dispatch::kLeastLoaded, Dispatch::kTemplateLocality}) {
        points.push_back({nodes, replication, dispatch});
      }
    }
  }
  const std::vector<RunResult> sweep =
      bench::ParallelSweep(points.size(), env.jobs,
                           [&](size_t i) {
                             return RunScale(points[i].nodes, points[i].replication,
                                             points[i].dispatch);
                           });

  Table table({"Nodes", "Repl", "Dispatch", "Fetch MiB", "Fetch ops", "Coalesced",
               "Hit rate", "Attach p50 ms", "Attach p99 ms", "E2E p99 ms"});
  for (size_t i = 0; i < points.size(); ++i) {
    const RunResult& r = sweep[i];
    if (!r.ok) {
      std::cerr << "sweep run " << i << " failed\n";
      return 1;
    }
    const uint64_t attaches = r.lease_hits + r.lease_misses;
    table.AddRow({std::to_string(points[i].nodes), std::to_string(points[i].replication),
                  DispatchName(points[i].dispatch),
                  Table::Num(static_cast<double>(r.fetch_pages) / kPagesPerMiB, 1),
                  std::to_string(r.fetch_ops), std::to_string(r.coalesced),
                  Table::Num(attaches == 0 ? 0.0
                                           : static_cast<double>(r.lease_hits) /
                                                 static_cast<double>(attaches),
                             3),
                  Table::Num(r.attach_p50_ms, 3), Table::Num(r.attach_p99_ms, 3),
                  Table::Num(r.e2e_p99_ms, 2)});
  }
  table.Print(std::cout);
  std::cout << "Replication changes placement only — lease misses read the primary, so "
               "r=1 and r=2 rows match in steady state.\n\n";

  // The acceptance check: at >= 4 nodes template-locality must pull fewer
  // remote pages AND land a p99 attach no worse than least-loaded.
  bool verdict_ok = true;
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].dispatch != Dispatch::kLeastLoaded || points[i].nodes < 4) {
      continue;
    }
    // The matching locality run is the next point (same nodes/replication).
    const RunResult& least = sweep[i];
    const RunResult& local = sweep[i + 1];
    const bool fewer_bytes = local.fetch_pages < least.fetch_pages;
    const bool p99_no_worse = local.attach_p99_ms <= least.attach_p99_ms;
    std::cout << "n=" << points[i].nodes << " r=" << points[i].replication
              << ": locality fetches " << local.fetch_pages << " pages vs "
              << least.fetch_pages << " (" << (fewer_bytes ? "fewer" : "NOT FEWER")
              << "), attach p99 " << Table::Num(local.attach_p99_ms, 3) << " ms vs "
              << Table::Num(least.attach_p99_ms, 3) << " ms ("
              << (p99_no_worse ? "no worse" : "WORSE") << ")\n";
    verdict_ok = verdict_ok && fewer_bytes && p99_no_worse;
  }
  if (!verdict_ok) {
    std::cerr << "FAIL: template-locality did not beat least-loaded at >= 4 nodes\n";
    return 1;
  }
  std::cout << "\n=== Pool-node crash at t=45s (restart +30s), locality, 4 nodes ===\n";

  struct ChaosPoint {
    uint32_t replication;
    bool continuous;
  };
  const std::vector<ChaosPoint> chaos_points = {{1, false}, {2, false}, {2, true}};
  const std::vector<RunResult> chaos = bench::ParallelSweep(
      chaos_points.size(), env.jobs, [&](size_t i) {
        return RunChaos(chaos_points[i].replication, chaos_points[i].continuous);
      });

  Table crash({"Repl", "Membership", "Accepted", "Completed", "Promotions", "Revoked",
               "Reseeded", "Deaths", "Rejoins", "UnderRepl", "Fetch MiB",
               "Attach p99 ms"});
  for (size_t i = 0; i < chaos.size(); ++i) {
    const RunResult& r = chaos[i];
    if (!r.ok) {
      std::cerr << "chaos run " << i << " failed\n";
      return 1;
    }
    crash.AddRow({std::to_string(chaos_points[i].replication),
                  chaos_points[i].continuous ? "continuous" : "static",
                  std::to_string(r.accepted), std::to_string(r.completed),
                  std::to_string(r.promotions), std::to_string(r.revoked),
                  std::to_string(r.reseeded), std::to_string(r.deaths),
                  std::to_string(r.rejoins), std::to_string(r.under_replicated),
                  Table::Num(static_cast<double>(r.fetch_pages) / kPagesPerMiB, 1),
                  Table::Num(r.attach_p99_ms, 3)});
  }
  crash.Print(std::cout);

  // Zero-loss acceptance: with replication 2, the crash must promote replicas
  // (leases intact) and lose no accepted invocation — whether the control
  // plane knows instantly (static) or has to detect the death via gossip
  // (continuous).
  for (size_t i = 1; i < chaos.size(); ++i) {
    const RunResult& r2 = chaos[i];
    const char* mode = chaos_points[i].continuous ? "continuous" : "static";
    if (r2.accepted != r2.completed) {
      std::cerr << "FAIL: replication-2 " << mode << " crash lost invocations: accepted "
                << r2.accepted << " completed " << r2.completed << "\n";
      return 1;
    }
    if (r2.revoked != 0) {
      std::cerr << "FAIL: replication-2 " << mode << " crash revoked " << r2.revoked
                << " lease(s)\n";
      return 1;
    }
  }
  const RunResult& rc2 = chaos[2];
  if (rc2.deaths == 0 || rc2.rejoins == 0) {
    std::cerr << "FAIL: continuous chaos never declared/rejoined the crashed node "
              << "(deaths=" << rc2.deaths << " rejoins=" << rc2.rejoins << ")\n";
    return 1;
  }
  if (rc2.under_replicated != 0) {
    std::cerr << "FAIL: continuous chaos ended with " << rc2.under_replicated
              << " under-replicated shard(s)\n";
    return 1;
  }
  std::cout << "Replication 2 rides out the crash on promotions alone (0 revocations, "
               "0 lost) under both static and gossip membership; replication 1 pays "
               "revocations + reseeds.\n";

  const std::string json_path = env.ExtraValue("--bench-json=");
  if (json_path.empty()) {
    return 0;
  }
  const std::string label = env.ExtraValue("--bench-label=");
  return bench::AppendJsonRecord(json_path, label, env.jobs, [&](std::ostream& out) {
    bool first = true;
    for (size_t i = 0; i < points.size(); ++i) {
      if (points[i].nodes != 4) {
        continue;  // the trajectory tracks the headline 4-node rows
      }
      const RunResult& r = sweep[i];
      if (!first) {
        out << ",";
      }
      first = false;
      out << "\"poolmgr_scale/"
          << (points[i].dispatch == Dispatch::kTemplateLocality ? "locality"
                                                                : "least_loaded")
          << "_n" << points[i].nodes << "_r" << points[i].replication
          << "\":{\"real_ns\":" << static_cast<uint64_t>(r.attach_p99_ms * 1e6)
          << ",\"fetch_pages\":" << r.fetch_pages << ",\"lease_hits\":" << r.lease_hits
          << ",\"lease_misses\":" << r.lease_misses << "}";
    }
    for (size_t i = 0; i < chaos.size(); ++i) {
      out << ",\"poolmgr_scale/chaos_r" << chaos_points[i].replication
          << (chaos_points[i].continuous ? "_continuous" : "")
          << "\":{\"accepted\":" << chaos[i].accepted
          << ",\"completed\":" << chaos[i].completed
          << ",\"promotions\":" << chaos[i].promotions
          << ",\"revoked\":" << chaos[i].revoked << ",\"reseeded\":" << chaos[i].reseeded;
      if (chaos_points[i].continuous) {
        out << ",\"deaths\":" << chaos[i].deaths << ",\"rejoins\":" << chaos[i].rejoins
            << ",\"under_replicated\":" << chaos[i].under_replicated;
      }
      out << "}";
    }
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
