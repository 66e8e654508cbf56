// Ablation: rack-level cross-node sharing (paper sections 5.1 and 8.2).
// Scales a TrEnv cluster from 1 to 12 nodes (one CXL MHD port each) and
// measures where the memory lives: one pool copy per rack plus thin
// per-node CoW state, versus the per-node-everything world of the
// baselines (modelled as nodes x a standalone CRIU testbed). The CRIU
// baseline and the five cluster sizes are six independent simulations
// (each Cluster owns its stats registry), run as one ParallelSweep.
//
// A second section turns the pool control plane on: the dedup'd template
// chunks become consistent-hash shards across 4 pool nodes, and the table
// shows how evenly the ring spreads them (primary min..max per pool node)
// and how much attach traffic each dispatch policy actually pulls.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench/bench_util.h"
#include "src/platform/cluster.h"

namespace trenv {
namespace {

const uint32_t kNodeCounts[] = {1u, 2u, 4u, 8u, 12u};

struct RackRow {
  double pool_gib = 0;
  double dram_gib = 0;
  double dedup_ratio = 0;
  bool ok = false;
  // On failure: the cluster's error, which names the rejecting node.
  std::string error;
};

// Baseline: what N independent CRIU nodes would hold for the same load
// (each node keeps full per-instance images locally).
double CriuNodePeakGib() {
  Testbed bed(SystemKind::kCriu);
  (void)bed.DeployTable4Functions();
  Schedule schedule;
  for (int i = 0; i < 8; ++i) {
    schedule.push_back({SimTime::Zero() + SimDuration::Millis(i * 5), i % 2 ? "IR" : "JS"});
  }
  (void)bed.platform().Run(schedule);
  return static_cast<double>(bed.platform().metrics().peak_memory_bytes()) /
         static_cast<double>(kGiB);
}

// Every node serves the same mix concurrently.
Schedule ClusterSchedule(uint32_t nodes) {
  Schedule schedule;
  for (uint32_t n = 0; n < nodes; ++n) {
    for (int i = 0; i < 8; ++i) {
      schedule.push_back(
          {SimTime::Zero() + SimDuration::Millis(n * 40 + i * 5), i % 2 ? "IR" : "JS"});
    }
  }
  SortSchedule(schedule);
  return schedule;
}

RackRow RunRack(uint32_t nodes) {
  RackRow row;
  ClusterConfig config;
  config.nodes = nodes;
  Cluster cluster(config);
  if (const Status status = cluster.DeployTable4Functions(); !status.ok()) {
    row.error = status.message();
    return row;
  }
  if (const Status status = cluster.Run(ClusterSchedule(nodes)); !status.ok()) {
    row.error = status.message();
    return row;
  }
  uint64_t dram_peak = 0;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    dram_peak += cluster.node(i).metrics().peak_memory_bytes();
  }
  row.pool_gib = static_cast<double>(cluster.PoolBytes()) / static_cast<double>(kGiB);
  row.dram_gib = static_cast<double>(dram_peak) / static_cast<double>(kGiB);
  row.dedup_ratio = cluster.dedup().DedupRatio();
  row.ok = true;
  return row;
}

// One poolmgr-enabled run: where the ring put the shards and what the
// dispatch policy pulled over the NICs for the same workload.
struct PoolRow {
  bool ok = false;
  std::string error;
  size_t shards = 0;
  double stored_mib = 0;       // primaries + replicas across all pool nodes
  double primary_min_mib = 0;  // least-loaded pool node, by primary pages
  double primary_max_mib = 0;  // most-loaded pool node, by primary pages
  double fetch_mib = 0;
  uint64_t lease_hits = 0;
  uint64_t lease_misses = 0;
};

constexpr double kPagesPerMiB = 256.0;  // 4 KiB pages

PoolRow RunPoolCluster(uint32_t nodes, ClusterConfig::Dispatch dispatch) {
  PoolRow row;
  ClusterConfig config;
  config.nodes = nodes;
  config.dispatch = dispatch;
  config.poolmgr.enabled = true;
  Cluster cluster(config);
  if (const Status status = cluster.DeployTable4Functions(); !status.ok()) {
    row.error = status.message();
    return row;
  }
  if (const Status status = cluster.Run(ClusterSchedule(nodes)); !status.ok()) {
    row.error = status.message();
    return row;
  }
  const PoolManager& mgr = *cluster.pool_manager();
  row.shards = mgr.shard_count();
  const std::vector<uint64_t> stored = mgr.ShardPagesPerNode();
  const std::vector<uint64_t> primary = mgr.PrimaryPagesPerNode();
  row.stored_mib = static_cast<double>(std::accumulate(stored.begin(), stored.end(),
                                                       uint64_t{0})) /
                   kPagesPerMiB;
  const auto [min_it, max_it] = std::minmax_element(primary.begin(), primary.end());
  row.primary_min_mib = static_cast<double>(*min_it) / kPagesPerMiB;
  row.primary_max_mib = static_cast<double>(*max_it) / kPagesPerMiB;
  row.fetch_mib = static_cast<double>(mgr.remote_fetch_pages()) / kPagesPerMiB;
  row.lease_hits = mgr.lease_hits();
  row.lease_misses = mgr.lease_misses();
  row.ok = true;
  return row;
}

void Run(bench::BenchEnv& env) {
  PrintBanner(std::cout, "Ablation: rack-level sharing across nodes (GiB)");

  // Slot 0 is the CRIU baseline; slots 1..N are the cluster sizes.
  double criu_node_peak = 0;
  std::vector<RackRow> rows =
      bench::ParallelSweep(1 + std::size(kNodeCounts), env.jobs, [&](size_t idx) {
        if (idx == 0) {
          RackRow row;
          row.pool_gib = CriuNodePeakGib();
          row.ok = true;
          return row;
        }
        return RunRack(kNodeCounts[idx - 1]);
      });
  criu_node_peak = rows[0].pool_gib;

  Table table({"Nodes", "Pool copy", "Node DRAM (sum)", "Rack total", "CRIU rack equiv",
               "saving", "dedup ratio"});
  for (size_t i = 0; i < std::size(kNodeCounts); ++i) {
    const uint32_t nodes = kNodeCounts[i];
    const RackRow& row = rows[1 + i];
    if (!row.ok) {
      std::cerr << "cluster run failed for " << nodes << " nodes: " << row.error << "\n";
      return;
    }
    const double rack = row.pool_gib + row.dram_gib;
    const double criu_rack = criu_node_peak * nodes;
    table.AddRow({std::to_string(nodes), Table::Num(row.pool_gib, 2),
                  Table::Num(row.dram_gib, 2), Table::Num(rack, 2), Table::Num(criu_rack, 2),
                  Table::Pct(1.0 - rack / criu_rack), Table::Num(row.dedup_ratio, 3)});
  }
  table.Print(std::cout);
  std::cout << "Paper reference (8.2): read-only state needs one copy per rack; memory "
               "cost shrinks by roughly the machine count (~10x at rack scale).\n\n";

  PrintBanner(std::cout, "Pool control plane: shard placement and attach traffic (MiB)");
  const uint32_t kPoolNodeCounts[] = {4u, 8u};
  const ClusterConfig::Dispatch kPolicies[] = {ClusterConfig::Dispatch::kLeastLoaded,
                                               ClusterConfig::Dispatch::kTemplateLocality};
  const std::vector<PoolRow> pool_rows = bench::ParallelSweep(
      std::size(kPoolNodeCounts) * std::size(kPolicies), env.jobs, [&](size_t idx) {
        return RunPoolCluster(kPoolNodeCounts[idx / std::size(kPolicies)],
                              kPolicies[idx % std::size(kPolicies)]);
      });
  Table pool_table({"Nodes", "Dispatch", "Shards", "Stored", "Primary min..max",
                    "Fetched", "Lease hits", "Lease misses"});
  for (size_t i = 0; i < pool_rows.size(); ++i) {
    const PoolRow& row = pool_rows[i];
    const uint32_t nodes = kPoolNodeCounts[i / std::size(kPolicies)];
    const bool locality = kPolicies[i % std::size(kPolicies)] ==
                          ClusterConfig::Dispatch::kTemplateLocality;
    if (!row.ok) {
      std::cerr << "pool cluster run failed for " << nodes << " nodes: " << row.error
                << "\n";
      return;
    }
    pool_table.AddRow({std::to_string(nodes), locality ? "locality" : "least-loaded",
                       std::to_string(row.shards), Table::Num(row.stored_mib, 1),
                       Table::Num(row.primary_min_mib, 1) + ".." +
                           Table::Num(row.primary_max_mib, 1),
                       Table::Num(row.fetch_mib, 1), std::to_string(row.lease_hits),
                       std::to_string(row.lease_misses)});
  }
  pool_table.Print(std::cout);
  std::cout << "Shard placement is pure consistent hashing (dispatch-independent); the "
               "dispatch policy only decides how often workers must pull them.\n";
}

}  // namespace
}  // namespace trenv

int main(int argc, char** argv) {
  trenv::bench::BenchEnv env(argc, argv);
  trenv::Run(env);
  env.Finish();
  return 0;
}
