// Stateful pipelines over the shared-state data plane (fig. 27): end-to-end
// latency and handoff traffic for N-stage chains and fan-out/fan-in DAGs
// under three payload data planes.
//
//   trenv-shared   payloads live in writable pool regions (src/shstate/);
//                  chain edges hand off by ownership transfer (metadata-only
//                  unless the region migrates between pool homes), fan-out
//                  consumers read straight from the pool through leased
//                  reader mappings, fan-in writes revoke them.
//   copy-worker    every edge serializes the payload out of the producer
//                  sandbox and into the consumer sandbox over the worker
//                  NICs: two full crossings per edge.
//   nas-roundtrip  every edge persists to NAS and reads back: two crossings
//                  at NAS bandwidth.
//
// "Handoff MiB" counts fabric bytes moved to pass payloads between stages.
// For trenv-shared that is pool-to-pool migrations only — owner stores and
// reader loads ride the memory-attached CXL path, reported separately as
// pool-write / refetch traffic. The sweep crosses nodes {2,4,8} x shape
// {chain4, fan4} x data plane; all three planes run the identical arrival
// schedule per cell.
//
// Checked claims (exit 1 on violation):
//   * every accepted stage invocation completes and every job finishes;
//   * at >= 4 nodes the 4-stage chain moves >= 5x fewer handoff bytes under
//     trenv-shared than copy-worker;
//   * crash drill: a worker node dies mid-run while owning live regions;
//     lease-based recovery (vacant ownership re-acquired from the durable
//     pool copy) completes every accepted invocation with zero loss and
//     at least one ownership recovery.
//
// Flags:
//   --jobs=N            sweep threads; the report is byte-identical at any N
//   --shards=N          accepted for CI parity; the pipeline driver
//                       interleaves its own action queue with the cluster
//                       clocks and always runs the sequential core, so the
//                       report is byte-identical at any value
//   --bench-json=PATH   append a JSON-lines record to the BENCH trajectory
//   --bench-label=TEXT  label stored in the JSON record
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/units.h"
#include "src/fault/fault_schedule.h"
#include "src/platform/cluster.h"
#include "src/shstate/pipeline_driver.h"
#include "src/workload/pipeline.h"

namespace trenv {
namespace {

constexpr uint64_t kSeed = 27;
constexpr uint64_t kPayloadPages = 256;  // 1 MiB per edge
constexpr uint32_t kJobsPerRun = 48;
constexpr double kJobRatePerSec = 30.0;

enum class Shape : uint8_t { kChain4, kFan4 };

const char* ShapeName(Shape shape) { return shape == Shape::kChain4 ? "chain4" : "fan4"; }

PipelineSpec MakeSpec(Shape shape) {
  const std::vector<std::string> functions = {"JS", "DH", "IR", "CR"};
  return shape == Shape::kChain4 ? MakeChainPipeline(4, kPayloadPages, functions)
                                 : MakeFanOutFanInPipeline(4, kPayloadPages, functions);
}

struct RunResult {
  bool ok = false;
  uint64_t accepted = 0;
  uint64_t stages_completed = 0;
  uint64_t jobs_completed = 0;
  uint64_t handoff_bytes = 0;
  uint64_t pool_write_bytes = 0;
  uint64_t refetch_bytes = 0;
  uint64_t transfers = 0;
  uint64_t migrations = 0;
  uint64_t invalidations = 0;
  uint64_t recoveries = 0;
  double job_p50_ms = 0;
  double job_p99_ms = 0;
};

RunResult Collect(const Cluster& cluster, const PipelineDriver& driver, uint32_t jobs) {
  const PipelineRunStats& s = driver.stats();
  RunResult r;
  r.ok = s.jobs_completed == jobs;
  r.accepted = cluster.accepted_invocations();
  r.stages_completed = s.stages_completed;
  r.jobs_completed = s.jobs_completed;
  r.handoff_bytes = s.handoff_bytes;
  r.pool_write_bytes = s.pool_write_bytes;
  r.refetch_bytes = s.refetch_bytes;
  r.transfers = s.transfers;
  r.migrations = s.migrations;
  r.invalidations = s.invalidations;
  r.recoveries = s.ownership_recoveries;
  if (!s.job_latency_ms.empty()) {
    r.job_p50_ms = s.job_latency_ms.Median();
    r.job_p99_ms = s.job_latency_ms.P99();
  }
  return r;
}

// All three data planes of one (nodes, shape) cell run this exact schedule:
// the seed ignores the mode, so the comparison isolates the data plane.
std::vector<SimTime> CellArrivals(uint32_t nodes, Shape shape, uint32_t jobs) {
  Rng rng(kSeed ^ (uint64_t{nodes} * 1315423911ULL) ^
          (shape == Shape::kChain4 ? 0x11ULL : 0x22ULL));
  return MakePipelineArrivals(jobs, kJobRatePerSec, rng);
}

RunResult RunPipeline(uint32_t nodes, Shape shape, DataPlaneMode mode) {
  ClusterConfig config;
  config.nodes = nodes;
  config.shstate.enabled = mode == DataPlaneMode::kTrEnvShared;
  Cluster cluster(config);
  if (!cluster.DeployTable4Functions().ok()) {
    return {};
  }
  PipelineDriverConfig driver_config;
  driver_config.mode = mode;
  PipelineDriver driver(&cluster, driver_config);
  if (!driver.Run(MakeSpec(shape), CellArrivals(nodes, shape, kJobsPerRun)).ok()) {
    return {};
  }
  return Collect(cluster, driver, kJobsPerRun);
}

// Crash drill: node 1 dies at t=1s (restarting 5 s later) on a 4-node rack
// running the trenv-shared chain. Jobs placed round-robin keep node 1 owning
// live regions at the crash; its in-flight stages re-dispatch to survivors
// and re-acquire the vacant ownership from the durable pool copy.
RunResult RunCrashDrill() {
  ClusterConfig config;
  config.nodes = 4;
  config.shstate.enabled = true;
  config.faults.seed = kSeed;
  config.faults.Add(NodeCrashWindow(SimTime::Zero() + SimDuration::Millis(1000),
                                    SimTime::Zero() + SimDuration::Millis(1200),
                                    /*probability=*/1.0, /*node=*/1,
                                    /*restart_after=*/SimDuration::Seconds(5)));
  Cluster cluster(config);
  if (!cluster.DeployTable4Functions().ok()) {
    return {};
  }
  PipelineDriverConfig driver_config;
  driver_config.mode = DataPlaneMode::kTrEnvShared;
  PipelineDriver driver(&cluster, driver_config);
  if (!driver.Run(MakeSpec(Shape::kChain4), CellArrivals(4, Shape::kChain4, kJobsPerRun))
           .ok()) {
    return {};
  }
  return Collect(cluster, driver, kJobsPerRun);
}

double ToMiB(uint64_t bytes) { return static_cast<double>(bytes) / static_cast<double>(kMiB); }

struct SweepPoint {
  uint32_t nodes;
  Shape shape;
  DataPlaneMode mode;
};

int RunBench(bench::BenchEnv& env) {
  // Accepted for CI flag parity with the other cluster benches; the driver
  // path has no sharded core, so the value never influences the report.
  (void)env.ExtraValue("--shards=", "1");
  std::cout << "=== Stateful pipelines: nodes x shape x data plane ===\n";

  std::vector<SweepPoint> points;
  for (const uint32_t nodes : {2u, 4u, 8u}) {
    for (const Shape shape : {Shape::kChain4, Shape::kFan4}) {
      for (const DataPlaneMode mode :
           {DataPlaneMode::kTrEnvShared, DataPlaneMode::kCopyThroughWorker,
            DataPlaneMode::kNasRoundtrip}) {
        points.push_back({nodes, shape, mode});
      }
    }
  }
  const std::vector<RunResult> sweep = bench::ParallelSweep(
      points.size(), env.jobs,
      [&](size_t i) { return RunPipeline(points[i].nodes, points[i].shape, points[i].mode); });

  Table table({"Nodes", "Shape", "Plane", "Handoff MiB", "Pool-write MiB", "Refetch MiB",
               "Transfers", "Migr", "Inval", "Job p50 ms", "Job p99 ms"});
  bool all_complete = true;
  for (size_t i = 0; i < points.size(); ++i) {
    const RunResult& r = sweep[i];
    if (!r.ok) {
      std::cerr << "sweep run " << i << " failed\n";
      return 1;
    }
    all_complete = all_complete && r.accepted == r.stages_completed &&
                   r.jobs_completed == kJobsPerRun;
    table.AddRow({std::to_string(points[i].nodes), ShapeName(points[i].shape),
                  DataPlaneModeName(points[i].mode), Table::Num(ToMiB(r.handoff_bytes), 1),
                  Table::Num(ToMiB(r.pool_write_bytes), 1),
                  Table::Num(ToMiB(r.refetch_bytes), 1), std::to_string(r.transfers),
                  std::to_string(r.migrations), std::to_string(r.invalidations),
                  Table::Num(r.job_p50_ms, 2), Table::Num(r.job_p99_ms, 2)});
  }
  table.Print(std::cout);
  std::cout << "Handoff MiB counts fabric crossings only: trenv-shared keeps payloads in "
               "the pool (CXL stores/loads are the pool-write/refetch columns).\n\n";
  if (!all_complete) {
    std::cerr << "FAIL: a sweep run lost stage invocations or left jobs unfinished\n";
    return 1;
  }

  // Headline gate: at >= 4 nodes the 4-stage chain must move >= 5x fewer
  // handoff bytes under trenv-shared than under copy-through-worker.
  bool verdict_ok = true;
  for (size_t i = 0; i < points.size(); ++i) {
    if (points[i].mode != DataPlaneMode::kTrEnvShared || points[i].shape != Shape::kChain4 ||
        points[i].nodes < 4) {
      continue;
    }
    const RunResult& shared = sweep[i];
    const RunResult& copy = sweep[i + 1];  // same cell, copy-worker plane
    const bool five_x =
        copy.handoff_bytes > 0 && copy.handoff_bytes >= 5 * shared.handoff_bytes;
    std::cout << "n=" << points[i].nodes << " chain4: trenv-shared moved "
              << Table::Num(ToMiB(shared.handoff_bytes), 1) << " MiB vs copy-worker "
              << Table::Num(ToMiB(copy.handoff_bytes), 1) << " MiB ("
              << (five_x ? ">= 5x fewer" : "LESS THAN 5x") << ")\n";
    verdict_ok = verdict_ok && five_x;
  }
  if (!verdict_ok) {
    std::cerr << "FAIL: trenv-shared did not move >= 5x fewer handoff bytes on the "
                 "4-stage chain at >= 4 nodes\n";
    return 1;
  }

  std::cout << "\n=== Region-owner crash at t=1s (restart +5s), trenv-shared chain4, "
               "4 nodes ===\n";
  const std::vector<RunResult> drill =
      bench::ParallelSweep(1, env.jobs, [&](size_t) { return RunCrashDrill(); });
  const RunResult& crash = drill[0];
  if (!crash.ok) {
    std::cerr << "crash drill run failed\n";
    return 1;
  }
  Table crash_table({"Accepted", "Stages done", "Jobs done", "Recoveries", "Inval",
                     "Handoff MiB", "Job p99 ms"});
  crash_table.AddRow({std::to_string(crash.accepted), std::to_string(crash.stages_completed),
                      std::to_string(crash.jobs_completed), std::to_string(crash.recoveries),
                      std::to_string(crash.invalidations),
                      Table::Num(ToMiB(crash.handoff_bytes), 1),
                      Table::Num(crash.job_p99_ms, 2)});
  crash_table.Print(std::cout);
  if (crash.accepted != crash.stages_completed || crash.jobs_completed != kJobsPerRun) {
    std::cerr << "FAIL: crash drill lost invocations: accepted " << crash.accepted
              << " completed " << crash.stages_completed << " jobs " << crash.jobs_completed
              << "/" << kJobsPerRun << "\n";
    return 1;
  }
  if (crash.recoveries == 0) {
    std::cerr << "FAIL: crash drill exercised no ownership recovery\n";
    return 1;
  }
  std::cout << "Crash drill: every accepted invocation completed (" << crash.recoveries
            << " vacant-ownership recoveries from the durable pool copy).\n";

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
      out << "\"fig27_stateful_pipeline/" << ShapeName(points[i].shape) << "_"
          << DataPlaneModeName(points[i].mode)
          << "\":{\"real_ns\":" << static_cast<uint64_t>(r.job_p99_ms * 1e6)
          << ",\"handoff_bytes\":" << r.handoff_bytes
          << ",\"pool_write_bytes\":" << r.pool_write_bytes
          << ",\"migrations\":" << r.migrations << "}";
    }
    out << ",\"fig27_stateful_pipeline/crash_drill\":{\"accepted\":" << crash.accepted
        << ",\"completed\":" << crash.stages_completed
        << ",\"recoveries\":" << crash.recoveries << "}";
  });
}

}  // namespace
}  // namespace trenv

int main(int argc, char** argv) {
  trenv::bench::BenchEnv env(argc, argv,
                             {{"--bench-json=", "--bench-json=<file>"},
                              {"--bench-label=", "--bench-label=<text>"},
                              {"--shards=", "--shards=<n>"}});
  const int rc = trenv::RunBench(env);
  env.Finish();
  return rc;
}
