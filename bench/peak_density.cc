// Peak warm-environment density under an attach-latency SLO (the tentpole
// claim of the density tiering subsystem).
//
// One node, a diurnal W2 trace over a large synthetic function catalog
// (Table-4 profiles cloned under unique names, so every clone carries its
// own code/heap pages while libc/runtime pages dedup across the catalog).
// The node's soft memory cap models the DRAM a keep-alive pool may burn.
//
// Four systems, identical trace:
//   CRIU keep-alive    — full-RSS warm instances under the binary cap: the
//                        classic density wall (each warm env costs its RSS).
//   REAP+ keep-alive   — lazy working-set restores, same binary cap.
//   T-CXL keep-alive   — TrEnv instances (lazy, template-backed) but with
//                        the binary cap: over budget -> evict, cold start.
//                        This is the strongest non-density baseline and the
//                        one the >=5x gate compares against.
//   TrEnv density      — the tiering loop: idle instances demote
//                        DRAM-hot -> CXL-warm -> NAS-cold, freeing frames
//                        while keeping the environment warm; re-invocation
//                        re-maps the swap block (mapping metadata only, the
//                        attach latency the SLO gates) and the bulk fetch is
//                        billed to the next execution as demand faults.
//
// Acceptance (exit 1 on failure):
//   * density holds >= 5x the warm environments of the best binary-cap
//     baseline (peak simultaneously-parked instances),
//   * its warm-attach p99 stays under --slo-ms (15 ms default),
//   * it completes every accepted invocation, and
//   * byte-identical output at any --jobs.
//
// Flags (beyond the shared --jobs/--trace-out/--metrics-out):
//   --functions=N     synthetic catalog size (default 1024)
//   --minutes=M       trace duration (default 30)
//   --peak-rate=R     diurnal peak arrivals/s (default 24)
//   --slo-ms=S        warm-attach p99 SLO (default 15)
//   --overcommit=F    parked-footprint ceiling as a multiple of the cap
//   --bench-json=PATH append a JSON-lines record to the BENCH trajectory
//   --bench-label=TXT label stored in the JSON record
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace trenv {
namespace {

constexpr uint64_t kSeed = 42;
constexpr uint64_t kSoftCap = 2 * kGiB;  // DRAM budget for warm environments

struct Scale {
  uint32_t functions = 8192;
  double minutes = 30;
  // Clumped diurnal arrivals multiply the base rate ~5.8x (p=0.3, size 16),
  // so 8/s peak means ~45/s effective at the crest of the cycle.
  double peak_rate = 8.0;
  double slo_ms = 15.0;
  double overcommit = 16.0;
};

struct SystemSpec {
  const char* label;
  SystemKind kind;
  bool density;
};

const SystemSpec kSystems[] = {
    {"CRIU keep-alive", SystemKind::kCriu, false},
    {"REAP+ keep-alive", SystemKind::kReapPlus, false},
    {"T-CXL keep-alive", SystemKind::kTrEnvCxl, false},
    {"TrEnv density", SystemKind::kTrEnvCxl, true},
};
constexpr size_t kDensityRow = 3;

// Table-4 profiles cloned round-robin under unique tenant names: "f0017-JS"
// runs JS's layout/exec model and keeps its own private runtime state, but
// declares its image byte-identical to the base function (content_tag), the
// multi-tenant shape where the dedup store collapses the catalog's template
// pages to ten stored images.
std::vector<FunctionProfile> SyntheticCatalog(uint32_t count) {
  const std::vector<FunctionProfile> base = Table4Functions();
  std::vector<FunctionProfile> catalog;
  catalog.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    FunctionProfile profile = base[i % base.size()];
    char tag[16];
    std::snprintf(tag, sizeof(tag), "f%04u-", i);
    profile.content_tag = profile.name;
    profile.name = tag + profile.name;
    catalog.push_back(std::move(profile));
  }
  return catalog;
}

Schedule DiurnalTrace(const std::vector<std::string>& names, const Scale& scale) {
  Rng rng(kSeed ^ 0xd377);
  DiurnalOptions options;
  options.duration = SimDuration::Millis(static_cast<int64_t>(scale.minutes * 60e3));
  options.peak_rate_per_sec = scale.peak_rate;
  options.trough_rate_per_sec = scale.peak_rate / 8.0;
  options.cycles = 2;
  options.function_skew = 0.3;  // spread warmth across the catalog
  // Fan-out clumps drive per-function concurrency: each parked environment a
  // burst leaves behind is one more warm env the node must hold.
  options.clump_probability = 0.3;
  options.clump_size = 16;
  return MakeDiurnalWorkload(names, options, rng);
}

struct RunResult {
  bool ok = false;
  uint64_t invocations = 0;
  uint64_t warm_starts = 0;
  uint64_t cold_starts = 0;
  uint64_t repurposed_starts = 0;
  uint64_t failed = 0;
  uint64_t peak_warm_envs = 0;
  uint64_t peak_frames_bytes = 0;
  uint64_t parked_footprint_bytes = 0;
  uint64_t demotions = 0;
  uint64_t promotions = 0;
  double tier_peak[kDensityTierCount] = {0, 0, 0};
  double attach_p50_ms = 0;
  double attach_p99_ms = 0;
  double e2e_p99_ms = 0;
};

RunResult RunSystem(const SystemSpec& spec, const Scale& scale,
                    const std::vector<FunctionProfile>& catalog,
                    const Schedule& schedule) {
  PlatformConfig config;
  config.soft_mem_cap_bytes = kSoftCap;
  // Warmth is bounded by memory, not by the clock: the TTL outlives the
  // trace so every eviction in the table is the cap (or ceiling) speaking.
  config.keep_alive_ttl =
      SimDuration::Millis(static_cast<int64_t>(scale.minutes * 60e3)) +
      SimDuration::Minutes(10);
  config.density.enabled = spec.density;
  // Aggressive hot aging: the faster a hot env sheds its frames, the more
  // envs fit under the ceiling; what it costs is visible in the attach
  // column. Warm->cold is left to capacity (the CXL-full cascade): an env
  // idle through a diurnal trough (~2-3 min) is still likely to be re-
  // attached at the next crest, so it must not sink to NAS on age alone.
  config.density.sweep_interval = SimDuration::Seconds(5);
  config.density.demote_hot_after = SimDuration::Seconds(15);
  config.density.demote_warm_after = SimDuration::Minutes(8);
  config.density.overcommit_factor = scale.overcommit;
  Testbed bed(spec.kind, config);
  for (const FunctionProfile& profile : catalog) {
    bed.sandbox_pool().RegisterFunctionLayer(
        profile.name, std::make_shared<FsLayer>(profile.name + "-deps"));
    if (!bed.platform().Deploy(profile).ok()) {
      return {};
    }
  }
  if (!bed.platform().Run(schedule).ok()) {
    return {};
  }

  RunResult r;
  r.ok = true;
  for (const auto& [name, m] : bed.platform().metrics().per_function()) {
    r.invocations += m.invocations;
    r.warm_starts += m.warm_starts;
    r.cold_starts += m.cold_starts;
    r.repurposed_starts += m.repurposed_starts;
    r.e2e_p99_ms = std::max(r.e2e_p99_ms, m.e2e_ms.P99());
  }
  r.failed = bed.platform().failed_invocations();
  r.peak_warm_envs = bed.platform().keep_alive().peak_size();
  r.peak_frames_bytes = bed.platform().metrics().peak_memory_bytes();
  r.parked_footprint_bytes = bed.platform().keep_alive().peak_footprint_bytes();
  const DensityManager& density = bed.platform().density();
  r.demotions = density.demotions();
  r.promotions = density.promotions();
  for (size_t t = 0; t < kDensityTierCount; ++t) {
    r.tier_peak[t] = density.tier_timeline(static_cast<DensityTier>(t)).peak();
  }
  if (!density.attach_ms().empty()) {
    r.attach_p50_ms = density.attach_ms().Median();
    r.attach_p99_ms = density.attach_ms().P99();
  }
  return r;
}

int RunBench(bench::BenchEnv& env, const Scale& scale) {
  PrintBanner(std::cout, "Peak warm-environment density @ attach-latency SLO");
  std::cout << "catalog " << scale.functions << " functions, diurnal "
            << Table::Num(scale.minutes, 0) << " min trace (peak "
            << Table::Num(scale.peak_rate, 1) << "/s), soft cap "
            << FormatBytes(kSoftCap) << ", overcommit "
            << Table::Num(scale.overcommit, 0) << "x, SLO p99 <= "
            << Table::Num(scale.slo_ms, 1) << " ms\n\n";

  const std::vector<FunctionProfile> catalog = SyntheticCatalog(scale.functions);
  std::vector<std::string> names;
  names.reserve(catalog.size());
  for (const FunctionProfile& profile : catalog) {
    names.push_back(profile.name);
  }
  const Schedule schedule = DiurnalTrace(names, scale);

  const std::vector<RunResult> sweep =
      bench::ParallelSweep(std::size(kSystems), env.jobs, [&](size_t i) {
        return RunSystem(kSystems[i], scale, catalog, schedule);
      });

  Table table({"System", "Peak warm envs", "Warm", "Repurp", "Cold", "Attach p50 ms",
               "Attach p99 ms", "Peak mem", "Peak parked fp"});
  for (size_t i = 0; i < std::size(kSystems); ++i) {
    const RunResult& r = sweep[i];
    if (!r.ok) {
      std::cerr << "run failed for " << kSystems[i].label << "\n";
      return 1;
    }
    table.AddRow({kSystems[i].label, std::to_string(r.peak_warm_envs),
                  std::to_string(r.warm_starts), std::to_string(r.repurposed_starts),
                  std::to_string(r.cold_starts),
                  Table::Num(r.attach_p50_ms, 3), Table::Num(r.attach_p99_ms, 3),
                  FormatBytes(r.peak_frames_bytes),
                  FormatBytes(r.parked_footprint_bytes)});
  }
  table.Print(std::cout);

  const RunResult& density = sweep[kDensityRow];
  std::cout << "\nTier residency peaks: dram_hot "
            << Table::Num(density.tier_peak[0], 0) << ", cxl_warm "
            << Table::Num(density.tier_peak[1], 0) << ", nas_cold "
            << Table::Num(density.tier_peak[2], 0) << " envs; "
            << density.demotions << " demotions / " << density.promotions
            << " promotions over the trace.\n";

  // The binary-cap baseline is the comparison that matters: T-CXL already
  // shares template pages, so beating CRIU alone would be a strawman.
  uint64_t baseline = 0;
  for (size_t i = 0; i < kDensityRow; ++i) {
    baseline = std::max(baseline, sweep[i].peak_warm_envs);
  }
  const double ratio = baseline == 0
                           ? 0.0
                           : static_cast<double>(density.peak_warm_envs) /
                                 static_cast<double>(baseline);
  std::cout << "Density holds " << density.peak_warm_envs
            << " warm environments vs " << baseline
            << " for the best binary-cap baseline (" << Table::Num(ratio, 1)
            << "x) at attach p99 " << Table::Num(density.attach_p99_ms, 3)
            << " ms.\n";
  if (density.peak_warm_envs >= 10000) {
    std::cout << "Headline: 10k+ warm environments on one node.\n";
  }

  bool ok = true;
  if (ratio < 5.0) {
    std::cerr << "FAIL: density holds only " << Table::Num(ratio, 1)
              << "x the baseline's warm environments (need >= 5x)\n";
    ok = false;
  }
  if (density.attach_p99_ms > scale.slo_ms) {
    std::cerr << "FAIL: attach p99 " << Table::Num(density.attach_p99_ms, 3)
              << " ms breaks the " << Table::Num(scale.slo_ms, 1) << " ms SLO\n";
    ok = false;
  }
  if (density.failed != 0 || density.invocations != sweep[kDensityRow - 1].invocations) {
    std::cerr << "FAIL: density run dropped work (" << density.failed
              << " failed, " << density.invocations << " vs "
              << sweep[0].invocations << " completed)\n";
    ok = false;
  }
  if (!ok) {
    return 1;
  }

  const std::string json_path = env.ExtraValue("--bench-json=");
  if (json_path.empty()) {
    return 0;
  }
  const std::string label = env.ExtraValue("--bench-label=");
  return bench::AppendJsonRecord(json_path, label, env.jobs, [&](std::ostream& out) {
    out << "\"peak_density/warm_envs\":{\"value\":" << density.peak_warm_envs
        << ",\"direction\":\"higher_is_better\"},"
        << "\"peak_density/warm_envs_baseline\":{\"value\":" << baseline
        << ",\"direction\":\"higher_is_better\"},"
        << "\"peak_density/attach_p99\":{\"real_ns\":"
        << static_cast<uint64_t>(density.attach_p99_ms * 1e6)
        << ",\"promotions\":" << density.promotions
        << ",\"demotions\":" << density.demotions << "}";
  });
}

}  // namespace
}  // namespace trenv

int main(int argc, char** argv) {
  std::vector<trenv::bench::ExtraFlag> flags = {
      {"--functions=", "--functions=<n>"}, {"--minutes=", "--minutes=<m>"},
      {"--peak-rate=", "--peak-rate=<r>"}, {"--slo-ms=", "--slo-ms=<ms>"},
      {"--overcommit=", "--overcommit=<f>"}, {"--bench-json=", "--bench-json=<path>"},
      {"--bench-label=", "--bench-label=<text>"}};
  trenv::bench::BenchEnv env(argc, argv, flags);
  trenv::Scale scale;
  if (const std::string v = env.ExtraValue("--functions="); !v.empty()) {
    scale.functions = static_cast<uint32_t>(std::atoi(v.c_str()));
  }
  if (const std::string v = env.ExtraValue("--minutes="); !v.empty()) {
    scale.minutes = std::atof(v.c_str());
  }
  if (const std::string v = env.ExtraValue("--peak-rate="); !v.empty()) {
    scale.peak_rate = std::atof(v.c_str());
  }
  if (const std::string v = env.ExtraValue("--slo-ms="); !v.empty()) {
    scale.slo_ms = std::atof(v.c_str());
  }
  if (const std::string v = env.ExtraValue("--overcommit="); !v.empty()) {
    scale.overcommit = std::atof(v.c_str());
  }
  const int rc = trenv::RunBench(env, scale);
  env.Finish();
  return rc;
}
