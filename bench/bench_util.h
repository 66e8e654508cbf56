// Shared helpers for the figure/table reproduction benches.
#ifndef TRENV_BENCH_BENCH_UTIL_H_
#define TRENV_BENCH_BENCH_UTIL_H_

#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/table.h"
#include "src/obs/export.h"
#include "src/platform/cluster.h"
#include "src/obs/trace.h"
#include "src/platform/testbed.h"
#include "src/sim/thread_pool.h"
#include "src/workload/traces.h"

namespace trenv {
namespace bench {

// A bench-specific flag BenchEnv should accept on behalf of the bench:
// `prefix` is matched with rfind (include the '='), `help` is the usage
// string shown in the unknown-flag error alongside the built-in flags.
struct ExtraFlag {
  std::string prefix;  // e.g. "--seeds="
  std::string help;    // e.g. "--seeds=a,b,c"
};

// Observability and concurrency wiring shared by the figure benches:
//   --trace-out=<file>    dump a Chrome trace_event JSON (chrome://tracing,
//                         ui.perfetto.dev) of every platform the bench ran
//   --metrics-out=<file>  dump the process-wide registry in Prometheus text
//   --jobs=N              worker threads for ParallelSweep (default: all
//                         hardware threads); --jobs=1 forces serial sweeps
// With neither output flag the tracer stays disabled and instrumentation
// costs a null check. Unknown flags are an error (exit 2) so typos cannot
// silently run a multi-minute sweep with default settings — and the error
// lists the full set of flags THIS bench accepts, including any ExtraFlags
// the bench registered, so the fix is visible in the failure itself.
struct BenchEnv {
  obs::Tracer tracer;
  std::string trace_out;
  std::string metrics_out;
  unsigned jobs = ThreadPool::DefaultThreads();
  // (prefix, value) for each matched ExtraFlag occurrence, in argv order.
  std::vector<std::pair<std::string, std::string>> extra_args;

  BenchEnv(int argc, char** argv, std::vector<ExtraFlag> extra_flags = {}) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--trace-out=", 0) == 0) {
        trace_out = std::string(arg.substr(12));
      } else if (arg.rfind("--metrics-out=", 0) == 0) {
        metrics_out = std::string(arg.substr(14));
      } else if (arg.rfind("--jobs=", 0) == 0) {
        const int parsed = std::atoi(std::string(arg.substr(7)).c_str());
        if (parsed < 1) {
          std::cerr << "invalid --jobs value: " << arg << " (want an integer >= 1)\n";
          std::exit(2);
        }
        jobs = static_cast<unsigned>(parsed);
      } else {
        bool matched = false;
        for (const ExtraFlag& flag : extra_flags) {
          if (arg.rfind(flag.prefix, 0) == 0) {
            extra_args.emplace_back(flag.prefix, std::string(arg.substr(flag.prefix.size())));
            matched = true;
            break;
          }
        }
        if (!matched) {
          std::string supported = "--trace-out=<file> --metrics-out=<file> --jobs=<n>";
          for (const ExtraFlag& flag : extra_flags) {
            supported += " " + flag.help;
          }
          std::cerr << "unknown flag: " << arg << " (supported: " << supported << ")\n";
          std::exit(2);
        }
      }
    }
    tracer.set_enabled(!trace_out.empty());
  }

  // Last value given for an ExtraFlag prefix, or `fallback` if absent.
  std::string ExtraValue(std::string_view prefix, std::string_view fallback = "") const {
    std::string value(fallback);
    for (const auto& [p, v] : extra_args) {
      if (p == prefix) {
        value = v;
      }
    }
    return value;
  }

  // Handed to PlatformConfig::tracer; null when tracing is off so the
  // instrumented code takes its zero-cost path. Parallel sweep runs must NOT
  // use this shared tracer — they record into a private one (see
  // MakeRunTracer) and merge it back with AbsorbTracer.
  obs::Tracer* tracer_or_null() { return trace_out.empty() ? nullptr : &tracer; }

  bool tracing() const { return !trace_out.empty(); }
  bool wants_output() const { return !trace_out.empty() || !metrics_out.empty(); }

  // A private tracer for one sweep run, enabled iff --trace-out was given;
  // null when tracing is off. The caller keeps it alive until AbsorbTracer.
  std::unique_ptr<obs::Tracer> MakeRunTracer() const {
    if (trace_out.empty()) {
      return nullptr;
    }
    auto run_tracer = std::make_unique<obs::Tracer>();
    run_tracer->set_enabled(true);
    return run_tracer;
  }

  // Merges a per-run tracer into the shared one. Call on the main thread, in
  // config-index order, after the sweep has joined.
  void AbsorbTracer(const obs::Tracer* run_tracer) {
    if (run_tracer != nullptr && tracing()) {
      tracer.MergeFrom(*run_tracer);
    }
  }

  // Folds a platform-owned registry into the process-wide one under
  // `prefix.` — benches that build several short-lived testbeds call this
  // before each testbed dies so Finish() still sees its totals. Call on the
  // main thread only (after parallel sweeps have joined).
  void AbsorbRegistry(std::string_view prefix, const obs::Registry& registry) {
    if (!wants_output()) {
      return;
    }
    obs::Registry& sink = obs::DefaultRegistry();
    for (const auto& [name, counter] : registry.counters()) {
      sink.GetCounter(std::string(prefix) + "." + name)->Add(counter->value());
    }
    for (const auto& [name, gauge] : registry.gauges()) {
      sink.GetGauge(std::string(prefix) + "." + name)->Set(gauge->value());
    }
  }

  // Writes the requested outputs; call once after the bench body. `registry`
  // defaults to the process-wide one (pool/mmt stats of non-testbed setups).
  void Finish(const obs::Registry* registry = nullptr) {
    if (registry == nullptr) {
      registry = &obs::DefaultRegistry();
    }
    if (!trace_out.empty()) {
      const Status status = obs::WriteChromeTraceFile(tracer, trace_out, registry);
      if (status.ok()) {
        std::cout << "trace written to " << trace_out << " (" << tracer.spans().size()
                  << " spans; open in chrome://tracing or ui.perfetto.dev)\n";
      } else {
        std::cerr << "trace export failed: " << status << "\n";
      }
    }
    if (!metrics_out.empty()) {
      const Status status = obs::WritePrometheusFile(*registry, metrics_out);
      if (status.ok()) {
        std::cout << "metrics written to " << metrics_out << "\n";
      } else {
        std::cerr << "metrics export failed: " << status << "\n";
      }
    }
  }
};

// Runs fn(0), ..., fn(count-1) concurrently on up to `jobs` threads and
// returns the results in index order. The sweep body must be self-contained:
// each call builds its own EventScheduler / Testbed / Registry / Tracer and
// must not print or touch process-wide state (stdout, DefaultRegistry, the
// shared BenchEnv tracer) — do all printing and merging from the results
// afterwards, which keeps output and metric order deterministic regardless
// of which run finishes first. With jobs <= 1 the runs execute inline, which
// is also the bitwise reference behavior the parallel path must match.
template <typename Fn>
auto ParallelSweep(size_t count, unsigned jobs, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, size_t>> {
  using Result = std::invoke_result_t<Fn&, size_t>;
  static_assert(std::is_default_constructible_v<Result>,
                "sweep results are slot-assigned and must be default-constructible");
  std::vector<Result> results(count);
  if (count == 0) {
    return results;
  }
  if (jobs <= 1 || count == 1) {
    for (size_t i = 0; i < count; ++i) {
      results[i] = fn(i);
    }
    return results;
  }
  ThreadPool pool(std::min<unsigned>(jobs, static_cast<unsigned>(count)));
  for (size_t i = 0; i < count; ++i) {
    pool.Submit([&results, &fn, i] { results[i] = fn(i); });
  }
  pool.Wait();
  return results;
}

// Container-platform experiment: deploy Table 4, run a warm-up, clear
// metrics, run the measured workload, and return the testbed for inspection.
struct ContainerRunResult {
  std::unique_ptr<Testbed> bed;
  // Peak memory observed during the measured window (bytes).
  uint64_t peak_memory = 0;
};

inline Schedule WarmupSchedule(const std::vector<std::string>& functions) {
  // ~5 minutes of warm-up (paper section 9.1): a burst-scale wave per
  // function so every system reaches its steady state — baselines populate
  // their keep-alive caches (which W1's long gaps then expire), and TrEnv's
  // function-agnostic sandbox pool fills with repurposable sandboxes.
  Schedule warmup;
  int i = 0;
  for (const auto& fn : functions) {
    for (int k = 0; k < 15; ++k) {
      warmup.push_back({SimTime::Zero() + SimDuration::Seconds(20 * (i % 3)) +
                            SimDuration::Millis(150 * k + 17 * i),
                        fn});
    }
    ++i;
  }
  SortSchedule(warmup);
  return warmup;
}

inline ContainerRunResult RunContainerWorkload(SystemKind kind, const Schedule& schedule,
                                               PlatformConfig config,
                                               const std::vector<std::string>& functions) {
  ContainerRunResult result;
  result.bed = std::make_unique<Testbed>(kind, config);
  if (!result.bed->DeployTable4Functions().ok()) {
    std::cerr << "deploy failed for " << SystemName(kind) << "\n";
    return result;
  }
  // Warm-up phase (section 9.1), then clear metrics and shift the measured
  // schedule past the warm-up window.
  Schedule warmup = WarmupSchedule(functions);
  (void)result.bed->platform().Run(warmup);
  result.bed->platform().metrics().Clear();
  // Measurement starts one keep-alive TTL past the warm-up so W1's premise
  // holds (warm instances expired; TrEnv's sandbox pool persists).
  const SimTime measured_start = result.bed->platform().scheduler().now() +
                                 config.keep_alive_ttl + SimDuration::Minutes(2);
  Schedule shifted = schedule;
  for (auto& invocation : shifted) {
    invocation.arrival = measured_start + (invocation.arrival - SimTime::Zero());
  }
  (void)result.bed->platform().Run(shifted);
  result.peak_memory = result.bed->platform().metrics().peak_memory_bytes();
  return result;
}

// Runs a materialized schedule on a cluster, sharded when shards > 1. The
// cluster benches expose this behind a --shards flag: RunSharded with zero
// lookahead is byte-identical to Run(), so every bench report doubles as a
// determinism check for the sharded core.
inline Status RunCluster(Cluster& cluster, const Schedule& schedule, uint32_t shards) {
  if (shards <= 1) {
    return cluster.Run(schedule);
  }
  ScheduleStream stream(schedule);
  ShardedRunOptions options;
  options.shards = shards;
  return cluster.RunSharded(stream, options);
}

// Host metadata stamped into every BENCH_micro.json record so
// tools/check_bench_regression.py can refuse to compare wall-clock numbers
// measured on different machines (different core counts or compilers make
// the ratio meaningless).
inline std::string CompilerVersionString() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." + std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

inline std::string HostJson(unsigned jobs) {
  return "{\"jobs\":" + std::to_string(jobs) +
         ",\"cores\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":\"" + CompilerVersionString() + "\"}";
}

inline std::string UtcNow() {
  char buf[32];
  const std::time_t t = std::time(nullptr);
  std::tm tm_utc{};
  gmtime_r(&t, &tm_utc);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

// Appends one JSON-lines record to `path`:
//   {"utc":...,"label":...,"host":HostJson(jobs),"benchmarks":{...}}
// where `write_entries(out)` streams the comma-separated benchmark entries.
// Confirms on `log` (stderr for benches whose stdout is a fingerprint) and
// returns 0, or reports the failure on stderr and returns 1 — the bench's
// exit status either way.
template <typename WriteEntries>
int AppendJsonRecord(const std::string& path, std::string_view label, unsigned jobs,
                     WriteEntries&& write_entries, std::ostream& log = std::cout) {
  std::ofstream out(path, std::ios::app);
  if (out) {
    out << "{\"utc\":\"" << UtcNow() << "\",\"label\":\"" << obs::JsonEscape(label)
        << "\",\"host\":" << HostJson(jobs) << ",\"benchmarks\":{";
    write_entries(out);
    out << "}}\n";
  }
  if (!out) {
    std::cerr << "failed to append record to " << path << "\n";
    return 1;
  }
  log << "appended record to " << path << "\n";
  return 0;
}

inline std::vector<std::string> Table4Names() {
  std::vector<std::string> names;
  for (const auto& fn : Table4Functions()) {
    names.push_back(fn.name);
  }
  return names;
}

}  // namespace bench
}  // namespace trenv

#endif  // TRENV_BENCH_BENCH_UTIL_H_
