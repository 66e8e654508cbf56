// hostbench_driver: runs one episode of one workload and prints one JSON
// record on stdout. hostbench/run.py starts it repeatedly, one process per
// episode, and aggregates the records.
//
//   hostbench_driver --workload NAME --seed N --trace 0|1 [--spans-out PATH]
//   hostbench_driver --setup-only --workload NAME --seed N
//   hostbench_driver --selfcheck --workload NAME --seed N
//
// An episode builds the simulated system, generates the seeded trace,
// feeds it through the stepping calls, drains, and collects the outcome.
// Set-up is timed from process start to the first arrival handed over.
// With --trace 1 the episode also records spans around the benchmark's
// calls into each layer and reports per-layer host times.
//
// --setup-only is a set-up probe: it prints {"setup_s": ...} and exits as
// the first arrival is handed over.
//
// --selfcheck runs the workload once through the stepping calls and once
// through the simulator's own one-call entry point, prints the stepped
// outcome with both digests, and exits 1 unless the digests match.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "hostbench/trace.h"
#include "hostbench/workloads.h"

namespace hostbench {
namespace {

// Captured during static initialization, before main: set-up counts from
// here.
const int64_t kProcessStartNs = NowNs();

// One per-arrival call in this many is kept as a span.
constexpr uint32_t kSpanSampleEvery = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string spans_out;
  bool setup_only = false;
  bool selfcheck = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      args.selfcheck = true;
      continue;
    }
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (FindWorkload(args.workload) == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s' (rack_stream|dense_node|pool_churn)\n",
                 args.workload.c_str());
    return false;
  }
  return true;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Mib(double bytes) { return bytes / (1024.0 * 1024.0); }

[[noreturn]] void ReportSetupAndExit(int64_t now_ns) {
  std::printf("{\"setup_s\":%.17g}\n", Seconds(now_ns - kProcessStartNs));
  std::fflush(stdout);
  std::_Exit(0);
}

// One record field; numbers keep all their digits.
void Field(std::string& out, const char* name, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s\"%s\":%.17g", out.back() == '{' ? "" : ",", name, value);
  out += buf;
}

std::string HostJson() {
  std::string cpu = "unknown";
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) == 0) {
        const char* colon = std::strchr(line, ':');
        cpu = colon != nullptr ? colon + 2 : line;
        cpu.erase(cpu.find_last_not_of(" \n") + 1);
        break;
      }
    }
    std::fclose(f);
  }
  for (char& ch : cpu) {
    if (ch == '"' || ch == '\\') {
      ch = ' ';
    }
  }
  return std::string("{\"nproc\":") + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"cpu\":\"" + cpu + "\",\"compiler\":\"" HOSTBENCH_COMPILER
         "\",\"build_type\":\"" HOSTBENCH_BUILD_TYPE "\"}";
}

// The record's identity and simulated-outcome fields, shared by both modes.
std::string RecordHead(const Args& args, const Workload& workload, const Episode& episode) {
  const uint64_t lost = episode.accepted - std::min(episode.accepted, episode.completed);
  const uint64_t failed = episode.refused + lost;
  std::string r = "{\"workload\":\"" + std::string(workload.name) + "\"";
  r += ",\"seed\":" + std::to_string(args.seed);
  r += ",\"host\":" + HostJson();
  r += ",\"digest\":\"" + DigestHex(episode.digest_text) + "\"";
  r += ",\"sim\":{";
  Field(r, "arrivals", static_cast<double>(episode.arrivals));
  Field(r, "accepted", static_cast<double>(episode.accepted));
  Field(r, "refused", static_cast<double>(episode.refused));
  Field(r, "completed", static_cast<double>(episode.completed));
  Field(r, "lost", static_cast<double>(lost));
  Field(r, "node_failed", static_cast<double>(episode.node_failed));
  Field(r, "failed", static_cast<double>(failed));
  Field(r, "failed_frac",
        episode.arrivals > 0
            ? static_cast<double>(failed) / static_cast<double>(episode.arrivals)
            : 1.0);
  r += "}";
  return r;
}

int SelfCheck(const Args& args, const Workload& workload) {
  Episode episodes[2];
  const Path paths[2] = {Path::kStepped, Path::kMonolithic};
  for (int i = 0; i < 2; ++i) {
    HostTrace trace(false, 1, 0);
    const trenv::Status status =
        workload.run(EpisodeOptions{args.seed, paths[i]}, trace, episodes[i]);
    if (!status.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", workload.name, status.ToString().c_str());
      return 1;
    }
  }
  const std::string stepped = DigestHex(episodes[0].digest_text);
  const std::string monolithic = DigestHex(episodes[1].digest_text);
  std::printf("%s,\"monolithic\":\"%s\",\"equal\":%s}\n",
              RecordHead(args, workload, episodes[0]).c_str(), monolithic.c_str(),
              stepped == monolithic ? "true" : "false");
  return stepped == monolithic ? 0 : 1;
}

int Run(const Args& args, const Workload& workload) {
  HostTrace trace(args.trace, kSpanSampleEvery, static_cast<uint32_t>(getpid()));
  EpisodeOptions options{args.seed, Path::kStepped};
  if (args.setup_only) {
    options.on_first_arrival = ReportSetupAndExit;
  }
  Episode episode;
  trenv::Status status;
  {
    Scope episode_span(trace, Site::kEpisode);
    status = workload.run(options, trace, episode);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", workload.name, status.ToString().c_str());
    return 1;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double run_s = Seconds(episode.run_end_ns - episode.first_submit_ns);

  std::string r = RecordHead(args, workload, episode);
  r += std::string(",\"trace\":") + (args.trace ? "1" : "0");
  r += ",\"e2e\":{";
  Field(r, "setup_s", Seconds(episode.first_submit_ns - kProcessStartNs));
  Field(r, "run_s", run_s);
  Field(r, "sim_inv_per_s", static_cast<double>(episode.completed) / run_s);
  Field(r, "peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0);
  r += "},\"slices_ms\":[";
  for (size_t i = 0; i < episode.slice_ms.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", episode.slice_ms[i]);
    r += buf;
  }
  r += "],\"layers\":{";
  for (const auto& [name, value] : episode.counts) {
    Field(r, name.c_str(), value);
  }
  const auto site = [&](Site s) { return Seconds(trace.total_ns(s)); };
  Field(r, "workload.gen_s", site(Site::kTraceGen) + site(Site::kNext));
  Field(r, "platform.deploy_s", site(Site::kDeploy));
  Field(r, "platform.submit_s", site(Site::kSubmit));
  Field(r, "platform.report_s", site(Site::kReport));
  Field(r, "fault.apply_s", site(Site::kFaultApply));
  Field(r, "sim.drain_s", site(Site::kDrain));
  // The run phase minus everything the benchmark timed separately: the
  // clock advances (or, under RunSharded, its epochs, dispatch and submits).
  Field(r, "sim.advance_s",
        std::max(0.0, site(Site::kRun) - site(Site::kNext) - site(Site::kSubmit) -
                          site(Site::kFaultApply) - site(Site::kDrain)));
  Field(r, "sim.barrier_wait_s", episode.barrier_wait_s);
  Field(r, "sim.host_ns_per_event",
        episode.events > 0 ? run_s * 1e9 / static_cast<double>(episode.events) : 0.0);
  Field(r, "common.rss_after_setup_mib",
        Mib(static_cast<double>(episode.rss_after_setup_bytes)));
  Field(r, "common.rss_growth_b_per_inv",
        episode.completed > 0 ? (static_cast<double>(episode.rss_after_run_bytes) -
                                 static_cast<double>(episode.rss_after_setup_bytes)) /
                                    static_cast<double>(episode.completed)
                              : 0.0);
  Field(r, "trace.spans", static_cast<double>(trace.spans().size()));
  r += "}}";
  std::printf("%s\n", r.c_str());

  if (!args.spans_out.empty() && !trace.WriteSpans(args.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  hostbench::Args args;
  if (!hostbench::ParseArgs(argc, argv, args)) {
    return 2;
  }
  const hostbench::Workload& workload = *hostbench::FindWorkload(args.workload);
  return args.selfcheck ? hostbench::SelfCheck(args, workload) : hostbench::Run(args, workload);
}
