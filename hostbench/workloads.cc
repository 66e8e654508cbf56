#include "hostbench/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <type_traits>

#include "src/fault/fault_schedule.h"
#include "src/platform/cluster.h"
#include "src/platform/testbed.h"
#include "src/runtime/function_profile.h"
#include "src/workload/arrival.h"
#include "src/workload/arrival_stream.h"

namespace hostbench {
namespace {

using trenv::Cluster;
using trenv::ClusterConfig;
using trenv::Invocation;
using trenv::ServerlessPlatform;
using trenv::SimDuration;
using trenv::SimTime;
using trenv::Status;

constexpr SimDuration kSlice = SimDuration::Seconds(1);

// Times each simulated second from the benchmark's own calls. Cross(t) is
// called just before the simulator is advanced to t: at that moment it has
// finished everything before the previous arrival, so every slice boundary
// at or before t closes now. Boundaries crossed at once (a second with no
// arrivals) share the elapsed time evenly. Only boundary crossings read the
// clock.
class SliceClock {
 public:
  explicit SliceClock(std::vector<double>* out) : out_(out) {}

  void Start(SimTime first_arrival) {
    last_ns_ = NowNs();
    next_ = SimTime((first_arrival.nanos() / kSlice.nanos() + 1) * kSlice.nanos());
  }
  bool Due(SimTime t) const { return t >= next_; }
  SimTime boundary() const { return next_; }
  // Closes exactly one slice (the caller advanced the simulator to it).
  void Tick() {
    const int64_t now = NowNs();
    out_->push_back(static_cast<double>(now - last_ns_) / 1e6);
    last_ns_ = now;
    next_ += kSlice;
  }
  // Closes every slice whose boundary is at or before t.
  void Cross(SimTime t) {
    if (t < next_) {
      return;
    }
    const int64_t crossed = (t - next_).nanos() / kSlice.nanos() + 1;
    const int64_t now = NowNs();
    const double each = static_cast<double>(now - last_ns_) / 1e6 / static_cast<double>(crossed);
    for (int64_t i = 0; i < crossed; ++i) {
      out_->push_back(each);
    }
    last_ns_ = now;
    next_ += kSlice * crossed;
  }

 private:
  std::vector<double>* out_;
  int64_t last_ns_ = 0;
  SimTime next_;
};

// Marks the setup -> run transition at the first arrival handed over.
class Phases {
 public:
  Phases(const EpisodeOptions& options, HostTrace& trace, Episode& out)
      : options_(options), trace_(trace), out_(out) {
    setup_ = trace_.Begin(Site::kSetup);
  }
  bool started() const { return started_; }
  void StartRun() {
    out_.first_submit_ns = NowNs();
    if (options_.on_first_arrival != nullptr) {
      options_.on_first_arrival(out_.first_submit_ns);
    }
    out_.rss_after_setup_bytes = CurrentRssBytes();
    trace_.End(Site::kSetup, setup_);
    run_ = trace_.Begin(Site::kRun);
    started_ = true;
  }
  void StartDrain() { drain_ = trace_.Begin(Site::kDrain); }
  void EndRun() {
    trace_.End(Site::kDrain, drain_);
    out_.run_end_ns = NowNs();
    out_.rss_after_run_bytes = CurrentRssBytes();
    trace_.End(Site::kRun, run_);
  }

 private:
  const EpisodeOptions& options_;
  HostTrace& trace_;
  Episode& out_;
  HostTrace::Token setup_;
  HostTrace::Token run_;
  HostTrace::Token drain_;
  bool started_ = false;
};

// The per-arrival call sites, timed into the trace's layer totals.
template <typename Fn>
auto Timed(HostTrace& trace, Site site, Fn&& fn) {
  const HostTrace::Token token = trace.BeginCall(site);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    trace.End(site, token);
  } else {
    auto result = fn();
    trace.End(site, token);
    return result;
  }
}

// ArrivalStream wrapper handed to Cluster::RunSharded: times every pull,
// marks the phase transitions and closes slices as the trace crosses them.
class TimedStream final : public trenv::ArrivalStream {
 public:
  TimedStream(trenv::ArrivalStream& inner, HostTrace& trace, Phases& phases, SliceClock& slices,
              Episode& out)
      : inner_(inner), trace_(trace), phases_(phases), slices_(slices), out_(out) {}

  std::optional<Invocation> Next() override {
    if (!phases_.started()) {
      phases_.StartRun();
    }
    std::optional<Invocation> inv = Timed(trace_, Site::kNext, [&] { return inner_.Next(); });
    if (inv.has_value()) {
      ++out_.arrivals;
      if (out_.arrivals == 1) {
        slices_.Start(inv->arrival);
      } else {
        slices_.Cross(inv->arrival);
      }
    } else if (!exhausted_) {
      exhausted_ = true;
      phases_.StartDrain();
    }
    return inv;
  }

 private:
  trenv::ArrivalStream& inner_;
  HostTrace& trace_;
  Phases& phases_;
  SliceClock& slices_;
  Episode& out_;
  bool exhausted_ = false;
};

// --------------------------------------------------------------- outcome

double SumCounter(const std::vector<const trenv::obs::Registry*>& registries,
                  std::string_view name) {
  double total = 0;
  for (const trenv::obs::Registry* registry : registries) {
    if (const trenv::obs::Counter* c = registry->FindCounter(name)) {
      total += c->value();
    }
  }
  return total;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void AppendF(std::string& out, const char* fmt, auto... args) {
  char buf[512];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n > 0) {
    out.append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

// Everything the simulated run produced that later work must not change:
// per-function start mix, acceptance and completion, frame and pool byte
// peaks, and every model counter and gauge. Histogram percentiles and event
// counts are left out on purpose (their implementations may change).
struct Outcome {
  std::vector<ServerlessPlatform*> nodes;
  // Cluster registry first (if any), then one per node.
  std::vector<const trenv::obs::Registry*> registries;
  trenv::PoolManager* pool_mgr = nullptr;
  uint64_t pool_bytes_after_deploy = 0;
  uint64_t pool_bytes_end = 0;
  uint32_t max_attempts = 0;
};

void Collect(const Outcome& o, const char* workload, const EpisodeOptions& options,
             Episode& out) {
  std::string& d = out.digest_text;
  AppendF(d, "workload=%s seed=%" PRIu64 "\n", workload, options.seed);
  AppendF(d, "arrivals=%" PRIu64 " accepted=%" PRIu64 " refused=%" PRIu64 "\n", out.arrivals,
          out.accepted, out.refused);
  auto& c = out.counts;
  double warm = 0, rep = 0, cold = 0, parked_peak = 0, hits = 0, misses = 0, frames_peak = 0;
  double attach_p99 = 0;
  out.completed = 0;
  out.node_failed = 0;
  out.events = 0;
  for (size_t i = 0; i < o.nodes.size(); ++i) {
    ServerlessPlatform& node = *o.nodes[i];
    AppendF(d, "node %zu failed=%" PRIu64 " frames_peak=%" PRIu64 " mem_peak=%" PRIu64 "\n", i,
            node.failed_invocations(), node.frames().peak_used_bytes(),
            node.metrics().peak_memory_bytes());
    for (const auto& [fn, m] : node.metrics().per_function()) {
      AppendF(d, " fn %s inv=%" PRIu64 " warm=%" PRIu64 " rep=%" PRIu64 " cold=%" PRIu64 "\n",
              fn.c_str(), m.invocations, m.warm_starts, m.repurposed_starts, m.cold_starts);
      out.completed += m.invocations;
      warm += static_cast<double>(m.warm_starts);
      rep += static_cast<double>(m.repurposed_starts);
      cold += static_cast<double>(m.cold_starts);
    }
    out.node_failed += node.failed_invocations();
    out.events += node.scheduler().executed_count();
    parked_peak += static_cast<double>(node.keep_alive().peak_size());
    hits += static_cast<double>(node.keep_alive().warm_hits());
    misses += static_cast<double>(node.keep_alive().warm_misses());
    frames_peak += static_cast<double>(node.frames().peak_used_bytes());
    if (!node.density().attach_ms().empty()) {
      attach_p99 = std::max(attach_p99, node.density().attach_ms().P99());
    }
  }
  AppendF(d, "completed=%" PRIu64 " pool_after_deploy=%" PRIu64 " pool_end=%" PRIu64 "\n",
          out.completed, o.pool_bytes_after_deploy, o.pool_bytes_end);
  for (size_t r = 0; r < o.registries.size(); ++r) {
    for (const auto& [name, counter] : o.registries[r]->counters()) {
      AppendF(d, "reg %zu ctr %s=%.17g\n", r, name.c_str(), counter->value());
    }
    for (const auto& [name, gauge] : o.registries[r]->gauges()) {
      AppendF(d, "reg %zu gauge %s=%.17g max=%.17g\n", r, name.c_str(), gauge->value(),
              gauge->max());
    }
  }
  if (o.pool_mgr != nullptr) {
    out.events += o.pool_mgr->clock().executed_count();
  }

  const auto& regs = o.registries;
  c["workload.arrivals"] = static_cast<double>(out.arrivals);
  c["platform.warm_starts"] = warm;
  c["platform.repurposed_starts"] = rep;
  c["platform.cold_starts"] = cold;
  c["platform.keepalive_peak_parked"] = parked_peak;
  c["platform.keepalive_hit_ratio"] = Ratio(hits, hits + misses);
  c["sim.events"] = static_cast<double>(out.events);
  c["sim.epochs"] = static_cast<double>(out.epochs);
  c["sim.density_attach_p99_ms"] = attach_p99;
  c["simkernel.faults_minor"] = SumCounter(regs, "faults.minor");
  c["simkernel.faults_major"] = SumCounter(regs, "faults.major");
  c["simkernel.faults_cow"] = SumCounter(regs, "faults.cow");
  c["simkernel.fetch_bytes"] = SumCounter(regs, "fetch.bytes");
  c["simkernel.frames_peak_bytes"] = frames_peak;
  c["mempool.cxl_fetch_ops"] = SumCounter(regs, "pool.cxl-mhd.fetch_ops");
  c["mempool.cxl_fetch_pages"] = SumCounter(regs, "pool.cxl-mhd.fetch_pages");
  c["mempool.rdma_fetch_ops"] = SumCounter(regs, "pool.rdma.fetch_ops");
  c["mempool.rdma_fetch_pages"] = SumCounter(regs, "pool.rdma.fetch_pages");
  c["mempool.pool_bytes"] = static_cast<double>(o.pool_bytes_end);
  c["mmtemplate.attach_calls"] = SumCounter(regs, "mmt.attach_calls");
  c["mmtemplate.attached_pages"] = SumCounter(regs, "mmt.attached_pages");
  c["density.demotions"] = SumCounter(regs, "density.demotions");
  c["density.promotions"] = SumCounter(regs, "density.promotions");
  c["density.demoted_pages"] = SumCounter(regs, "density.demoted_pages");
  c["density.promoted_pages"] = SumCounter(regs, "density.promoted_pages");
  c["poolmgr.attaches"] = SumCounter(regs, "poolmgr.attaches");
  const double lease_hits = SumCounter(regs, "poolmgr.lease_hits");
  c["poolmgr.lease_hit_ratio"] =
      Ratio(lease_hits, lease_hits + SumCounter(regs, "poolmgr.lease_misses"));
  c["poolmgr.remote_fetch_pages"] = SumCounter(regs, "poolmgr.remote_fetch_pages");
  c["poolmgr.coalesced_requests"] = SumCounter(regs, "poolmgr.coalesced_requests");
  c["poolmgr.rebalance_moves"] = SumCounter(regs, "poolmgr.rebalance_moves");
  c["poolmgr.dead_read_hops"] = SumCounter(regs, "poolmgr.dead_read_hops");
  c["poolmgr.nas_fallback_pages"] = SumCounter(regs, "poolmgr.nas_fallback_pages");
  c["poolctl.heartbeats"] = SumCounter(regs, "poolctl.heartbeats");
  c["poolctl.rebalance_ticks"] = SumCounter(regs, "poolctl.rebalance_ticks");
  c["poolctl.rebalance_pages"] = SumCounter(regs, "poolctl.rebalance_pages");
  c["poolctl.deaths"] = SumCounter(regs, "poolctl.deaths");
  c["poolctl.false_suspicions"] = SumCounter(regs, "poolctl.false_suspicions");
  const double retries = SumCounter(regs, "fault.retries");
  const double exhausted = SumCounter(regs, "fault.exhausted_fetches");
  c["fault.injected"] = SumCounter(regs, "fault.injected");
  c["fault.retries"] = retries;
  c["fault.exhausted_fetches"] = exhausted;
  // An exhausted fetch wasted at most max_attempts - 1 retries, so this is
  // a lower bound on the share of retries that preceded a delivery.
  c["fault.retry_useful_ratio"] =
      retries > 0 ? std::max(0.0, retries - exhausted * (o.max_attempts - 1.0)) / retries : 0.0;
}

// Feeds one arrival through the stepping calls of a cluster: node-level
// fault events due at or before it first, then the clocks, then Submit.
// This is Cluster::Run's loop body, made of public calls.
struct ClusterStepper {
  Cluster& cluster;
  HostTrace& trace;
  Episode& out;
  std::vector<trenv::FaultInjector::NodeEvent> plan;
  size_t next_event = 0;

  void ApplyDue(SimTime t) {
    while (next_event < plan.size() && plan[next_event].time <= t) {
      Advance(plan[next_event].time);
      Timed(trace, Site::kFaultApply, [&] { cluster.ApplyFaultEvent(plan[next_event]); });
      ++next_event;
    }
  }
  void Advance(SimTime t) {
    Timed(trace, Site::kAdvance, [&] { cluster.AdvanceClocksTo(t); });
  }
  void Feed(const Invocation& inv) {
    ApplyDue(inv.arrival);
    Advance(inv.arrival);
    const Status status =
        Timed(trace, Site::kSubmit, [&] { return cluster.Submit(inv.arrival, inv.function); });
    ++(status.ok() ? out.accepted : out.refused);
  }
  void Finish() { ApplyDue(SimTime::Max()); }
};

Outcome ClusterOutcome(Cluster& cluster, uint64_t pool_after_deploy) {
  Outcome o;
  o.registries.push_back(&cluster.registry());
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    o.nodes.push_back(&cluster.node(i));
    o.registries.push_back(&cluster.node(i).metrics().registry());
  }
  o.pool_mgr = cluster.pool_manager();
  o.pool_bytes_after_deploy = pool_after_deploy;
  o.pool_bytes_end = cluster.PoolBytes();
  if (const trenv::FaultInjector* injector = cluster.fault_injector()) {
    o.max_attempts = injector->retry_policy().max_attempts;
  }
  return o;
}

// ------------------------------------------------------------ rack_stream
//
// Per-invocation hot path: an 8-node rack, least-loaded dispatch, a 2 s
// keep-alive TTL (restores stay frequent), 400/s Poisson over five Table-4
// functions, streamed through RunSharded at one shard and zero lookahead.

const std::vector<std::string> kRackFunctions = {"JS", "DH", "IR", "CR", "PR"};
constexpr double kRackRate = 400.0;
constexpr SimDuration kRackDuration = SimDuration::Seconds(1200);

Status RunRackStream(const EpisodeOptions& options, HostTrace& trace, Episode& out) {
  Phases phases(options, trace, out);
  ClusterConfig config;
  config.nodes = 8;
  config.dispatch = ClusterConfig::Dispatch::kLeastLoaded;
  config.node_config.keep_alive_ttl = SimDuration::Seconds(2);
  Cluster cluster(config);
  {
    Scope deploy(trace, Site::kDeploy);
    TRENV_RETURN_IF_ERROR(cluster.DeployTable4Functions());
  }
  const uint64_t pool_after_deploy = cluster.PoolBytes();
  trenv::Rng rng(options.seed);
  trenv::PoissonArrivalStream stream(kRackFunctions, kRackRate, kRackDuration, 0.7, &rng);
  SliceClock slices(&out.slice_ms);
  if (options.path == Path::kMonolithic) {
    trenv::Schedule schedule = trenv::CollectAll(stream);
    out.arrivals = schedule.size();
    phases.StartRun();
    TRENV_RETURN_IF_ERROR(cluster.Run(schedule));
    phases.StartDrain();
  } else {
    TimedStream timed(stream, trace, phases, slices, out);
    trenv::ShardedRunOptions sharded;
    sharded.shards = 1;
    TRENV_RETURN_IF_ERROR(cluster.RunSharded(timed, sharded));
    out.epochs = cluster.sharded_epochs();
    out.barrier_wait_s = cluster.sharded_barrier_wait_seconds();
  }
  phases.EndRun();
  Scope report(trace, Site::kReport);
  // RunSharded and Run both reject on the first refused Submit, so every
  // generated arrival was accepted once they return ok.
  out.accepted = cluster.accepted_invocations();
  out.refused = out.arrivals - std::min(out.arrivals, out.accepted);
  Collect(ClusterOutcome(cluster, pool_after_deploy), "rack_stream", options, out);
  return trenv::Status::Ok();
}

// ------------------------------------------------------------- dense_node
//
// peak_density's "TrEnv density" row: one T-CXL node with density tiering
// (2 GiB soft cap, overcommit 16) over 8,192 Table-4 clones and a clumped
// diurnal trace whose keep-alive TTL outlives the trace.

constexpr uint32_t kDenseCatalog = 8192;
constexpr SimDuration kDenseDuration = SimDuration::Minutes(30);

std::vector<trenv::FunctionProfile> SyntheticCatalog(uint32_t count) {
  const std::vector<trenv::FunctionProfile> base = trenv::Table4Functions();
  std::vector<trenv::FunctionProfile> catalog;
  catalog.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    trenv::FunctionProfile profile = base[i % base.size()];
    char tag[16];
    std::snprintf(tag, sizeof(tag), "f%04u-", i);
    profile.content_tag = profile.name;
    profile.name = tag + profile.name;
    catalog.push_back(std::move(profile));
  }
  return catalog;
}

Status RunDenseNode(const EpisodeOptions& options, HostTrace& trace, Episode& out) {
  Phases phases(options, trace, out);
  trenv::PlatformConfig config;
  config.soft_mem_cap_bytes = 2 * trenv::kGiB;
  config.keep_alive_ttl = kDenseDuration + SimDuration::Minutes(10);
  config.density.enabled = true;
  config.density.sweep_interval = SimDuration::Seconds(5);
  config.density.demote_hot_after = SimDuration::Seconds(15);
  config.density.demote_warm_after = SimDuration::Minutes(8);
  config.density.overcommit_factor = 16.0;
  trenv::Testbed bed(trenv::SystemKind::kTrEnvCxl, config);
  ServerlessPlatform& platform = bed.platform();
  const std::vector<trenv::FunctionProfile> catalog = SyntheticCatalog(kDenseCatalog);
  {
    Scope deploy(trace, Site::kDeploy);
    for (const trenv::FunctionProfile& profile : catalog) {
      bed.sandbox_pool().RegisterFunctionLayer(
          profile.name, std::make_shared<trenv::FsLayer>(profile.name + "-deps"));
      TRENV_RETURN_IF_ERROR(platform.Deploy(profile));
    }
  }
  const uint64_t pool_after_deploy = bed.cxl().used_bytes();
  trenv::Schedule schedule;
  {
    Scope gen(trace, Site::kTraceGen);
    std::vector<std::string> names;
    names.reserve(catalog.size());
    for (const trenv::FunctionProfile& profile : catalog) {
      names.push_back(profile.name);
    }
    trenv::Rng rng(options.seed ^ 0xd377);
    trenv::DiurnalOptions diurnal;
    diurnal.duration = kDenseDuration;
    diurnal.peak_rate_per_sec = 8.0;
    diurnal.trough_rate_per_sec = 1.0;
    diurnal.cycles = 2;
    diurnal.function_skew = 0.3;
    diurnal.clump_probability = 0.3;
    diurnal.clump_size = 16;
    schedule = trenv::MakeDiurnalWorkload(names, diurnal, rng);
  }
  out.arrivals = schedule.size();
  SliceClock slices(&out.slice_ms);
  trenv::EventScheduler& clock = platform.scheduler();
  if (options.path == Path::kMonolithic) {
    phases.StartRun();
    TRENV_RETURN_IF_ERROR(platform.Run(schedule));
    phases.StartDrain();
    out.accepted = out.arrivals;  // Run rejects on the first refused Submit
  } else {
    for (const Invocation& inv : schedule) {
      if (!phases.started()) {
        phases.StartRun();
        slices.Start(inv.arrival);
      }
      // Splitting RunUntil at slice boundaries runs the same events in the
      // same order: one scheduler, nothing submitted in between.
      while (slices.Due(inv.arrival)) {
        Timed(trace, Site::kAdvance, [&] { clock.RunUntil(slices.boundary()); });
        slices.Tick();
      }
      Timed(trace, Site::kAdvance, [&] { clock.RunUntil(inv.arrival); });
      const Status status =
          Timed(trace, Site::kSubmit, [&] { return platform.Submit(inv.arrival, inv.function); });
      ++(status.ok() ? out.accepted : out.refused);
    }
    phases.StartDrain();
    platform.RunToCompletion();
  }
  phases.EndRun();
  Scope report(trace, Site::kReport);
  Outcome o;
  o.nodes.push_back(&platform);
  o.registries.push_back(&platform.metrics().registry());
  o.pool_bytes_after_deploy = pool_after_deploy;
  o.pool_bytes_end = bed.cxl().used_bytes();
  Collect(o, "dense_node", options, out);
  return trenv::Status::Ok();
}

// ------------------------------------------------------------- pool_churn
//
// The pool control plane under recurring churn: an 8-worker rack with
// template-locality dispatch, poolmgr over 32 pool nodes at replication 2,
// continuous poolctl, and a fault schedule that repeats every two simulated
// minutes (a rolling restart wave, a long outage, two RDMA flap storms).
// 400/s Poisson over four Table-4 functions.

const std::vector<std::string> kChurnFunctions = {"JS", "DH", "IR", "CR"};
constexpr double kChurnRate = 400.0;
constexpr SimDuration kChurnDuration = SimDuration::Minutes(20);
constexpr SimDuration kChurnCycle = SimDuration::Seconds(120);
constexpr uint32_t kChurnPoolNodes = 32;

SimTime At(SimDuration offset, double seconds) {
  return SimTime::Zero() + offset + SimDuration::FromSecondsF(seconds);
}

trenv::FaultSchedule ChurnFaults() {
  trenv::FaultSchedule faults;
  faults.seed = 42;  // fixed: the workload seed drives arrivals only
  uint32_t cycle = 0;
  for (SimDuration base; base < kChurnDuration; base += kChurnCycle, ++cycle) {
    // Rolling restarts: every 4th pool node (offset by cycle) dies 3 s
    // after the previous one and returns 15 s later.
    uint32_t wave = 0;
    for (uint32_t node = cycle % 4; node < kChurnPoolNodes; node += 4, ++wave) {
      const SimTime start = At(base, 10.0 + 3.0 * wave);
      faults.Add(trenv::PoolCrashWindow(start, start + SimDuration::Seconds(1), 1.0, node,
                                        SimDuration::Seconds(15)));
    }
    // A long outage of a node outside this cycle's wave.
    const uint32_t outage = (cycle % 4 + 1 + 4 * (cycle % 8)) % kChurnPoolNodes;
    faults.Add(trenv::PoolCrashWindow(At(base, 70.0), At(base, 71.0), 1.0, outage,
                                      SimDuration::Seconds(45)));
    // Flap storms eat heartbeats and fail fetch attempts.
    faults.Add(trenv::LinkFaultWindow(trenv::FaultDomain::kRdmaFlap, At(base, 30.0),
                                      At(base, 34.0), 0.7));
    faults.Add(trenv::LinkFaultWindow(trenv::FaultDomain::kRdmaFlap, At(base, 95.0),
                                      At(base, 98.0), 0.5));
  }
  return faults;
}

Status RunPoolChurn(const EpisodeOptions& options, HostTrace& trace, Episode& out) {
  Phases phases(options, trace, out);
  ClusterConfig config;
  config.nodes = 8;
  config.dispatch = ClusterConfig::Dispatch::kTemplateLocality;
  config.poolmgr.enabled = true;
  config.poolmgr.pool_nodes = kChurnPoolNodes;
  config.poolmgr.replication = 2;
  config.poolctl.enabled = true;
  config.poolctl.rebalance_budget_pages = 32768;
  config.faults = ChurnFaults();
  Cluster cluster(config);
  {
    Scope deploy(trace, Site::kDeploy);
    TRENV_RETURN_IF_ERROR(cluster.DeployTable4Functions());
  }
  const uint64_t pool_after_deploy = cluster.PoolBytes();
  trenv::Rng rng(options.seed ^ 0x9001);
  trenv::PoissonArrivalStream stream(kChurnFunctions, kChurnRate, kChurnDuration, 0.3, &rng);
  SliceClock slices(&out.slice_ms);
  if (options.path == Path::kMonolithic) {
    phases.StartRun();
    TRENV_RETURN_IF_ERROR(cluster.RunSharded(stream));
    phases.StartDrain();
    // RunSharded rejects on the first refused Submit: every arrival was
    // accepted once it returns ok.
    out.arrivals = out.accepted = cluster.accepted_invocations();
  } else {
    ClusterStepper stepper{cluster, trace, out, cluster.PlanFaultEvents()};
    for (;;) {
      const std::optional<Invocation> inv =
          Timed(trace, Site::kNext, [&] { return stream.Next(); });
      if (!inv.has_value()) {
        break;
      }
      ++out.arrivals;
      if (!phases.started()) {
        phases.StartRun();
        slices.Start(inv->arrival);
      } else {
        slices.Cross(inv->arrival);
      }
      stepper.Feed(*inv);
    }
    stepper.Finish();
    phases.StartDrain();
    cluster.DrainAll();
    if (out.accepted != cluster.accepted_invocations()) {
      return Status(trenv::StatusCode::kInternal,
                    "benchmark and cluster disagree on accepted invocations");
    }
  }
  phases.EndRun();
  Scope report(trace, Site::kReport);
  Collect(ClusterOutcome(cluster, pool_after_deploy), "pool_churn", options, out);
  return trenv::Status::Ok();
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = {
      {"rack_stream", RunRackStream},
      {"dense_node", RunDenseNode},
      {"pool_churn", RunPoolChurn},
  };
  return kAll;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

uint64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) : 0;
}

std::string DigestHex(std::string_view text) {
  uint64_t h = 1469598103934665603ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

}  // namespace hostbench
