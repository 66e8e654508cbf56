#include "src/platform/platform.h"

#include <algorithm>

#include "src/common/log.h"

namespace trenv {

ServerlessPlatform::ServerlessPlatform(PlatformConfig config, RestoreEngine* engine,
                                       const BackendRegistry* backends)
    : config_(config),
      engine_(engine),
      backends_(backends),
      cpu_(&scheduler_, config.cores),
      frames_(config.dram_bytes),
      keep_alive_(config.keep_alive_ttl,
                  [this](std::unique_ptr<FunctionInstance> instance) {
                    RetireInstance(std::move(instance));
                  }),
      exec_model_(config.seed ^ 0xE1EC),
      density_(config.density, &keep_alive_, &frames_, &scheduler_, backends,
               &metrics_.registry()) {
  if (config_.tracer != nullptr) {
    tracer_ = config_.tracer;
    trace_pid_ = tracer_->RegisterProcess(config_.trace_process,
                                          [this] { return scheduler_.now(); });
  }
}

RestoreContext ServerlessPlatform::MakeContext() {
  RestoreContext ctx;
  ctx.frames = &frames_;
  ctx.backends = backends_;
  ctx.pids = &pids_;
  ctx.concurrent_startups = concurrent_startups_;
  ctx.now = scheduler_.now();
  ctx.stats = &metrics_.registry();
  return ctx;
}

Status ServerlessPlatform::Deploy(const FunctionProfile& profile) {
  TRENV_RETURN_IF_ERROR(registry_.Deploy(profile));
  return engine_->Prepare(profile);
}

Status ServerlessPlatform::Submit(SimTime arrival, const std::string& function) {
  return Submit(arrival, function, CompletionFn());
}

Status ServerlessPlatform::Submit(SimTime arrival, const std::string& function,
                                  CompletionFn on_complete) {
  TRENV_RETURN_IF_ERROR(registry_.Find(function).status());
  // Track the invocation from acceptance, not from its arrival event: if the
  // node crashes first, Crash() finds it in queued_ and hands it back for
  // re-dispatch instead of silently losing it with the event queue.
  const uint64_t ticket = next_ticket_++;
  queued_.emplace(ticket, LostInvocation{function, arrival, ticket, std::move(on_complete)});
  scheduler_.ScheduleAt(arrival, [this, ticket] {
    auto it = queued_.find(ticket);
    const std::string fn = std::move(it->second.function);
    CompletionFn done = std::move(it->second.on_complete);
    queued_.erase(it);
    StartInvocation(fn, ticket, std::move(done));
  });
  return Status::Ok();
}

Status ServerlessPlatform::Run(const Schedule& schedule) {
  for (const Invocation& invocation : schedule) {
    TRENV_RETURN_IF_ERROR(Submit(invocation.arrival, invocation.function));
  }
  RunToCompletion();
  return Status::Ok();
}

void ServerlessPlatform::RunToCompletion() { scheduler_.RunUntilIdle(); }

void ServerlessPlatform::SampleMemory() {
  metrics_.memory_gauge().Set(scheduler_.now(), static_cast<double>(frames_.used_bytes()));
}

void ServerlessPlatform::RetireInstance(std::unique_ptr<FunctionInstance> instance) {
  if (density_.enabled()) {
    density_.OnRetire(*instance);
  }
  RestoreContext ctx = MakeContext();
  engine_->Retire(std::move(instance), ctx);
  SampleMemory();
}

uint64_t ServerlessPlatform::EffectiveCap() const {
  // The scale==1.0 branch keeps the fault-free path free of floating-point
  // arithmetic so runs without pressure windows stay byte-identical.
  return mem_cap_scale_ == 1.0
             ? config_.soft_mem_cap_bytes
             : static_cast<uint64_t>(static_cast<double>(config_.soft_mem_cap_bytes) *
                                     mem_cap_scale_);
}

void ServerlessPlatform::EnforceMemoryCap() {
  const uint64_t cap = EffectiveCap();
  if (density_.enabled()) {
    // Demotion first: moving idle dirty pages to a pool tier relieves frame
    // pressure while keeping the environments warm. Frame pressure beyond
    // that comes from running instances, which evicting (frame-free)
    // demoted entries cannot relieve — so density replaces the binary evict
    // loop with the overcommit ceiling on the total parked footprint
    // (metadata included), the bound that decides when warmth must die.
    if (frames_.used_bytes() > cap) {
      density_.RelievePressure(cap);
    }
    // Every swap tier full: the only parked entries still holding frames are
    // the DRAM-hot ones, so shed those (coldest first) as a last resort.
    while (frames_.used_bytes() > cap && keep_alive_.EvictHotLru()) {
    }
    const uint64_t ceiling = density_.OvercommitCeiling(cap);
    while (keep_alive_.footprint_bytes() > ceiling && keep_alive_.EvictLru()) {
    }
    return;
  }
  // Soft cap: evict idle instances (LRU first) until under the cap or empty.
  while (frames_.used_bytes() > cap && keep_alive_.EvictLru()) {
  }
}

void ServerlessPlatform::SetSoftMemCapScale(double scale) {
  // Clamp below at the documented floor: injected pressure may squeeze the
  // cap hard but never to (near) zero, which would flush the entire pool and
  // turn a transient window into a node-wide cold restart.
  mem_cap_scale_ = std::max(scale, cost::kSoftMemCapScaleFloor);
  if (soft_cap_gauge_ == nullptr) {
    soft_cap_gauge_ = metrics_.registry().GetGauge("platform.soft_mem_cap_bytes");
  }
  soft_cap_gauge_->Set(static_cast<double>(EffectiveCap()));
  if (density_.enabled() && mem_cap_scale_ < 1.0) {
    density_.NotePressureStorm();
  }
  EnforceMemoryCap();
  SampleMemory();
}

std::vector<LostInvocation> ServerlessPlatform::Crash() {
  std::vector<LostInvocation> lost;
  lost.reserve(queued_.size() + inflight_.size());
  for (auto& [ticket, invocation] : queued_) {
    lost.push_back(std::move(invocation));
  }
  for (auto& [token, flight] : inflight_) {
    if (tracer_ != nullptr && flight.root_span != obs::kInvalidSpanId) {
      tracer_->Annotate(flight.root_span, "failed", std::string("node-crash"));
      tracer_->EndSpan(flight.root_span);
    }
    lost.push_back(LostInvocation{flight.function, flight.arrival, flight.ticket,
                                  std::move(flight.on_complete)});
  }
  // (arrival, ticket) is a strict total order — tickets are unique — so the
  // re-dispatch order is fully determined even when a queued and an in-flight
  // invocation share an arrival time. (Arrival alone was ambiguous there:
  // queued_ and inflight_ interleave by acceptance vs. start order.)
  std::sort(lost.begin(), lost.end(),
            [](const LostInvocation& a, const LostInvocation& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival : a.ticket < b.ticket;
            });
  queued_.clear();
  inflight_.clear();
  concurrent_startups_ = 0;
  if (density_.enabled()) {
    density_.OnCrash();  // releases parked swap blocks before the pool drops
  }
  keep_alive_.Drop();
  engine_->OnCrash();
  scheduler_.Clear();
  cpu_.Reset();
  frames_.FreePages(frames_.used_pages());
  SampleMemory();
  return lost;
}

void ServerlessPlatform::StartInvocation(const std::string& function, uint64_t ticket,
                                         CompletionFn on_complete) {
  auto profile_or = registry_.Find(function);
  if (!profile_or.ok()) {
    ++failed_invocations_;
    return;
  }
  const FunctionProfile& profile = **profile_or;
  keep_alive_.ExpireStale(scheduler_.now());
  if (mem_cap_scale_ != 1.0) {
    // Under an injected pressure window the squeezed cap applies before the
    // warm lookup, so parked instances are evicted rather than reused. The
    // scale==1.0 guard keeps the fault-free path untouched.
    EnforceMemoryCap();
  }
  if (config_.prewarm != nullptr) {
    config_.prewarm->RecordArrival(function, scheduler_.now());
    MaybeSchedulePrewarm(function);
  }
  if (density_.enabled()) {
    density_.OnArrival(FunctionIdOf(profile), scheduler_.now());
  }

  const uint64_t token = next_token_++;
  InFlight& flight = inflight_[token];
  flight.function = function;
  flight.profile = &profile;
  flight.fid = FunctionIdOf(profile);
  flight.ticket = ticket;
  flight.on_complete = std::move(on_complete);
  flight.arrival = scheduler_.now();
  if (tracer_ != nullptr) {
    flight.root_span = tracer_->StartSpan(TraceLoc(token), "invocation", "invocation");
    tracer_->Annotate(flight.root_span, "function", function);
  }

  // Warm hit: reuse a cached instance of the same function immediately.
  if (auto warm = keep_alive_.TakeWarm(flight.fid); warm != nullptr) {
    flight.instance = std::move(warm);
    flight.warm = true;
    metrics_.ForFunction(flight.fid).warm_starts += 1;
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceLoc(token), "warm.hit", "invocation");
    }
    if (density_.enabled()) {
      // Demoted instances pay the tier's fetch latency before executing.
      flight.promote_latency = density_.OnTake(*flight.instance);
      if (flight.promote_latency > SimDuration::Zero()) {
        SampleMemory();
        scheduler_.ScheduleAfter(flight.promote_latency,
                                 [this, token] { BeginExecution(token); });
        return;
      }
    }
    BeginExecution(token);
    return;
  }

  EnforceMemoryCap();
  ++concurrent_startups_;
  RestoreContext ctx = MakeContext();
  ctx.tracer = tracer_;
  ctx.trace_loc = TraceLoc(token);
  ctx.trace_parent = flight.root_span;
  auto outcome = engine_->Restore(profile, ctx);
  if (!outcome.ok()) {
    if (!restore_failure_logged_) {
      // One line per node; the rest are counted in failed_invocations().
      restore_failure_logged_ = true;
      TRENV_WARN << "restore failed for " << function << ": " << outcome.status()
                 << " (further restore failures on this node are only counted)";
    }
    --concurrent_startups_;
    ++failed_invocations_;
    if (tracer_ != nullptr) {
      tracer_->Annotate(flight.root_span, "failed", std::string("restore"));
      tracer_->EndSpan(flight.root_span);
    }
    inflight_.erase(token);
    return;
  }
  flight.instance = std::move(outcome->instance);
  flight.startup = outcome->startup;
  auto& fn_metrics = metrics_.ForFunction(flight.fid);
  if (outcome->startup.sandbox_repurposed) {
    fn_metrics.repurposed_starts += 1;
  } else {
    fn_metrics.cold_starts += 1;
  }
  SampleMemory();
  BeginStartupPhases(token);
}

void ServerlessPlatform::BeginStartupPhases(uint64_t token) {
  InFlight& flight = inflight_.at(token);
  if (tracer_ != nullptr) {
    flight.phase_span = tracer_->StartSpan(TraceLoc(token), "restore.sandbox", "restore");
    tracer_->Annotate(flight.phase_span, "repurposed",
                      static_cast<int64_t>(flight.startup.sandbox_repurposed ? 1 : 0));
  }
  // Phase 1: sandbox setup (wall latency; holds the contention window).
  scheduler_.ScheduleAfter(flight.startup.sandbox, [this, token] {
    --concurrent_startups_;
    InFlight& f = inflight_.at(token);
    if (tracer_ != nullptr) {
      tracer_->EndSpan(f.phase_span);
      f.phase_span = tracer_->StartSpan(TraceLoc(token), "restore.process", "restore");
    }
    // Phase 2: process state (bootstrap burns CPU; CRIU restore is mostly
    // kernel-side latency).
    auto then_memory = [this, token] {
      InFlight& f2 = inflight_.at(token);
      if (tracer_ != nullptr) {
        tracer_->EndSpan(f2.phase_span);
        f2.phase_span = tracer_->StartSpan(TraceLoc(token), "restore.memory", "restore");
      }
      // Phase 3: memory restoration (copy or attach).
      scheduler_.ScheduleAfter(f2.startup.memory, [this, token] { BeginExecution(token); });
    };
    if (f.startup.process_is_cpu) {
      cpu_.Submit(f.startup.process, then_memory);
    } else {
      scheduler_.ScheduleAfter(f.startup.process, then_memory);
    }
  });
}

void ServerlessPlatform::BeginExecution(uint64_t token) {
  InFlight& flight = inflight_.at(token);
  flight.exec_start = scheduler_.now();
  const FunctionProfile& profile = *flight.profile;

  RestoreContext ctx = MakeContext();
  if (tracer_ != nullptr) {
    tracer_->EndSpan(flight.phase_span);  // close restore.memory (cold path)
    flight.phase_span = tracer_->StartSpan(TraceLoc(token), "exec", "invocation");
    ctx.tracer = tracer_;
    ctx.trace_loc = TraceLoc(token);
    ctx.trace_parent = flight.phase_span;
  }
  auto overheads_or = engine_->OnExecute(profile, *flight.instance, ctx);
  if (!overheads_or.ok()) {
    TRENV_WARN << "execution page work failed: " << overheads_or.status();
    ++failed_invocations_;
    if (tracer_ != nullptr) {
      tracer_->EndSpan(flight.phase_span);
      tracer_->Annotate(flight.root_span, "failed", std::string("exec"));
      tracer_->EndSpan(flight.root_span);
    }
    RetireInstance(std::move(flight.instance));
    inflight_.erase(token);
    return;
  }
  SampleMemory();
  const ExecutionPlan plan = exec_model_.Plan(profile, *overheads_or);
  metrics_.AddFetchCpuSeconds(overheads_or->added_cpu.seconds());

  obs::SpanId cpu_span = obs::kInvalidSpanId;
  if (tracer_ != nullptr) {
    tracer_->Annotate(flight.phase_span, "added_cpu_ms", overheads_or->added_cpu.millis());
    tracer_->Annotate(flight.phase_span, "fault_ms", plan.fault_latency.millis());
    cpu_span = tracer_->StartSpan(TraceLoc(token), "exec.cpu", "exec");
  }
  // A lazy promote left its pages streaming in from the swap tier: this
  // invocation pays the demand faults (zero unless density promoted it).
  const SimDuration demand = flight.instance->pending_demand_fetch;
  flight.instance->pending_demand_fetch = SimDuration();
  // CPU burst first; fault latency and I/O wait extend wall time afterwards.
  cpu_.Submit(plan.cpu_work, [this, token, plan, demand, cpu_span] {
    obs::SpanId wait_span = obs::kInvalidSpanId;
    if (tracer_ != nullptr) {
      tracer_->EndSpan(cpu_span);
      wait_span = tracer_->StartSpan(TraceLoc(token), "exec.wait", "exec");
    }
    scheduler_.ScheduleAfter(plan.io_wait + plan.fault_latency + demand,
                             [this, token, wait_span] {
      if (tracer_ != nullptr) {
        tracer_->EndSpan(wait_span);
      }
      Complete(token);
    });
  });
}

void ServerlessPlatform::Complete(uint64_t token) {
  InFlight& flight = inflight_.at(token);
  engine_->OnExecuteDone(*flight.instance);
  if (tracer_ != nullptr) {
    tracer_->EndSpan(flight.phase_span);  // close exec
    tracer_->Annotate(flight.root_span, "warm", static_cast<int64_t>(flight.warm ? 1 : 0));
    tracer_->EndSpan(flight.root_span);
  }

  auto& fn_metrics = metrics_.ForFunction(flight.fid);
  fn_metrics.invocations += 1;
  fn_metrics.e2e_ms.Record((scheduler_.now() - flight.arrival).millis());
  // Warm startup cost is the tier-promotion fetch (0.0 with density off —
  // promote_latency stays default-zero, keeping the record bit-identical).
  fn_metrics.startup_ms.Record(flight.warm ? flight.promote_latency.millis()
                                           : flight.startup.Total().millis());
  fn_metrics.exec_ms.Record((scheduler_.now() - flight.exec_start).millis());

  flight.instance->invocations += 1;
  const SimDuration ttl = config_.prewarm != nullptr
                              ? config_.prewarm->KeepAliveFor(flight.function)
                              : config_.keep_alive_ttl;
  const bool density = density_.enabled();
  if (density) {
    density_.OnPark(*flight.instance);  // stamp footprint/tier before Put
  }
  keep_alive_.Put(std::move(flight.instance), scheduler_.now(), ttl);
  // TTL sweep: wake up when this instance would expire.
  scheduler_.ScheduleAfter(ttl + SimDuration::Millis(1),
                           [this] { keep_alive_.ExpireStale(scheduler_.now()); });
  CompletionFn done = std::move(flight.on_complete);
  inflight_.erase(token);
  if (density) {
    // Parks are where the footprint grows; without enforcement here a burst
    // can out-park the sweep and exhaust physical DRAM before the next
    // arrival-side check. Density-off keeps the legacy arrival-only cadence.
    EnforceMemoryCap();
  }
  SampleMemory();
  if (done) {
    // Last: the callback may submit follow-on work (pipeline successors) to
    // other nodes, and this invocation's bookkeeping is fully settled above.
    done(config_.node_index, scheduler_.now());
  }
}

void ServerlessPlatform::MaybeSchedulePrewarm(const std::string& function) {
  auto delay = config_.prewarm->PrewarmDelay(function);
  if (!delay.has_value()) {
    return;
  }
  scheduler_.ScheduleAfter(*delay, [this, function] { PrewarmNow(function); });
}

void ServerlessPlatform::PrewarmNow(const std::string& function) {
  keep_alive_.ExpireStale(scheduler_.now());
  if (keep_alive_.CountFor(function) > 0) {
    return;  // a warm instance already exists
  }
  auto profile_or = registry_.Find(function);
  if (!profile_or.ok()) {
    return;
  }
  EnforceMemoryCap();
  // Pre-warms run off the invocation-token track space but still burn a
  // token, so every trace track maps to exactly one startup.
  const uint64_t track = next_token_++;
  obs::SpanId span = obs::kInvalidSpanId;
  RestoreContext ctx = MakeContext();
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan(TraceLoc(track), "prewarm", "invocation");
    tracer_->Annotate(span, "function", function);
    ctx.tracer = tracer_;
    ctx.trace_loc = TraceLoc(track);
    ctx.trace_parent = span;
  }
  auto outcome = engine_->Restore(**profile_or, ctx);
  if (!outcome.ok()) {
    if (tracer_ != nullptr) {
      tracer_->EndSpan(span);
    }
    return;
  }
  metrics_.ForFunction(function).prewarm_starts += 1;
  // The instance becomes warm once its (off-critical-path) startup elapses.
  auto shared = std::make_shared<std::unique_ptr<FunctionInstance>>(
      std::move(outcome->instance));
  const SimDuration ttl = config_.prewarm != nullptr
                              ? config_.prewarm->KeepAliveFor(function)
                              : config_.keep_alive_ttl;
  scheduler_.ScheduleAfter(outcome->startup.Total(), [this, shared, ttl, span] {
    if (tracer_ != nullptr) {
      tracer_->EndSpan(span);
    }
    if (density_.enabled()) {
      density_.OnPark(**shared);
    }
    keep_alive_.Put(std::move(*shared), scheduler_.now(), ttl);
    if (density_.enabled()) {
      EnforceMemoryCap();
    }
    SampleMemory();
  });
  SampleMemory();
}

void ServerlessPlatform::EvictAllIdle() { keep_alive_.EvictAll(); }

}  // namespace trenv
