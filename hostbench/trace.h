// Host-time spans around the benchmark's own calls into the simulator.
//
// A span is (name, start, end, parent, run id). Coarse spans (an episode's
// setup, deploy, trace generation, run phase, drain, result collection) are
// always recorded when tracing is on. Calls made once per arrival (stream
// pulls, clock advances, submits) are too many to keep one span each, so
// every call is timed into its layer's running total and only one call in
// `sample_every` is also kept as a span. Layer self time therefore comes
// from exact totals; the kept spans show the call structure.
//
// With tracing off nothing here reads the clock: Begin returns an inactive
// token and End ignores it.
#ifndef HOSTBENCH_TRACE_H_
#define HOSTBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The layers the benchmark calls into. Names are the per-layer metric
// prefixes ("workload.next" is the stream pull, and so on).
enum class Site : uint8_t {
  kEpisode,
  kSetup,
  kDeploy,
  kTraceGen,
  kRun,
  kNext,
  kAdvance,
  kSubmit,
  kFaultApply,
  kDrain,
  kReport,
  kCount,
};

const char* SiteName(Site site);

struct Span {
  Site site = Site::kEpisode;
  int32_t parent = -1;  // index into the span log, -1 for a root
  uint32_t run = 0;     // spans of one run share it
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class HostTrace {
 public:
  // `run` identifies this run in every span it records.
  HostTrace(bool enabled, uint32_t sample_every, uint32_t run)
      : enabled_(enabled), sample_every_(sample_every == 0 ? 1 : sample_every), run_(run) {}

  // Opaque handle returned by Begin; `span` is -1 when no span is kept.
  struct Token {
    int64_t start_ns = 0;
    int32_t span = -1;
    bool active = false;
  };

  // A coarse span: always kept while tracing.
  Token Begin(Site site);
  // A per-arrival call: always timed, kept as a span one time in
  // sample_every.
  Token BeginCall(Site site);
  void End(Site site, const Token& token);

  // Exact host nanoseconds accumulated per site.
  int64_t total_ns(Site site) const { return total_ns_[static_cast<size_t>(site)]; }
  const std::vector<Span>& spans() const { return spans_; }

  // Writes the kept spans as one JSON document; false on I/O failure.
  bool WriteSpans(const std::string& path) const;

 private:
  Token Open(Site site, bool keep);

  bool enabled_;
  uint32_t sample_every_;
  uint32_t run_;
  uint64_t call_seq_ = 0;
  int32_t open_ = -1;  // innermost kept span still open
  std::vector<Span> spans_;
  int64_t total_ns_[static_cast<size_t>(Site::kCount)] = {};
};

// RAII wrapper for coarse spans.
class Scope {
 public:
  Scope(HostTrace& trace, Site site) : trace_(trace), site_(site), token_(trace.Begin(site)) {}
  ~Scope() { trace_.End(site_, token_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  HostTrace& trace_;
  Site site_;
  HostTrace::Token token_;
};

}  // namespace hostbench

#endif  // HOSTBENCH_TRACE_H_
