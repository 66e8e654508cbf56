#include "hostbench/trace.h"

#include <cstdio>

namespace hostbench {

const char* SiteName(Site site) {
  switch (site) {
    case Site::kEpisode: return "episode";
    case Site::kSetup: return "setup";
    case Site::kDeploy: return "platform.deploy";
    case Site::kTraceGen: return "workload.gen";
    case Site::kRun: return "sim.run";
    case Site::kNext: return "workload.next";
    case Site::kAdvance: return "sim.advance";
    case Site::kSubmit: return "platform.submit";
    case Site::kFaultApply: return "fault.apply";
    case Site::kDrain: return "sim.drain";
    case Site::kReport: return "platform.report";
    case Site::kCount: break;
  }
  return "?";
}

HostTrace::Token HostTrace::Open(Site site, bool keep) {
  Token token;
  if (!enabled_) {
    return token;
  }
  token.active = true;
  token.start_ns = NowNs();
  if (keep) {
    token.span = static_cast<int32_t>(spans_.size());
    spans_.push_back(Span{site, open_, run_, token.start_ns, 0});
    open_ = token.span;
  }
  return token;
}

HostTrace::Token HostTrace::Begin(Site site) { return Open(site, true); }

HostTrace::Token HostTrace::BeginCall(Site site) {
  if (!enabled_) {
    return Token{};
  }
  return Open(site, call_seq_++ % sample_every_ == 0);
}

void HostTrace::End(Site site, const Token& token) {
  if (!token.active) {
    return;
  }
  const int64_t end = NowNs();
  total_ns_[static_cast<size_t>(site)] += end - token.start_ns;
  if (token.span >= 0) {
    spans_[token.span].end_ns = end;
    open_ = spans_[token.span].parent;
  }
}

bool HostTrace::WriteSpans(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "{\"sample_every\":%u,\"spans\":[", sample_every_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"run\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}",
                 i == 0 ? "" : ",", i, SiteName(s.site), s.parent, s.run,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace hostbench
