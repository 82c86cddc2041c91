// One experiment's observability: the session that owns its trace
// collector, metrics registry and round-report writer, and the per-thread
// pointer instrumented code reaches it through.
//
// fl::make_setup builds one Session per experiment from the resolved
// ExperimentOptions paths and fl::ExperimentSetup owns it, so every output
// file describes exactly one run. Nothing here has process lifetime: the
// session flushes in flush() and in its destructor, which never throws, so
// a run that unwinds with an exception still leaves complete files.
//
// Instrumented code (FEDCA_M*, FEDCA_WALL_SPAN, FEDCA_KERNEL_SPAN,
// obs::current_trace()/current_report()) reads the calling thread's
// session, installed by a SessionScope: the engine's driving thread holds
// one for the extent of a round or an async step, and each pool worker
// holds one inside a client pass. A recording site whose output is
// disarmed costs one thread-local load and one branch.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/round_report.hpp"
#include "obs/trace.hpp"
#include "util/sync.hpp"

namespace fedca::obs {

// The FEDCA_TRACE / FEDCA_METRICS / FEDCA_REPORT / FEDCA_TRACE_DETAIL
// environment, read here and nowhere else. An unset variable is nullopt.
struct EnvOutputs {
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
  std::optional<std::string> report_path;
  bool kernel_detail = false;  // FEDCA_TRACE_DETAIL=kernels
};
EnvOutputs read_env();

struct SessionOptions {
  std::string trace_path;      // Chrome trace JSON; non-empty arms tracing
  std::string metrics_path;    // .csv or JSONL snapshot; non-empty arms metrics
  std::string report_path;     // run_report.jsonl; non-empty arms the report
  bool kernel_detail = false;  // also record FEDCA_KERNEL_SPAN sites
};

// Explicit non-empty paths win; empty ones fall back to the environment,
// which also decides kernel detail.
SessionOptions resolve_outputs(const std::string& trace_path,
                               const std::string& metrics_path,
                               const std::string& report_path);

class Session {
 public:
  explicit Session(SessionOptions options);
  // Flushes; never throws.
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const SessionOptions& options() const { return options_; }
  // Null when the output is disarmed.
  TraceCollector* trace() const { return trace_.get(); }
  MetricsRegistry* metrics() const { return metrics_.get(); }
  RoundReportWriter* report() const { return report_.get(); }

  // Writes every armed output with everything recorded so far. Safe to
  // call repeatedly and from several threads at once (crash dumps fire on
  // pool workers). Failures are logged, never thrown: telemetry must not
  // destroy the run it observed.
  void flush();

 private:
  SessionOptions options_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<TraceCollector> trace_;
  std::unique_ptr<RoundReportWriter> report_;
  util::Mutex flush_mutex_;
};

namespace detail {
// What the calling thread records into. Cached per output so a disarmed
// site is one load and one branch.
struct Current {
  Session* session = nullptr;
  TraceCollector* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
  RoundReportWriter* report = nullptr;
};
inline thread_local Current t_current;
}  // namespace detail

inline Session* current() { return detail::t_current.session; }
inline TraceCollector* current_trace() { return detail::t_current.trace; }
inline MetricsRegistry* current_metrics() { return detail::t_current.metrics; }
inline RoundReportWriter* current_report() { return detail::t_current.report; }

// Makes `session` the calling thread's current session (null: nothing is
// recorded) and restores the previous one on exit.
class SessionScope {
 public:
  explicit SessionScope(Session* session) : previous_(detail::t_current) {
    detail::t_current = session == nullptr
                            ? detail::Current{}
                            : detail::Current{session, session->trace(),
                                              session->metrics(), session->report()};
  }
  ~SessionScope() { detail::t_current = previous_; }
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  detail::Current previous_;
};

// RAII wall-clock span: measures a real-work region with the steady clock
// and records it when the current session traces. `kernel_level` spans
// additionally require kernel detail.
class ScopedWallSpan {
 public:
  explicit ScopedWallSpan(const char* name, bool kernel_level = false)
      : name_(name), trace_(current_trace()) {
    if (trace_ != nullptr && kernel_level && !trace_->kernel_detail()) trace_ = nullptr;
    if (trace_ != nullptr) start_seconds_ = trace_->wall_now_seconds();
  }
  ~ScopedWallSpan() {
    if (trace_ != nullptr) {
      trace_->record_wall_span(name_, start_seconds_, trace_->wall_now_seconds());
    }
  }
  ScopedWallSpan(const ScopedWallSpan&) = delete;
  ScopedWallSpan& operator=(const ScopedWallSpan&) = delete;

 private:
  const char* name_;
  TraceCollector* trace_;
  double start_seconds_ = 0.0;
};

}  // namespace fedca::obs

#define FEDCA_OBS_CONCAT_INNER(a, b) a##b
#define FEDCA_OBS_CONCAT(a, b) FEDCA_OBS_CONCAT_INNER(a, b)
// Wall-clock RAII span for engine-level real work (aggregation, profiler
// anchor recording).
#define FEDCA_WALL_SPAN(name) \
  ::fedca::obs::ScopedWallSpan FEDCA_OBS_CONCAT(fedca_wall_span_, __LINE__)(name)
// Per-kernel wall span (conv2d/LSTM/SGD) — needs FEDCA_TRACE_DETAIL=kernels.
#define FEDCA_KERNEL_SPAN(name)                                            \
  ::fedca::obs::ScopedWallSpan FEDCA_OBS_CONCAT(fedca_kernel_span_, __LINE__)( \
      name, /*kernel_level=*/true)

// Metric recording sites: a disarmed site never evaluates the name or
// value expressions.
#define FEDCA_MCOUNT(name, v)                                                  \
  do {                                                                         \
    if (::fedca::obs::MetricsRegistry* fedca_m_ = ::fedca::obs::current_metrics()) \
      fedca_m_->counter(name).add(v);                                          \
  } while (0)
#define FEDCA_MGAUGE(name, v)                                                  \
  do {                                                                         \
    if (::fedca::obs::MetricsRegistry* fedca_m_ = ::fedca::obs::current_metrics()) \
      fedca_m_->gauge(name).set(v);                                            \
  } while (0)
#define FEDCA_MHISTO(name, lo, hi, bins, v)                                    \
  do {                                                                         \
    if (::fedca::obs::MetricsRegistry* fedca_m_ = ::fedca::obs::current_metrics()) \
      fedca_m_->histogram(name, lo, hi, bins).record(v);                       \
  } while (0)
