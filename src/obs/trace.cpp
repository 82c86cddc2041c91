#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/round_report.hpp"
#include "util/logging.hpp"
#include "util/thread_registry.hpp"

namespace fedca::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_us(double v) {
  // Trace timestamps: fixed microsecond precision, no exponents (Chrome's
  // JSON parser accepts them, but integers keep files diff-friendly).
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return std::string(buf);
}

const std::chrono::steady_clock::time_point g_wall_epoch =
    std::chrono::steady_clock::now();

// Copies name/args from the string-based facade API into the POD slot,
// counting anything that did not fit.
void fill_name(RecorderEvent& event, const std::string& name) {
  const std::size_t n = std::min(name.size(), RecorderEvent::kNameCapacity - 1);
  name.copy(event.name, n);
  event.name[n] = '\0';
  if (n < name.size()) Recorder::global().note_truncated();
}

void fill_args(RecorderEvent& event, const TraceArgs& args) {
  for (const auto& [key, value] : args) {
    if (!append_arg(event, key.c_str(), value.c_str())) {
      Recorder::global().note_truncated();
    }
  }
}

// Remembered output paths for the atexit / fault-dump flush. configure()
// is the only writer.
util::Mutex& paths_mutex() {
  static util::Mutex m;
  return m;
}
std::string& remembered_metrics_path() {
  static std::string path;
  return path;
}

}  // namespace

TraceCollector& TraceCollector::global() {
  static TraceCollector collector;
  // The recorder's volunteer drain (producer finds its ring nearly full)
  // funnels through the same converter as an explicit drain, so auto-
  // drained events land in events_/metrics exactly as if the collector
  // had drained them itself.
  static const bool sink_installed = [] {
    Recorder::global().set_auto_drain_sink(
        [](const RecorderEvent& event) { collector.consume(event); });
    return true;
  }();
  (void)sink_installed;
  return collector;
}

void TraceCollector::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void TraceCollector::set_output_path(std::string path) {
  bool arm = false;
  {
    util::MutexLock lock(mutex_);
    path_ = std::move(path);
    arm = !path_.empty();
  }
  set_enabled(arm);
}

std::string TraceCollector::output_path() const {
  util::MutexLock lock(mutex_);
  return path_;
}

void TraceCollector::set_kernel_detail(bool on) {
  kernel_detail_.store(on, std::memory_order_relaxed);
}

std::uint32_t TraceCollector::allocate_process_ids(std::uint32_t n) {
  util::MutexLock lock(mutex_);
  const std::uint32_t base = next_pid_;
  next_pid_ += n;
  return base;
}

void TraceCollector::set_process_name(std::uint32_t pid, std::string name) {
  util::MutexLock lock(mutex_);
  process_names_[pid] = std::move(name);
}

void TraceCollector::record_span(std::uint32_t pid, std::string name,
                                 double start_seconds, double end_seconds,
                                 TraceArgs args, std::uint32_t tid) {
  if (!enabled()) return;
  RecorderEvent e;
  e.kind = RecordKind::kSpan;
  e.clock = 0;
  e.pid = pid;
  e.tid = tid;
  e.t0 = start_seconds;
  e.t1 = end_seconds;
  fill_name(e, name);
  fill_args(e, args);
  Recorder::global().record(e);
}

void TraceCollector::record_instant(std::uint32_t pid, std::string name,
                                    double t_seconds, TraceArgs args,
                                    std::uint32_t tid) {
  if (!enabled()) return;
  RecorderEvent e;
  e.kind = RecordKind::kInstant;
  e.clock = 0;
  e.pid = pid;
  e.tid = tid;
  e.t0 = t_seconds;
  fill_name(e, name);
  fill_args(e, args);
  Recorder::global().record(e);
}

void TraceCollector::record_wall_span(std::string name, double start_seconds,
                                      double end_seconds, TraceArgs args) {
  if (!enabled()) return;
  RecorderEvent e;
  e.kind = RecordKind::kSpan;
  e.clock = 1;
  e.pid = kWallClockPid;
  e.tid = util::ThreadRegistry::current_id();
  e.t0 = start_seconds;
  e.t1 = end_seconds;
  fill_name(e, name);
  fill_args(e, args);
  Recorder::global().record(e);
}

double TraceCollector::wall_now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_wall_epoch)
      .count();
}

void TraceCollector::consume(const RecorderEvent& event) const {
  TraceEvent e;
  e.name = event.name;
  e.phase = event.kind == RecordKind::kSpan ? 'X' : 'i';
  e.clock = event.clock == 0 ? Clock::kVirtual : Clock::kWall;
  e.ts_us = event.t0 * 1e6;
  if (event.kind == RecordKind::kSpan) {
    e.dur_us = std::max(0.0, (event.t1 - event.t0) * 1e6);
  }
  e.pid = event.pid;
  e.tid = event.tid;
  for_each_arg(event, [&e](const char* key, const char* value) {
    e.args.emplace_back(key, value);
  });
  util::MutexLock lock(mutex_);
  events_.push_back(std::move(e));
}

void TraceCollector::drain_pending() const {
  Recorder& recorder = Recorder::global();
  recorder.drain([this](const RecorderEvent& event) { consume(event); });
  // Publish the recorder's health deltas. Exact by construction: drop-
  // newest rings count every event they refused, and the counters only
  // move forward between resets.
  const std::uint64_t dropped = recorder.dropped_total();
  const std::uint64_t truncated = recorder.truncated_total();
  std::uint64_t dropped_delta = 0;
  std::uint64_t truncated_delta = 0;
  {
    util::MutexLock lock(mutex_);
    if (dropped > published_dropped_) {
      dropped_delta = dropped - published_dropped_;
      published_dropped_ = dropped;
    }
    if (truncated > published_truncated_) {
      truncated_delta = truncated - published_truncated_;
      published_truncated_ = truncated;
    }
  }
  if (metrics_enabled()) {
    if (dropped_delta > 0) {
      MetricsRegistry::global().counter("obs.recorder.dropped").add(
          static_cast<double>(dropped_delta));
    }
    if (truncated_delta > 0) {
      MetricsRegistry::global().counter("obs.recorder.truncated").add(
          static_cast<double>(truncated_delta));
    }
  }
}

std::size_t TraceCollector::event_count() const {
  drain_pending();
  util::MutexLock lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> TraceCollector::snapshot_events() const {
  drain_pending();
  util::MutexLock lock(mutex_);
  return events_;
}

std::map<std::uint32_t, std::string> TraceCollector::process_names() const {
  util::MutexLock lock(mutex_);
  return process_names_;
}

void TraceCollector::write_chrome_json(std::ostream& os) const {
  drain_pending();
  std::vector<TraceEvent> events;
  std::map<std::uint32_t, std::string> names;
  {
    util::MutexLock lock(mutex_);
    events = events_;
    names = process_names_;
  }
  // Stable order: by pid, then tid, then timestamp — check_trace.py
  // verifies per-track monotonicity on exactly this order. Ring-drain
  // order interleaves threads arbitrarily, but every (pid, tid) track is
  // produced by one thread in timestamp order, so the stable sort fully
  // reconstructs per-track chronology.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_us < b.ts_us;
                   });
  os << "[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  if (!names.contains(kWallClockPid)) {
    names[kWallClockPid] = "host (wall clock)";
  }
  for (const auto& [pid, name] : names) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const TraceEvent& e : events) {
    sep();
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << (e.clock == Clock::kVirtual ? "virtual" : "wall") << "\",\"ph\":\""
       << e.phase << "\",\"ts\":" << fmt_us(e.ts_us);
    if (e.phase == 'X') os << ",\"dur\":" << fmt_us(e.dur_us);
    if (e.phase == 'i') os << ",\"s\":\"t\"";
    os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
    if (!e.args.empty()) {
      os << ",\"args\":{";
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) os << ',';
        os << '"' << json_escape(e.args[i].first) << "\":\""
           << json_escape(e.args[i].second) << '"';
      }
      os << '}';
    }
    os << '}';
  }
  os << "\n]\n";
}

void TraceCollector::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("TraceCollector::save: cannot open " + path);
  write_chrome_json(out);
  out.flush();
  if (!out) throw std::runtime_error("TraceCollector::save: write failed for " + path);
}

bool TraceCollector::flush() const {
  const std::string path = output_path();
  if (path.empty()) return true;
  save(path);
  return true;
}

void TraceCollector::reset() {
  set_enabled(false);
  set_kernel_detail(false);
  Recorder::global().reset();
  util::MutexLock lock(mutex_);
  events_.clear();
  process_names_.clear();
  next_pid_ = 1;
  path_.clear();
  published_dropped_ = 0;
  published_truncated_ = 0;
}

ScopedWallSpan::ScopedWallSpan(const char* name, bool kernel_level)
    : name_(name),
      active_(TraceCollector::global().enabled() &&
              (!kernel_level || TraceCollector::global().kernel_detail())) {
  if (active_) start_seconds_ = TraceCollector::wall_now_seconds();
}

ScopedWallSpan::~ScopedWallSpan() {
  if (!active_) return;
  TraceCollector::global().record_wall_span(name_, start_seconds_,
                                            TraceCollector::wall_now_seconds());
}

std::pair<std::string, std::string> configure(const std::string& trace_path,
                                              const std::string& metrics_path,
                                              const std::string& report_path) {
  std::string trace = trace_path;
  if (trace.empty()) {
    if (const char* env = std::getenv("FEDCA_TRACE")) trace = env;
  }
  std::string metrics = metrics_path;
  if (metrics.empty()) {
    if (const char* env = std::getenv("FEDCA_METRICS")) metrics = env;
  }
  std::string report = report_path;
  if (report.empty()) {
    if (const char* env = std::getenv("FEDCA_REPORT")) report = env;
  }
  TraceCollector& collector = TraceCollector::global();
  if (!trace.empty() && collector.output_path() != trace) {
    collector.set_output_path(trace);
  }
  if (const char* detail = std::getenv("FEDCA_TRACE_DETAIL")) {
    collector.set_kernel_detail(std::string_view(detail) == "kernels");
  }
  if (!metrics.empty()) set_metrics_enabled(true);
  if (!report.empty() && RoundReportWriter::global().output_path() != report) {
    RoundReportWriter::global().set_output_path(report);
  }
  {
    util::MutexLock lock(paths_mutex());
    if (!metrics.empty()) remembered_metrics_path() = metrics;
  }
  // Abnormal-termination insurance: whatever outputs are armed get one
  // final flush at process exit, so an aborted run leaves complete,
  // parseable files instead of whatever happened to be on disk when it
  // died. Every singleton the handler touches must be constructed BEFORE
  // std::atexit below — atexit handlers and static destructors run as one
  // reverse sequence, so a registry first constructed later (e.g. by the
  // drain sink's first counter) would be destroyed before the handler
  // reads it. The collector and report writer were touched above; the
  // metrics registry is only enabled by a flag, so touch it explicitly.
  MetricsRegistry::global();
  static std::once_flag atexit_once;
  std::call_once(atexit_once, [] { std::atexit([] { flush_on_fault(); }); });
  return {trace, metrics};
}

void flush_outputs(const std::string& metrics_path) {
  // Telemetry must never destroy the run it observed: an unwritable
  // output path degrades to an error log, not an uncaught throw after
  // the experiment already spent its compute.
  TraceCollector& collector = TraceCollector::global();
  if (collector.enabled()) {
    try {
      collector.flush();
    } catch (const std::exception& e) {
      FEDCA_LOG_ERROR("obs") << "trace not written: " << e.what();
    }
  }
  if (!metrics_path.empty()) {
    try {
      MetricsRegistry::global().save(metrics_path);
    } catch (const std::exception& e) {
      FEDCA_LOG_ERROR("obs") << "metrics not written: " << e.what();
    }
  }
  try {
    RoundReportWriter::global().flush();
  } catch (const std::exception& e) {
    FEDCA_LOG_ERROR("obs") << "round report not written: " << e.what();
  }
}

void flush_on_fault() {
  // Serialized: crashes can fire from several pool workers in the same
  // round, and two interleaved rewrites of one output file would corrupt
  // exactly the dump this hook exists to preserve.
  static util::Mutex flush_mutex;
  util::MutexLock lock(flush_mutex);
  std::string metrics;
  {
    util::MutexLock paths_lock(paths_mutex());
    metrics = remembered_metrics_path();
  }
  flush_outputs(metrics);
}

}  // namespace fedca::obs
