#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
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

}  // namespace

TraceCollector::TraceCollector(TraceOptions options)
    : kernel_detail_(options.kernel_detail),
      metrics_(options.metrics),
      wall_epoch_(std::chrono::steady_clock::now()),
      // The recorder's volunteer drain (a producer finds its ring nearly
      // full) funnels through the same converter as an explicit drain, so
      // auto-drained events land in events_ exactly as if the collector
      // had drained them itself.
      recorder_(options.ring_capacity,
                options.auto_drain
                    ? Recorder::Sink([this](const RecorderEvent& event) { consume(event); })
                    : Recorder::Sink()) {}

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
  RecorderEvent e;
  e.kind = RecordKind::kSpan;
  e.clock = 0;
  e.pid = pid;
  e.tid = tid;
  e.t0 = start_seconds;
  e.t1 = end_seconds;
  fill(e, name, args);
  recorder_.record(e);
}

void TraceCollector::record_instant(std::uint32_t pid, std::string name,
                                    double t_seconds, TraceArgs args,
                                    std::uint32_t tid) {
  RecorderEvent e;
  e.kind = RecordKind::kInstant;
  e.clock = 0;
  e.pid = pid;
  e.tid = tid;
  e.t0 = t_seconds;
  fill(e, name, args);
  recorder_.record(e);
}

void TraceCollector::record_wall_span(std::string name, double start_seconds,
                                      double end_seconds, TraceArgs args) {
  RecorderEvent e;
  e.kind = RecordKind::kSpan;
  e.clock = 1;
  e.pid = kWallClockPid;
  e.tid = util::ThreadRegistry::current_id();
  e.t0 = start_seconds;
  e.t1 = end_seconds;
  fill(e, name, args);
  recorder_.record(e);
}

double TraceCollector::wall_now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_epoch_)
      .count();
}

void TraceCollector::fill(RecorderEvent& event, const std::string& name,
                          const TraceArgs& args) {
  const std::size_t n = std::min(name.size(), RecorderEvent::kNameCapacity - 1);
  name.copy(event.name, n);
  event.name[n] = '\0';
  if (n < name.size()) recorder_.note_truncated();
  for (const auto& [key, value] : args) {
    if (!append_arg(event, key.c_str(), value.c_str())) recorder_.note_truncated();
  }
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
  recorder_.drain([this](const RecorderEvent& event) { consume(event); });
  // Publish the recorder's health deltas. Exact by construction: drop-
  // newest rings count every event they refused, and the counters only
  // move forward.
  const std::uint64_t dropped = recorder_.dropped_total();
  const std::uint64_t truncated = recorder_.truncated_total();
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
  if (metrics_ != nullptr) {
    if (dropped_delta > 0) {
      metrics_->counter("obs.recorder.dropped").add(static_cast<double>(dropped_delta));
    }
    if (truncated_delta > 0) {
      metrics_->counter("obs.recorder.truncated").add(static_cast<double>(truncated_delta));
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

}  // namespace fedca::obs
