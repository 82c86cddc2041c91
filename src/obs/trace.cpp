#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

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
      wall_epoch_(std::chrono::steady_clock::now()) {}

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
  append({std::move(name), 'X', Clock::kVirtual, start_seconds * 1e6,
          std::max(0.0, (end_seconds - start_seconds) * 1e6), pid, tid, std::move(args)});
}

void TraceCollector::record_instant(std::uint32_t pid, std::string name,
                                    double t_seconds, TraceArgs args,
                                    std::uint32_t tid) {
  append({std::move(name), 'i', Clock::kVirtual, t_seconds * 1e6, 0.0, pid, tid,
          std::move(args)});
}

void TraceCollector::record_wall_span(std::string name, double start_seconds,
                                      double end_seconds, TraceArgs args) {
  append({std::move(name), 'X', Clock::kWall, start_seconds * 1e6,
          std::max(0.0, (end_seconds - start_seconds) * 1e6), kWallClockPid,
          util::ThreadRegistry::current_id(), std::move(args)});
}

void TraceCollector::append(TraceEvent event) {
  util::MutexLock lock(mutex_);
  events_.push_back(std::move(event));
}

double TraceCollector::wall_now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_epoch_)
      .count();
}

std::size_t TraceCollector::event_count() const {
  util::MutexLock lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> TraceCollector::snapshot_events() const {
  util::MutexLock lock(mutex_);
  return events_;
}

std::map<std::uint32_t, std::string> TraceCollector::process_names() const {
  util::MutexLock lock(mutex_);
  return process_names_;
}

void TraceCollector::write_chrome_json(std::ostream& os) const {
  std::vector<TraceEvent> events;
  std::map<std::uint32_t, std::string> names;
  {
    util::MutexLock lock(mutex_);
    events = events_;
    names = process_names_;
  }
  // Stable order: by pid, then tid, then timestamp — check_trace.py
  // verifies per-track monotonicity on exactly this order. Record order
  // interleaves threads arbitrarily, but every (pid, tid) track is
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
