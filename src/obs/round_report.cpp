#include "obs/round_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace fedca::obs {

namespace {

// Deterministic, locale-independent number formatting: %.10g covers
// every value the engines produce without trailing noise, and non-finite
// values (unbounded deadlines, never-arrived clients) become JSON null.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return std::string(buf);
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

// Outcome strings are fixed vocabulary (no user input), so escaping is
// not needed; keep the serializer honest anyway for names that slip in.
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

// Nearest-rank percentile of an ascending-sorted vector.
double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return kNoTime;
  const std::size_t n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

}  // namespace

void finalize_round_report(RoundReport& report) {
  report.collected = report.shed = report.timed_out = 0;
  report.crashed = report.dropout = report.link_outage = 0;
  report.early_stops = report.eager_layers = report.retransmitted_layers = 0;
  report.eager_bytes = 0.0;
  report.stragglers = 0;
  report.straggler_threshold = kNoTime;
  report.deadline_overrun = false;

  std::vector<std::size_t> finite;  // indices with a realized duration
  for (std::size_t i = 0; i < report.clients.size(); ++i) {
    ClientRoundReport& c = report.clients[i];
    c.straggler = false;
    c.past_deadline =
        std::isfinite(c.duration) && std::isfinite(report.deadline) &&
        c.duration > report.deadline;
    if (c.outcome == "collected") ++report.collected;
    else if (c.outcome == "shed") ++report.shed;
    else if (c.outcome == "timed_out") ++report.timed_out;
    else if (c.outcome == "crashed") ++report.crashed;
    else if (c.outcome == "dropout") ++report.dropout;
    else if (c.outcome == "link_outage") ++report.link_outage;
    if (c.early_stopped) ++report.early_stops;
    report.eager_layers += c.eager_layers;
    report.eager_bytes += c.eager_bytes;
    report.retransmitted_layers += c.retransmitted_layers;
    if (std::isfinite(c.duration)) finite.push_back(i);
  }

  std::vector<double> durations;
  durations.reserve(finite.size());
  for (const std::size_t i : finite) durations.push_back(report.clients[i].duration);
  std::sort(durations.begin(), durations.end());
  report.realized_p50 = nearest_rank(durations, 0.5);
  report.realized_p90 = nearest_rank(durations, 0.9);
  report.realized_max = durations.empty() ? kNoTime : durations.back();

  // Slowest decile = stragglers. Ties break toward lower client ids so
  // the classification is deterministic regardless of row order.
  if (!finite.empty()) {
    const std::size_t k = std::max<std::size_t>(1, (finite.size() + 9) / 10);
    std::vector<std::size_t> by_slowness = finite;
    std::sort(by_slowness.begin(), by_slowness.end(),
              [&report](std::size_t a, std::size_t b) {
                const ClientRoundReport& ca = report.clients[a];
                const ClientRoundReport& cb = report.clients[b];
                if (ca.duration != cb.duration) return ca.duration > cb.duration;
                return ca.client_id < cb.client_id;
              });
    for (std::size_t j = 0; j < k && j < by_slowness.size(); ++j) {
      ClientRoundReport& c = report.clients[by_slowness[j]];
      c.straggler = true;
      ++report.stragglers;
      if (!std::isfinite(report.straggler_threshold) ||
          c.duration < report.straggler_threshold) {
        report.straggler_threshold = c.duration;
      }
    }
    report.deadline_overrun = std::isfinite(report.deadline) &&
                              report.realized_max > report.deadline;
  }
}

std::string to_json_line(const RoundReport& r) {
  std::string out = "{\"type\":\"round\"";
  out += ",\"round\":" + std::to_string(r.round_index);
  out += ",\"start\":" + json_num(r.start_time);
  out += ",\"end\":" + json_num(r.end_time);
  out += ",\"deadline\":" + json_num(r.deadline);
  out += ",\"participants\":" + std::to_string(r.clients.size());
  if (r.population > 0) {
    out += ",\"population\":" + std::to_string(r.population);
    out += ",\"offline\":" + std::to_string(r.offline);
  }
  out += ",\"collected\":" + std::to_string(r.collected);
  out += ",\"shed\":" + std::to_string(r.shed);
  out += ",\"timed_out\":" + std::to_string(r.timed_out);
  out += ",\"crashed\":" + std::to_string(r.crashed);
  out += ",\"dropout\":" + std::to_string(r.dropout);
  out += ",\"link_outage\":" + std::to_string(r.link_outage);
  out += ",\"early_stops\":" + std::to_string(r.early_stops);
  out += ",\"eager_layers\":" + std::to_string(r.eager_layers);
  out += ",\"eager_bytes\":" + json_num(r.eager_bytes);
  out += ",\"eager_retransmitted\":" + std::to_string(r.retransmitted_layers);
  out += ",\"realized_p50\":" + json_num(r.realized_p50);
  out += ",\"realized_p90\":" + json_num(r.realized_p90);
  out += ",\"realized_max\":" + json_num(r.realized_max);
  out += ",\"straggler_threshold\":" + json_num(r.straggler_threshold);
  out += ",\"stragglers\":" + std::to_string(r.stragglers);
  out += ",\"deadline_overrun\":";
  out += json_bool(r.deadline_overrun);
  out += ",\"clients\":[";
  for (std::size_t i = 0; i < r.clients.size(); ++i) {
    const ClientRoundReport& c = r.clients[i];
    if (i > 0) out += ',';
    out += "{\"client\":" + std::to_string(c.client_id);
    out += ",\"outcome\":" + json_str(c.outcome);
    out += ",\"iterations\":" + std::to_string(c.iterations);
    out += ",\"planned\":" + std::to_string(c.planned_iterations);
    out += ",\"early_stopped\":";
    out += json_bool(c.early_stopped);
    out += ",\"tau\":" + json_num(c.tau);
    out += ",\"duration\":" + json_num(c.duration);
    out += ",\"compute_seconds\":" + json_num(c.compute_seconds);
    out += ",\"bytes_sent\":" + json_num(c.bytes_sent);
    out += ",\"eager_layers\":" + std::to_string(c.eager_layers);
    out += ",\"eager_bytes\":" + json_num(c.eager_bytes);
    out += ",\"eager_retransmitted\":" + std::to_string(c.retransmitted_layers);
    out += ",\"straggler\":";
    out += json_bool(c.straggler);
    out += ",\"past_deadline\":";
    out += json_bool(c.past_deadline);
    out += ",\"weight\":" + json_num(c.weight);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string to_json_line(const AsyncUpdateReport& r) {
  std::string out = "{\"type\":\"async_update\"";
  out += ",\"update\":" + std::to_string(r.update_index);
  out += ",\"client\":" + std::to_string(r.client_id);
  out += ",\"arrival\":" + json_num(r.arrival_time);
  out += ",\"staleness\":" + std::to_string(r.staleness);
  out += ",\"weight\":" + json_num(r.weight);
  out += ",\"lost\":";
  out += json_bool(r.lost);
  out += ",\"outcome\":" + json_str(r.outcome);
  out += '}';
  return out;
}

RoundReportWriter::RoundReportWriter(std::string path) : path_(std::move(path)) {
  // Start fresh: the report describes one run, not an accumulation of
  // every run that ever pointed here.
  std::ofstream out(path_, std::ios::trunc);
}

void RoundReportWriter::append(const RoundReport& report) {
  append_line(to_json_line(report));
}

void RoundReportWriter::append(const AsyncUpdateReport& report) {
  append_line(to_json_line(report));
}

void RoundReportWriter::append_line(std::string line) {
  util::MutexLock lock(mutex_);
  lines_.push_back(std::move(line));
  // Append + flush per line: cheap at round granularity, and it is the
  // crash-durability story — every completed round survives an abort.
  std::ofstream out(path_, std::ios::app);
  if (!out) {
    throw std::runtime_error("RoundReportWriter: cannot open " + path_);
  }
  out << lines_.back() << '\n';
  out.flush();
  if (!out) {
    throw std::runtime_error("RoundReportWriter: write failed for " + path_);
  }
}

std::size_t RoundReportWriter::line_count() const {
  util::MutexLock lock(mutex_);
  return lines_.size();
}

std::vector<std::string> RoundReportWriter::lines() const {
  util::MutexLock lock(mutex_);
  return lines_;
}

void RoundReportWriter::flush() const {
  util::MutexLock lock(mutex_);
  std::ofstream out(path_, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("RoundReportWriter: cannot open " + path_);
  }
  for (const std::string& line : lines_) out << line << '\n';
  out.flush();
  if (!out) {
    throw std::runtime_error("RoundReportWriter: write failed for " + path_);
  }
}

}  // namespace fedca::obs
