// Per-round analytics — the data product that makes FL evaluations
// trustworthy.
//
// The tracer answers "what happened when"; this module answers "who did
// what to the round": for every round, the deadline estimate T_R vs the
// realized client times, a per-client outcome record (collected /
// early-stopped-at-τ / shed by partial aggregation / timed out / crashed
// / dropout / link outage), eager layers sent vs retransmitted, and a
// straggler classification (the slowest decile of realized durations,
// compared against T_R). The async engine contributes one record per
// applied or lost update with its staleness and mixing weight.
//
// Everything is measured on the *virtual* clock, so a report is
// bit-reproducible for a given seed regardless of worker count — which
// is what lets tools/report.py hold golden sha256 digests of whole runs.
//
// Output is JSONL ("run_report.jsonl"): one self-describing object per
// line, "type":"round" or "type":"async_update". Lines are appended (and
// the stream flushed) as each round completes, so a crashed run keeps
// every round it finished. tools/report.py validates, renders, and
// digests the file.
//
// The structs here are plain scalars only — obs stays independent of the
// fl layer; the engines copy the fields they already track. Derived
// fields (percentiles, straggler flags, outcome tallies) are computed by
// finalize_round_report() so both engines and the tests share one
// definition.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace fedca::obs {

inline constexpr double kNoTime = std::numeric_limits<double>::infinity();

// Legal `outcome` values for a client's round, mutually exclusive:
//   collected    — update arrived in time and entered the aggregate
//   shed         — arrived (or would have) but was cut by the partial-
//                  aggregation rule (not among the earliest arrivals)
//   timed_out    — excluded by the upload timeout
//   crashed      — permanent injected crash mid-round
//   dropout      — transient offline window swallowed the round's work
//   link_outage  — upload stalled forever on a dead link
// Early stopping is orthogonal (a collected client may have early-stopped
// at τ) and reported via `early_stopped`/`tau`.
struct ClientRoundReport {
  std::size_t client_id = 0;
  std::string outcome = "collected";
  std::size_t iterations = 0;
  std::size_t planned_iterations = 0;
  bool early_stopped = false;
  double tau = kNoTime;      // virtual time compute stopped (early stop)
  double duration = kNoTime;  // arrival − round start; kNoTime = never arrived
  double compute_seconds = 0.0;
  double bytes_sent = 0.0;
  double eager_bytes = 0.0;  // eager-transmission share of bytes_sent
  std::size_t eager_layers = 0;
  std::size_t retransmitted_layers = 0;
  double weight = 0.0;  // aggregation weight (0 unless collected)
  // Derived by finalize_round_report():
  bool straggler = false;      // slowest decile of realized durations
  bool past_deadline = false;  // duration > deadline estimate T_R
};

struct RoundReport {
  std::size_t round_index = 0;
  double start_time = 0.0;
  double end_time = 0.0;
  double deadline = kNoTime;  // T_R (round-relative), kNoTime = unbounded
  // Availability dynamics (population > 0 only when the layer is on):
  // total population size and sampled clients skipped as offline. Emitted
  // in JSON only when population > 0, so availability-free runs keep their
  // historical byte-exact lines.
  std::size_t population = 0;
  std::size_t offline = 0;
  std::vector<ClientRoundReport> clients;
  // Derived by finalize_round_report():
  std::size_t collected = 0;
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  std::size_t crashed = 0;
  std::size_t dropout = 0;
  std::size_t link_outage = 0;
  std::size_t early_stops = 0;
  std::size_t eager_layers = 0;
  double eager_bytes = 0.0;  // summed over clients
  std::size_t retransmitted_layers = 0;
  double realized_p50 = kNoTime;  // percentiles of realized durations
  double realized_p90 = kNoTime;
  double realized_max = kNoTime;
  double straggler_threshold = kNoTime;  // smallest straggler duration
  std::size_t stragglers = 0;
  bool deadline_overrun = false;  // realized_max > deadline
};

// One async-engine update (applied or lost).
struct AsyncUpdateReport {
  std::size_t update_index = 0;
  std::size_t client_id = 0;
  double arrival_time = 0.0;
  std::size_t staleness = 0;
  double weight = 0.0;
  bool lost = false;
  std::string outcome = "applied";  // applied|crash|dropout|link_outage|timeout
};

// Computes every derived field from round_index/start/end/deadline and
// the raw client rows: outcome tallies, nearest-rank percentiles of the
// realized (finite) durations, the slowest-decile straggler flags
// (max(1, ceil(n/10)) of n finite durations; ties broken toward lower
// client ids), and the deadline attribution.
void finalize_round_report(RoundReport& report);

// Serialization used by the writer and the tests (deterministic: %.10g
// numbers, non-finite values as null, fixed key order).
std::string to_json_line(const RoundReport& report);
std::string to_json_line(const AsyncUpdateReport& report);

// JSONL sink for one experiment: an obs::Session builds one when its
// report path is set. append() writes and flushes the line immediately —
// a crashed run keeps every completed round.
class RoundReportWriter {
 public:
  // Truncates `path` now; every appended line goes there.
  explicit RoundReportWriter(std::string path);

  void append(const RoundReport& report);
  void append(const AsyncUpdateReport& report);

  std::size_t line_count() const;
  std::vector<std::string> lines() const;

  // Re-writes the whole accumulated report to the path (the append path
  // already flushed; this is the session's fault-dump safety net).
  void flush() const;

 private:
  void append_line(std::string line);

  const std::string path_;
  mutable util::Mutex mutex_;
  std::vector<std::string> lines_ FEDCA_GUARDED_BY(mutex_);
};

}  // namespace fedca::obs
