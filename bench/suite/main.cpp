// fedca_suite: the host-time benchmark harness behind bench/suite/run.py.
//
//   fedca_suite mode=probe
//       build provenance only (run.py refuses debug builds);
//   fedca_suite mode=run workload=W seed=N seconds=S [traced=1] [smoke=1]
//               [trace_out=PATH]
//       runs W once, and again while another rep fits in S seconds,
//       replays the first rounds once to check determinism, and prints
//       every rep's raw timings and virtual outputs as one JSON object.
//       traced=1 runs one (untraced, traced) pair instead, then the
//       per-layer probes, and writes the traced rep's spans to trace_out
//       as a Chrome trace (pid 0, cat "wall").
//
// All statistics are computed by run.py from these raw samples.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "probes.hpp"
#include "tensor/simd/dispatch.hpp"
#include "timing.hpp"
#include "util/config.hpp"
#include "workloads.hpp"

namespace {

using namespace fedca;
using namespace fedca::suite;

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

std::string rep_json(const RepResult& r) {
  std::string s = "{\"traced\":" + std::string(r.traced ? "true" : "false") +
                  ",\"setup_s\":" + exact(r.setup_s) + ",\"wall_s\":" + exact(r.wall_s) +
                  ",\"steps\":" + std::to_string(r.steps) +
                  ",\"wasted_steps\":" + std::to_string(r.wasted_steps) +
                  ",\"eager_layers\":" + std::to_string(r.eager_layers) +
                  ",\"retransmitted_layers\":" + std::to_string(r.retransmitted_layers) +
                  ",\"round_ms\":[";
  for (std::size_t i = 0; i < r.round_ms.size(); ++i) {
    s += (i ? "," : "") + exact(r.round_ms[i]);
  }
  s += "],\"outputs\":{";
  for (std::size_t i = 0; i < r.outputs.size(); ++i) {
    s += (i ? ",\"" : "\"") + r.outputs[i].first + "\":\"" + r.outputs[i].second + "\"";
  }
  return s + "}}";
}

// Chrome trace_event JSON: complete events on pid 0 in the "wall" category,
// microsecond timestamps relative to the first span.
void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::string& workload) {
  std::int64_t origin = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < origin) origin = spans[i].start_ns;
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"fedca_suite "
      << workload << "\"}}";
  char line[320];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof(line),
                  ",\n{\"name\":\"%s\",\"cat\":\"wall\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":\"%s\",\"round\":%lld,"
                  "\"client\":%lld}}",
                  s.name, s.tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.parent,
                  static_cast<long long>(s.round), static_cast<long long>(s.client));
    out << line;
  }
  out << "\n]}\n";
  if (!out.flush()) throw std::runtime_error("short write to trace " + path);
}

int run(const util::Config& config) {
  const std::string name = config.require_string("workload");
  const auto seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
  const double seconds = config.get_double("seconds", 10.0);
  const bool traced = config.get_bool("traced", false);
  const bool smoke = config.get_bool("smoke", false);
  const std::string trace_out = config.get_string("trace_out", "");
  const Workload workload = make_workload(name, seed, smoke);

  // Untraced: repeat while another rep fits the time budget. Traced: one
  // (untraced, traced) pair, so the hook overhead is a paired comparison;
  // the per-layer metrics come from the traced rep's spans and the probes.
  std::vector<RepResult> reps;
  std::vector<Span> spans;
  const std::int64_t start = now_ns();
  for (;;) {
    reps.push_back(run_rep(workload, false));
    if (traced) {
      reps.push_back(run_rep(workload, true));
      spans = SpanLog::global().take();
      break;
    }
    const double last = reps.back().setup_s + reps.back().wall_s;
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed + last > seconds) break;
  }

  // Determinism beyond the reps themselves: a replay of the first rounds
  // (async: updates) must reproduce the first rep's records bit for bit.
  const std::size_t prefix = workload.async ? workload.window : 2;
  const RepResult replay = run_rep(workload, false, prefix);
  const bool prefix_ok =
      replay.record_fnv.size() == prefix && reps[0].record_fnv.size() >= prefix &&
      std::equal(replay.record_fnv.begin(), replay.record_fnv.end(),
                 reps[0].record_fnv.begin());

  // Setup takes milliseconds to a fraction of a second; repeat it alone
  // until eleven samples exist so its median is not a handful of draws
  // (untraced runs report setup_s).
  std::vector<double> extra_setup_s;
  while (!smoke && !traced && reps.size() + extra_setup_s.size() < 11) {
    extra_setup_s.push_back(run_setup(workload));
  }

  std::vector<std::pair<std::string, double>> probes;
  if (traced) {
    probes = run_probes(workload);
    if (!trace_out.empty()) write_trace(trace_out, spans, name);
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);

  std::string s = "{\"workload\":\"" + name + "\",\"seed\":" + std::to_string(seed) +
                  ",\"build_type\":\"" + build_type() + "\",\"simd_tier\":\"" +
                  tensor::simd::active_tier_name() + "\",\"workers\":" +
                  std::to_string(workload.async ? workload.async_options.worker_threads
                                                : workload.options.worker_threads) +
                  ",\"peak_rss_kb\":" + std::to_string(usage.ru_maxrss) +
                  ",\"prefix_ok\":" + (prefix_ok ? "true" : "false") +
                  ",\"extra_setup_s\":[";
  for (std::size_t i = 0; i < extra_setup_s.size(); ++i) {
    s += (i ? "," : "") + exact(extra_setup_s[i]);
  }
  s += "],\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) s += (i ? "," : "") + rep_json(reps[i]);
  s += "],\"probes\":{";
  for (std::size_t i = 0; i < probes.size(); ++i) {
    s += (i ? ",\"" : "\"") + probes[i].first + "\":" + exact(probes[i].second);
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Config config = util::Config::from_args(argc, argv);
    if (config.get_string("mode", "run") == "probe") {
      std::printf("{\"build_type\":\"%s\",\"simd_tier\":\"%s\",\"hardware_threads\":%u}\n",
                  build_type(), tensor::simd::active_tier_name(),
                  std::thread::hardware_concurrency());
      return 0;
    }
    return run(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fedca_suite: %s\n", e.what());
    return 1;
  }
}
