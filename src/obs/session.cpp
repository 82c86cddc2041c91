#include "obs/session.hpp"

#include <cstdlib>
#include <exception>
#include <string_view>
#include <utility>

#include "util/logging.hpp"

namespace fedca::obs {

EnvOutputs read_env() {
  EnvOutputs env;
  if (const char* v = std::getenv("FEDCA_TRACE")) env.trace_path = v;
  if (const char* v = std::getenv("FEDCA_METRICS")) env.metrics_path = v;
  if (const char* v = std::getenv("FEDCA_REPORT")) env.report_path = v;
  if (const char* v = std::getenv("FEDCA_TRACE_DETAIL")) {
    env.kernel_detail = std::string_view(v) == "kernels";
  }
  return env;
}

SessionOptions resolve_outputs(const std::string& trace_path,
                               const std::string& metrics_path,
                               const std::string& report_path) {
  const EnvOutputs env = read_env();
  SessionOptions options;
  options.trace_path = !trace_path.empty() ? trace_path : env.trace_path.value_or("");
  options.metrics_path =
      !metrics_path.empty() ? metrics_path : env.metrics_path.value_or("");
  options.report_path =
      !report_path.empty() ? report_path : env.report_path.value_or("");
  options.kernel_detail = env.kernel_detail;
  return options;
}

Session::Session(SessionOptions options) : options_(std::move(options)) {
  if (!options_.metrics_path.empty()) metrics_ = std::make_unique<MetricsRegistry>();
  if (!options_.trace_path.empty()) {
    TraceOptions trace;
    trace.kernel_detail = options_.kernel_detail;
    trace_ = std::make_unique<TraceCollector>(trace);
  }
  if (!options_.report_path.empty()) {
    report_ = std::make_unique<RoundReportWriter>(options_.report_path);
  }
}

Session::~Session() { flush(); }

void Session::flush() {
  // Serialized: crashes can fire from several pool workers in the same
  // round, and two interleaved rewrites of one output file would corrupt
  // exactly the dump a crash flush exists to preserve.
  util::MutexLock lock(flush_mutex_);
  if (trace_ != nullptr) {
    try {
      trace_->save(options_.trace_path);
    } catch (const std::exception& e) {
      FEDCA_LOG_ERROR("obs") << "trace not written: " << e.what();
    }
  }
  if (metrics_ != nullptr) {
    try {
      metrics_->save(options_.metrics_path);
    } catch (const std::exception& e) {
      FEDCA_LOG_ERROR("obs") << "metrics not written: " << e.what();
    }
  }
  if (report_ != nullptr) {
    try {
      report_->flush();
    } catch (const std::exception& e) {
      FEDCA_LOG_ERROR("obs") << "round report not written: " << e.what();
    }
  }
}

}  // namespace fedca::obs
