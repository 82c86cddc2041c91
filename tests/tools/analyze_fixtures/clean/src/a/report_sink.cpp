#include "a/report_sink.hpp"

namespace fixture {

void ReportSink::write(const std::string& line) {
  fedca::util::MutexLock lock(mutex_);
  append_locked(line);
}

void ReportSink::append_locked(const std::string& line) {
  lines_.push_back(line);
}

}  // namespace fixture
