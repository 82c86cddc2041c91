// FEDCA_REQUIRES on the declaration only; the out-of-line body in
// report_sink.cpp does not repeat it.
#pragma once

#include <string>
#include <vector>

#include "util/sync.hpp"

namespace fixture {

class ReportSink {
 public:
  void write(const std::string& line);

 private:
  void append_locked(const std::string& line) FEDCA_REQUIRES(mutex_);

  fedca::util::Mutex mutex_;
  std::vector<std::string> lines_ FEDCA_GUARDED_BY(mutex_);
};

}  // namespace fixture
