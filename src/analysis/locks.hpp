// Lock-order graph, callback-under-lock and guarded-access analysis.
//
// Built from `util::MutexLock` scopes and the FEDCA_* thread-safety
// annotations rather than from raw std::mutex calls — every lock-holding
// subsystem in src/ uses the annotated wrappers, so the RAII scopes plus
// `FEDCA_REQUIRES(mu)` preconditions give an honest lexical picture of
// which locks are held where. Checks:
//   * `lock-order`    — a cycle in the acquired-while-holding graph
//                       (including a self-edge, i.e. re-acquiring a held
//                       mutex). Mutex keys are file-qualified: lexical
//                       analysis only sees same-file nesting, and merging
//                       identically-named members across files would
//                       fabricate inversions.
//   * `lock-callback` — a user-provided callback (std::function /
//                       std::packaged_task / a function-pointer alias such
//                       as LogSink) invoked while a MutexLock scope is
//                       active, either directly or through a function whose
//                       body invokes one of its callback parameters (one
//                       level of propagation — enough to see e.g.
//                       EventRing::drain(sink) called under a drain mutex).
//   * `guarded-access` — a FEDCA_GUARDED_BY(mu) member used, or a
//                       FEDCA_REQUIRES(mu) method called (CondVar::wait(mu)
//                       included), while no held lock's last path component
//                       names `mu`. A member counts only in its own class's
//                       member bodies (inline or `Class::fn`), and a
//                       function-local class's member only as `x.member`
//                       inside the declaring function, so same-named members
//                       of other classes never match. REQUIRES comes from a
//                       declaration or a definition. Constructor and
//                       destructor bodies are exempt; lambda bodies start
//                       with no lock held. Without types, a call through a
//                       receiver (`cv_.wait(mu_)`) resolves only via the
//                       receiver's member declaration in the enclosing
//                       class.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/finding.hpp"
#include "analysis/source.hpp"

namespace fedca::analysis {

struct LockSymbols {
  // Type aliases that denote callbacks: `using Sink = std::function<...>`
  // and function-pointer aliases `using LogSink = void (*)(...)`.
  std::set<std::string> callback_aliases;
  // Functions whose bodies invoke a callback-typed identifier; calling one
  // of these while holding a lock is flagged.
  std::set<std::string> callback_invoking_fns;
  // Identifiers declared as `Mutex name` or named by FEDCA_GUARDED_BY.
  // Collected globally because members are declared in headers but
  // manually locked (`mu_.try_lock()`) in the matching .cpp.
  std::set<std::string> mutex_names;

  // A FEDCA_REQUIRES annotation: its arguments, and the function's
  // parameter names so an argument naming a parameter
  // (`wait(Mutex& mu) FEDCA_REQUIRES(mu)`) resolves to the caller's.
  struct Requirement {
    std::vector<std::string> mutexes;
    std::vector<std::string> params;
  };
  struct ClassInfo {
    std::map<std::string, std::string> guarded;       // member -> its mutex
    std::map<std::string, std::string> member_types;  // member -> type name
    std::map<std::string, Requirement> requirements;  // method -> REQUIRES
  };
  // Namespace-scope classes by unqualified name.
  std::map<std::string, ClassInfo> classes;
};

// Pass 1a: collect callback type aliases (run over every file first).
void collect_callback_aliases(const SourceFile& f, LockSymbols& syms);
// Pass 1b (needs all aliases): collect callback-invoking function names,
// mutex names for manual-lock tracking, and each class's guarded members,
// member types and FEDCA_REQUIRES methods (from declarations and
// definitions).
void collect_lock_declarations(const SourceFile& f, LockSymbols& syms);

struct LockEdge {
  std::string from;  // file-qualified mutex key
  std::string to;
  std::string file;
  int line = 0;  // acquisition site of `to` while `from` is held
};

// Pass 2: per-file scope walk. Emits lock-callback and guarded-access
// findings directly and appends held->acquired edges for the global cycle
// check.
void analyze_lock_scopes(const SourceFile& f, const LockSymbols& syms,
                         std::vector<LockEdge>& edges,
                         std::vector<Finding>& findings);

// Cycle detection over the accumulated edges -> `lock-order` findings.
void check_lock_order(const std::vector<LockEdge>& edges,
                      std::vector<Finding>& findings);

}  // namespace fedca::analysis
