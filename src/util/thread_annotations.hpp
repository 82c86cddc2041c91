// Thread-safety annotations: the repo's lock discipline, written down.
//
// Every mutex-protected member is declared FEDCA_GUARDED_BY its mutex,
// private helpers that expect the lock to already be held are
// FEDCA_REQUIRES, and the annotated primitives in util/sync.hpp (Mutex /
// MutexLock / CondVar) mark where locks are acquired and released.
// fedca_analyze checks GUARDED_BY and REQUIRES on every build host: its
// `guarded-access` rule flags a guarded member used, or a REQUIRES function
// called (CondVar::wait included), where no held lock names the mutex —
// races the runtime TSan pass can only catch when the seed workload
// happens to execute them.
//
// Under clang the macros expand to clang's thread-safety attributes; on
// every other compiler they expand to nothing. Either way they cost
// nothing at run time.
//
// Naming follows the standard capability vocabulary (the same one Abseil's
// thread_annotations.h and clang's documentation use), prefixed FEDCA_.
#pragma once

#if defined(__clang__)
#define FEDCA_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define FEDCA_THREAD_ANNOTATION_ATTRIBUTE(x)  // no-op off clang
#endif

// Type is a capability (a lock). The string names the capability kind in
// diagnostics, e.g. FEDCA_CAPABILITY("mutex").
#define FEDCA_CAPABILITY(x) FEDCA_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

// RAII type that acquires a capability in its constructor and releases it
// in its destructor (MutexLock).
#define FEDCA_SCOPED_CAPABILITY FEDCA_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// Data member readable/writable only while holding the given capability.
#define FEDCA_GUARDED_BY(x) FEDCA_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

// Function requires the capability to be held on entry (and does not
// release it) — the _locked() helper contract.
#define FEDCA_REQUIRES(...) \
  FEDCA_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

// Function acquires the capability and holds it past return.
#define FEDCA_ACQUIRE(...) \
  FEDCA_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))

// Function releases a held capability before returning.
#define FEDCA_RELEASE(...) \
  FEDCA_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

// Function acquires the capability only when it returns `result`.
#define FEDCA_TRY_ACQUIRE(result, ...) \
  FEDCA_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(result, __VA_ARGS__))
