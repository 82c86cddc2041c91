// Scope-aware determinism and seam rules.
//
// Token-level matching: hits inside strings, char literals, and comments
// are impossible by construction (the lexer blanked them), and container
// tracking follows type aliases and declared variable names instead of raw
// lines. Rules (see each check for its exact path scope):
//
//   raw-rng               std::rand/srand, time(nullptr) seeding,
//                         std::random_device — src/, bench/, examples/
//                         minus src/util/rng.*.
//   unordered-iter        declaration of or iteration over an unordered
//                         container (alias-aware) — src/fl, src/core,
//                         src/nn.
//   wall-clock            host-clock ::now reads — src/ minus src/obs,
//                         src/sim.
//   raw-intrinsics        #include <immintrin.h>/<x86intrin.h>/<arm_neon.h>
//                         outside src/tensor/simd/ (tests/ included).
//   client-container      containers of ClientDevice outside the
//                         cluster/registry seam — src/.
//   unordered-float-accum float/double accumulation (`x +=`) inside a
//                         range-for over an unordered container — src/.
//                         The per-element order is hash-dependent AND the
//                         FP sum is order-dependent: double trouble a
//                         line scan cannot see (it has no scopes).
//   pointer-key           std::map/std::set keyed on a pointer type —
//                         iteration order is allocation-order-dependent —
//                         src/.
//   device-seam           ClientDevice obtained outside a DeviceLease
//                         (a ClientDevice mention whose statement
//                         involves no lease) — src/ minus the
//                         cluster/registry seam.
//   float-accum           a `float` declaration named *acc*/*sum* in a
//                         kernel file with no comment mentioning
//                         "association" — every accumulation order must be
//                         documented as deliberate (tensor/ops.hpp
//                         contract) — src/tensor, src/nn .cpp files.
//   scenario-hardcode     a default- or brace-initialized
//                         `ExperimentOptions x;` / `x{...}` / `x = {...}`
//                         in a test or a paper bench: experiments are
//                         scenario files (scenarios/*.scn); copy-init from
//                         a loaded scenario or helper is fine — tests/ and
//                         bench/ minus bench/suite/ (the benchmark's own
//                         fixed workloads).
//   exit-hook             std::atexit, an `atexit(` call or
//                         at_quick_exit: an exit hook's correctness rests
//                         on its order against static destructors, the
//                         shape of an exit-order use-after-free; outputs
//                         are flushed by the obs::Session that owns them
//                         — src/.
//   fast-math             a value-changing FP flag (-ffast-math, -Ofast,
//                         -funsafe-math-optimizations, -fassociative-math,
//                         -freciprocal-math) in a build script: it would
//                         let the compiler reassociate the fixed
//                         accumulation orders — every CMakeLists.txt and
//                         *.cmake, `#` comments stripped. Not waivable:
//                         build scripts carry no waivers.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "analysis/finding.hpp"
#include "analysis/source.hpp"

namespace fedca::analysis {

struct RuleContext {
  // Unordered-container type aliases collected across every analyzed file
  // (`using Index = std::unordered_map<...>`), so `Index idx;` in another
  // file still tracks.
  std::set<std::string> unordered_aliases;
};

// Pass 1 (run over every file first): collect unordered-container aliases.
void collect_rule_context(const SourceFile& f, RuleContext& ctx);

// Pass 2: all determinism/seam rules for one file.
void analyze_rules(const SourceFile& f, const RuleContext& ctx,
                   std::vector<Finding>& findings);

// fast-math over one build script.
void analyze_build_script(const BuildScript& script,
                          std::vector<Finding>& findings);

}  // namespace fedca::analysis
