// Include/layering DAG checks against a committed module spec.
//
// The spec (tools/analyze/layers.spec) declares each module's directory
// prefix and the set of layers it may include. Checks:
//   * `layering`         — a first-party include edge the spec does not
//                          allow, or a src/ file no layer claims;
//   * `include-cycle`    — a cycle in the file-level include graph,
//                          reported once per cycle with file:line edge
//                          attribution;
//   * `test-only-header` — a src/ header that only tests (and its own
//                          .cpp) include: code no run reaches. Needs no
//                          spec.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/finding.hpp"
#include "analysis/source.hpp"

namespace fedca::analysis {

struct LayerSpec {
  // Declaration order preserved: longest prefix wins when matching files.
  std::vector<std::pair<std::string, std::string>> layers;  // name -> prefix
  std::map<std::string, std::set<std::string>> allow;       // layer -> deps

  // Parses the spec text. Malformed lines and allow-edges naming unknown
  // layers become `layering` findings against `spec_path`. Returns false
  // when nothing usable was parsed.
  bool parse(const std::string& text, const std::string& spec_path,
             std::vector<Finding>& findings);

  // Layer name owning `rel_path`, or "" when unmapped.
  std::string layer_of(const std::string& rel_path) const;
};

// A quoted #include resolved to a file of the analyzed set.
struct IncludeEdge {
  std::string from;  // includer, repo-root relative
  std::string to;    // included file, repo-root relative
  int line = 0;      // of the directive in `from`
};

// Resolves every file's quoted includes against the analyzed file set,
// trying module-style ("util/x.hpp" from the src/ include root), then
// repo-root-relative, then sibling-relative paths. Includes that name no
// analyzed file are dropped. Edges keep file order, then include order.
std::vector<IncludeEdge> resolve_includes(const std::vector<SourceFile>& files);

// Checks layer legality plus include cycles over `edges`. Only files under
// src/ participate.
void check_layering(const std::vector<SourceFile>& files,
                    const std::vector<IncludeEdge>& edges, const LayerSpec& spec,
                    std::vector<Finding>& findings);

// Flags each src/ header included by at least one file under tests/ and
// otherwise only by its own .cpp (same directory and stem).
void check_test_only_headers(const std::vector<IncludeEdge>& edges,
                             std::vector<Finding>& findings);

}  // namespace fedca::analysis
