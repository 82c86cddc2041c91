// Scenario DSL, document layer: a small, versioned, line-oriented
// `key = value` format with `[section]` headers that fully determines a
// deterministic run.
//
// The paper's evaluation (Sec. 5) is a grid of deadline / fault /
// heterogeneity configurations. Before this module they lived scattered
// across ExperimentOptions fields, FEDCA_* environment variables, and
// hand-wired test setups; a scenario file makes one configuration a
// single committed artifact that parses strictly (unknown keys, malformed
// values, and out-of-range numbers are errors carrying file:line); the
// run report a scenario produces is what a golden digest pins.
//
// This layer knows nothing about FL: it parses sections and typed values
// and tracks which keys a binding consumed, so the binding (src/fl/
// scenario.*) can reject leftovers as unknown keys. Grammar:
//
//   * lines are independent; leading/trailing whitespace is trimmed;
//   * blank lines and lines starting with `#` or `;` are comments
//     (inline comments are NOT supported — values may contain `#`);
//   * `[section]` opens a section (names: [a-z0-9_]+, no duplicates);
//   * `key = value` inside a section (keys: [a-z0-9_]+, no duplicates
//     within a section; the value is everything after the first `=`,
//     trimmed, possibly empty);
//   * anything else is a parse error.
//
// Determinism: sections and keys live in ordered maps and every accessor
// is by exact name — nothing in this layer depends on hash order or
// locale. Reading a file is the binding's job (fl::load_scenario_file).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace fedca::sim::scenario {

// Parse/validation failure. what() is formatted "file:line: message" so
// editors and humans can jump straight to the offending line.
class ScenarioError : public std::runtime_error {
 public:
  ScenarioError(const std::string& file, std::size_t line,
                const std::string& message);

  const std::string& file() const { return file_; }
  std::size_t line() const { return line_; }

 private:
  std::string file_;
  std::size_t line_;
};

// One `key = value` occurrence with its source line.
struct Entry {
  std::string value;
  std::size_t line = 0;
  bool consumed = false;
};

class Document {
 public:
  Document() = default;

  // Parses scenario text. `filename` is used for diagnostics only.
  static Document parse(const std::string& text, const std::string& filename);

  const std::string& filename() const { return filename_; }

  bool has_section(const std::string& section) const;
  bool has_key(const std::string& section, const std::string& key) const;

  // Marks a section as legal even when the binding reads nothing from it
  // (every get_* call does this implicitly for its section).
  void allow_section(const std::string& section);

  // Typed accessors. A missing key returns `fallback`; a present key is
  // marked consumed and parsed strictly — malformed or out-of-range
  // values throw ScenarioError with the key's file:line. Numeric getters
  // take inclusive [lo, hi] bounds.
  std::string get_string(const std::string& section, const std::string& key,
                         const std::string& fallback);
  bool get_bool(const std::string& section, const std::string& key,
                bool fallback);
  long long get_int(const std::string& section, const std::string& key,
                    long long fallback, long long lo, long long hi);
  std::size_t get_size(const std::string& section, const std::string& key,
                       std::size_t fallback, std::size_t lo, std::size_t hi);
  std::uint64_t get_u64(const std::string& section, const std::string& key,
                        std::uint64_t fallback);
  double get_double(const std::string& section, const std::string& key,
                    double fallback, double lo, double hi);
  // Non-negative seconds, or the literal `none` (also `inf`/`infinity`)
  // meaning "no deadline" (+infinity).
  double get_duration(const std::string& section, const std::string& key,
                      double fallback);

  // Source line of a present key (0 when absent) — for bindings that
  // validate a value themselves and want to report at the right line.
  std::size_t line_of(const std::string& section, const std::string& key) const;

  // Remaining (unconsumed) entries of `section`, sorted by key, WITHOUT
  // consuming them — the binding inspects these for whitelisted
  // passthrough keys (consume via get_string) before finish().
  std::vector<std::pair<std::string, Entry>> remaining(
      const std::string& section) const;

  // Strictness backstop: throws ScenarioError naming the first (lowest
  // line) section the binding never allowed, or key it never consumed.
  void finish() const;

 private:
  struct Section {
    std::size_t line = 0;  // header line
    bool allowed = false;
    std::map<std::string, Entry> entries;
  };

  const Entry* find(const std::string& section, const std::string& key) const;
  // Consumes and returns the entry, or nullptr when absent; marks the
  // section allowed either way.
  Entry* take(const std::string& section, const std::string& key);
  [[noreturn]] void fail(std::size_t line, const std::string& message) const;

  std::string filename_ = "<scenario>";
  std::map<std::string, Section> sections_;
};

}  // namespace fedca::sim::scenario
