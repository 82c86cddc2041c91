#include "analysis/rules.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace fedca::analysis {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  const std::size_t len = std::char_traits<char>::length(prefix);
  return s.size() >= len && s.compare(0, len, prefix) == 0;
}

bool in_dirs(const std::string& rel, std::initializer_list<const char*> dirs) {
  for (const char* d : dirs) {
    if (starts_with(rel, d)) return true;
  }
  return false;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t len = std::char_traits<char>::length(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

// `std :: unordered_map <` starting at the `std` token?
bool is_std_template(const SourceFile& f, std::size_t i, const char* name) {
  return is_ident(f, i, "std") && is_punct(f, i + 1, "::") &&
         is_ident(f, i + 2, name) && is_punct(f, i + 3, "<");
}

// First declared identifier after a type whose template list closes at
// `after` (exclusive): skips cv/ref/ptr decorations. Returns "" when the
// next meaningful token is not a plain declared name.
std::string declared_name_after(const SourceFile& f, std::size_t after) {
  std::size_t j = after;
  while (j < f.tokens.size() &&
         ((f.tokens[j].kind == TokenKind::kPunct &&
           (f.tokens[j].text == "&" || f.tokens[j].text == "*" ||
            f.tokens[j].text == "&&")) ||
          is_ident(f, j, "const"))) {
    ++j;
  }
  if (j < f.tokens.size() && f.tokens[j].kind == TokenKind::kIdent) {
    return f.tokens[j].text;
  }
  return std::string();
}

// --- per-rule checks --------------------------------------------------------

void check_raw_rng(const SourceFile& f, std::vector<Finding>& findings) {
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdent) continue;
    if (t.text == "rand" && i >= 2 && is_ident(f, i - 2, "std") &&
        is_punct(f, i - 1, "::")) {
      add_finding(findings, "raw-rng", f.rel_path, t.line,
                  "std::rand bypasses the seeded util::Rng — runs become "
                  "unrepeatable");
    } else if (t.text == "srand" && is_punct(f, i + 1, "(")) {
      // `std::srand(...)` always counts; a bare `srand(` counts unless the
      // preceding token marks a member access or a declaration
      // (`timer.srand(4)`, `long srand(long)`).
      const bool qualified_std =
          i >= 2 && is_ident(f, i - 2, "std") && is_punct(f, i - 1, "::");
      const bool member_or_decl =
          i >= 1 && (is_punct(f, i - 1, ".") || is_punct(f, i - 1, "->") ||
                     is_punct(f, i - 1, "::") ||
                     f.tokens[i - 1].kind == TokenKind::kIdent);
      if (qualified_std || !member_or_decl) {
        add_finding(findings, "raw-rng", f.rel_path, t.line,
                    "srand() bypasses the seeded util::Rng — runs become "
                    "unrepeatable");
      }
    } else if (t.text == "random_device") {
      add_finding(findings, "raw-rng", f.rel_path, t.line,
                  "std::random_device is nondeterministic by design — seed "
                  "a util::Rng instead");
    } else if (t.text == "time" && is_punct(f, i + 1, "(") &&
               !(i >= 1 &&
                 (is_punct(f, i - 1, ".") || is_punct(f, i - 1, "->") ||
                  (is_punct(f, i - 1, "::") &&
                   !(i >= 2 && is_ident(f, i - 2, "std")))))) {
      // time(nullptr) / time(NULL) / time(0) — the classic seed.
      // std::time(nullptr) counts too; Foo::time(...) does not.
      const std::size_t a = i + 2;
      const bool null_arg =
          (is_ident(f, a, "nullptr") || is_ident(f, a, "NULL") ||
           (a < n && f.tokens[a].kind == TokenKind::kNumber &&
            f.tokens[a].text == "0")) &&
          is_punct(f, a + 1, ")");
      if (null_arg) {
        add_finding(findings, "raw-rng", f.rel_path, t.line,
                    "time(nullptr) seeding makes runs unrepeatable — derive "
                    "seeds from the experiment seed");
      }
    }
  }
}

void check_wall_clock(const SourceFile& f, std::vector<Finding>& findings) {
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 2 < n; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdent) continue;
    if ((t.text == "steady_clock" || t.text == "system_clock" ||
         t.text == "high_resolution_clock") &&
        is_punct(f, i + 1, "::") && is_ident(f, i + 2, "now")) {
      add_finding(findings, "wall-clock", f.rel_path, t.line,
                  "host clock read outside src/obs + src/sim — the simulation "
                  "is virtual-time; wall time in output-affecting code "
                  "breaks run identity");
    }
  }
}

void check_raw_intrinsics(const SourceFile& f, std::vector<Finding>& findings) {
  for (const IncludeDirective& inc : f.includes) {
    if (inc.path == "immintrin.h" || inc.path == "x86intrin.h" ||
        inc.path == "arm_neon.h") {
      add_finding(findings, "raw-intrinsics", f.rel_path, inc.line,
                  "raw SIMD intrinsics header outside src/tensor/simd/ — "
                  "ISA-specific code belongs behind the dispatch tier "
                  "(tensor/simd/dispatch.hpp)");
    }
  }
}

void check_client_container(const SourceFile& f,
                            std::vector<Finding>& findings) {
  static const std::set<std::string> kContainers = {
      "vector", "deque", "list", "array", "map", "set"};
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdent || kContainers.count(t.text) == 0 ||
        !is_punct(f, i + 1, "<")) {
      continue;
    }
    const std::size_t end = skip_template_args(f, i + 1);
    for (std::size_t j = i + 2; j + 1 < end; ++j) {
      if (is_ident(f, j, "ClientDevice")) {
        add_finding(findings, "client-container", f.rel_path, t.line,
                    "container of ClientDevice outside the cluster/registry "
                    "seam — live device storage is O(clients); check "
                    "devices out via Cluster::lease()");
        break;
      }
    }
  }
}

void check_pointer_key(const SourceFile& f, std::vector<Finding>& findings) {
  static const std::set<std::string> kKeyed = {"map", "set", "unordered_map",
                                               "unordered_set"};
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 3 < n; ++i) {
    if (!is_ident(f, i, "std") || !is_punct(f, i + 1, "::")) continue;
    const Token& name = f.tokens[i + 2];
    if (name.kind != TokenKind::kIdent || kKeyed.count(name.text) == 0 ||
        !is_punct(f, i + 3, "<")) {
      continue;
    }
    // Walk the key type: from `<`+1 to the first top-level `,` or the
    // matching `>`. A trailing `*` makes iteration order follow the
    // allocator, not the data.
    int angle = 1;
    int paren = 0;
    std::size_t last_meaningful = 0;
    for (std::size_t j = i + 4; j < n && angle > 0; ++j) {
      const Token& t = f.tokens[j];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "<") ++angle;
        else if (t.text == ">") --angle;
        else if (t.text == "(") ++paren;
        else if (t.text == ")") --paren;
        else if (t.text == "," && angle == 1 && paren == 0) break;
      }
      if (angle > 0) last_meaningful = j;
    }
    if (last_meaningful != 0 && is_punct(f, last_meaningful, "*")) {
      add_finding(findings, "pointer-key", f.rel_path, name.line,
                  "std::" + name.text + " keyed on a pointer — iteration "
                  "order tracks allocation addresses, which vary run to "
                  "run; key on a stable id instead");
    }
  }
}

// Unordered-container declarations and iteration, plus float accumulation
// inside iteration over one. Tracks declared variable names (including
// through aliases) so `.begin()`/range-for hits are tied to real unordered
// containers, not to any identifier that happens to share a name.
void check_unordered(const SourceFile& f, const RuleContext& ctx,
                     bool flag_decls_and_iter,
                     std::vector<Finding>& findings) {
  const std::size_t n = f.tokens.size();
  std::set<std::string> tracked;

  // Float/double variable names, for the accumulation check.
  std::set<std::string> float_vars;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if ((is_ident(f, i, "float") || is_ident(f, i, "double")) &&
        f.tokens[i + 1].kind == TokenKind::kIdent) {
      float_vars.insert(f.tokens[i + 1].text);
    }
  }

  // Declarations.
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t after = 0;
    if (is_std_template(f, i, "unordered_map") ||
        is_std_template(f, i, "unordered_set")) {
      after = skip_template_args(f, i + 3);
    } else if (f.tokens[i].kind == TokenKind::kIdent &&
               ctx.unordered_aliases.count(f.tokens[i].text) != 0 &&
               !is_punct(f, i + 1, "=")) {  // not the alias definition itself
      after = i + 1;
    } else {
      continue;
    }
    const std::string name = declared_name_after(f, after);
    if (!name.empty()) tracked.insert(name);
    if (flag_decls_and_iter) {
      add_finding(findings, "unordered-iter", f.rel_path, f.tokens[i].line,
                  "unordered container in an output-affecting path: "
                  "iteration order is hash-dependent — use std::map or a "
                  "sorted vector");
    }
  }

  // Iteration and in-loop float accumulation.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdent) continue;
    // `name.begin()` / `name.cbegin()`.
    if (flag_decls_and_iter && tracked.count(t.text) != 0 &&
        is_punct(f, i + 1, ".") &&
        (is_ident(f, i + 2, "begin") || is_ident(f, i + 2, "cbegin")) &&
        is_punct(f, i + 3, "(")) {
      add_finding(findings, "unordered-iter", f.rel_path, t.line,
                  "iteration over unordered container '" + t.text +
                      "' — sort the keys or switch to an ordered container");
    }
    // Range-for: `for ( decl : range )`.
    if (t.text != "for" || !is_punct(f, i + 1, "(")) continue;
    const int close = f.paren_match[i + 1];
    if (close < 0) continue;
    // Top-level `:` inside the parens marks a range-for; the range
    // expression's last identifier names the container.
    bool has_colon = false;
    std::string range_name;
    int depth = 0;
    for (std::size_t j = i + 2; j < static_cast<std::size_t>(close); ++j) {
      const Token& u = f.tokens[j];
      if (u.kind == TokenKind::kPunct) {
        if (u.text == "(") ++depth;
        else if (u.text == ")") --depth;
        else if (u.text == ":" && depth == 0) has_colon = true;
      } else if (u.kind == TokenKind::kIdent && has_colon) {
        range_name = u.text;
      }
    }
    if (!has_colon || tracked.count(range_name) == 0) continue;
    if (flag_decls_and_iter) {
      add_finding(findings, "unordered-iter", f.rel_path, t.line,
                  "iteration over unordered container '" + range_name +
                      "' — sort the keys or switch to an ordered container");
    }
    // Body span: `{ ... }` or a single statement up to `;`.
    std::size_t body_begin = static_cast<std::size_t>(close) + 1;
    std::size_t body_end = body_begin;
    if (is_punct(f, body_begin, "{")) {
      const int bm = f.brace_match[body_begin];
      if (bm > 0) body_end = static_cast<std::size_t>(bm);
    } else {
      while (body_end < n && !is_punct(f, body_end, ";")) ++body_end;
    }
    for (std::size_t j = body_begin; j < body_end; ++j) {
      if (f.tokens[j].kind == TokenKind::kIdent &&
          float_vars.count(f.tokens[j].text) != 0 &&
          is_punct(f, j + 1, "+=")) {
        add_finding(
            findings, "unordered-float-accum", f.rel_path, f.tokens[j].line,
            "float accumulation into '" + f.tokens[j].text +
                "' while iterating unordered container '" + range_name +
                "' — the sum's association order is hash-dependent, so the "
                "result varies across runs; iterate a sorted view");
      }
    }
  }
}

std::string lowercase(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

void check_float_accum(const SourceFile& f, std::vector<Finding>& findings) {
  for (const auto& [line, text] : f.comments) {
    if (lowercase(text).find("associat") != std::string::npos) return;
  }
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!is_ident(f, i, "float") || f.tokens[i + 1].kind != TokenKind::kIdent) {
      continue;
    }
    const std::string name = lowercase(f.tokens[i + 1].text);
    if (name.find("acc") != std::string::npos ||
        name.find("sum") != std::string::npos) {
      add_finding(findings, "float-accum", f.rel_path, f.tokens[i].line,
                  "float accumulator '" + f.tokens[i + 1].text +
                      "' in a kernel file with no fixed-association comment "
                      "— document the association order (see "
                      "tensor/ops.hpp)");
    }
  }
}

void check_scenario_hardcode(const SourceFile& f,
                             std::vector<Finding>& findings) {
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 2 < n; ++i) {
    if (!is_ident(f, i, "ExperimentOptions") ||
        f.tokens[i + 1].kind != TokenKind::kIdent) {
      continue;
    }
    if (is_punct(f, i + 2, ";") || is_punct(f, i + 2, "{") ||
        (is_punct(f, i + 2, "=") && is_punct(f, i + 3, "{"))) {
      add_finding(findings, "scenario-hardcode", f.rel_path, f.tokens[i].line,
                  "hand-built ExperimentOptions in a test — load a committed "
                  "scenarios/*.scn via fl::load_scenario_file instead");
    }
  }
}

void check_device_seam(const SourceFile& f, std::vector<Finding>& findings) {
  const std::size_t n = f.tokens.size();
  // Lease-typed variables: `DeviceLease name` (any qualification).
  std::set<std::string> lease_vars;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (is_ident(f, i, "DeviceLease") &&
        f.tokens[i + 1].kind == TokenKind::kIdent) {
      lease_vars.insert(f.tokens[i + 1].text);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdent || t.text != "ClientDevice") continue;
    // A ClientDevice mention is fine when its statement goes through a
    // lease (declared lease variable or an inline `.lease(...)` call).
    std::size_t stmt_begin = i;
    while (stmt_begin > 0) {
      const Token& u = f.tokens[stmt_begin - 1];
      if (u.kind == TokenKind::kPunct &&
          (u.text == ";" || u.text == "{" || u.text == "}")) {
        break;
      }
      --stmt_begin;
    }
    std::size_t stmt_end = i;
    while (stmt_end < n && !is_punct(f, stmt_end, ";") &&
           !is_punct(f, stmt_end, "{")) {
      ++stmt_end;
    }
    bool via_lease = false;
    for (std::size_t j = stmt_begin; j < stmt_end; ++j) {
      if (f.tokens[j].kind != TokenKind::kIdent) continue;
      if (f.tokens[j].text == "DeviceLease" ||
          lease_vars.count(f.tokens[j].text) != 0 ||
          (f.tokens[j].text == "lease" && j >= 1 &&
           (is_punct(f, j - 1, ".") || is_punct(f, j - 1, "->")))) {
        via_lease = true;
        break;
      }
    }
    if (!via_lease) {
      add_finding(findings, "device-seam", f.rel_path, t.line,
                  "ClientDevice accessed outside the DeviceLease seam — "
                  "only src/sim/cluster.* and src/sim/client_registry.* own "
                  "device storage; everything else borrows via "
                  "Cluster::lease()");
    }
  }
}

void check_exit_hook(const SourceFile& f, std::vector<Finding>& findings) {
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdent) continue;
    const bool qualified_std =
        i >= 2 && is_ident(f, i - 2, "std") && is_punct(f, i - 1, "::");
    // `registry.atexit(3)`, `Foo::atexit(...)` and `int atexit(int)` are
    // members or declarations, not the libc hook.
    const bool member_or_decl =
        i >= 1 && (is_punct(f, i - 1, ".") || is_punct(f, i - 1, "->") ||
                   is_punct(f, i - 1, "::") || f.tokens[i - 1].kind == TokenKind::kIdent);
    if (t.text == "at_quick_exit" ||
        (t.text == "atexit" &&
         (qualified_std || (!member_or_decl && is_punct(f, i + 1, "("))))) {
      add_finding(findings, "exit-hook", f.rel_path, t.line,
                  "process-exit hook: its flush races static destructors "
                  "(the exit-order use-after-free) — let the owning "
                  "obs::Session flush in flush() and its destructor");
    }
  }
}

}  // namespace

void collect_rule_context(const SourceFile& f, RuleContext& ctx) {
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 4 < n; ++i) {
    // `using Name = std::unordered_map<...>` (or unordered_set).
    if (is_ident(f, i, "using") && f.tokens[i + 1].kind == TokenKind::kIdent &&
        is_punct(f, i + 2, "=") &&
        (is_std_template(f, i + 3, "unordered_map") ||
         is_std_template(f, i + 3, "unordered_set"))) {
      ctx.unordered_aliases.insert(f.tokens[i + 1].text);
    }
  }
}

void analyze_rules(const SourceFile& f, const RuleContext& ctx,
                   std::vector<Finding>& findings) {
  const std::string& rel = f.rel_path;
  const bool in_src = starts_with(rel, "src/");

  if (in_dirs(rel, {"src/", "bench/", "examples/"}) &&
      !starts_with(rel, "src/util/rng")) {
    check_raw_rng(f, findings);
  }
  if (in_src && !in_dirs(rel, {"src/obs/", "src/sim/"})) {
    check_wall_clock(f, findings);
  }
  if (in_dirs(rel, {"src/tensor/", "src/nn/"}) &&
      (ends_with(rel, ".cpp") || ends_with(rel, ".cc"))) {
    check_float_accum(f, findings);
  }
  if (starts_with(rel, "tests/")) check_scenario_hardcode(f, findings);
  if (!starts_with(rel, "src/tensor/simd/")) {
    check_raw_intrinsics(f, findings);
  }
  if (in_src) {
    check_exit_hook(f, findings);
    check_pointer_key(f, findings);
    const bool seam = rel == "src/sim/cluster.hpp" ||
                      rel == "src/sim/cluster.cpp" ||
                      rel == "src/sim/client_registry.hpp" ||
                      rel == "src/sim/client_registry.cpp";
    if (!seam) {
      check_client_container(f, findings);
      check_device_seam(f, findings);
    }
    // unordered-iter declarations/iteration only bite in the
    // output-affecting layers (mirrors the linter scope); the float-accum
    // combination is dangerous everywhere in src/.
    const bool output_layer = in_dirs(rel, {"src/fl/", "src/core/", "src/nn/"});
    check_unordered(f, ctx, output_layer, findings);
  }
}

void analyze_build_script(const BuildScript& script,
                          std::vector<Finding>& findings) {
  static const char* const kFlags[] = {
      "-ffast-math", "-Ofast", "-funsafe-math-optimizations",
      "-fassociative-math", "-freciprocal-math"};
  std::istringstream in(script.text);
  std::string code;
  for (int line = 1; std::getline(in, code); ++line) {
    code.erase(std::min(code.find('#'), code.size()));  // cmake comment
    for (const char* flag : kFlags) {
      if (code.find(flag) != std::string::npos) {
        add_finding(findings, "fast-math", script.rel_path, line,
                    std::string(flag) +
                        " permits FP reassociation and breaks the fixed "
                        "accumulation orders (tensor/ops.hpp contract) — "
                        "remove the flag");
        break;  // one finding per line
      }
    }
  }
}

}  // namespace fedca::analysis
