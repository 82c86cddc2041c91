#include "analysis/locks.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <map>

namespace fedca::analysis {

namespace {

// Joins the tokens in [begin, end) into a whitespace-free key so
// `shared . error_mutex` and `shared.error_mutex` compare equal.
std::string join_tokens(const SourceFile& f, std::size_t begin, std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end && i < f.tokens.size(); ++i) {
    out += f.tokens[i].text;
  }
  return out;
}

bool is_control_keyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "static_assert" || s == "defined";
}

// One function discovered lexically: `name (params) quals {body}`, or a
// declaration `name (params) quals;` when it carries FEDCA_REQUIRES (the
// only thing a declaration contributes).
struct FnDef {
  std::size_t name_idx = 0;
  std::size_t params_open = 0;
  std::size_t params_close = 0;
  std::size_t body_open = 0;
  std::size_t body_close = 0;
  bool declaration = false;
  bool destructor = false;
  std::string owner;  // `Owner` of an out-of-line `Owner::name` definition
  std::vector<std::string> requires_mutexes;  // FEDCA_REQUIRES(...) args
  std::vector<std::string> params;            // parameter names, in order
  std::vector<std::string> callback_params;   // params with callback type
};

// Splits [begin, end) at top-level commas (paren depth 0). Angle brackets
// are not tracked — inside a parameter list every comma at paren depth 0
// that matters for us separates parameters, and a comma inside a template
// argument list only mis-splits the *type* part, never the trailing name.
std::vector<std::pair<std::size_t, std::size_t>> split_commas(
    const SourceFile& f, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  int depth = 0;
  int angle = 0;
  std::size_t start = begin;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kPunct) continue;
    if (t.text == "(" || t.text == "[") ++depth;
    if (t.text == ")" || t.text == "]") --depth;
    if (t.text == "<") ++angle;
    if (t.text == ">") angle = std::max(0, angle - 1);
    if (t.text == "," && depth == 0 && angle == 0) {
      runs.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (start < end) runs.emplace_back(start, end);
  return runs;
}

bool run_mentions_callback_type(const SourceFile& f, std::size_t begin,
                                std::size_t end, const LockSymbols& syms) {
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdent) continue;
    if (t.text == "function" || t.text == "packaged_task") {
      // Require the std:: qualification so a member named `function` in
      // some struct cannot poison the parameter.
      if (i >= 2 && is_ident(f, i - 2, "std") && is_punct(f, i - 1, "::")) {
        return true;
      }
    }
    if (syms.callback_aliases.count(t.text) != 0) return true;
  }
  return false;
}

// Last identifier before a default-argument `=`; the declared name in a
// parameter run (`const Sink& sink`, `std::function<void()> body = {}`).
std::string run_param_name(const SourceFile& f, std::size_t begin,
                           std::size_t end) {
  std::string name;
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind == TokenKind::kPunct && t.text == "=") break;
    if (t.kind == TokenKind::kIdent) name = t.text;
  }
  return name;
}

// Top-level argument texts of the paren group whose `(` is at `open`: an
// annotation macro (FEDCA_REQUIRES(mu, other.mu)) or a call.
std::vector<std::string> call_args(const SourceFile& f, std::size_t open) {
  std::vector<std::string> args;
  const int close = open < f.paren_match.size() ? f.paren_match[open] : -1;
  if (close < 0) return args;
  for (const auto& [b, e] :
       split_commas(f, open + 1, static_cast<std::size_t>(close))) {
    std::string arg = join_tokens(f, b, e);
    if (!arg.empty()) args.push_back(std::move(arg));
  }
  return args;
}

// Scans the whole file for function definitions, plus the declarations
// that carry FEDCA_REQUIRES. Lexical and deliberately conservative: an
// ident (or `operator` and its symbol) followed by a balanced paren group,
// then qualifiers / annotation macros / a trailing return type / a ctor
// init list, then `{` (or `;` / `= ...` for a declaration). An annotation
// macro's own paren group never names a function.
std::vector<FnDef> find_function_defs(const SourceFile& f,
                                      const LockSymbols& syms) {
  std::vector<FnDef> defs;
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdent || is_control_keyword(t.text) ||
        t.text.rfind("FEDCA_", 0) == 0) {
      continue;
    }
    std::size_t open = i + 1;
    if (t.text == "operator") {
      // `operator+=(`, `operator()(`, `operator bool(`: the parameters
      // open at the first `(` after the operator's own tokens.
      if (is_punct(f, open, "(") && is_punct(f, open + 1, ")")) open += 2;
      while (open < n && open < i + 6 && !is_punct(f, open, "(") &&
             !is_punct(f, open, ";") && !is_punct(f, open, "{")) {
        ++open;
      }
    }
    if (!is_punct(f, open, "(")) continue;
    const int close = f.paren_match[open];
    if (close < 0) continue;

    FnDef def;
    def.name_idx = i;
    def.params_open = open;
    def.params_close = static_cast<std::size_t>(close);
    std::size_t head = i;  // walks back over `~` and `Owner ::`
    def.destructor = head > 0 && is_punct(f, head - 1, "~");
    if (def.destructor) --head;
    if (head >= 2 && is_punct(f, head - 1, "::") &&
        f.tokens[head - 2].kind == TokenKind::kIdent) {
      def.owner = f.tokens[head - 2].text;
    }

    // Walk the tokens between `)` and a potential `{`, consuming known
    // qualifiers, annotation macros (collecting FEDCA_REQUIRES), and a
    // constructor init list. Anything unexpected disqualifies the match.
    std::size_t j = def.params_close + 1;
    bool ok = false;
    bool in_init_list = false;
    bool in_trailing_return = false;
    while (j < n) {
      const Token& q = f.tokens[j];
      if (q.kind == TokenKind::kPunct) {
        if (q.text == "{") {
          if (in_init_list && j > 0 &&
              f.tokens[j - 1].kind == TokenKind::kIdent) {
            // Brace-init of a member (`x_{2}`): skip the group.
            const int bm = f.brace_match[j];
            if (bm < 0) break;
            j = static_cast<std::size_t>(bm) + 1;
            continue;
          }
          ok = true;
          break;
        }
        if (q.text == ":") {
          in_init_list = true;
          ++j;
          continue;
        }
        if (q.text == "," && in_init_list) {
          ++j;
          continue;
        }
        if (q.text == "(" && in_init_list) {
          const int pm = f.paren_match[j];
          if (pm < 0) break;
          j = static_cast<std::size_t>(pm) + 1;
          continue;
        }
        if (q.text == "&" || q.text == "&&" || q.text == "::") {
          ++j;  // e.g. ref-qualifier, qualified init-list member
          continue;
        }
        if (q.text == "->" && !in_init_list) {
          in_trailing_return = true;
          ++j;
          continue;
        }
        if (in_trailing_return) {
          // The return type's own punctuation: `std::vector<int>*`,
          // `decltype(x)`. A `)` or an operator ends the match, so a call
          // like `get(x)->ok()` inside a condition is never a definition.
          if (q.text == "(") {
            const int pm = f.paren_match[j];
            if (pm < 0) break;
            j = static_cast<std::size_t>(pm) + 1;
            continue;
          }
          if (q.text == "<" || q.text == ">" || q.text == "*" || q.text == ",") {
            ++j;
            continue;
          }
        }
        // `;` or `= 0/default/delete`: a declaration, kept only for its
        // FEDCA_REQUIRES. Operators and the rest: not a function at all.
        def.declaration = (q.text == ";" || q.text == "=") && !in_init_list &&
                          !def.requires_mutexes.empty();
        break;
      }
      // Identifier after the params: const/noexcept/override/etc, an
      // annotation macro (with optional arg list), or an init-list member.
      if (q.text.rfind("FEDCA_", 0) == 0) {
        if (is_punct(f, j + 1, "(")) {
          if (q.text == "FEDCA_REQUIRES") {
            for (std::string& a : call_args(f, j + 1)) {
              def.requires_mutexes.push_back(std::move(a));
            }
          }
          const int pm = f.paren_match[j + 1];
          if (pm < 0) break;
          j = static_cast<std::size_t>(pm) + 1;
        } else {
          ++j;
        }
        continue;
      }
      ++j;
    }
    if (!ok && !def.declaration) continue;
    if (ok) {
      def.body_open = j;
      const int bm = f.brace_match[j];
      if (bm < 0) continue;
      def.body_close = static_cast<std::size_t>(bm);
    }

    for (const auto& [b, e] :
         split_commas(f, def.params_open + 1, def.params_close)) {
      std::string name = run_param_name(f, b, e);
      if (!name.empty() && run_mentions_callback_type(f, b, e, syms)) {
        def.callback_params.push_back(name);
      }
      def.params.push_back(std::move(name));
    }
    defs.push_back(std::move(def));
    i = defs.back().params_close;  // resume after the params: bodies nest defs
  }
  return defs;
}

// True when the `{` at index i opens a lambda body: `] {`, `](...) {`, or
// `](...) qualifiers {`.
bool is_lambda_brace(const SourceFile& f, std::size_t i) {
  if (i == 0) return false;
  std::size_t j = i - 1;
  // Skip trailing qualifiers (mutable, noexcept, -> type) back to `)` or `]`.
  while (j > 0 && f.tokens[j].kind == TokenKind::kIdent) --j;
  if (f.tokens[j].kind == TokenKind::kPunct && f.tokens[j].text == ")") {
    const int open = f.paren_match[j];
    if (open <= 0) return false;
    j = static_cast<std::size_t>(open) - 1;
    while (j > 0 && f.tokens[j].kind == TokenKind::kIdent) --j;
  }
  return f.tokens[j].kind == TokenKind::kPunct && f.tokens[j].text == "]";
}

struct HeldLock {
  std::string key;        // mutex expression text
  int brace_depth = 0;    // released when this depth closes
  bool manual = false;    // X.lock()/try_lock(): released by X.unlock()
  int line = 0;
};

// One open brace of the scope walk.
struct Scope {
  enum Kind { kBlock, kLambda, kClass, kFunction };
  Kind kind = kBlock;
  std::string name;     // kClass: the class; kFunction: its owner ("" if free)
  bool exempt = false;  // kFunction: a constructor or destructor body
};

// A function-local class; visible until the brace that holds it closes.
struct LocalClass {
  std::string name;
  int depth = 0;  // of the brace that holds it
  LockSymbols::ClassInfo info;
};

// One class body: `class|struct [annotation macros] Name [final] [: bases] {`.
struct ClassBody {
  std::string name;
  std::size_t open = 0;
  std::size_t close = 0;
};

std::vector<ClassBody> find_class_bodies(const SourceFile& f) {
  std::vector<ClassBody> out;
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!is_ident(f, i, "class") && !is_ident(f, i, "struct")) continue;
    if (i > 0 && is_ident(f, i - 1, "enum")) continue;
    std::size_t j = i + 1;
    while (j < n && f.tokens[j].text.rfind("FEDCA_", 0) == 0) {  // attributes
      j = is_punct(f, j + 1, "(") && f.paren_match[j + 1] > 0
              ? static_cast<std::size_t>(f.paren_match[j + 1]) + 1
              : j + 1;
    }
    if (j >= n || f.tokens[j].kind != TokenKind::kIdent) continue;
    const std::string& name = f.tokens[j].text;
    ++j;
    if (is_ident(f, j, "final")) ++j;
    if (is_punct(f, j, ":")) {  // base clause: names, `::`, `,`, template args
      while (j < n && !is_punct(f, j, "{") && !is_punct(f, j, ";") &&
             !is_punct(f, j, "(") && !is_punct(f, j, "=")) {
        ++j;
      }
    }
    if (!is_punct(f, j, "{") || f.brace_match[j] < 0) continue;
    out.push_back(
        ClassBody{name, j, static_cast<std::size_t>(f.brace_match[j])});
  }
  return out;
}

// The data members declared at the top level of a class body: each one's
// FEDCA_GUARDED_BY argument, and its type's last identifier (so
// `util::CondVar cv_;` types `cv_` as CondVar). Member function bodies,
// nested classes and parameter lists are skipped whole.
void collect_members(const SourceFile& f, const ClassBody& c,
                     LockSymbols::ClassInfo& info) {
  for (std::size_t k = c.open + 1; k < c.close; ++k) {
    const Token& t = f.tokens[k];
    if (is_punct(f, k, "{") && f.brace_match[k] > 0) {
      k = static_cast<std::size_t>(f.brace_match[k]);
      continue;
    }
    if (is_punct(f, k, "(") && f.paren_match[k] > 0) {
      k = static_cast<std::size_t>(f.paren_match[k]);
      continue;
    }
    if (t.kind != TokenKind::kIdent) continue;
    const bool guarded =
        is_ident(f, k + 1, "FEDCA_GUARDED_BY") && is_punct(f, k + 2, "(");
    if (guarded) {
      std::vector<std::string> args = call_args(f, k + 2);
      if (!args.empty()) info.guarded[t.text] = std::move(args.front());
    }
    if (k > 0 && f.tokens[k - 1].kind == TokenKind::kIdent &&
        (guarded || is_punct(f, k + 1, ";") || is_punct(f, k + 1, "=") ||
         is_punct(f, k + 1, "{"))) {
      info.member_types[t.text] = f.tokens[k - 1].text;
    }
  }
}

// The last component of a mutex expression: `shared.error_mutex`,
// `other->mu_` and `*mu_` all name `error_mutex` / `mu_`.
std::string last_component(const std::string& expr) {
  const std::size_t sep = expr.find_last_of(".>");
  std::string last = sep == std::string::npos ? expr : expr.substr(sep + 1);
  last.erase(0, last.find_first_not_of("*&"));
  return last;
}

}  // namespace

void collect_callback_aliases(const SourceFile& f, LockSymbols& syms) {
  const std::size_t n = f.tokens.size();
  for (std::size_t i = 0; i + 3 < n; ++i) {
    if (!is_ident(f, i, "using") && !is_ident(f, i, "typedef")) continue;
    // `using Name = ...;` — typedef spelling is rare here but cheap to
    // accept via the same "does the declaration mention std::function or a
    // function-pointer pattern" scan.
    std::string name;
    std::size_t end = i + 1;
    if (is_ident(f, i, "using") && f.tokens[i + 1].kind == TokenKind::kIdent &&
        is_punct(f, i + 2, "=")) {
      name = f.tokens[i + 1].text;
      end = i + 3;
    }
    // Find the terminating `;`.
    std::size_t semi = end;
    while (semi < n && !is_punct(f, semi, ";")) ++semi;
    if (semi >= n) break;
    bool is_callback = false;
    for (std::size_t j = end; j < semi; ++j) {
      if (f.tokens[j].kind == TokenKind::kIdent &&
          (f.tokens[j].text == "function" ||
           f.tokens[j].text == "packaged_task") &&
          j >= 2 && is_ident(f, j - 2, "std") && is_punct(f, j - 1, "::")) {
        is_callback = true;
        break;
      }
      // Function-pointer alias: `using X = ret (*)(args);`
      if (is_punct(f, j, "(") && is_punct(f, j + 1, "*") &&
          is_punct(f, j + 2, ")") && is_punct(f, j + 3, "(")) {
        is_callback = true;
        break;
      }
    }
    if (is_callback) {
      if (name.empty() && is_ident(f, i, "typedef")) {
        // typedef: the name is the last ident before `;`.
        for (std::size_t j = end; j < semi; ++j) {
          if (f.tokens[j].kind == TokenKind::kIdent) name = f.tokens[j].text;
        }
      }
      if (!name.empty()) syms.callback_aliases.insert(name);
    }
    i = semi;
  }
}

void collect_lock_declarations(const SourceFile& f, LockSymbols& syms) {
  // `Mutex name` / `util::Mutex name` declarations plus every identifier
  // named in a FEDCA_GUARDED_BY annotation (last path component of the
  // guard expression). Manual X.lock()/X.try_lock() tracking applies only
  // to these, so random `.lock()` methods on non-mutex types cannot
  // fabricate held scopes.
  for (std::size_t i = 0; i + 1 < f.tokens.size(); ++i) {
    if (is_ident(f, i, "Mutex") && f.tokens[i + 1].kind == TokenKind::kIdent) {
      syms.mutex_names.insert(f.tokens[i + 1].text);
    }
    if (is_ident(f, i, "FEDCA_GUARDED_BY") && is_punct(f, i + 1, "(")) {
      for (const std::string& a : call_args(f, i + 1)) {
        syms.mutex_names.insert(last_component(a));
      }
    }
  }

  const std::vector<FnDef> defs = find_function_defs(f, syms);
  // Functions whose body invokes one of their callback parameters.
  for (const FnDef& def : defs) {
    if (def.declaration || def.callback_params.empty()) continue;
    for (std::size_t i = def.body_open; i < def.body_close; ++i) {
      const Token& t = f.tokens[i];
      if (t.kind != TokenKind::kIdent) continue;
      const bool is_param =
          std::find(def.callback_params.begin(), def.callback_params.end(),
                    t.text) != def.callback_params.end();
      if (!is_param) continue;
      const bool direct_call = is_punct(f, i + 1, "(");
      const bool deref_call =  // `(*sink)(...)`
          i >= 2 && is_punct(f, i - 1, "*") && is_punct(f, i - 2, "(") &&
          is_punct(f, i + 1, ")") && is_punct(f, i + 2, "(");
      if (direct_call || deref_call) {
        syms.callback_invoking_fns.insert(f.tokens[def.name_idx].text);
        break;
      }
    }
  }

  const std::vector<ClassBody> bodies = find_class_bodies(f);
  auto in_function = [&](std::size_t i) {
    return std::any_of(defs.begin(), defs.end(), [&](const FnDef& d) {
      return !d.declaration && d.body_open < i && i < d.body_close;
    });
  };
  // Function-local classes are left to the scope walk: their members are
  // visible only inside the declaring function.
  for (const ClassBody& c : bodies) {
    if (!in_function(c.open)) collect_members(f, c, syms.classes[c.name]);
  }
  for (const FnDef& d : defs) {
    if (d.requires_mutexes.empty()) continue;
    std::string owner = d.owner;
    if (owner.empty()) {  // declared or defined inside its class body
      const ClassBody* inner = nullptr;
      for (const ClassBody& c : bodies) {
        if (c.open < d.name_idx && d.name_idx < c.close &&
            (inner == nullptr || c.open > inner->open)) {
          inner = &c;
        }
      }
      // A free function, or a method of a function-local class.
      if (inner == nullptr || in_function(inner->open)) continue;
      owner = inner->name;
    }
    LockSymbols::Requirement& req =
        syms.classes[owner].requirements[f.tokens[d.name_idx].text];
    req.mutexes = d.requires_mutexes;
    req.params = d.params;
  }
}

void analyze_lock_scopes(const SourceFile& f, const LockSymbols& syms,
                         std::vector<LockEdge>& edges,
                         std::vector<Finding>& findings) {
  const std::size_t n = f.tokens.size();
  const std::vector<FnDef> defs = find_function_defs(f, syms);
  std::map<std::size_t, const FnDef*> def_by_body;
  for (const FnDef& d : defs) {
    if (!d.declaration) def_by_body.emplace(d.body_open, &d);
  }
  std::map<std::size_t, ClassBody> class_by_body;
  for (ClassBody& c : find_class_bodies(f)) {
    class_by_body.emplace(c.open, std::move(c));
  }
  const std::set<std::string>& mutex_names = syms.mutex_names;

  // File-wide callback-typed identifiers: declarations whose type mentions
  // a callback alias or std::function/std::packaged_task. The declared
  // name is the first identifier after the type's template closure.
  std::set<std::string> callback_vars;
  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind != TokenKind::kIdent) continue;
    std::size_t after_type = 0;
    if ((t.text == "function" || t.text == "packaged_task") && i >= 2 &&
        is_ident(f, i - 2, "std") && is_punct(f, i - 1, "::") &&
        is_punct(f, i + 1, "<")) {
      after_type = skip_template_args(f, i + 1);
    } else if (syms.callback_aliases.count(t.text) != 0) {
      after_type = i + 1;
    } else {
      continue;
    }
    // Skip cv/ref decorations between the type and the declared name.
    while (after_type < n &&
           ((f.tokens[after_type].kind == TokenKind::kPunct &&
             (f.tokens[after_type].text == "&" ||
              f.tokens[after_type].text == "*" ||
              f.tokens[after_type].text == "&&")) ||
            is_ident(f, after_type, "const"))) {
      ++after_type;
    }
    if (after_type < n && f.tokens[after_type].kind == TokenKind::kIdent &&
        !is_punct(f, after_type + 1, "(")) {  // `Sink make()` is a fn decl
      callback_vars.insert(f.tokens[after_type].text);
    }
  }

  // The scope walk. Brace depth indexes lock lifetimes; lambda bodies
  // suspend the held set (a deferred callback does not run under the locks
  // that happened to be held where it was *written*).
  std::vector<HeldLock> held;
  std::vector<std::size_t> lambda_saves;   // held.size() snapshots
  std::vector<HeldLock> parked;
  std::vector<Scope> scopes;               // one per open brace
  std::vector<LocalClass> local_classes;

  using ClassInfo = LockSymbols::ClassInfo;
  auto class_info = [&](const std::string& name) -> const ClassInfo* {
    for (auto it = local_classes.rbegin(); it != local_classes.rend(); ++it) {
      if (it->name == name) return &it->info;
    }
    auto it = syms.classes.find(name);
    return it == syms.classes.end() ? nullptr : &it->second;
  };
  auto depth = [&]() { return static_cast<int>(scopes.size()); };
  // Innermost enclosing scope that is not a plain block.
  auto enclosing = [&]() -> const Scope* {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind != Scope::kBlock) return &*it;
    }
    return nullptr;
  };

  auto add_acquisition = [&](const std::string& key, int line, bool manual) {
    for (const HeldLock& h : held) {
      edges.push_back(LockEdge{h.key, key, f.rel_path, line});
    }
    held.push_back(HeldLock{key, depth(), manual, line});
  };

  auto flag_callback = [&](int line, const std::string& what) {
    const HeldLock& h = held.back();
    add_finding(findings, "lock-callback", f.rel_path, line,
                what + " invoked while holding '" + h.key + "' (acquired line " +
                    std::to_string(h.line) +
                    ") — a callback that blocks, re-enters, or takes its own "
                    "lock deadlocks or inverts; invoke it after the scope "
                    "ends (waive with // analyze:waive(lock-callback))");
  };

  // guarded-access: a FEDCA_GUARDED_BY member or a FEDCA_REQUIRES call at
  // token i needs a held lock whose last path component names its mutex.
  auto flag_unheld = [&](std::size_t i, const std::string& what,
                         const std::string& mutex) {
    const std::string name = last_component(mutex);
    for (const HeldLock& h : held) {
      if (last_component(h.key) == name) return;
    }
    add_finding(findings, "guarded-access", f.rel_path, f.tokens[i].line,
                what + " without holding '" + name +
                    "' — take a util::MutexLock on it, or move the access "
                    "into a FEDCA_REQUIRES(" + name +
                    ") helper (waive with // analyze:waive(guarded-access))");
  };
  auto check_call = [&](std::size_t i, const LockSymbols::Requirement& req) {
    std::vector<std::string> args;  // read only when a mutex names a parameter
    for (const std::string& mu : req.mutexes) {
      std::string need = mu;
      const auto p = std::find(req.params.begin(), req.params.end(), mu);
      if (p != req.params.end()) {
        if (args.empty()) args = call_args(f, i + 1);
        const auto at = static_cast<std::size_t>(p - req.params.begin());
        if (at >= args.size()) continue;
        need = args[at];
      }
      flag_unheld(i, "call to '" + f.tokens[i].text + "' (FEDCA_REQUIRES(" +
                         mu + "))",
                  need);
    }
  };
  auto check_guarded = [&](std::size_t i) {
    // The innermost function body decides whose members a name can mean.
    // A lambda inside it is checked with its own held set, even inside a
    // constructor or destructor.
    const Scope* fn = nullptr;
    bool in_lambda = false;
    for (auto it = scopes.rbegin(); it != scopes.rend() && !fn; ++it) {
      if (it->kind == Scope::kLambda) in_lambda = true;
      if (it->kind == Scope::kFunction) fn = &*it;
    }
    if (fn == nullptr || (fn->exempt && !in_lambda)) return;
    if (i > 0 && is_punct(f, i - 1, "::")) return;
    const std::string& name = f.tokens[i].text;
    const bool call = is_punct(f, i + 1, "(");
    const bool member_access =
        i >= 2 && (is_punct(f, i - 1, ".") || is_punct(f, i - 1, "->"));
    const ClassInfo* own = class_info(fn->name);
    if (!member_access || is_ident(f, i - 2, "this")) {
      if (own == nullptr) return;
      if (auto g = own->guarded.find(name); g != own->guarded.end()) {
        flag_unheld(i, "'" + name + "' (FEDCA_GUARDED_BY(" + g->second + "))",
                    g->second);
      }
      if (auto r = own->requirements.find(name);
          call && r != own->requirements.end()) {
        check_call(i, r->second);
      }
      return;
    }
    // `x.name`: a member of a function-local class (the only way to reach
    // one), or a FEDCA_REQUIRES method of a member whose type declares it.
    for (const LocalClass& local : local_classes) {
      const auto g = local.info.guarded.find(name);
      if (g != local.info.guarded.end()) {
        flag_unheld(i, "'" + name + "' (FEDCA_GUARDED_BY(" + g->second + "))",
                    g->second);
      }
    }
    if (!call || own == nullptr || f.tokens[i - 2].kind != TokenKind::kIdent) {
      return;
    }
    const auto type = own->member_types.find(f.tokens[i - 2].text);
    if (type == own->member_types.end()) return;
    const ClassInfo* recv = class_info(type->second);
    if (recv == nullptr) return;
    if (auto r = recv->requirements.find(name); r != recv->requirements.end()) {
      check_call(i, r->second);
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Token& t = f.tokens[i];
    if (t.kind == TokenKind::kPunct) {
      if (t.text == "{") {
        Scope scope;
        const Scope* outer = enclosing();
        const auto cls = class_by_body.find(i);
        const auto def = def_by_body.find(i);
        if (is_lambda_brace(f, i)) {
          scope.kind = Scope::kLambda;
          lambda_saves.push_back(parked.size());
          for (HeldLock& h : held) parked.push_back(std::move(h));
          held.clear();
        } else if (cls != class_by_body.end()) {
          scope.kind = Scope::kClass;
          scope.name = cls->second.name;
          if (outer != nullptr && outer->kind != Scope::kClass) {
            LocalClass local{cls->second.name, depth(), {}};
            collect_members(f, cls->second, local.info);
            local_classes.push_back(std::move(local));
          }
        } else if (def != def_by_body.end() &&
                   (outer == nullptr || outer->kind == Scope::kClass)) {
          // A function body (nothing that looks like one nests directly in
          // another): its owner is the `Owner::` qualifier or the class
          // whose body holds it.
          const FnDef& d = *def->second;
          const std::string& fn_name = f.tokens[d.name_idx].text;
          scope.kind = Scope::kFunction;
          scope.name = !d.owner.empty() ? d.owner
                       : outer != nullptr ? outer->name
                                          : std::string();
          scope.exempt =
              d.destructor || (!scope.name.empty() && fn_name == scope.name);
          // FEDCA_REQUIRES on the definition or on its declaration: the
          // mutexes are held throughout the body.
          std::vector<std::string> required = d.requires_mutexes;
          if (const ClassInfo* info = class_info(scope.name)) {
            const auto r = info->requirements.find(fn_name);
            if (r != info->requirements.end()) {
              required.insert(required.end(), r->second.mutexes.begin(),
                              r->second.mutexes.end());
            }
          }
          for (const std::string& mu : required) {
            held.push_back(HeldLock{mu, depth() + 1, false, t.line});
          }
        }
        scopes.push_back(std::move(scope));
        continue;
      }
      if (t.text == "}") {
        if (!scopes.empty()) {
          const int closing = depth();
          held.erase(std::remove_if(held.begin(), held.end(),
                                    [&](const HeldLock& h) {
                                      return h.brace_depth == closing;
                                    }),
                     held.end());
          local_classes.erase(
              std::remove_if(local_classes.begin(), local_classes.end(),
                             [&](const LocalClass& l) {
                               return l.depth == closing;
                             }),
              local_classes.end());
          if (scopes.back().kind == Scope::kLambda) {
            const std::size_t mark = lambda_saves.back();
            lambda_saves.pop_back();
            held.clear();  // anything a lambda body acquired dies with it
            for (std::size_t k = mark; k < parked.size(); ++k) {
              held.push_back(std::move(parked[k]));
            }
            parked.resize(mark);
          }
          scopes.pop_back();
        }
        continue;
      }
      continue;
    }
    if (t.kind != TokenKind::kIdent) continue;
    // RAII acquisition: `MutexLock name(expr)` (optionally util::-qualified;
    // the lexer already dropped whitespace).
    if (t.text == "MutexLock" && i + 2 < n &&
        f.tokens[i + 1].kind == TokenKind::kIdent && is_punct(f, i + 2, "(")) {
      const int close = f.paren_match[i + 2];
      if (close > 0) {
        const std::string key =
            join_tokens(f, i + 3, static_cast<std::size_t>(close));
        add_acquisition(key, t.line, /*manual=*/false);
        i = static_cast<std::size_t>(close);
      }
      continue;
    }
    // Manual acquisition/release on a known mutex: X.lock(), X.try_lock(),
    // X.unlock(). try_lock is treated as acquired on the fall-through path,
    // which is exactly the path the following tokens lex as.
    if (mutex_names.count(t.text) != 0 && is_punct(f, i + 1, ".") &&
        i + 2 < n && f.tokens[i + 2].kind == TokenKind::kIdent &&
        is_punct(f, i + 3, "(")) {
      const std::string& op = f.tokens[i + 2].text;
      if (op == "lock" || op == "try_lock") {
        add_acquisition(t.text, t.line, /*manual=*/true);
        i += 3;
        continue;
      }
      if (op == "unlock") {
        for (std::size_t k = held.size(); k > 0; --k) {
          if (held[k - 1].manual && held[k - 1].key == t.text) {
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(k - 1));
            break;
          }
        }
        i += 3;
        continue;
      }
    }
    check_guarded(i);
    if (held.empty()) continue;

    // Callback invocation under a held lock.
    const bool direct_call = is_punct(f, i + 1, "(");
    const bool deref_call = i >= 2 && is_punct(f, i - 1, "*") &&
                            is_punct(f, i - 2, "(") && is_punct(f, i + 1, ")") &&
                            is_punct(f, i + 2, "(");
    if (!direct_call && !deref_call) continue;
    // Skip definitions/declarations: a name directly preceded by `::` is a
    // qualified definition header (`ThreadPool::submit(...)`), already
    // handled by find_function_defs; held is empty there anyway. Skip
    // type-ish contexts cheaply: preceded by `new`.
    if (i >= 1 && is_ident(f, i - 1, "new")) continue;
    if (callback_vars.count(t.text) != 0) {
      flag_callback(t.line, "callback '" + t.text + "'");
      continue;
    }
    if (direct_call && syms.callback_invoking_fns.count(t.text) != 0 &&
        !(i >= 1 && is_punct(f, i - 1, "::"))) {
      flag_callback(t.line, "'" + t.text +
                                "' (whose body invokes a callback parameter)");
    }
  }
}

void check_lock_order(const std::vector<LockEdge>& edges,
                      std::vector<Finding>& findings) {
  // File-qualified keys (see header). Self-edges are reported directly as
  // re-acquisition; everything else feeds cycle detection.
  struct Edge {
    std::string to;
    std::string file;
    int line;
  };
  std::map<std::string, std::vector<Edge>> graph;
  std::map<std::string, std::pair<std::string, int>> site;  // key -> decl site
  for (const LockEdge& e : edges) {
    const std::string from = e.from + "@" + e.file;
    const std::string to = e.to + "@" + e.file;
    if (from == to) {
      add_finding(findings, "lock-order", e.file, e.line,
                  "mutex '" + e.from +
                      "' acquired while already held in this scope — "
                      "guaranteed deadlock on a non-recursive mutex");
      continue;
    }
    graph[from].push_back(Edge{to, e.file, e.line});
    site.emplace(from, std::make_pair(e.file, e.line));
  }

  std::map<std::string, int> color;
  std::vector<std::pair<std::string, const Edge*>> stack;
  std::set<std::string> reported;

  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    auto it = graph.find(node);
    if (it != graph.end()) {
      for (const Edge& e : it->second) {
        if (color[e.to] == 1) {
          std::vector<std::pair<std::string, const Edge*>> cycle;
          cycle.emplace_back(node, &e);
          if (e.to != node) {
            for (auto r = stack.rbegin(); r != stack.rend(); ++r) {
              cycle.emplace_back(*r);
              if (r->first == e.to) break;
            }
          }
          std::reverse(cycle.begin(), cycle.end());
          std::string key;
          {
            std::vector<std::string> members;
            members.reserve(cycle.size());
            for (const auto& [mu, edge] : cycle) members.push_back(mu);
            std::sort(members.begin(), members.end());
            for (const std::string& m : members) key += m + "|";
          }
          if (reported.insert(key).second) {
            std::string msg = "lock-order cycle: ";
            for (const auto& [mu, edge] : cycle) {
              msg += mu.substr(0, mu.find('@')) + " -> ";
            }
            msg += cycle.front().first.substr(0, cycle.front().first.find('@'));
            msg += " (acquisition sites:";
            for (const auto& [mu, edge] : cycle) {
              msg += " " + edge->file + ":" + std::to_string(edge->line);
            }
            msg += ")";
            add_finding(findings, "lock-order", e.file, e.line, msg);
          }
        } else if (color[e.to] == 0) {
          stack.emplace_back(node, &e);
          dfs(e.to);
          stack.pop_back();
        }
      }
    }
    color[node] = 2;
  };
  for (const auto& [node, out] : graph) {
    if (color[node] == 0) dfs(node);
  }
}

}  // namespace fedca::analysis
