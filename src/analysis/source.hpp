// Lexed view of one C++ source file for fedca_analyze.
//
// A raw line scan trips on a rule name inside a string literal or a
// commented-out snippet. This lexer strips comments, string literals, and
// char literals into placeholder tokens *before* any rule runs, records
// every comment by line (waiver extraction), and captures #include directives with their line numbers
// (layering DAG edges). Preprocessor logical lines other than #include are
// consumed whole — macro bodies are not analyzed.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace fedca::analysis {

enum class TokenKind { kIdent, kNumber, kPunct, kString, kCharLit };

struct Token {
  std::string text;  // strings/chars are blanked to "" / ''
  int line = 0;
  TokenKind kind = TokenKind::kPunct;
};

struct IncludeDirective {
  int line = 0;
  std::string path;   // as written between the delimiters
  bool angled = false;
};

// One `analyze:waive` annotation: comma-separated rule names in parens.
struct Waiver {
  int line = 0;
  std::vector<std::string> rules;
};

struct SourceFile {
  std::string rel_path;  // repo-root relative, '/' separators
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;
  std::map<int, std::string> comments;  // line -> comment text
  std::vector<Waiver> waivers;

  // Matching-bracket tables over `tokens`: match[i] is the index of the
  // partner of an open/close paren or brace, or -1 when unbalanced.
  std::vector<int> paren_match;
  std::vector<int> brace_match;
};

// A build script (CMakeLists.txt / *.cmake), kept as raw text: the C++
// lexer does not apply, and its one rule (fast-math) is a line scan.
struct BuildScript {
  std::string rel_path;  // repo-root relative, '/' separators
  std::string text;
};

// Lexes `text` into `out` (rel_path must already be set). Also extracts
// waivers from the comments and builds the bracket tables.
void lex_source(const std::string& text, SourceFile& out);

inline bool is_ident(const SourceFile& f, std::size_t i, const char* text) {
  return i < f.tokens.size() && f.tokens[i].kind == TokenKind::kIdent &&
         f.tokens[i].text == text;
}
inline bool is_punct(const SourceFile& f, std::size_t i, const char* text) {
  return i < f.tokens.size() && f.tokens[i].kind == TokenKind::kPunct &&
         f.tokens[i].text == text;
}

// Index just past a balanced `<...>` template argument list whose `<` sits
// at `open` — or `open + 1` if no sane match is found within the file.
std::size_t skip_template_args(const SourceFile& f, std::size_t open);

}  // namespace fedca::analysis
