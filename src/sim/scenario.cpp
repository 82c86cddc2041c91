#include "sim/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace fedca::sim::scenario {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

}  // namespace

ScenarioError::ScenarioError(const std::string& file, std::size_t line,
                             const std::string& message)
    : std::runtime_error(file + ":" + std::to_string(line) + ": " + message),
      file_(file),
      line_(line) {}

void Document::fail(std::size_t line, const std::string& message) const {
  throw ScenarioError(filename_, line, message);
}

ScenarioError Document::error(const Entry* at, const std::string& message) const {
  if (at == nullptr || at->assignment.empty()) {
    return ScenarioError(filename_, at == nullptr ? 0 : at->line, message);
  }
  return ScenarioError(kOverrideSource, at->line, "'" + at->assignment + "': " + message);
}

Document Document::parse(const std::string& text, const std::string& filename) {
  Document doc;
  doc.filename_ = filename;
  std::istringstream stream(text);
  std::string raw;
  std::size_t line_no = 0;
  Section* current = nullptr;
  std::string current_name;
  while (std::getline(stream, raw)) {
    ++line_no;
    if (!raw.empty() && raw.back() == '\r') raw.pop_back();
    const std::string line = trim(raw);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        doc.fail(line_no, "unterminated section header (expected '[name]')");
      }
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (!valid_name(name)) {
        doc.fail(line_no, "invalid section name '" + name +
                              "' (use lower-case [a-z0-9_]+)");
      }
      const auto it = doc.sections_.find(name);
      if (it != doc.sections_.end()) {
        doc.fail(line_no, "duplicate section [" + name + "] (first defined at " +
                              filename + ":" + std::to_string(it->second.line) +
                              ")");
      }
      current = &doc.sections_[name];
      current->line = line_no;
      current_name = name;
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      doc.fail(line_no, "expected 'key = value' or '[section]', got '" + line +
                            "'");
    }
    const std::string key = trim(line.substr(0, eq));
    if (!valid_name(key)) {
      doc.fail(line_no,
               "invalid key '" + key + "' (use lower-case [a-z0-9_]+)");
    }
    if (current == nullptr) {
      doc.fail(line_no, "key '" + key + "' outside any [section]");
    }
    const auto it = current->entries.find(key);
    if (it != current->entries.end()) {
      doc.fail(line_no, "duplicate key '" + key + "' in [" + current_name +
                            "] (first set at " + filename + ":" +
                            std::to_string(it->second.line) + ")");
    }
    Entry entry;
    entry.value = trim(line.substr(eq + 1));
    entry.line = line_no;
    current->entries.emplace(key, std::move(entry));
  }
  return doc;
}

void Document::apply_override(const std::string& assignment, std::size_t index) {
  const auto eq = assignment.find('=');
  const auto dot = assignment.find('.');
  const std::string section = assignment.substr(0, std::min(dot, eq));
  const std::string key = dot < eq ? assignment.substr(dot + 1, eq - dot - 1) : "";
  if (eq == std::string::npos || !valid_name(section) || !valid_name(key)) {
    throw ScenarioError(kOverrideSource, index,
                        "expected section.key=value (lower-case [a-z0-9_]+ "
                        "names), got '" + assignment + "'");
  }
  Section& s = sections_[section];
  if (s.line == 0) {  // added here: a file's sections start at line 1
    s.line = index;
    s.assignment = assignment;
  }
  s.entries[key] = Entry{assignment.substr(eq + 1), index, assignment};
}

bool Document::has_section(const std::string& section) const {
  return sections_.contains(section);
}

void Document::allow_section(const std::string& section) {
  const auto it = sections_.find(section);
  if (it != sections_.end()) it->second.allowed = true;
}

const Entry* Document::find(const std::string& section,
                            const std::string& key) const {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return nullptr;
  const auto eit = sit->second.entries.find(key);
  return eit == sit->second.entries.end() ? nullptr : &eit->second;
}

Entry* Document::take(const std::string& section, const std::string& key) {
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return nullptr;
  sit->second.allowed = true;
  const auto eit = sit->second.entries.find(key);
  if (eit == sit->second.entries.end()) return nullptr;
  eit->second.consumed = true;
  return &eit->second;
}

std::string Document::get_string(const std::string& section,
                                 const std::string& key,
                                 const std::string& fallback) {
  const Entry* e = take(section, key);
  return e == nullptr ? fallback : e->value;
}

bool Document::get_bool(const std::string& section, const std::string& key,
                        bool fallback) {
  const Entry* e = take(section, key);
  if (e == nullptr) return fallback;
  const std::string v = lower(e->value);
  if (v == "true" || v == "on" || v == "yes" || v == "1") return true;
  if (v == "false" || v == "off" || v == "no" || v == "0") return false;
  throw error(e, "key '" + key + "': expected a boolean "
                 "(true/false/on/off/yes/no/1/0), got '" + e->value + "'");
}

long long Document::get_int(const std::string& section, const std::string& key,
                            long long fallback, long long lo, long long hi) {
  const Entry* e = take(section, key);
  if (e == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(e->value.c_str(), &end, 10);
  if (e->value.empty() || end != e->value.c_str() + e->value.size() ||
      errno == ERANGE) {
    throw error(e, "key '" + key + "': expected an integer, got '" + e->value + "'");
  }
  if (v < lo || v > hi) {
    throw error(e, "key '" + key + "': value " + e->value + " out of range [" +
                       std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

std::size_t Document::get_size(const std::string& section,
                               const std::string& key, std::size_t fallback,
                               std::size_t lo, std::size_t hi) {
  return static_cast<std::size_t>(get_int(section, key,
                                          static_cast<long long>(fallback),
                                          static_cast<long long>(lo),
                                          static_cast<long long>(hi)));
}

std::uint64_t Document::get_u64(const std::string& section,
                                const std::string& key, std::uint64_t fallback) {
  const Entry* e = take(section, key);
  if (e == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(e->value.c_str(), &end, 10);
  if (e->value.empty() || e->value.front() == '-' ||
      end != e->value.c_str() + e->value.size() || errno == ERANGE) {
    throw error(e, "key '" + key + "': expected an unsigned integer, got '" +
                       e->value + "'");
  }
  return v;
}

double Document::get_double(const std::string& section, const std::string& key,
                            double fallback, double lo, double hi) {
  const Entry* e = take(section, key);
  if (e == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(e->value.c_str(), &end);
  if (e->value.empty() || end != e->value.c_str() + e->value.size() ||
      !std::isfinite(v)) {
    throw error(e, "key '" + key + "': expected a finite number, got '" +
                       e->value + "'");
  }
  if (v < lo || v > hi) {
    std::ostringstream msg;
    msg << "key '" << key << "': value " << e->value << " out of range ["
        << lo << ", " << hi << "]";
    throw error(e, msg.str());
  }
  return v;
}

double Document::get_duration(const std::string& section,
                              const std::string& key, double fallback) {
  const Entry* e = find(section, key);
  if (e != nullptr) {
    const std::string v = lower(e->value);
    if (v == "none" || v == "inf" || v == "infinity") {
      take(section, key);
      return std::numeric_limits<double>::infinity();
    }
  }
  return get_double(section, key, fallback, 0.0,
                    std::numeric_limits<double>::max());
}

ScenarioError Document::error_at(const std::string& section,
                                const std::string& key,
                                const std::string& message) const {
  return error(find(section, key), message);
}

std::vector<std::pair<std::string, Entry>> Document::remaining(
    const std::string& section) const {
  std::vector<std::pair<std::string, Entry>> out;
  const auto sit = sections_.find(section);
  if (sit == sections_.end()) return out;
  for (const auto& [key, entry] : sit->second.entries) {
    if (!entry.consumed) out.emplace_back(key, entry);
  }
  return out;
}

void Document::finish() const {
  // Report the earliest offending line, file lines before overrides, so
  // the error is stable and points at the first thing a reader would see.
  Entry best;
  std::string message;
  const auto consider = [&](const Entry& at, std::string what) {
    if (message.empty() || std::pair(!at.assignment.empty(), at.line) <
                               std::pair(!best.assignment.empty(), best.line)) {
      best = at;
      message = std::move(what);
    }
  };
  for (const auto& [name, section] : sections_) {
    if (!section.allowed) {
      consider(Entry{"", section.line, section.assignment}, "unknown section [" + name + "]");
      continue;
    }
    for (const auto& [key, entry] : section.entries) {
      if (!entry.consumed) consider(entry, "unknown key '" + key + "' in [" + name + "]");
    }
  }
  if (!message.empty()) throw error(&best, message);
}

}  // namespace fedca::sim::scenario
