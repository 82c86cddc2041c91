#include "sim/scenario.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

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

bool Document::has_section(const std::string& section) const {
  return sections_.contains(section);
}

bool Document::has_key(const std::string& section, const std::string& key) const {
  return find(section, key) != nullptr;
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
  fail(e->line, "key '" + key + "': expected a boolean "
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
    fail(e->line, "key '" + key + "': expected an integer, got '" + e->value +
                      "'");
  }
  if (v < lo || v > hi) {
    fail(e->line, "key '" + key + "': value " + e->value +
                      " out of range [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]");
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
    fail(e->line, "key '" + key + "': expected an unsigned integer, got '" +
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
    fail(e->line, "key '" + key + "': expected a finite number, got '" +
                      e->value + "'");
  }
  if (v < lo || v > hi) {
    std::ostringstream msg;
    msg << "key '" << key << "': value " << e->value << " out of range ["
        << lo << ", " << hi << "]";
    fail(e->line, msg.str());
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

std::size_t Document::line_of(const std::string& section,
                              const std::string& key) const {
  const Entry* e = find(section, key);
  return e == nullptr ? 0 : e->line;
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
  // Report the earliest offending line so the error is stable and points
  // at the first thing a reader would see.
  std::size_t best_line = std::numeric_limits<std::size_t>::max();
  std::string message;
  for (const auto& [name, section] : sections_) {
    if (!section.allowed) {
      if (section.line < best_line) {
        best_line = section.line;
        message = "unknown section [" + name + "]";
      }
      continue;
    }
    for (const auto& [key, entry] : section.entries) {
      if (!entry.consumed && entry.line < best_line) {
        best_line = entry.line;
        message = "unknown key '" + key + "' in [" + name + "]";
      }
    }
  }
  if (!message.empty()) fail(best_line, message);
}

}  // namespace fedca::sim::scenario
