#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace fedca::util {

namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ConfigError("expected key=value argument, got: " + token);
    }
    cfg.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return cfg;
}

void Config::set(const std::string& key, std::string value) {
  values_[to_lower(key)] = std::move(value);
}

bool Config::contains(const std::string& key) const {
  return values_.contains(to_lower(key));
}

std::string Config::get_string(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(to_lower(key));
  const std::string value = (it == values_.end()) ? fallback : it->second;
  read_[to_lower(key)] = value;
  return value;
}

long Config::get_int(const std::string& key, long fallback) const {
  const auto it = values_.find(to_lower(key));
  if (it == values_.end()) {
    read_[to_lower(key)] = std::to_string(fallback);
    return fallback;
  }
  try {
    std::size_t pos = 0;
    const long v = std::stol(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing chars");
    read_[to_lower(key)] = it->second;
    return v;
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "' is not an integer: " + it->second);
  }
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(to_lower(key));
  if (it == values_.end()) {
    read_[to_lower(key)] = std::to_string(fallback);
    return fallback;
  }
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing chars");
    read_[to_lower(key)] = it->second;
    return v;
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "' is not a number: " + it->second);
  }
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(to_lower(key));
  if (it == values_.end()) {
    read_[to_lower(key)] = fallback ? "true" : "false";
    return fallback;
  }
  const std::string v = to_lower(it->second);
  read_[to_lower(key)] = v;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw ConfigError("config key '" + key + "' is not a boolean: " + it->second);
}

std::string Config::require_string(const std::string& key) const {
  const auto it = values_.find(to_lower(key));
  if (it == values_.end()) throw ConfigError("missing required config key: " + key);
  read_[to_lower(key)] = it->second;
  return it->second;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

std::string Config::dump() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [k, v] : read_) {
    if (!first) out << ' ';
    first = false;
    out << k << '=' << v;
  }
  return out.str();
}

}  // namespace fedca::util
