// Lightweight configuration map with typed accessors.
//
// Experiment and bench binaries are parameterized through key=value pairs
// coming from (in increasing precedence) built-in defaults, environment
// variables (FEDCA_<KEY>), and command-line arguments (key=value). The
// Config class records every key that was read so binaries can print the
// effective configuration next to their results — a reproduction harness
// should never have silent knobs.
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace fedca::util {

class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Config {
 public:
  Config() = default;

  // Parses "key=value" tokens; tokens without '=' raise ConfigError.
  static Config from_args(int argc, const char* const* argv);

  void set(const std::string& key, std::string value);
  bool contains(const std::string& key) const;

  // Typed getters with defaults. Reading records the key and its effective
  // value for dump(). Malformed values raise ConfigError.
  std::string get_string(const std::string& key, const std::string& fallback) const;
  long get_int(const std::string& key, long fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  // Required variants: throw if the key is absent.
  std::string require_string(const std::string& key) const;

  // Merges `other` on top of this config (other wins on conflicts).
  void overlay(const Config& other);

  // Loads FEDCA_<KEY> environment variables for each key in `keys`
  // (lower-cased key in the map).
  void load_env(const std::vector<std::string>& keys);

  // Every key that was set, sorted (lower-cased, as stored).
  std::vector<std::string> keys() const;

  // All keys that were read so far, with their effective values, sorted.
  std::vector<std::pair<std::string, std::string>> effective() const;

  // "key=value key=value ..." of effective() — for experiment headers.
  std::string dump() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, std::string> read_;
};

}  // namespace fedca::util
