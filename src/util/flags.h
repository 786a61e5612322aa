#ifndef PMBE_UTIL_FLAGS_H_
#define PMBE_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

/// \file
/// A tiny command-line flag parser for the benchmark and example binaries.
/// Supports `--name=value`, `--name value` and boolean `--name` /
/// `--no-name` forms. An unknown flag, a malformed value or a missing value
/// prints `error: INVALID_ARGUMENT: ...` with a usage listing and exits 2,
/// so typos in experiment invocations fail loudly rather than silently
/// running the default configuration.

namespace mbe::util {

/// Parses argv into named flags plus positional arguments.
class FlagParser {
 public:
  /// Registers a flag with a default value and help text. Registration must
  /// happen before Parse().
  void AddString(const std::string& name, const std::string& default_value,
                 const std::string& help);
  void AddInt(const std::string& name, int64_t default_value,
              const std::string& help);
  void AddDouble(const std::string& name, double default_value,
                 const std::string& help);
  void AddBool(const std::string& name, bool default_value,
               const std::string& help);

  /// Parses the command line. Exits 2 with an INVALID_ARGUMENT error and
  /// usage on an unknown flag or a malformed or missing value. `--help`
  /// prints usage and exits(0).
  void Parse(int argc, char** argv);

  /// Typed accessors; abort if the flag was not registered with the
  /// matching type.
  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// InvalidArgument unless int flag `name` lies in [lo, hi]. Check before
  /// casting a value to a narrower or unsigned type, so a negative or
  /// oversized value is rejected instead of wrapping.
  Status CheckIntRange(const std::string& name, int64_t lo, int64_t hi) const;

  /// Arguments that were not flags, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Prints the usage listing to stderr.
  void PrintUsage(const char* argv0) const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string help;
    std::string value;  // canonical textual value
  };

  const Flag& GetFlagOrDie(const std::string& name, Type type) const;
  Status ParseArgs(int argc, char** argv);
  Status SetValue(const std::string& name, const std::string& value);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool parsed_ = false;
};

}  // namespace mbe::util

#endif  // PMBE_UTIL_FLAGS_H_
