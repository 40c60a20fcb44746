// Minimal command-line parsing for bench and example binaries.
//
// Supported syntax: --key value, --key=value and boolean --flag.
// Unknown arguments exit 2 with a message listing the known options, and a
// number that does not parse whole exits 2 naming the option and its text,
// so typos in experiment sweeps fail loudly instead of silently running
// defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace churnet {

/// Declarative CLI: declare options with defaults, then parse(argc, argv).
class Cli {
 public:
  /// `program_doc` is printed by --help.
  explicit Cli(std::string program_doc);

  /// Declares an integer option with a default.
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& doc);
  /// Declares a floating-point option with a default.
  void add_double(const std::string& name, double default_value,
                  const std::string& doc);
  /// Declares a string option with a default.
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& doc);
  /// Declares a boolean flag (default false).
  void add_flag(const std::string& name, const std::string& doc);

  /// Parses argv. On --help prints usage and returns false (caller should
  /// exit 0). On malformed/unknown arguments prints the reason and exits 2;
  /// malformed includes an integer option whose value is not a whole
  /// base-10 int64 and a double option whose value does not parse whole.
  bool parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  /// get_int checked against [lo, hi]: a value outside prints the option,
  /// its text and the range, and exits 2.
  std::int64_t get_int_in(const std::string& name, std::int64_t lo,
                          std::int64_t hi) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_flag(const std::string& name) const;

 private:
  enum class Kind { kInt, kDouble, kString, kFlag };
  struct Option {
    Kind kind;
    std::string doc;
    std::string value;  // textual; parsed on get
  };

  const Option& find(const std::string& name, Kind kind) const;
  std::string usage() const;

  std::string program_doc_;
  std::string program_name_;
  std::map<std::string, Option> options_;
};

}  // namespace churnet
