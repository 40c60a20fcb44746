#include "common/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/assertx.hpp"

namespace churnet {
namespace {

/// True when all of `text` is one base-10 int64 (strtoll, with nothing
/// skipped or left over and no saturation).
bool whole_int64(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  std::strtoll(text.c_str(), &end, 10);
  return *end == '\0' && errno != ERANGE;
}

/// True when all of `text` is one strtod number.
bool whole_double(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  std::strtod(text.c_str(), &end);
  return *end == '\0';
}

}  // namespace

Cli::Cli(std::string program_doc) : program_doc_(std::move(program_doc)) {}

void Cli::add_int(const std::string& name, std::int64_t default_value,
                  const std::string& doc) {
  options_[name] = {Kind::kInt, doc, std::to_string(default_value)};
}

void Cli::add_double(const std::string& name, double default_value,
                     const std::string& doc) {
  options_[name] = {Kind::kDouble, doc, std::to_string(default_value)};
}

void Cli::add_string(const std::string& name, const std::string& default_value,
                     const std::string& doc) {
  options_[name] = {Kind::kString, doc, default_value};
}

void Cli::add_flag(const std::string& name, const std::string& doc) {
  options_[name] = {Kind::kFlag, doc, "0"};
}

bool Cli::parse(int argc, const char* const* argv) {
  program_name_ = argc > 0 ? argv[0] : "program";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                   arg.c_str(), usage().c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    const auto it = options_.find(arg);
    if (it == options_.end()) {
      std::fprintf(stderr, "unknown option '--%s'\n%s", arg.c_str(),
                   usage().c_str());
      std::exit(2);
    }
    if (it->second.kind == Kind::kFlag) {
      if (has_value) {
        std::fprintf(stderr, "flag '--%s' does not take a value\n",
                     arg.c_str());
        std::exit(2);
      }
      it->second.value = "1";
      continue;
    }
    if (!has_value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option '--%s' needs a value\n", arg.c_str());
        std::exit(2);
      }
      value = argv[++i];
    }
    if (it->second.kind == Kind::kInt && !whole_int64(value)) {
      std::fprintf(stderr,
                   "option '--%s' needs a whole base-10 integer in int64 "
                   "range, got '%s'\n",
                   arg.c_str(), value.c_str());
      std::exit(2);
    }
    if (it->second.kind == Kind::kDouble && !whole_double(value)) {
      std::fprintf(stderr, "option '--%s' needs a number, got '%s'\n",
                   arg.c_str(), value.c_str());
      std::exit(2);
    }
    it->second.value = value;
  }
  return true;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return std::strtoll(find(name, Kind::kInt).value.c_str(), nullptr, 10);
}

std::int64_t Cli::get_int_in(const std::string& name, std::int64_t lo,
                            std::int64_t hi) const {
  const std::int64_t value = get_int(name);
  if (value < lo || value > hi) {
    std::fprintf(stderr, "option '--%s' must be an integer in [%lld, %lld], "
                 "got '%s'\n",
                 name.c_str(), static_cast<long long>(lo),
                 static_cast<long long>(hi),
                 find(name, Kind::kInt).value.c_str());
    std::exit(2);
  }
  return value;
}

double Cli::get_double(const std::string& name) const {
  return std::strtod(find(name, Kind::kDouble).value.c_str(), nullptr);
}

const std::string& Cli::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool Cli::get_flag(const std::string& name) const {
  return find(name, Kind::kFlag).value == "1";
}

const Cli::Option& Cli::find(const std::string& name, Kind kind) const {
  const auto it = options_.find(name);
  CHURNET_EXPECTS(it != options_.end());
  CHURNET_EXPECTS(it->second.kind == kind);
  return it->second;
}

std::string Cli::usage() const {
  std::string out = program_doc_ + "\n\nOptions:\n";
  for (const auto& [name, opt] : options_) {
    out += "  --" + name;
    if (opt.kind != Kind::kFlag) out += " <" + opt.value + ">";
    out += "\n      " + opt.doc + "\n";
  }
  return out;
}

}  // namespace churnet
