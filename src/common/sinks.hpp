// Shared helpers for the CSV/JSON result sinks (SweepResult, the result
// stream, churnet_repro's manifests): round-trip float precision, JSON-safe
// numbers and strings, RFC-4180 CSV field quoting. One implementation so
// escaping rules can never drift between sinks.
#pragma once

#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

namespace churnet {

/// Round-trip double precision for a sink stream, restored on scope exit:
/// emitted samples must reproduce the in-memory values exactly.
class PrecisionGuard {
 public:
  explicit PrecisionGuard(std::ostream& os)
      : os_(os),
        previous_(os.precision(std::numeric_limits<double>::max_digits10)) {}
  ~PrecisionGuard() { os_.precision(previous_); }

  PrecisionGuard(const PrecisionGuard&) = delete;
  PrecisionGuard& operator=(const PrecisionGuard&) = delete;

 private:
  std::ostream& os_;
  std::streamsize previous_;
};

/// NaN and infinities have no JSON representation; emit null so the
/// output always parses.
inline void write_json_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
  } else {
    os << value;
  }
}

/// Writes `text` as a JSON string literal (quotes, backslashes and
/// control characters escaped).
inline void write_json_string(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// One CSV field under RFC-4180: quoted (with doubled inner quotes) iff it
/// contains a comma, quote or newline — churn specs like "bursty(4,0.5)"
/// must not add columns.
inline std::string csv_field(std::string_view text) {
  const bool needs_quoting =
      text.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) return std::string(text);
  std::string quoted;
  quoted.reserve(text.size() + 2);
  quoted.push_back('"');
  for (const char c : text) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

}  // namespace churnet
