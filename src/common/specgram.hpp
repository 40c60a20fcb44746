// Shared grammar machinery for textual "name(args)" spec calls — the shape
// both the churn-spec ("pareto(2.5)") and protocol-spec ("push(3)")
// grammars are built from. One splitter keeps the diagnostics (missing
// ')', empty argument, bad number) identical across spec families.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace churnet {

/// One parsed "name(args)" call: a lowercased name plus numeric arguments.
struct SpecCall {
  std::string name;
  std::vector<double> args;
};

/// Strips leading/trailing whitespace.
std::string_view trim_spec(std::string_view text);

/// Lowercases a copy (ASCII).
std::string lowercase_spec(std::string_view text);

/// Stores `message` into `*error` when non-null; always returns false, so
/// parsers can `return spec_fail(error, ...)`.
bool spec_fail(std::string* error, std::string message);

/// Splits "name(a,b)" into a lowercased name and numeric args; "name" and
/// "name()" both yield zero args. On syntax errors ('(' without ')', empty
/// or non-numeric argument) returns false and stores a one-line reason
/// prefixed with `what` (e.g. "churn spec 'x': bad number 'y'").
bool split_spec_call(std::string_view text, const char* what, SpecCall* call,
                     std::string* error);

/// The call's name alone ("push" for "push(3)"), lowercased and trimmed —
/// for dispatching a segment to the right spec family before a full parse.
std::string spec_call_name(std::string_view text);

/// Splits a composite spec on top-level '+' into trimmed segments; '+'
/// inside '(...)' stays within its segment.
std::vector<std::string_view> split_spec_segments(std::string_view text);

/// Prints a numeric spec argument so that it parses back to the same
/// double: the two-decimal text when that round-trips ("2.50" for 2.5),
/// otherwise the shortest text that does ("0.501", "1e-300"). Canonical
/// spec names print their arguments with it, so distinct specs get
/// distinct names.
std::string fmt_spec_arg(double value);

/// Splits a comma-separated list of specs into entries, dropping all
/// whitespace; commas inside '(...)' belong to an entry's arguments
/// ("PDGR+bursty(4,0.5)" is one entry). Empty entries are skipped.
std::vector<std::string> split_spec_list(std::string_view text);

}  // namespace churnet
