#include "common/specgram.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace churnet {

std::string_view trim_spec(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string lowercase_spec(std::string_view text) {
  std::string result(text);
  for (char& c : result) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return result;
}

bool spec_fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

bool split_spec_call(std::string_view text, const char* what, SpecCall* call,
                     std::string* error) {
  text = trim_spec(text);
  call->name.clear();
  call->args.clear();
  if (text.empty()) return spec_fail(error, std::string("empty ") + what);
  const std::size_t open = text.find('(');
  if (open == std::string_view::npos) {
    call->name = lowercase_spec(text);
    return true;
  }
  if (text.back() != ')') {
    return spec_fail(error, std::string(what) + " '" + std::string(text) +
                                "': missing closing ')'");
  }
  call->name = lowercase_spec(trim_spec(text.substr(0, open)));
  std::string_view body = text.substr(open + 1, text.size() - open - 2);
  body = trim_spec(body);
  if (body.empty()) return true;  // "name()" == "name"
  while (!body.empty()) {
    const std::size_t comma = body.find(',');
    const std::string_view piece = trim_spec(
        comma == std::string_view::npos ? body : body.substr(0, comma));
    if (piece.empty()) {
      return spec_fail(error, std::string(what) + " '" + std::string(text) +
                                  "': empty argument");
    }
    const std::string number(piece);
    char* end = nullptr;
    const double value = std::strtod(number.c_str(), &end);
    if (end != number.c_str() + number.size()) {
      return spec_fail(error, std::string(what) + " '" + std::string(text) +
                                  "': bad number '" + number + "'");
    }
    call->args.push_back(value);
    if (comma == std::string_view::npos) break;
    body = body.substr(comma + 1);
  }
  return true;
}

std::string spec_call_name(std::string_view text) {
  text = trim_spec(text);
  const std::size_t open = text.find('(');
  if (open != std::string_view::npos) text = text.substr(0, open);
  return lowercase_spec(trim_spec(text));
}

std::string fmt_spec_arg(double value) {
  char buffer[512];  // "%.2f" of the largest double takes 313 characters
  std::snprintf(buffer, sizeof buffer, "%.2f", value);
  if (std::strtod(buffer, nullptr) == value) return buffer;
  const auto printed = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, printed.ptr);
}

std::vector<std::string> split_spec_list(std::string_view text) {
  std::vector<std::string> parts;
  std::string current;
  int depth = 0;
  for (const char c : text) {
    if (c == '(') ++depth;
    if (c == ')' && depth > 0) --depth;
    if (c == ',' && depth == 0) {
      if (!current.empty()) parts.push_back(current);
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current.push_back(c);
    }
  }
  if (!current.empty()) parts.push_back(current);
  return parts;
}

std::vector<std::string_view> split_spec_segments(std::string_view text) {
  std::vector<std::string_view> segments;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && depth > 0) --depth;
    if (text[i] == '+' && depth == 0) {
      segments.push_back(trim_spec(text.substr(start, i - start)));
      start = i + 1;
    }
  }
  segments.push_back(trim_spec(text.substr(start)));
  return segments;
}

}  // namespace churnet
