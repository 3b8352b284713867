#include "util/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "util/string_util.h"

namespace hetps {
namespace {

/// True when all of `text` is one number that fits a Number.
template <typename Number>
bool ParseWhole(std::string_view text, Number* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

template <typename T>
std::string Show(const T& value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

}  // namespace

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      value = argv[++i];
    } else {
      value = "true";
    }
    if (name.empty()) {
      return Status::InvalidArgument("empty flag name in '" + arg + "'");
    }
    if (values_.count(name)) {
      return Status::InvalidArgument("duplicate flag --" + name);
    }
    values_[name] = value;
  }
  return Status::OK();
}

bool FlagParser::WasRead(const std::string& name) const {
  return std::any_of(read_.begin(), read_.end(),
                     [&](const ReadFlag& f) { return f.name == name; });
}

const std::string* FlagParser::Find(const std::string& name,
                                    const std::string& type,
                                    const std::string& default_value) {
  if (!WasRead(name)) read_.push_back({name, type, default_value});
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

Status FlagParser::Malformed(const std::string& name,
                             const std::string& expected,
                             const std::string& value) {
  const Status st = Status::InvalidArgument(
      "flag --" + name + " expects " + expected + ", got '" + value + "'");
  if (first_error_.ok()) first_error_ = st;
  return st;
}

template <typename Number>
Status FlagParser::Read(const std::string& name, Number* field) {
  const char* type = std::is_floating_point_v<Number> ? "number"
                     : std::is_signed_v<Number>       ? "int"
                                                      : "uint";
  const std::string* value = Find(name, type, Show(*field));
  if (value == nullptr) return Status::OK();
  Number parsed{};
  if (!ParseWhole(*value, &parsed)) return Malformed(name, type, *value);
  *field = parsed;
  return Status::OK();
}

template Status FlagParser::Read(const std::string&, int*);
template Status FlagParser::Read(const std::string&, int64_t*);
template Status FlagParser::Read(const std::string&, uint64_t*);
template Status FlagParser::Read(const std::string&, double*);

Status FlagParser::Read(const std::string& name, bool* field) {
  const std::string* value = Find(name, "bool", *field ? "true" : "false");
  if (value == nullptr) return Status::OK();
  if (*value == "true" || *value == "1" || *value == "yes") {
    *field = true;
  } else if (*value == "false" || *value == "0" || *value == "no") {
    *field = false;
  } else {
    return Malformed(name, "true|false|1|0|yes|no", *value);
  }
  return Status::OK();
}

Status FlagParser::Read(const std::string& name,
                        std::vector<double>* field) {
  std::vector<std::string> shown;
  for (double v : *field) shown.push_back(Show(v));
  const std::string* value = Find(name, "list", "'" + Join(shown, ",") + "'");
  if (value == nullptr) return Status::OK();
  std::vector<double> parsed;
  if (!value->empty()) {
    for (const std::string& item : Split(*value, ',')) {
      if (!ParseWhole(item, &parsed.emplace_back())) {
        return Malformed(name, "comma-separated numbers", *value);
      }
    }
  }
  *field = std::move(parsed);
  return Status::OK();
}

Status FlagParser::Read(const std::string& name, std::string* field,
                        const std::vector<std::string>& choices) {
  const std::string type = choices.empty() ? "string" : Join(choices, "|");
  const std::string* value = Find(name, type, "'" + *field + "'");
  if (value == nullptr) return Status::OK();
  if (!choices.empty() &&
      std::find(choices.begin(), choices.end(), *value) == choices.end()) {
    return Malformed(name, "one of " + Join(choices, "|"), *value);
  }
  *field = *value;
  return Status::OK();
}

Status FlagParser::Check() const {
  if (!first_error_.ok()) return first_error_;
  for (const auto& [name, value] : values_) {
    if (!WasRead(name)) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::OK();
}

std::string FlagParser::Usage() const {
  std::ostringstream out;
  for (const ReadFlag& flag : read_) {
    const std::string head = "  --" + flag.name + "=" + flag.type;
    out << head << std::string(head.size() < 40 ? 40 - head.size() : 1, ' ')
        << "default " << flag.default_value << '\n';
  }
  return out.str();
}

}  // namespace hetps
