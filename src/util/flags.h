#ifndef HETPS_UTIL_FLAGS_H_
#define HETPS_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace hetps {

/// Command-line flag parser for the CLI tools: `--name=value`,
/// `--name value`, and bare `--name` (boolean true). Everything that does
/// not start with "--" is a positional argument.
///
/// A command reads every flag it takes straight into its options with
/// Read, then calls Check() once, before any work. Usage() lists the
/// flags read, each with its type and default.
class FlagParser {
 public:
  /// Parses argv (excluding argv[0]); rejects duplicate flags.
  Status Parse(int argc, const char* const* argv);

  /// Reads --name into *field. An absent flag leaves *field, which holds
  /// the default, as it is. A malformed value answers InvalidArgument and
  /// also leaves *field as it is. Numbers must parse whole and fit the
  /// field's type (Number is int, int64_t, uint64_t or double); a bool
  /// takes true/false, 1/0, yes/no or the bare flag.
  template <typename Number>
  Status Read(const std::string& name, Number* field);
  Status Read(const std::string& name, bool* field);
  /// Comma-separated numbers; an empty value is an empty list.
  Status Read(const std::string& name, std::vector<double>* field);
  /// A string, which must be one of `choices` when they are given.
  Status Read(const std::string& name, std::string* field,
              const std::vector<std::string>& choices = {});
  /// A flag naming one of `choices`: *field becomes the value it names.
  template <typename Enum>
  Status Read(const std::string& name, Enum* field,
              const std::vector<std::pair<std::string, Enum>>& choices);

  /// The first malformed value Read met, else InvalidArgument naming a
  /// flag that no Read asked for, else OK.
  Status Check() const;

  /// One line per flag read, in reading order: `--name=TYPE` and the
  /// default.
  std::string Usage() const;

  const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  /// Records the flag for Usage() and Check() and returns its value, or
  /// null when the flag is absent.
  const std::string* Find(const std::string& name, const std::string& type,
                          const std::string& default_value);
  bool WasRead(const std::string& name) const;
  /// InvalidArgument for a malformed value, kept for Check().
  Status Malformed(const std::string& name, const std::string& expected,
                   const std::string& value);

  struct ReadFlag {
    std::string name;
    std::string type;
    std::string default_value;
  };

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<ReadFlag> read_;
  Status first_error_;
};

template <typename Enum>
Status FlagParser::Read(
    const std::string& name, Enum* field,
    const std::vector<std::pair<std::string, Enum>>& choices) {
  std::vector<std::string> names;
  std::string chosen;
  for (const auto& [choice, value] : choices) {
    names.push_back(choice);
    if (value == *field) chosen = choice;
  }
  const Status st = Read(name, &chosen, names);
  for (const auto& [choice, value] : choices) {
    if (choice == chosen) *field = value;
  }
  return st;
}

}  // namespace hetps

#endif  // HETPS_UTIL_FLAGS_H_
