// Tiny command-line flag parser shared by bench/example/tool binaries.
//
// Supports "--name value" and "--name=value"; a flag with no value reads as
// "true".  Unknown flags are not rejected: each binary reads the flags it
// knows and ignores the rest.  Values are strict: a typed read of a value
// that does not parse in full ("12abc" as an integer, "0.5x" as a number,
// "flase" as a boolean) throws std::invalid_argument naming the flag.  The
// campaign knobs shared by every bench binary and `mlaas_cli campaign` are
// bound in one place, study_options_from_flags (core/study.h).
#pragma once

#include <map>
#include <optional>
#include <string>

namespace mlaas {

class CliFlags {
 public:
  /// Parse argv; throws std::invalid_argument on malformed input.
  CliFlags(int argc, const char* const* argv);

  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, const std::string& def) const;
  long long int_or(const std::string& name, long long def) const;
  double double_or(const std::string& name, double def) const;
  bool bool_or(const std::string& name, bool def) const;

 private:
  std::map<std::string, std::string> flags_;
};

/// Strict value parsers behind CliFlags' typed reads, also used for
/// environment defaults.  The whole `value` must parse; otherwise they throw
/// std::invalid_argument starting with `source` (e.g. "--seed" or
/// "MLAAS_SEED").  Booleans accept true/false, 1/0 and yes/no.
long long parse_int_value(const std::string& source, const std::string& value);
double parse_double_value(const std::string& source, const std::string& value);
bool parse_bool_value(const std::string& source, const std::string& value);

}  // namespace mlaas
