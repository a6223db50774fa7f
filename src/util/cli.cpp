#include "util/cli.h"

#include <stdexcept>
#include <string>
#include <string_view>

namespace mlaas {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + std::string(arg));
    }
    arg.remove_prefix(2);
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[std::string(arg)] = argv[++i];
    } else {
      flags_[std::string(arg)] = "true";  // bare boolean flag
    }
  }
}

std::optional<std::string> CliFlags::get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string CliFlags::get_or(const std::string& name, const std::string& def) const {
  return get(name).value_or(def);
}

long long CliFlags::int_or(const std::string& name, long long def) const {
  auto v = get(name);
  return v ? parse_int_value("--" + name, *v) : def;
}

double CliFlags::double_or(const std::string& name, double def) const {
  auto v = get(name);
  return v ? parse_double_value("--" + name, *v) : def;
}

bool CliFlags::bool_or(const std::string& name, bool def) const {
  auto v = get(name);
  return v ? parse_bool_value("--" + name, *v) : def;
}

long long parse_int_value(const std::string& source, const std::string& value) {
  std::size_t used = 0;
  long long out = 0;
  try {
    out = std::stoll(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != value.size()) {
    throw std::invalid_argument(source + ": expected an integer, got '" + value + "'");
  }
  return out;
}

double parse_double_value(const std::string& source, const std::string& value) {
  std::size_t used = 0;
  double out = 0.0;
  try {
    out = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != value.size()) {
    throw std::invalid_argument(source + ": expected a number, got '" + value + "'");
  }
  return out;
}

bool parse_bool_value(const std::string& source, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw std::invalid_argument(source + ": expected true/false, 1/0 or yes/no, got '" +
                              value + "'");
}

}  // namespace mlaas
