#pragma once

// Environment-variable helpers and a small CLI argument parser shared by the
// examples and the benchmark harnesses.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fedclust::util {

// Environment lookups with typed defaults. Malformed values throw.
std::string env_string(const std::string& name, const std::string& def);
std::int64_t env_int(const std::string& name, std::int64_t def);

// Parses "--key=value" and "--key value" style flags plus bare "--flag"
// booleans. Unknown flags throw so typos surface immediately.
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  // Registration: call before parse(). The string form of the default is
  // shown in --help output.
  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& help,
                  const std::string& def);

  // Returns false if --help was requested (help text already printed).
  bool parse(int argc, const char* const* argv);

  bool flag(const std::string& name) const;
  std::string str(const std::string& name) const;
  std::int64_t integer(const std::string& name) const;
  double real(const std::string& name) const;

  std::string help() const;

 private:
  struct Entry {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool flag_set = false;
  };
  const Entry& lookup(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
};

}  // namespace fedclust::util
