#include "util/config.h"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace fedclust::util {

namespace {

std::optional<std::string> env_raw(const std::string& name) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

}  // namespace

std::string env_string(const std::string& name, const std::string& def) {
  return env_raw(name).value_or(def);
}

std::int64_t env_int(const std::string& name, std::int64_t def) {
  const auto raw = env_raw(name);
  if (!raw) return def;
  std::size_t pos = 0;
  const std::int64_t v = std::stoll(*raw, &pos);
  if (pos != raw->size()) {
    throw std::runtime_error("env var " + name + " is not an integer: " + *raw);
  }
  return v;
}

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  add_flag("help", "print this help text and exit");
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  Entry e;
  e.help = help;
  e.is_flag = true;
  entries_[name] = std::move(e);
  order_.push_back(name);
}

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& def) {
  Entry e;
  e.help = help;
  e.value = def;
  entries_[name] = std::move(e);
  order_.push_back(name);
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = entries_.find(arg);
    if (it == entries_.end()) {
      throw std::runtime_error("unknown flag --" + arg + "\n" + help());
    }
    Entry& e = it->second;
    if (e.is_flag) {
      if (has_value) {
        throw std::runtime_error("flag --" + arg + " does not take a value");
      }
      e.flag_set = true;
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          throw std::runtime_error("flag --" + arg + " expects a value");
        }
        value = argv[++i];
      }
      e.value = value;
    }
  }
  if (flag("help")) {
    std::cout << help();
    return false;
  }
  return true;
}

const ArgParser::Entry& ArgParser::lookup(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::logic_error("flag --" + name + " was never registered");
  }
  return it->second;
}

bool ArgParser::flag(const std::string& name) const {
  const Entry& e = lookup(name);
  if (!e.is_flag) throw std::logic_error("--" + name + " is not a flag");
  return e.flag_set;
}

std::string ArgParser::str(const std::string& name) const {
  return lookup(name).value;
}

std::int64_t ArgParser::integer(const std::string& name) const {
  return std::stoll(lookup(name).value);
}

double ArgParser::real(const std::string& name) const {
  return std::stod(lookup(name).value);
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    os << "  --" << name;
    if (!e.is_flag) os << "=<" << (e.value.empty() ? "value" : e.value) << ">";
    os << "\n      " << e.help << "\n";
  }
  return os.str();
}

}  // namespace fedclust::util
