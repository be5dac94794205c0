// Strict command-line parsing for bench_e2e. Every flag that takes a value
// must get one that parses completely and lies in range; a missing value, a
// malformed number or an unknown flag exits 2 with a message naming the
// flag, so a typo can never silently change what the benchmark measures.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>

namespace qcenv::bench_e2e {

[[noreturn]] inline void usage_error(const std::string& message) {
  std::fprintf(stderr, "bench_e2e: %s\n", message.c_str());
  std::exit(2);
}

class Args {
 public:
  /// `value_flags` take one argument each; `bool_flags` take none.
  Args(int argc, char** argv, const std::set<std::string>& value_flags,
       const std::set<std::string>& bool_flags) {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (bool_flags.count(flag) != 0) {
        bools_.insert(flag);
      } else if (value_flags.count(flag) != 0) {
        if (i + 1 >= argc) usage_error(flag + " needs a value");
        values_[flag] = argv[++i];
      } else {
        usage_error("unknown argument '" + flag + "'");
      }
    }
  }

  bool has(const std::string& flag) const {
    return bools_.count(flag) != 0 || values_.count(flag) != 0;
  }

  std::optional<std::string> text(const std::string& flag) const {
    const auto it = values_.find(flag);
    if (it == values_.end()) return std::nullopt;
    if (it->second.empty()) usage_error(flag + " needs a non-empty value");
    return it->second;
  }

  /// A finite decimal number in [lo, hi]; `fallback` when the flag is absent.
  double number(const std::string& flag, double fallback, double lo,
                double hi) const {
    const auto raw = text(flag);
    if (!raw.has_value()) return fallback;
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(raw->c_str(), &end);
    if (errno != 0 || end != raw->c_str() + raw->size() ||
        !std::isfinite(value) || value < lo || value > hi) {
      usage_error(flag + " must be a number in [" + std::to_string(lo) +
                  ", " + std::to_string(hi) + "], got '" + *raw + "'");
    }
    return value;
  }

  /// A non-negative decimal integer; `fallback` when the flag is absent.
  std::uint64_t integer(const std::string& flag, std::uint64_t fallback,
                        std::uint64_t hi) const {
    const auto raw = text(flag);
    if (!raw.has_value()) return fallback;
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(raw->c_str(), &end, 10);
    if (raw->find_first_not_of("0123456789") != std::string::npos ||
        errno != 0 || end != raw->c_str() + raw->size() || value > hi) {
      usage_error(flag + " must be an integer in [0, " + std::to_string(hi) +
                  "], got '" + *raw + "'");
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> bools_;
};

}  // namespace qcenv::bench_e2e
