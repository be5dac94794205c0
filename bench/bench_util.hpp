// Shared helpers for the bench harnesses: flag parsing and paper-style
// table printing. BUILDING.md ("Benches and examples") lists each bench,
// what it measures and which ones gate CI.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace qcenv::bench {

/// Strict command-line flags for the benches whose exit status gates CI.
/// Every argument must be a declared switch, or a declared value flag
/// followed by its value; anything else — an unknown flag, a value flag
/// given last or followed by another flag, a malformed number — prints
/// what is wrong, naming the flag, and exits 2. A gate can therefore
/// never be skipped by a dangling `--check` that silently exits 0.
class Flags {
 public:
  Flags(int argc, char** argv, const std::vector<std::string>& switches,
        const std::vector<std::string>& valued)
      : program_(argv[0]) {
    const auto declared = [](const std::vector<std::string>& names,
                             const std::string& arg) {
      return std::find(names.begin(), names.end(), arg) != names.end();
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (declared(switches, arg)) {
        values_[arg] = "";
      } else if (declared(valued, arg)) {
        if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
          fail(arg + " needs a value");
        }
        values_[arg] = argv[++i];
      } else {
        fail("unknown argument '" + arg + "'");
      }
    }
  }

  bool has(const std::string& flag) const { return values_.count(flag) > 0; }
  /// The flag's value, or nullptr when it was not given.
  const char* value(const std::string& flag) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? nullptr : it->second;
  }
  /// A fraction in [0, 1) (tolerances), or `fallback` when not given.
  double fraction(const std::string& flag, double fallback) const {
    const char* text = value(flag);
    if (text == nullptr) return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(parsed) ||
        parsed < 0.0 || parsed >= 1.0) {
      fail(flag + " needs a fraction in [0, 1), got '" + text + "'");
    }
    return parsed;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
    std::exit(2);
  }

  std::string program_;
  std::map<std::string, const char*> values_;  // switches map to ""
};

/// True when the bench was invoked with --quick: run a shrunken workload so
/// CI smoke steps can execute the binary in seconds instead of minutes.
inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

inline void print_title(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_note(const std::string& note) {
  std::printf("%s\n", note.c_str());
}

/// Fixed-width table: first row is the header.
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void print() const {
    std::vector<std::size_t> widths(header_.size(), 0);
    const auto measure = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    };
    measure(header_);
    for (const auto& row : rows_) measure(row);
    const auto print_row = [&](const std::vector<std::string>& row) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    std::string rule;
    for (const std::size_t w : widths) {
      rule += std::string(w, '-') + "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

inline std::string pct(double fraction) { return fmt("%.1f%%", fraction * 100.0); }
inline std::string secs(double seconds) { return fmt("%.1f s", seconds); }

}  // namespace qcenv::bench
