// Shared flag parsing, table header and JSON helpers of the bench binaries.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>

#include "dram/config.h"

namespace nttpim::bench {

/// Echo the Table-I architecture parameters every bench runs under, so each
/// report is self-describing.
inline void print_table1_header(const char* title) {
  const dram::DramTiming t = dram::hbm2e_timing();
  const dram::DramGeometry g = dram::hbm2e_geometry();
  std::cout << "==== " << title << " ====\n"
            << "Architecture (paper Table I, HBM2E): atom=" << g.atom_bytes
            << "B, cols/row=" << g.atoms_per_row
            << ", rows/bank=" << g.rows_per_bank << ", banks=" << g.banks
            << "\nTiming @" << t.freq_mhz << " MHz (cycles): CL=" << t.cl
            << " tCCD=" << t.tccd << " tRP=" << t.trp << " tRAS=" << t.tras
            << " tRCD=" << t.trcd << " tWR=" << t.twr
            << " | C1=" << t.c1_latency << " C2=" << t.c2_latency << "\n\n";
}

/// Scan argv for `--json [path]` / `--json=path`. Returns the output path
/// ("-" = stdout) when the flag is present, and strips it from argv so the
/// remaining arguments can go to the next flag parser (finish_flags last).
inline std::optional<std::string> consume_json_flag(int& argc, char** argv) {
  std::optional<std::string> path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      path = "-";
      // A value may follow; a lone "-" (stdout) is a value, not a flag.
      if (i + 1 < argc &&
          (argv[i + 1][0] != '-' || std::string_view(argv[i + 1]) == "-"))
        path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = std::string(arg.substr(7));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return path;
}

/// Scan argv for `--name <value>` / `--name=value`; returns the value when
/// present and strips the flag from argv (same contract as
/// consume_json_flag). `name` includes the dashes, e.g. "--requests".
/// A present flag with no value (end of argv, or another flag where the
/// value belongs) is a usage error: reported to stderr, exit 2.
inline std::optional<std::string> consume_value_flag(int& argc, char** argv,
                                                     std::string_view name) {
  std::optional<std::string> value;
  const std::string prefixed = std::string(name) + "=";
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == name) {
      if (i + 1 >= argc || (argv[i + 1][0] == '-' &&
                            std::string_view(argv[i + 1]) != "-")) {
        std::cerr << "missing value for " << name << "\n";
        std::exit(2);
      }
      value = argv[++i];
    } else if (arg.rfind(prefixed, 0) == 0) {
      value = std::string(arg.substr(prefixed.size()));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return value;
}

/// Shared tail of every bench flag parser, run after the known flags were
/// consumed: `--help`/`-h` prints `usage` and exits 0; anything still left
/// in argv is an unknown flag — rejected with the usage text and exit code
/// 2 instead of the historical silent ignore.
inline void finish_flags(int argc, char** argv, std::string_view usage) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage;
      std::exit(0);
    }
  }
  if (argc > 1) {
    std::cerr << "unrecognized argument: " << argv[1] << "\n" << usage;
    std::exit(2);
  }
}

/// Minimal streaming JSON emitter — just what the bench reporters need:
/// nested objects/arrays and string/number/bool scalars, pretty-printed so
/// committed baselines diff cleanly.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void begin_object() { open('{'); }
  void begin_object(std::string_view key) { open('{', key); }
  void end_object() { close('}'); }
  void begin_array(std::string_view key) { open('[', key); }
  void end_array() { close(']'); }

  void field(std::string_view key, std::string_view value) {
    item(key);
    quote(value);
  }
  void field(std::string_view key, const char* value) {
    field(key, std::string_view(value));
  }
  void field(std::string_view key, bool value) {
    item(key);
    os_ << (value ? "true" : "false");
  }
  template <typename T>
  void field(std::string_view key, T value) {
    static_assert(std::is_arithmetic_v<T>);
    item(key);
    if constexpr (std::is_floating_point_v<T>) {
      // Round-trippable precision: baselines are diffed, so sub-ulp
      // regressions must survive the text round trip.
      const auto saved = os_.precision(std::numeric_limits<T>::max_digits10);
      os_ << value;
      os_.precision(saved);
    } else {
      os_ << +value;
    }
  }

 private:
  void open(char bracket, std::string_view key = {}) {
    item(key);
    os_ << bracket;
    first_ = true;
    ++depth_;
  }
  void close(char bracket) {
    --depth_;
    if (!first_) newline();
    os_ << bracket;
    first_ = false;
    if (depth_ == 0) os_ << '\n';
  }
  void item(std::string_view key) {
    if (depth_ > 0) {
      if (!first_) os_ << ',';
      newline();
    }
    first_ = false;
    if (!key.empty()) {
      quote(key);
      os_ << ": ";
    }
  }
  void newline() {
    os_ << '\n';
    for (int i = 0; i < depth_; ++i) os_ << "  ";
  }
  void quote(std::string_view s) {
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << c;
    }
    os_ << '"';
  }

  std::ostream& os_;
  int depth_ = 0;
  bool first_ = true;
};

/// Render one JSON report: {schema, bench, architecture, sections...}.
/// Every report carries the paper's Table I architecture block, so a
/// committed record is interpretable without the producing binary;
/// `write_sections` writes the report's own top-level members after it.
template <typename WriteSections>
std::string render_report(std::string_view schema, std::string_view bench_name,
                          WriteSections&& write_sections) {
  const dram::DramTiming t = dram::hbm2e_timing();
  const dram::DramGeometry g = dram::hbm2e_geometry();
  std::ostringstream os;
  JsonWriter json(os);
  json.begin_object();
  json.field("schema", schema);
  json.field("bench", bench_name);
  json.begin_object("architecture");
  json.field("name", "HBM2E (paper Table I)");
  json.field("atom_bytes", g.atom_bytes);
  json.field("atoms_per_row", g.atoms_per_row);
  json.field("rows_per_bank", g.rows_per_bank);
  json.field("banks", g.banks);
  json.field("freq_mhz", t.freq_mhz);
  json.end_object();
  write_sections(json);
  json.end_object();
  return os.str();
}

/// Write a rendered report to `path` ("-" = stdout). Returns a process exit
/// code. Callers render and verify first, so a failed run never leaves a
/// plausible-looking record on disk.
inline int write_output(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return 0;
  }
  std::ofstream file(path);
  if (!(file << text)) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  return 0;
}

}  // namespace nttpim::bench
