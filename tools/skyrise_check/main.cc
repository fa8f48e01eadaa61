#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "checker.h"
#include "explain.h"
#include "sarif.h"
#include "state_audit.h"

/// CLI for the skyrise static-analysis pass.
///
///   skyrise_check [--root DIR] [--quiet] [--verbose] [--jobs N]
///                 [--sarif FILE] [--state-inventory FILE]
///                 [--explain RULE] [--list-rules] [dirs...]
///
/// With no dirs, lints the default trees: src, examples, bench, tests,
/// tools (the checker lints its own sources). `--sarif` writes the findings
/// as SARIF 2.1.0 for GitHub code-scanning upload; `--state-inventory`
/// writes the shared-mutable-state audit of src/ as JSON (see
/// state_audit.h) and exits 0. `--jobs N` caps the analysis worker pool
/// (N is a non-negative decimal; 0 = hardware concurrency; output is
/// byte-identical for any job count); `--verbose` reports per-phase timing.
/// `--explain RULE` prints the rule's invariant and a minimal violating
/// example ("all" prints every rule) and exits; `--list-rules` prints every
/// rule id and exits.
/// Exits 0 when clean, 1 on violations, 2 on usage/IO errors.

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: skyrise_check [--root DIR] [--quiet] [--verbose] [--jobs N]\n"
      "                     [--sarif FILE] [--state-inventory FILE]\n"
      "                     [--explain RULE] [--list-rules] [dirs...]\n"
      "Lints .h/.hpp/.cc/.cpp files for skyrise determinism and "
      "error-handling invariants.\n"
      "  --jobs N          worker threads for the per-file phases (0 = "
      "hardware concurrency)\n"
      "  --verbose         report per-phase timing on stderr\n"
      "  --sarif FILE      also write findings as SARIF 2.1.0 for\n"
      "                    code-scanning upload\n"
      "  --state-inventory FILE\n"
      "                    write the src/ static-state audit as JSON and "
      "exit\n"
      "  --explain RULE    print RULE's invariant and a minimal violating\n"
      "                    example (RULE may be 'all'), then exit\n"
      "  --list-rules      print every rule id, then exit\n"
      "Default dirs: src examples bench tests tools\n");
}

/// Parses a `--jobs` value: a non-negative decimal and nothing else (no
/// sign, whitespace, or trailing characters).
bool ParseJobs(const std::string& value, size_t* jobs) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *jobs);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string sarif_path;
  std::string inventory_path;
  std::vector<std::string> dirs;
  bool quiet = false;
  bool verbose = false;
  size_t jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" || arg == "--sarif" || arg == "--state-inventory" ||
        arg == "--explain" || arg == "--jobs") {
      if (i + 1 >= argc) {
        PrintUsage();
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--root") {
        root = value;
      } else if (arg == "--sarif") {
        sarif_path = value;
      } else if (arg == "--state-inventory") {
        inventory_path = value;
      } else if (arg == "--jobs") {
        if (!ParseJobs(value, &jobs)) {
          std::fprintf(stderr, "skyrise_check: bad --jobs value `%s`\n",
                       value.c_str());
          PrintUsage();
          return 2;
        }
      } else {
        const std::string text = skyrise::check::RenderExplain(value);
        if (text.empty()) {
          std::fprintf(stderr,
                       "skyrise_check: unknown rule `%s` (try --list-rules)\n",
                       value.c_str());
          return 2;
        }
        std::printf("%s", text.c_str());
        return 0;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--list-rules") {
      for (const std::string& rule : skyrise::check::Checker::RuleIds()) {
        std::printf("%s\n", rule.c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "examples", "bench", "tests", "tools"};

  if (!inventory_path.empty()) {
    std::ofstream out(inventory_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "skyrise_check: cannot write %s\n",
                   inventory_path.c_str());
      return 2;
    }
    out << skyrise::check::RenderStateInventoryForTree(root);
    if (!quiet) {
      std::fprintf(stderr, "skyrise_check: wrote state inventory to %s\n",
                   inventory_path.c_str());
    }
    return 0;
  }

  skyrise::check::PhaseTimings timings;
  std::vector<skyrise::check::Diagnostic> diags =
      skyrise::check::CheckTree(root, dirs, jobs, &timings);
  if (verbose) {
    std::fprintf(stderr,
                 "skyrise_check: %zu file(s), %zu job(s)\n"
                 "  preprocess  %8.1f ms\n"
                 "  collect     %8.1f ms\n"
                 "  index       %8.1f ms\n"
                 "  per-file    %8.1f ms\n"
                 "  interproc   %8.1f ms\n"
                 "  total       %8.1f ms\n",
                 timings.files, timings.jobs, timings.preprocess_ms,
                 timings.collect_ms, timings.index_ms, timings.per_file_ms,
                 timings.interproc_ms, timings.total_ms);
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "skyrise_check: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
    out << skyrise::check::RenderSarif(diags);
    if (!quiet) {
      std::fprintf(stderr, "skyrise_check: wrote SARIF to %s\n",
                   sarif_path.c_str());
    }
  }

  for (const auto& d : diags) {
    std::printf("%s\n", skyrise::check::FormatDiagnostic(d).c_str());
  }
  if (!quiet) {
    std::fprintf(stderr, "skyrise_check: %zu violation(s)\n", diags.size());
  }
  return diags.empty() ? 0 : 1;
}
