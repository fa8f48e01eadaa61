#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "checker.h"
#include "explain.h"
#include "sarif.h"

/// CLI for the skyrise static-analysis pass.
///
///   skyrise_check [--root DIR] [--quiet] [--sarif FILE]
///                 [--explain RULE] [--list-rules] [dirs...]
///
/// With no dirs, lints the default trees: src, examples, bench, tests,
/// tools (the checker lints its own sources). Every dir must exist under
/// the root. `--sarif` writes the findings as SARIF 2.1.0 for GitHub
/// code-scanning upload. `--explain RULE` prints the rule's invariant and a
/// minimal violating example ("all" prints every rule) and exits;
/// `--list-rules` prints every rule id and exits.
/// Exits 0 when clean, 1 on violations, 2 on usage/IO errors.

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: skyrise_check [--root DIR] [--quiet] [--sarif FILE]\n"
      "                     [--explain RULE] [--list-rules] [dirs...]\n"
      "Lints .h/.hpp/.cc/.cpp files for skyrise determinism and "
      "error-handling invariants.\n"
      "  --sarif FILE      also write findings as SARIF 2.1.0 for\n"
      "                    code-scanning upload\n"
      "  --explain RULE    print RULE's invariant and a minimal violating\n"
      "                    example (RULE may be 'all'), then exit\n"
      "  --list-rules      print every rule id, then exit\n"
      "Default dirs: src examples bench tests tools\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string sarif_path;
  std::vector<std::string> dirs;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" || arg == "--sarif" || arg == "--explain") {
      if (i + 1 >= argc) {
        PrintUsage();
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--root") {
        root = value;
      } else if (arg == "--sarif") {
        sarif_path = value;
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

  // A misspelled root or directory would otherwise lint nothing and pass.
  if (!std::filesystem::is_directory(root)) {
    std::fprintf(stderr, "skyrise_check: --root `%s` is not a directory\n",
                 root.c_str());
    return 2;
  }
  for (const std::string& dir : dirs) {
    if (!std::filesystem::is_directory(std::filesystem::path(root) / dir)) {
      std::fprintf(stderr, "skyrise_check: no directory `%s` under `%s`\n",
                   dir.c_str(), root.c_str());
      return 2;
    }
  }

  const std::vector<skyrise::check::Diagnostic> diags =
      skyrise::check::CheckTree(root, dirs);

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
