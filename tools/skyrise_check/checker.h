#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

/// \file checker.h
/// `skyrise_check` — the repo's own static-analysis pass. Token/line-level
/// (no libclang): each rule guards an invariant that deterministic replay or
/// error propagation rests on. Intentionally standalone: depends only on the
/// standard library so it builds before (and independently of) the simulator.
///
/// Rules (ids are what `skyrise-check: allow(<rule>)` suppressions name):
///   banned-api          wall clocks, ambient randomness, env lookups, thread
///                       ids — nondeterminism sources that must come from
///                       sim::Environment / common/random instead
///   unordered-iteration loops over unordered_map/unordered_set declared in
///                       the file or its paired header — iteration order is
///                       hash-seed dependent and must not leak into emitted
///                       rows, shuffle partitions, or reports
///   pragma-once         header missing `#pragma once`
///   using-namespace     `using namespace` at any scope in a header
///   raw-stdout          std::cout outside tools/ and examples/ (library code
///                       reports through the logging/report layers)
///   unbounded-retry     a src/ function that schedules retry work (a
///                       Schedule() call mentioning retry/backoff/attempt)
///                       with no visible bound — no identifier naming a
///                       deadline, a retry budget, or a max-attempts cap
///                       anywhere in the function. Unbounded retry loops
///                       amplify overload; clamp with the Deadline /
///                       RetryBudget plumbing or cap attempts
///   sim-hot-path        simulator-core hygiene (src/sim/ only): a by-value
///                       std::function parameter (one heap allocation per
///                       call — take it by rvalue reference or use
///                       sim::EventCallback), or a std::vector/map/set/deque
///                       local constructed inside a function body (one
///                       allocation per call — hoist into a reused member
///                       buffer). Amortized uses (e.g. a rebuild that runs
///                       once per thousands of events) carry an allow
///                       comment stating why
///
/// Dropping a Status or Result<T> outright is not a rule here: the
/// class-level [[nodiscard]] plus -Werror=unused-result makes it a compile
/// error. status-path-drop below covers a result that is bound and then
/// forgotten on some path.
///
/// Flow-sensitive rules (v2, built on the lexer → CFG → dataflow stack in
/// lexer.h / cfg.h / dataflow.h — see those headers for the machinery):
///   unchecked-result-access  `.value()` / `*r` / `r->` on a Result<T> local
///                            on a path with no dominating ok()/has_value()
///                            check (polarity-aware: early `if (!r.ok())
///                            return` narrows the fall-through path)
///   status-path-drop         a Status/Result bound from a fallible call and
///                            never consumed on some path out of its scope
///   use-after-move           a moved-from Chunk/Status/Result local is used
///                            before reinitialization (capture-init moves in
///                            lambda intros count as moves)
///   span-leak                an obs::Tracer span begun but not ended on some
///                            path; `if (tracer_)`-style guards around Begin
///                            and End are correlated by condition text
///   unordered-taint          a collector filled while iterating an unordered
///                            container flows into an ordered sink without an
///                            intervening std::sort (collect-then-sort stays
///                            silent; std::map/std::set collectors never
///                            taint)
///
/// Interprocedural rules (v3, built on the cross-TU symbol index and call
/// graph in symbols.h / callgraph.h — whole-program passes that run when
/// files are checked together via CheckSources/CheckTree):
///   transitive-nondeterminism  a src/ function whose call chain (across
///                              TUs, through wrappers and named lambdas)
///                              reaches a direct banned-API use; the
///                              diagnostic carries the witness chain.
///                              allow(banned-api) keeps sanctioning the
///                              direct use but the wrapper still taints
///                              callers; allow(transitive-nondeterminism)
///                              on the source line or a call site blesses
///                              that source/edge and stops propagation
///   shared-mutable-state       a non-const static-storage variable in src/
///                              (namespace-scope, static-local, or static
///                              member): every simulation in the process
///                              shares it, so one run's writes reach the
///                              next run's replay
///   unbounded-retry-wrapper    closes unbounded-retry's wrapper loophole: a
///                              src/ function passing retry-ish arguments
///                              into a helper that (transitively)
///                              Schedule()s work with no deadline / retry
///                              budget / max-attempts bound on the chain
///   span-transfer-leak         a span received open from a span-returning
///                              helper (SpanId return type + Begin in body,
///                              harvested cross-TU) is not ended on some
///                              path — the interprocedural extension of
///                              span-leak (End obligation transfers at the
///                              call site)
///
/// A suppression comment `// skyrise-check: allow(banned-api, raw-stdout)`
/// silences the named rules on its own line and the following line, so
/// intent stays visible next to the code it blesses.

namespace skyrise::check {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Diagnostic& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (rule != other.rule) return rule < other.rule;
    return message < other.message;
  }
};

/// One source file, preprocessed for rule passes: `code` mirrors the original
/// line-for-line and column-for-column with comments and string/char literal
/// contents blanked out, and `allows` holds the per-line suppressed rule ids
/// parsed from `skyrise-check: allow(...)` comments.
struct SourceFile {
  std::string path;        ///< Path as reported in diagnostics.
  bool is_header = false;  ///< .h / .hpp
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::map<int, std::set<std::string>> allows;  ///< 1-based line -> rule ids.
};

/// Builds a SourceFile from in-memory contents (used by tests) — strips
/// comments/literals and records suppression comments.
SourceFile Preprocess(const std::string& path, const std::string& contents);

/// True when `rule` is suppressed on `line` (the allow comment may sit on the
/// line itself or the line above).
bool IsSuppressed(const SourceFile& file, int line, const std::string& rule);

/// Appends a diagnostic unless suppressed. All rule passes (including the
/// flow-sensitive ones in dataflow.cc) emit through this so suppression
/// semantics stay uniform.
void EmitDiagnostic(const SourceFile& file, int line, const std::string& rule,
                    std::string message, std::vector<Diagnostic>* out);

class Checker {
 public:
  /// Names of functions returning Status/Result<T>, harvested from
  /// declarations across all files handed to CollectFallibleNames(). The set
  /// is seeded with the Status factory names so bindings of them are typed
  /// even when status.h is not scanned.
  void CollectFallibleNames(const SourceFile& file);

  /// Names declared with an unordered container type (locals, parameters,
  /// members, statics) in `file`. The unordered-iteration and
  /// unordered-taint rules read a file's names together with those of its
  /// paired header (same directory and stem), where members are declared.
  void CollectUnorderedNames(const SourceFile& file);

  /// Runs every per-file rule over one file and appends diagnostics
  /// (suppressions already applied). Call CollectFallibleNames() and
  /// CollectUnorderedNames() for all files first so the rules see
  /// cross-file declarations. The interprocedural rules need the whole
  /// program — use CheckSources.
  void CheckFile(const SourceFile& file, std::vector<Diagnostic>* out) const;

  /// Preprocess + collect + check a set of in-memory files, then run the
  /// whole-program passes (cross-TU symbol index, call graph, transitive
  /// taint, retry-wrapper obligations, shared mutable statics) over the set
  /// as one program. Diagnostics are sorted before returning.
  std::vector<Diagnostic> CheckSources(
      const std::vector<std::pair<std::string, std::string>>& path_contents);

  const std::set<std::string>& fallible_names() const {
    return fallible_names_;
  }

  /// Subset of fallible_names() declared as returning Result<T>; the
  /// dataflow pass uses this to type `auto r = Foo(...)` locals.
  const std::set<std::string>& result_names() const { return result_names_; }

  static const std::vector<std::string>& RuleIds();

 private:
  void CheckBannedApis(const SourceFile& file,
                       std::vector<Diagnostic>* out) const;
  /// `file`'s unordered names and, for a source file, its header's.
  std::set<std::string> UnorderedNamesFor(const SourceFile& file) const;
  void CheckUnorderedIteration(const SourceFile& file,
                               const std::set<std::string>& unordered_vars,
                               std::vector<Diagnostic>* out) const;
  void CheckHeaderHygiene(const SourceFile& file,
                          std::vector<Diagnostic>* out) const;
  void CheckUnboundedRetry(const SourceFile& file,
                           std::vector<Diagnostic>* out) const;
  void CheckSimHotPath(const SourceFile& file,
                       std::vector<Diagnostic>* out) const;

  std::set<std::string> fallible_names_ = {
      "OK",        "InvalidArgument", "NotFound",    "AlreadyExists",
      "ResourceExhausted", "DeadlineExceeded", "FailedPrecondition",
      "OutOfRange", "Unimplemented",  "Internal",    "IoError",
      "Cancelled"};
  /// Names that also appear in a `void name(...)` declaration; ambiguous at
  /// token level, so the flow rules do not treat calls to them as fallible.
  std::set<std::string> void_names_;
  /// Names declared as returning Result<T> somewhere in the tree.
  std::set<std::string> result_names_;
  /// Functions returning an open span (SpanId return + Begin in body),
  /// harvested by the symbol index in CheckSources; the dataflow pass
  /// treats calls to these like Tracer::Begin (span-transfer-leak).
  std::set<std::string> span_source_names_;
  /// CollectUnorderedNames() results by file path.
  std::map<std::string, std::set<std::string>> unordered_names_;
};

/// One file loaded from disk for tree-wide linting.
struct TreeFile {
  std::string rel;       ///< Path as reported in diagnostics (root-relative).
  std::string contents;  ///< Original text.
};

/// Collects every lintable file under `dirs` (recursively, deterministic
/// lexicographic order, `/fixtures/` excluded).
std::vector<TreeFile> LoadTree(const std::string& root,
                               const std::vector<std::string>& dirs);

/// Walks `dirs` (recursively, deterministic lexicographic order), lints every
/// .h/.hpp/.cc/.cpp file, and returns sorted diagnostics. Paths in
/// diagnostics are relative to `root` when they fall under it.
std::vector<Diagnostic> CheckTree(const std::string& root,
                                  const std::vector<std::string>& dirs);

/// Formats one diagnostic as `file:line: [rule] message`.
std::string FormatDiagnostic(const Diagnostic& diag);

}  // namespace skyrise::check
