#include "explain.h"

#include "checker.h"

namespace skyrise::check {

const std::vector<RuleDoc>& RuleDocs() {
  static const std::vector<RuleDoc> kDocs = {
      {"banned-api",
       "Simulated runs must be bit-reproducible from the seed. Wall clocks, "
       "ambient RNG engines, environment lookups, and thread identity leak "
       "host state into behavior; virtual time comes from "
       "sim::SimEnvironment::now() and randomness from skyrise::Rng streams.",
       "uint64_t Seed() {\n"
       "  return std::random_device{}();  // host entropy, differs per run\n"
       "}"},
      {"unordered-iteration",
       "Iteration order of unordered_map/unordered_set is hash-seed and "
       "platform dependent; looping over one must never feed emitted rows, "
       "shuffle partitions, or reports, or replay diverges across hosts.",
       "for (const auto& [k, v] : unordered_index) {\n"
       "  out.Emit(k, v);  // hash order leaks into output\n"
       "}"},
      {"pragma-once",
       "Every header guards itself with `#pragma once`; a missing guard "
       "turns an include-graph change into duplicate-definition noise far "
       "from the cause.",
       "// foo.h, first line is a declaration instead of #pragma once\n"
       "struct Foo {};"},
      {"using-namespace",
       "`using namespace` in a header injects the namespace into every "
       "includer, so overload resolution changes at a distance; headers "
       "qualify names instead.",
       "// foo.h\n"
       "using namespace std;  // leaks into all includers"},
      {"raw-stdout",
       "Library code reports through the logging/report layers so output "
       "stays machine-readable and capturable; std::cout belongs to CLI "
       "tools and examples only.",
       "// src/engine/worker.cc\n"
       "std::cout << \"done\\n\";  // bypasses the report writer"},
      {"unbounded-retry",
       "A function that schedules retry work must show a bound — a deadline, "
       "a retry budget, or a max-attempts cap — in its own scope; unbounded "
       "retries amplify overload into retry storms.",
       "void OnFail() {\n"
       "  env->Schedule(backoff_ms, RetryFetch);  // no visible bound\n"
       "}"},
      {"sim-hot-path",
       "Simulator-core code runs per event, millions of times; a by-value "
       "std::function parameter or a container local constructed inside a "
       "function body costs one heap allocation per call. Move callbacks, "
       "hoist buffers into reused members, or justify amortized uses.",
       "// src/sim/queue.cc\n"
       "void Fire(std::function<void()> cb) {\n"
       "  std::vector<Event> batch;  // allocates per event\n"
       "}"},
      {"unchecked-result-access",
       "Accessing `.value()` / `*r` / `r->` on a Result<T> is only safe on "
       "paths where a dominating ok()/has_value() check proved success; an "
       "unchecked access turns an expected error into undefined behavior.",
       "auto r = Load(key);\n"
       "Use(r.value());  // no ok() check dominates this access"},
      {"status-path-drop",
       "A Status/Result bound from a fallible call must be consumed on every "
       "path out of its scope; a path that forgets it silently swallows the "
       "failure the binding was supposed to handle.",
       "Status s = Flush();\n"
       "if (fast_path) return;  // s never consumed on this path"},
      {"use-after-move",
       "A moved-from Chunk/Status/Result is in an unspecified state; using "
       "it before reinitialization reads garbage that may differ across "
       "stdlib implementations, breaking replay.",
       "Push(std::move(chunk));\n"
       "size_t n = chunk.rows();  // moved-from read"},
      {"span-leak",
       "Every obs::Tracer span begun must be ended on every path, or the "
       "trace tree holds open spans and per-query cost attribution "
       "undercounts; guard Begin and End under the same condition.",
       "auto span = tracer.Begin(\"scan\");\n"
       "if (empty) return;  // span never ended on this path"},
      {"unordered-taint",
       "Rows collected while iterating an unordered container inherit hash "
       "order; they must pass through std::sort (or an ordered container) "
       "before reaching an ordered sink such as a report or partition "
       "writer.",
       "for (const auto& [k, v] : unordered_stats) rows.push_back(v);\n"
       "report.Write(rows);  // hash order reaches the report"},
      {"transitive-nondeterminism",
       "Banning direct wall-clock/RNG calls is not enough: a src/ function "
       "whose call chain reaches a banned API through any wrapper, lambda, "
       "or other TU is still nondeterministic. The diagnostic carries the "
       "witness chain; allow(transitive-nondeterminism) on the source line "
       "blesses a source, on a call site blesses that edge.",
       "double Jitter() { return HostNoise(); }  // HostNoise -> rand()\n"
       "// caller in src/ is flagged: Jitter -> HostNoise reaches rand"},
      {"shared-mutable-state",
       "A mutable static-storage variable in src/ is one variable for every "
       "simulation in the process, so what one run writes the next run "
       "reads and the same seed stops giving the same bytes. State lives in "
       "the objects a run owns; a static is const, or justified with an "
       "allow comment.",
       "namespace skyrise::engine {\n"
       "int g_query_count = 0;  // mutable global, no owner\n"
       "}"},
      {"unbounded-retry-wrapper",
       "A helper that Schedule()s work and exposes no bound exports its "
       "retry obligation to callers: a src/ caller passing retry-ish "
       "arguments into such a helper without a bound of its own recreates "
       "the unbounded-retry hazard one level up.",
       "void Kick() {\n"
       "  Defer(retry_task);  // Defer schedules; neither side has a bound\n"
       "}"},
      {"span-transfer-leak",
       "A function returning an open span (SpanId return type, Begin in "
       "body) transfers the End obligation to its caller; a caller that "
       "drops the returned span on some path leaks it just as surely as a "
       "local Begin without End.",
       "auto span = StartScanSpan(tracer);\n"
       "if (cached) return hit;  // transferred span never ended"},
  };
  return kDocs;
}

const RuleDoc* FindRuleDoc(const std::string& rule) {
  for (const RuleDoc& doc : RuleDocs()) {
    if (doc.id == rule) return &doc;
  }
  return nullptr;
}

namespace {

void AppendDoc(const RuleDoc& doc, std::string* out) {
  *out += doc.id + "\n";
  out->append(doc.id.size(), '-');
  *out += "\n\nInvariant (DESIGN.md section 6):\n  ";
  // Re-wrap the invariant text at the stored sentence flow; it is already a
  // single paragraph, so just indent it.
  for (char c : doc.invariant) {
    out->push_back(c);
    if (c == '\n') *out += "  ";
  }
  *out += "\n\nMinimal violating example:\n";
  *out += "  | ";
  for (char c : doc.example) {
    out->push_back(c);
    if (c == '\n') *out += "  | ";
  }
  *out += "\n\nSuppress with `// skyrise-check: allow(" + doc.id +
          ")` plus a rationale on the offending line or the line above.\n";
}

}  // namespace

std::string RenderExplain(const std::string& rule) {
  std::string out;
  if (rule == "all") {
    for (const RuleDoc& doc : RuleDocs()) {
      if (!out.empty()) out += "\n";
      AppendDoc(doc, &out);
    }
    return out;
  }
  const RuleDoc* doc = FindRuleDoc(rule);
  if (doc == nullptr) return "";
  AppendDoc(*doc, &out);
  return out;
}

}  // namespace skyrise::check
