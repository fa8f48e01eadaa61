#include "callgraph.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "checker.h"
#include "symbols.h"

/// Construction tests for the cross-TU symbol index and call graph: cycles
/// terminate, overloads resolve to every definition, named lambdas become
/// symbols with an implicit edge from their creator, unresolved externs
/// degrade to "unknown callee" without false positives, and the whole repo
/// indexes into a graph without crashing (pinning the extractor's health).

namespace skyrise::check {
namespace {

/// Holds the preprocessed sources alive alongside the index and the
/// path->file map the interprocedural checks take.
struct Indexed {
  std::vector<SourceFile> sources;
  SymbolIndex index;
  FileMap files;
};

Indexed Index(const std::vector<std::pair<std::string, std::string>>& in) {
  Indexed out;
  out.sources.reserve(in.size());
  for (const auto& [name, text] : in) {
    out.sources.push_back(Preprocess(name, text));
  }
  for (const SourceFile& sf : out.sources) {
    out.index.AddFile(sf);
    out.files[sf.path] = &sf;
  }
  return out;
}

size_t Find(const SymbolIndex& index, const std::string& qualified) {
  const std::vector<FunctionSym>& fns = index.functions();
  for (size_t i = 0; i < fns.size(); ++i) {
    if (fns[i].qualified == qualified) return i;
  }
  ADD_FAILURE() << "no symbol named " << qualified;
  return static_cast<size_t>(-1);
}

bool HasEdge(const CallGraph& g, size_t from, size_t to) {
  for (size_t t : g.callees[from]) {
    if (t == to) return true;
  }
  return false;
}

TEST(CallGraph, MutualRecursionTerminatesAndTaintsTheCycle) {
  Indexed ix = Index({{"src/sim/cycle.cc",
                       "#include <cstdlib>\n"
                       "long Ping(int n);\n"
                       "long Pong(int n) { return n <= 0 ? Seed() : Ping(n - 1); }\n"
                       "long Ping(int n) { return Pong(n - 1); }\n"
                       "long Seed() { return std::rand(); }\n"}});
  const CallGraph g = BuildCallGraph(ix.index);
  const size_t ping = Find(ix.index, "Ping");
  const size_t pong = Find(ix.index, "Pong");
  const size_t seed = Find(ix.index, "Seed");
  EXPECT_TRUE(HasEdge(g, ping, pong));
  EXPECT_TRUE(HasEdge(g, pong, ping));
  EXPECT_TRUE(HasEdge(g, pong, seed));
  // Taint crosses the back edge and stops: both cycle members flagged once.
  std::vector<Diagnostic> diags;
  CheckTransitiveNondeterminism(ix.index, g, ix.files, &diags);
  size_t transitive = 0;
  for (const Diagnostic& d : diags) {
    if (d.rule == "transitive-nondeterminism") ++transitive;
  }
  EXPECT_EQ(transitive, 2u);
}

TEST(CallGraph, OverloadsResolveToEveryDefinition) {
  Indexed ix = Index({{"src/a.cc",
                       "namespace a {\n"
                       "void Emit(int v) {}\n"
                       "void Emit(const char* s) {}\n"
                       "void Both() { Emit(1); }\n"
                       "}  // namespace a\n"}});
  const CallGraph g = BuildCallGraph(ix.index);
  const size_t both = Find(ix.index, "a::Both");
  // One call site, two same-named definitions: the edge set over-approximates
  // to both (documented conservative direction for taint).
  EXPECT_EQ(g.callees[both].size(), 2u);
  EXPECT_EQ(g.unresolved_calls, 0u);
}

TEST(CallGraph, NamedLambdaIsASymbolWithAnImplicitCreatorEdge) {
  Indexed ix = Index({{"src/b.cc",
                       "void Outer() {\n"
                       "  auto rearm = [](int n) { return n + 1; };\n"
                       "  rearm(2);\n"
                       "}\n"}});
  const CallGraph g = BuildCallGraph(ix.index);
  const size_t outer = Find(ix.index, "Outer");
  const size_t lambda = Find(ix.index, "Outer::rearm");
  EXPECT_TRUE(ix.index.functions()[lambda].is_lambda);
  EXPECT_TRUE(HasEdge(g, outer, lambda));
}

TEST(CallGraph, QualifierMismatchDegradesToUnknownCallee) {
  Indexed ix = Index({{"src/c.cc",
                       "namespace mine {\n"
                       "int Helper() { return 1; }\n"
                       "}  // namespace mine\n"
                       "int Use() { return other::Helper(); }\n"}});
  const CallGraph g = BuildCallGraph(ix.index);
  const size_t use = Find(ix.index, "Use");
  // `other::Helper` must not resolve to `mine::Helper`: no edge, one
  // unresolved call recorded.
  EXPECT_TRUE(g.callees[use].empty());
  EXPECT_GE(g.unresolved_calls, 1u);
}

TEST(CallGraph, UnresolvedExternNeverTaints) {
  // A src/ function calling an extern with no in-index definition gets no
  // edge and therefore no transitive-nondeterminism finding — unknown
  // callees degrade to silence, not to guesses.
  Indexed ix = Index({{"src/d.cc",
                       "long HostEntropy();\n"
                       "long Sample() { return HostEntropy() % 7; }\n"}});
  const CallGraph g = BuildCallGraph(ix.index);
  EXPECT_GE(g.unresolved_calls, 1u);
  std::vector<Diagnostic> diags;
  CheckTransitiveNondeterminism(ix.index, g, ix.files, &diags);
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

TEST(CallGraph, WholeTreeIndexesAndBuildsCleanly) {
  // Every file in the repo must index without crashing, and the graph must
  // be healthy: a real function population with a mostly-resolved edge set
  // (guards against the symbol pass silently going blind, which would turn
  // the interprocedural rules off).
  std::vector<SourceFile> sources;
  for (const TreeFile& tf :
       LoadTree(SKYRISE_SOURCE_DIR,
                {"src", "examples", "bench", "tests", "tools"})) {
    sources.push_back(Preprocess(tf.rel, tf.contents));
  }
  SymbolIndex index;
  for (const SourceFile& sf : sources) index.AddFile(sf);
  const CallGraph g = BuildCallGraph(index);
  EXPECT_GT(index.functions().size(), 1000u);
  ASSERT_EQ(g.callees.size(), index.functions().size());
  size_t edges = 0;
  for (const auto& out : g.callees) edges += out.size();
  EXPECT_GT(edges, 1000u);
  // src/ holds statics (the shared-mutable-state pass reads them), and the
  // repo's cap on unresolved externs stays sane relative to resolved edges.
  EXPECT_FALSE(index.statics().empty());
  EXPECT_LT(g.unresolved_calls, edges * 10);
}

}  // namespace
}  // namespace skyrise::check
