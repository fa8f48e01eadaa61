#include "checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cfg.h"
#include "explain.h"
#include "lexer.h"
#include "sarif.h"

/// Golden-fixture tests for the skyrise_check lint pass: every rule family
/// has a fixture that fires, an allowed twin showing the sanctioned pattern,
/// and a suppressed twin that must be clean; plus a test pinning the real
/// tree at zero violations with every suppression naming a real rule, and a
/// robustness test that the CFG layer parses every file in the repo.

namespace skyrise::check {
namespace {

const char kFixtureDir[] = SKYRISE_SOURCE_DIR "/tests/tools/fixtures/";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The whole-tree lint, timed. It runs once per process: the zero-violation
/// test and the timing test read the same run.
struct WholeTreeRun {
  std::vector<Diagnostic> diags;
  long long elapsed_ms = 0;
};

const WholeTreeRun& LintWholeTree() {
  static const WholeTreeRun run = [] {
    WholeTreeRun r;
    // skyrise-check: allow(banned-api, transitive-nondeterminism)
    const auto t0 = std::chrono::steady_clock::now();
    r.diags = CheckTree(SKYRISE_SOURCE_DIR,
                        {"src", "examples", "bench", "tests", "tools"});
    // skyrise-check: allow(banned-api)
    const auto t1 = std::chrono::steady_clock::now();
    r.elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(t1 - t0).count();
    return r;
  }();
  return run;
}

/// Lints one fixture (diagnostic paths use the bare file name so goldens are
/// location-independent) and returns the formatted report.
std::string LintFixture(const std::string& name) {
  Checker checker;
  const std::vector<Diagnostic> diags =
      checker.CheckSources({{name, ReadFile(kFixtureDir + name)}});
  std::string report;
  for (const Diagnostic& d : diags) report += FormatDiagnostic(d) + "\n";
  return report;
}

TEST(SkyriseCheckGolden, BannedApiFires) {
  EXPECT_EQ(LintFixture("banned_api_violation.cc"),
            ReadFile(kFixtureDir + std::string("banned_api_violation.expected")));
}

TEST(SkyriseCheckGolden, BannedApiSuppressed) {
  EXPECT_EQ(LintFixture("banned_api_suppressed.cc"), "");
}

TEST(SkyriseCheckGolden, UnorderedIterationFires) {
  EXPECT_EQ(LintFixture("unordered_iteration_violation.cc"),
            ReadFile(kFixtureDir +
                     std::string("unordered_iteration_violation.expected")));
}

TEST(SkyriseCheckGolden, UnorderedIterationSuppressed) {
  EXPECT_EQ(LintFixture("unordered_iteration_suppressed.cc"), "");
}

TEST(SkyriseCheckGolden, UnorderedRulesSeeThePairedHeader) {
  // The container is declared in the header and iterated in the source
  // file; a source file with another stem does not see the header's names.
  const std::string header =
      ReadFile(kFixtureDir + std::string("unordered_member.h"));
  const std::string source =
      ReadFile(kFixtureDir + std::string("unordered_member.cc"));
  Checker paired;
  std::string report;
  for (const Diagnostic& d : paired.CheckSources(
           {{"unordered_member.h", header}, {"unordered_member.cc", source}})) {
    report += FormatDiagnostic(d) + "\n";
  }
  EXPECT_EQ(report,
            ReadFile(kFixtureDir + std::string("unordered_member.expected")));
  Checker unpaired;
  EXPECT_TRUE(unpaired
                  .CheckSources({{"unordered_member.h", header},
                                 {"elsewhere.cc", source}})
                  .empty());
}

TEST(SkyriseCheckGolden, HeaderHygieneFires) {
  EXPECT_EQ(
      LintFixture("header_hygiene_violation.h"),
      ReadFile(kFixtureDir + std::string("header_hygiene_violation.expected")));
}

TEST(SkyriseCheckGolden, HeaderHygieneSuppressed) {
  EXPECT_EQ(LintFixture("header_hygiene_suppressed.h"), "");
}

TEST(SkyriseCheckGolden, UnboundedRetryFires) {
  EXPECT_EQ(LintFixture("unbounded_retry_violation.cc"),
            ReadFile(kFixtureDir +
                     std::string("unbounded_retry_violation.expected")));
}

TEST(SkyriseCheckGolden, UnboundedRetryAllowed) {
  EXPECT_EQ(LintFixture("unbounded_retry_allowed.cc"), "");
}

TEST(SkyriseCheckGolden, UnboundedRetrySuppressed) {
  EXPECT_EQ(LintFixture("unbounded_retry_suppressed.cc"), "");
}

TEST(SkyriseCheckGolden, UnboundedRetryScopedToSrc) {
  // The rule polices production scheduling code under src/; tests and tools
  // re-arm work freely (fake clocks, fixtures) and are not flagged.
  const std::string src =
      "struct Env {\n"
      "  template <typename F>\n"
      "  void Schedule(long delay, F fn) {}\n"
      "};\n"
      "void Rearm(Env* env, long backoff) {\n"
      "  env->Schedule(backoff, [env, backoff] { Rearm(env, backoff * 2); "
      "});\n"
      "}\n";
  Checker checker;
  const auto in_src = checker.CheckSources({{"src/faas/rearm.cc", src}});
  ASSERT_EQ(in_src.size(), 1u);
  EXPECT_EQ(in_src[0].rule, "unbounded-retry");
  EXPECT_TRUE(
      checker.CheckSources({{"tests/faas/rearm_test.cc", src}}).empty());
  EXPECT_TRUE(
      checker.CheckSources({{"tools/bench/rearm.cc", src}}).empty());
}

TEST(SkyriseCheckGolden, SimHotPathFires) {
  EXPECT_EQ(
      LintFixture("sim_hot_path_violation.cc"),
      ReadFile(kFixtureDir + std::string("sim_hot_path_violation.expected")));
}

TEST(SkyriseCheckGolden, SimHotPathAllowed) {
  EXPECT_EQ(LintFixture("sim_hot_path_allowed.cc"), "");
}

TEST(SkyriseCheckGolden, SimHotPathSuppressed) {
  EXPECT_EQ(LintFixture("sim_hot_path_suppressed.cc"), "");
}

TEST(SkyriseCheckGolden, SimHotPathScopedToSim) {
  // The same per-call costs outside src/sim/ are not this rule's business:
  // operator code allocates per morsel, tools per invocation — other rules
  // (and reviews) own those budgets.
  const std::string src =
      "void Apply(std::function<void()> fn);\n"
      "int Go() {\n"
      "  std::vector<int> scratch;\n"
      "  return static_cast<int>(scratch.size());\n"
      "}\n";
  Checker checker;
  const auto in_sim = checker.CheckSources({{"src/sim/kernel.cc", src}});
  ASSERT_EQ(in_sim.size(), 2u);
  EXPECT_EQ(in_sim[0].rule, "sim-hot-path");
  EXPECT_EQ(in_sim[1].rule, "sim-hot-path");
  EXPECT_TRUE(checker.CheckSources({{"src/engine/kernel.cc", src}}).empty());
  EXPECT_TRUE(checker.CheckSources({{"tests/sim/kernel_test.cc", src}}).empty());
}

// --- v2 flow-sensitive rules -----------------------------------------------

struct RuleFixture {
  const char* test_name;
  const char* stem;
  const char* ext;
};

class SkyriseCheckFlowGolden : public ::testing::TestWithParam<RuleFixture> {};

TEST_P(SkyriseCheckFlowGolden, ViolationMatchesGolden) {
  const RuleFixture& f = GetParam();
  const std::string violation =
      std::string(f.stem) + "_violation" + f.ext;
  EXPECT_EQ(LintFixture(violation),
            ReadFile(kFixtureDir + std::string(f.stem) +
                     std::string("_violation.expected")));
}

TEST_P(SkyriseCheckFlowGolden, AllowedPatternIsClean) {
  const RuleFixture& f = GetParam();
  EXPECT_EQ(LintFixture(std::string(f.stem) + "_allowed" + f.ext), "");
}

TEST_P(SkyriseCheckFlowGolden, SuppressionSilences) {
  const RuleFixture& f = GetParam();
  EXPECT_EQ(LintFixture(std::string(f.stem) + "_suppressed" + f.ext), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllFlowRules, SkyriseCheckFlowGolden,
    ::testing::Values(
        RuleFixture{"UncheckedResultAccess", "unchecked_result_access", ".cc"},
        RuleFixture{"StatusPathDrop", "status_path_drop", ".cc"},
        RuleFixture{"UseAfterMove", "use_after_move", ".cc"},
        RuleFixture{"SpanLeakOnSomePath", "span_leak", ".cc"},
        RuleFixture{"UnorderedTaint", "unordered_taint", ".cc"}),
    [](const ::testing::TestParamInfo<RuleFixture>& info) {
      return std::string(info.param.test_name);
    });

// The v3 interprocedural rule families reuse the same fixture contract:
// a violation golden, an allowed twin, and a suppressed twin.
INSTANTIATE_TEST_SUITE_P(
    InterproceduralRules, SkyriseCheckFlowGolden,
    ::testing::Values(
        RuleFixture{"TransitiveNondeterminism", "transitive_nondeterminism",
                    ".cc"},
        RuleFixture{"SharedMutableState", "shared_mutable_state", ".cc"},
        RuleFixture{"SpanTransferLeak", "span_transfer_leak", ".cc"},
        RuleFixture{"UnboundedRetryWrapper", "unbounded_retry_wrapper",
                    ".cc"}),
    [](const ::testing::TestParamInfo<RuleFixture>& info) {
      return std::string(info.param.test_name);
    });

// --- v3 interprocedural rules ----------------------------------------------

TEST(SkyriseCheckInterproc, CrossTuTaintReachesThreeCallsDeep) {
  // A steady_clock wrapper in one TU taints callers two files away; each hop
  // carries the witness chain back to the source line.
  Checker checker;
  const std::vector<Diagnostic> diags = checker.CheckSources(
      {{"src/sim/host_clock.cc",
        "namespace skyrise::sim {\n"
        "long HostTicks() {\n"
        "  return std::chrono::steady_clock::now().time_since_epoch()"
        ".count();\n"
        "}\n"
        "}  // namespace skyrise::sim\n"},
       {"src/sim/clock.cc",
        "namespace skyrise::sim {\n"
        "long HostTicks();\n"
        "long NowUs() { return HostTicks() / 1000; }\n"
        "}  // namespace skyrise::sim\n"},
       {"src/engine/backoff.cc",
        "namespace skyrise::engine {\n"
        "long NextDelay(long base) "
        "{ return base + skyrise::sim::NowUs() % 5; }\n"
        "}  // namespace skyrise::engine\n"}});
  size_t direct = 0;
  size_t transitive = 0;
  std::string engine_msg;
  for (const Diagnostic& d : diags) {
    if (d.rule == "banned-api") ++direct;
    if (d.rule != "transitive-nondeterminism") continue;
    ++transitive;
    if (d.file == "src/engine/backoff.cc") engine_msg = d.message;
  }
  EXPECT_EQ(direct, 1u);
  EXPECT_EQ(transitive, 2u);
  // The deepest caller's witness chain names every hop and the source file.
  EXPECT_NE(engine_msg.find("skyrise::engine::NextDelay -> "
                            "skyrise::sim::NowUs -> "
                            "skyrise::sim::HostTicks"),
            std::string::npos)
      << engine_msg;
  EXPECT_NE(engine_msg.find("src/sim/host_clock.cc:3"), std::string::npos)
      << engine_msg;
}

TEST(SkyriseCheckInterproc, TaintStopsOutsideSrcScope) {
  // The same chain rooted in src/ does not flag callers in tests/ or tools/.
  Checker checker;
  const std::vector<Diagnostic> diags = checker.CheckSources(
      {{"src/sim/host_clock.cc",
        "long HostTicks() { return std::rand(); }\n"},
       {"tests/sim/clock_test.cc",
        "long HostTicks();\n"
        "long Probe() { return HostTicks(); }\n"}});
  for (const Diagnostic& d : diags) {
    EXPECT_NE(d.rule, "transitive-nondeterminism") << FormatDiagnostic(d);
  }
}

TEST(SkyriseCheckInterproc, SpanSourceNamesFeedTheFlowRules) {
  // A SpanId-returning helper defined in one file turns its callers' leaks
  // into span-transfer-leak findings in another.
  Checker checker;
  const std::vector<Diagnostic> diags = checker.CheckSources(
      {{"src/obs/helpers.cc",
        "obs::SpanId BeginStage(obs::Tracer* t) "
        "{ return t->Begin(\"worker\", \"stage\", \"engine\"); }\n"},
       {"src/engine/run.cc",
        "obs::SpanId BeginStage(obs::Tracer* t);\n"
        "void Run(obs::Tracer* t) {\n"
        "  obs::SpanId s = BeginStage(t);\n"
        "  (void)s;\n"
        "}\n"}});
  ASSERT_EQ(diags.size(), 1u) << FormatDiagnostic(diags.front());
  EXPECT_EQ(diags[0].rule, "span-transfer-leak");
  EXPECT_EQ(diags[0].file, "src/engine/run.cc");
}

// --- SARIF output -----------------------------------------------------------

TEST(SkyriseCheckSarif, RendersSchemaRulesAndLocations) {
  const Diagnostic a{"src/a.cc", 3, "banned-api", "why \"quoted\""};
  const Diagnostic b{"src/b.cc", 9, "span-leak", "open"};
  const std::string sarif = RenderSarif({a, b});
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"skyrise_check\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"banned-api\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"span-leak\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/a.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 9"), std::string::npos);
  // Message text is JSON-escaped.
  EXPECT_NE(sarif.find("why \\\"quoted\\\""), std::string::npos);
  EXPECT_EQ(sarif.find("why \"quoted\""), std::string::npos);
}

TEST(SkyriseCheckSarif, EmptyFindingsIsAValidRun) {
  const std::string sarif = RenderSarif({});
  EXPECT_NE(sarif.find("\"results\": ["), std::string::npos);
  EXPECT_EQ(sarif.find("\"ruleId\""), std::string::npos);
}

// --- --explain ---------------------------------------------------------------

TEST(SkyriseCheckExplain, EveryRuleHasADocAndEveryDocARule) {
  const std::vector<std::string>& ids = Checker::RuleIds();
  EXPECT_EQ(RuleDocs().size(), ids.size());
  for (const std::string& id : ids) {
    const RuleDoc* doc = FindRuleDoc(id);
    ASSERT_NE(doc, nullptr) << "no RuleDoc for rule id " << id;
    EXPECT_FALSE(std::string(doc->invariant).empty()) << id;
    EXPECT_FALSE(std::string(doc->example).empty()) << id;
  }
  for (const RuleDoc& doc : RuleDocs()) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), std::string(doc.id)),
              ids.end())
        << "RuleDoc for unknown rule id " << doc.id;
  }
}

TEST(SkyriseCheckExplain, RendersRuleAndRejectsUnknown) {
  const std::string one = RenderExplain("span-leak");
  EXPECT_NE(one.find("span-leak"), std::string::npos);
  EXPECT_NE(one.find("DESIGN.md"), std::string::npos);
  EXPECT_TRUE(RenderExplain("no-such-rule").empty());
  const std::string all = RenderExplain("all");
  for (const std::string& id : Checker::RuleIds()) {
    EXPECT_NE(all.find(id), std::string::npos) << id;
  }
}

TEST(SkyriseCheckExplain, EveryRuleIdIsDocumentedInDesignSection6) {
  // The doc_check-style contract: DESIGN.md section 6 lists every rule id in
  // bold, and every bold kebab-case token in section 6 names a real rule.
  const std::string design = ReadFile(SKYRISE_SOURCE_DIR "/DESIGN.md");
  const size_t begin = design.find("\n## 6.");
  const size_t end = design.find("\n## 7.", begin);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::string section = design.substr(begin, end - begin);
  const std::vector<std::string>& ids = Checker::RuleIds();
  for (const std::string& id : ids) {
    EXPECT_NE(section.find("**" + id + "**"), std::string::npos)
        << "rule id " << id << " has no bold entry in DESIGN.md section 6";
  }
  // Reverse direction: every bold token shaped like a rule id (lowercase
  // kebab-case with at least one dash) must be a known rule.
  size_t pos = 0;
  while ((pos = section.find("**", pos)) != std::string::npos) {
    const size_t close = section.find("**", pos + 2);
    if (close == std::string::npos) break;
    const std::string token = section.substr(pos + 2, close - pos - 2);
    pos = close + 2;
    if (token.empty() || token.find(' ') != std::string::npos ||
        token.find('-') == std::string::npos) {
      continue;
    }
    bool kebab = true;
    for (char c : token) {
      if (!(std::islower(static_cast<unsigned char>(c)) || c == '-' ||
            std::isdigit(static_cast<unsigned char>(c)))) {
        kebab = false;
        break;
      }
    }
    if (!kebab) continue;
    EXPECT_NE(std::find(ids.begin(), ids.end(), token), ids.end())
        << "DESIGN.md section 6 documents unknown rule id " << token;
  }
}

// --- linter self-performance ------------------------------------------------

TEST(SkyriseCheckPerf, WholeTreeInterproceduralPassStaysFast) {
  // The interprocedural pass (index + graph + taint/retry/state on top of
  // the flow rules) must stay interactive over the whole repo. The budget
  // is about 8x the measured debug-build time (3x under ASan/UBSan), so it
  // trips on a complexity regression (e.g. quadratic resolution), not on
  // machine noise.
  EXPECT_LT(LintWholeTree().elapsed_ms, 15000);
}

TEST(SkyriseCheckFlow, EarlyReturnNarrowsPath) {
  // The fall-through of `if (!r.ok()) return ...;` is a checked path.
  Checker checker;
  const auto diags = checker.CheckSources({{"x.cc",
                                            "Result<int> Get();\n"
                                            "int F() {\n"
                                            "  auto r = Get();\n"
                                            "  if (!r.ok()) return -1;\n"
                                            "  return *r;\n"
                                            "}\n"}});
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
}

TEST(SkyriseCheckFlow, LoopCarriedMoveIsCaught) {
  // A move in a loop body reaches the next iteration through the back edge.
  Checker checker;
  const auto diags =
      checker.CheckSources({{"x.cc",
                             "void Sink(data::Chunk&& c);\n"
                             "void F(int n) {\n"
                             "  data::Chunk chunk;\n"
                             "  for (int i = 0; i < n; ++i) {\n"
                             "    Sink(std::move(chunk));\n"
                             "  }\n"
                             "}\n"}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "use-after-move");
}

// --- CFG robustness ---------------------------------------------------------

TEST(SkyriseCheckCfg, ParsesEveryFileInTheRepo) {
  // The lexer, bracket pairing, function extraction, and statement parser
  // must accept every file in the tree without crashing, and must find a
  // healthy number of function bodies (guards against the extractor
  // silently going blind, which would turn the flow rules off).
  size_t files = 0;
  size_t functions = 0;
  for (const TreeFile& tf :
       LoadTree(SKYRISE_SOURCE_DIR,
                {"src", "examples", "bench", "tests", "tools"})) {
    const SourceFile sf = Preprocess(tf.rel, tf.contents);
    const std::vector<Token> toks = Lex(sf);
    const BracketMap brackets = PairBrackets(toks);
    const std::vector<FunctionScope> scopes =
        ExtractFunctions(toks, brackets);
    for (const FunctionScope& scope : scopes) {
      const Stmt root = ParseFunctionBody(toks, brackets, scope.body_begin,
                                          scope.body_end);
      EXPECT_EQ(root.kind, Stmt::Kind::kBlock) << tf.rel;
    }
    ++files;
    functions += scopes.size();
  }
  EXPECT_GT(files, 100u);
  EXPECT_GT(functions, 1000u);
}

TEST(SkyriseCheckCfg, LambdaBodiesAreSeparateScopes) {
  const SourceFile sf = Preprocess(
      "x.cc",
      "void Outer() {\n"
      "  auto f = [](int v) { return v + 1; };\n"
      "  f(2);\n"
      "}\n");
  const std::vector<Token> toks = Lex(sf);
  const BracketMap brackets = PairBrackets(toks);
  const std::vector<FunctionScope> scopes = ExtractFunctions(toks, brackets);
  ASSERT_EQ(scopes.size(), 2u);
  EXPECT_FALSE(scopes[0].is_lambda);
  EXPECT_EQ(scopes[0].name, "Outer");
  EXPECT_TRUE(scopes[1].is_lambda);
}

TEST(SkyriseCheckPreprocess, StripsCommentsAndLiterals) {
  const SourceFile f = Preprocess(
      "x.cc",
      "int a = 1; // system_clock in a comment\n"
      "const char* s = \"std::rand()\";\n"
      "/* rand() in a\n"
      "   block comment */ int b = 2;\n");
  Checker checker;
  std::vector<Diagnostic> diags;
  checker.CheckFile(f, &diags);
  EXPECT_TRUE(diags.empty()) << FormatDiagnostic(diags.front());
  // Column positions survive blanking.
  EXPECT_EQ(f.code[0].substr(0, 10), "int a = 1;");
  EXPECT_EQ(f.code[1].find("std"), std::string::npos);
  EXPECT_NE(f.code[3].find("int b = 2;"), std::string::npos);
}

TEST(SkyriseCheckPreprocess, SuppressionCoversSameAndNextLineOnly) {
  const std::string src =
      "void F() {\n"
      "  // skyrise-check: allow(banned-api)\n"
      "  auto a = std::chrono::system_clock::now();\n"
      "  auto b = std::chrono::system_clock::now();\n"
      "}\n";
  Checker checker;
  const std::vector<Diagnostic> diags =
      checker.CheckSources({{"x.cc", src}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 4);
  EXPECT_EQ(diags[0].rule, "banned-api");
}

TEST(SkyriseCheckPreprocess, UnknownRuleInAllowDoesNotSuppress) {
  const std::string src =
      "void F() {\n"
      "  auto a = std::chrono::system_clock::now();  "
      "// skyrise-check: allow(unordered-iteration)\n"
      "}\n";
  Checker checker;
  const std::vector<Diagnostic> diags =
      checker.CheckSources({{"x.cc", src}});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "banned-api");
}

TEST(SkyriseCheckTree, RealTreeHasZeroViolations) {
  const std::vector<Diagnostic>& diags = LintWholeTree().diags;
  std::string report;
  for (const Diagnostic& d : diags) report += FormatDiagnostic(d) + "\n";
  EXPECT_TRUE(diags.empty()) << report;
}

TEST(SkyriseCheckTree, EveryAllowNamesARule) {
  // An allow naming an unknown id suppresses nothing (see
  // UnknownRuleInAllowDoesNotSuppress), so a leftover one — a typo, or the
  // id of a deleted rule — would otherwise sit in the tree unnoticed.
  const std::vector<std::string>& ids = Checker::RuleIds();
  std::string stale;
  for (const TreeFile& tf :
       LoadTree(SKYRISE_SOURCE_DIR,
                {"src", "examples", "bench", "tests", "tools"})) {
    const SourceFile sf = Preprocess(tf.rel, tf.contents);
    for (const auto& [line, rules] : sf.allows) {
      for (const std::string& rule : rules) {
        // Doc comments spell the syntax with these placeholders.
        if (rule == "<rule>" || rule == "...") continue;
        if (std::find(ids.begin(), ids.end(), rule) == ids.end()) {
          stale += tf.rel + ":" + std::to_string(line) + ": " + rule + "\n";
        }
      }
    }
  }
  EXPECT_TRUE(stale.empty()) << stale;
}

}  // namespace
}  // namespace skyrise::check
