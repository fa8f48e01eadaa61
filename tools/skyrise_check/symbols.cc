#include "symbols.h"

#include <cctype>

namespace skyrise::check {
namespace {

constexpr size_t kNone = FunctionScope::kNone;

/// Case-insensitive substring search over identifier text.
bool ContainsCi(const std::string& haystack, const std::string& needle) {
  if (needle.size() > haystack.size()) return false;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    size_t j = 0;
    while (j < needle.size() &&
           std::tolower(static_cast<unsigned char>(haystack[i + j])) ==
               std::tolower(static_cast<unsigned char>(needle[j]))) {
      ++j;
    }
    if (j == needle.size()) return true;
  }
  return false;
}

bool IsRetryIshIdent(const std::string& s) {
  return ContainsCi(s, "retry") || ContainsCi(s, "backoff") ||
         ContainsCi(s, "attempt");
}

bool IsBoundIdent(const std::string& s) {
  return ContainsCi(s, "budget") || ContainsCi(s, "deadline") ||
         (ContainsCi(s, "max") && ContainsCi(s, "attempt"));
}

/// Identifiers that precede `(` without being callees.
bool IsCallKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",        "for",      "while",    "switch",   "return",
      "co_return", "catch",    "sizeof",   "alignof",  "decltype",
      "noexcept",  "new",      "delete",   "throw",    "case",
      "co_await",  "co_yield", "operator", "alignas",  "typeid",
      "assert",    "defined",  "requires", "static_assert"};
  return kKeywords.count(s) > 0;
}

/// Declaration-statement leads at namespace/class scope that never begin a
/// variable definition we need to inventory.
bool IsDeclKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "using",  "typedef", "extern",    "friend",  "static_assert",
      "template", "public", "private", "protected", "operator"};
  return kKeywords.count(s) > 0;
}

bool IsCvKeyword(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "constinit";
}

/// Token-level template-argument matcher (`>>` closes two), bounded so a
/// stray `<` comparison cannot send the scan far afield.
size_t AngleMatch(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size() && i < open + 256; ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") ++depth;
    if (t == ">") --depth;
    if (t == ">>") depth -= 2;
    if (depth <= 0) return i;
    if (t == ";" || t == "{") break;
  }
  return kNone;
}

struct Region {
  enum class Kind { kNamespace, kClass, kEnum, kFunction, kOther };
  size_t open = 0;
  size_t close = 0;
  Kind kind = Kind::kOther;
  std::string name;  ///< Namespace/class name ("" when anonymous).
};

/// Classifies brace regions in the stream: function bodies (from the scope
/// extractor), namespace bodies, class/struct/union bodies, and enum bodies.
/// Initializer braces and compound statements are deliberately absent — at
/// walk time they inherit the innermost classified region's kind.
std::vector<Region> BuildRegions(const std::vector<Token>& toks,
                                 const BracketMap& brackets,
                                 const std::vector<FunctionScope>& scopes) {
  std::map<size_t, Region> by_open;
  for (const FunctionScope& s : scopes) {
    Region r;
    r.open = s.body_begin;
    r.close = s.body_end;
    r.kind = Region::Kind::kFunction;
    by_open[r.open] = r;
  }
  for (size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "namespace") {
      // `namespace A::B {` / anonymous `namespace {`; aliases (`= other`)
      // and `using namespace` have no brace and are skipped naturally.
      if (i > 0 && toks[i - 1].Is("using")) continue;
      std::string name;
      size_t j = i + 1;
      while (j < toks.size() && (toks[j].IsIdent() || toks[j].Is("::"))) {
        if (toks[j].IsIdent()) {
          if (!name.empty()) name += "::";
          name += toks[j].text;
        }
        ++j;
      }
      if (j < toks.size() && toks[j].Is("{") &&
          brackets.MatchOf(j) != BracketMap::kUnmatched &&
          by_open.count(j) == 0) {
        Region r;
        r.open = j;
        r.close = brackets.MatchOf(j);
        r.kind = Region::Kind::kNamespace;
        r.name = name;
        by_open[j] = r;
      }
      continue;
    }
    if (t == "class" || t == "struct" || t == "union" || t == "enum") {
      // Skip template parameters (`template <class T>`) and the `class`
      // token of `enum class` (the `enum` token drives that region).
      if (i > 0 && (toks[i - 1].Is("<") || toks[i - 1].Is(",") ||
                    toks[i - 1].Is("enum") || toks[i - 1].Is("typename"))) {
        continue;
      }
      const bool is_enum = t == "enum";
      // Name: first identifier after the keyword, skipping `class`/`struct`
      // of `enum class` and attribute brackets.
      std::string name;
      size_t j = i + 1;
      while (j < toks.size()) {
        if (toks[j].Is("class") || toks[j].Is("struct")) {
          ++j;
          continue;
        }
        if (toks[j].Is("[")) {
          const size_t m = brackets.MatchOf(j);
          if (m == BracketMap::kUnmatched) break;
          j = m + 1;
          continue;
        }
        break;
      }
      if (j < toks.size() && toks[j].IsIdent()) {
        name = toks[j].text;
        ++j;
      }
      // Scan forward for the body `{`; a `;`, `(`, or `=` first means this
      // was a forward declaration, a variable of class type, or a function
      // signature, not a definition.
      size_t brace = kNone;
      for (size_t k = j; k < toks.size() && k < j + 64; ++k) {
        const std::string& s = toks[k].text;
        if (s == "<") {
          const size_t m = AngleMatch(toks, k);
          if (m == kNone) break;
          k = m;
          continue;
        }
        if (s == "{") {
          brace = k;
          break;
        }
        if (s == ";" || s == "(" || s == "=" || s == "}") break;
      }
      if (brace != kNone &&
          brackets.MatchOf(brace) != BracketMap::kUnmatched &&
          by_open.count(brace) == 0) {
        Region r;
        r.open = brace;
        r.close = brackets.MatchOf(brace);
        r.kind = is_enum ? Region::Kind::kEnum : Region::Kind::kClass;
        r.name = name;
        by_open[brace] = r;
      }
    }
  }
  std::vector<Region> regions;
  regions.reserve(by_open.size());
  for (auto& [open, r] : by_open) regions.push_back(std::move(r));
  return regions;
}

/// Joined namespace/class names of every region enclosing token `pos`.
std::string PrefixAt(const std::vector<Region>& regions, size_t pos) {
  std::string prefix;
  for (const Region& r : regions) {
    if (r.open >= pos || r.close <= pos) continue;
    if (r.kind != Region::Kind::kNamespace &&
        r.kind != Region::Kind::kClass) {
      continue;
    }
    if (r.name.empty()) continue;
    if (!prefix.empty()) prefix += "::";
    prefix += r.name;
  }
  return prefix;
}

/// Walks from `i` to the first top-level declarator delimiter: `(` means
/// function, `=`/`{` an initialized variable, `;` a plain variable or
/// forward declaration. Template-argument lists and attribute brackets are
/// jumped. Returns kNone when the statement is malformed.
size_t FirstDelim(const std::vector<Token>& toks, const BracketMap& brackets,
                  size_t i) {
  for (size_t j = i; j < toks.size(); ++j) {
    const std::string& t = toks[j].text;
    if (t == "<" && j > i && toks[j - 1].IsIdent()) {
      const size_t m = AngleMatch(toks, j);
      if (m == kNone) return kNone;
      j = m;
      continue;
    }
    if (t == "[") {
      const size_t m = brackets.MatchOf(j);
      if (m == BracketMap::kUnmatched) return kNone;
      j = m;
      continue;
    }
    if (t == "(" || t == "=" || t == "{" || t == ";" || t == "}") return j;
  }
  return kNone;
}

/// Advances past the rest of a declaration whose first delimiter is `d`.
/// Function signatures stop AT the body `{` (so the region walk enters it
/// and still sees static locals inside); variables skip to past their `;`.
size_t SkipDecl(const std::vector<Token>& toks, const BracketMap& brackets,
                size_t d) {
  const std::string& t = toks[d].text;
  if (t == ";" || t == "}") return d + 1;
  if (t == "(") {
    const size_t close = brackets.MatchOf(d);
    if (close == BracketMap::kUnmatched) return d + 1;
    // Specifiers / trailing return / member-init list up to `{` or `;`.
    size_t j = close + 1;
    while (j < toks.size() && !toks[j].Is("{") && !toks[j].Is(";") &&
           !toks[j].Is("}")) {
      if (toks[j].Is("(")) {
        const size_t m = brackets.MatchOf(j);
        if (m == BracketMap::kUnmatched) break;
        j = m;
      }
      ++j;
    }
    if (j < toks.size() && toks[j].Is("{")) return j;  // Enter the body.
    return j + 1;
  }
  // `=` / `{` initializer: scan to `;` jumping balanced groups.
  size_t j = d;
  while (j < toks.size() && !toks[j].Is(";")) {
    if (toks[j].Is("(") || toks[j].Is("{") || toks[j].Is("[")) {
      const size_t m = brackets.MatchOf(j);
      if (m == BracketMap::kUnmatched) return j + 1;
      j = m;
    }
    ++j;
  }
  return j + 1;
}

/// Parses the variable name (with explicit `A::B::` qualifiers) directly
/// before delimiter `d`; empty when the tokens do not look like `Type name`.
std::string DeclaratorName(const std::vector<Token>& toks, size_t begin,
                           size_t d) {
  if (d == 0 || d <= begin) return "";
  size_t idx = d - 1;
  // Array declarator `name[N]` — walk back over the brackets.
  while (idx > begin && toks[idx].Is("]")) {
    while (idx > begin && !toks[idx].Is("[")) --idx;
    if (idx > begin) --idx;
  }
  if (!toks[idx].IsIdent()) return "";
  std::string name = toks[idx].text;
  while (idx >= begin + 2 && toks[idx - 1].Is("::") &&
         toks[idx - 2].IsIdent()) {
    name = toks[idx - 2].text + "::" + name;
    idx -= 2;
  }
  // A lone identifier is an expression statement, not `Type name`.
  for (size_t j = begin; j < idx; ++j) {
    if (toks[j].IsIdent() && !IsCvKeyword(toks[j].text) &&
        !toks[j].Is("static") && !toks[j].Is("inline") &&
        !toks[j].Is("thread_local")) {
      return name;
    }
    if (toks[j].Is("*") || toks[j].Is("&")) return name;
  }
  return "";
}

/// Static-storage variable pass: walks the token stream with the
/// classified region stack, recognizing namespace-scope declarations and
/// `static`-anchored statements inside classes and function bodies.
void CollectStaticsIn(const SourceFile& file, const std::vector<Token>& toks,
                      const BracketMap& brackets,
                      const std::vector<Region>& regions,
                      const std::vector<FunctionSym>& functions,
                      std::vector<StaticVar>* out) {
  std::map<size_t, const Region*> by_open;
  for (const Region& r : regions) by_open[r.open] = &r;

  std::vector<const Region*> stack;
  auto context = [&]() {
    return stack.empty() ? Region::Kind::kNamespace : stack.back()->kind;
  };

  auto record = [&](size_t begin, size_t delim, StaticVar::Storage storage) {
    const std::string name = DeclaratorName(toks, begin, delim);
    if (name.empty()) return;
    StaticVar var;
    var.file = file.path;
    var.line = toks[begin].line;
    var.storage = storage;
    // The type ends where the (possibly qualified) name chain starts.
    size_t type_end;
    {
      size_t idx = delim - 1;
      while (idx > begin && toks[idx].Is("]")) {
        while (idx > begin && !toks[idx].Is("[")) --idx;
        if (idx > begin) --idx;
      }
      while (idx >= begin + 2 && toks[idx - 1].Is("::") &&
             toks[idx - 2].IsIdent()) {
        idx -= 2;
      }
      type_end = idx;
    }
    // cv scan at declarator top level only: `map<K, const V*>` args are
    // jumped so element const-ness cannot launder a mutable container.
    for (size_t j = begin; j < type_end; ++j) {
      if (toks[j].Is("<") && j > begin && toks[j - 1].IsIdent()) {
        const size_t m = AngleMatch(toks, j);
        if (m != kNone) j = m;
        continue;
      }
      if (IsCvKeyword(toks[j].text)) var.is_const = true;
    }
    std::string prefix = PrefixAt(regions, begin);
    // Static locals nest under their function's qualified name; the region
    // prefix only carries namespaces/classes, so swap in the symbol name.
    if (storage == StaticVar::Storage::kStaticLocal && !stack.empty()) {
      for (const FunctionSym& sym : functions) {
        if (sym.file == file.path &&
            sym.line == toks[stack.back()->open].line) {
          prefix = sym.qualified;
          break;
        }
      }
    }
    var.qualified = prefix.empty() ? name : prefix + "::" + name;
    out->push_back(std::move(var));
  };

  size_t i = 0;
  while (i < toks.size()) {
    while (!stack.empty() && i > stack.back()->close) stack.pop_back();
    auto rit = by_open.find(i);
    if (rit != by_open.end()) {
      stack.push_back(rit->second);
      ++i;
      continue;
    }
    const Token& t = toks[i];
    if (t.Is("}") || t.Is(";") || t.Is(":")) {
      ++i;
      continue;
    }

    if (context() == Region::Kind::kNamespace) {
      // Top-level declaration statement. Region-opening keywords were
      // classified by BuildRegions; non-variable leads advance to their `;`
      // or to the region brace so nested scopes still get walked.
      if (t.Is("namespace") || t.Is("class") || t.Is("struct") ||
          t.Is("union") || t.Is("enum") || IsDeclKeyword(t.text)) {
        size_t j = i + 1;
        while (j < toks.size() && !toks[j].Is(";") &&
               by_open.count(j) == 0) {
          if (toks[j].Is("(") || toks[j].Is("[")) {
            const size_t m = brackets.MatchOf(j);
            if (m == BracketMap::kUnmatched) break;
            j = m;
          }
          ++j;
        }
        i = (j < toks.size() && toks[j].Is(";")) ? j + 1 : j;
        continue;
      }
      const size_t delim = FirstDelim(toks, brackets, i);
      if (delim == kNone) {
        ++i;
        continue;
      }
      const bool region_brace =
          toks[delim].Is("{") && by_open.count(delim) > 0;
      if (!region_brace &&
          (toks[delim].Is("=") || toks[delim].Is("{") ||
           toks[delim].Is(";"))) {
        record(i, delim, StaticVar::Storage::kNamespaceScope);
      }
      i = region_brace ? delim : SkipDecl(toks, brackets, delim);
      continue;
    }

    if (t.Is("static") && (context() == Region::Kind::kClass ||
                           context() == Region::Kind::kFunction)) {
      const size_t delim = FirstDelim(toks, brackets, i + 1);
      if (delim != kNone && !toks[delim].Is("(") && !toks[delim].Is("}") &&
          by_open.count(delim) == 0) {
        // Pull in cv-qualifiers written before `static`.
        size_t begin = i;
        while (begin > 0 && (IsCvKeyword(toks[begin - 1].text) ||
                             toks[begin - 1].Is("inline") ||
                             toks[begin - 1].Is("thread_local"))) {
          --begin;
        }
        record(begin, delim,
               context() == Region::Kind::kClass
                   ? StaticVar::Storage::kStaticMember
                   : StaticVar::Storage::kStaticLocal);
        i = SkipDecl(toks, brackets, delim);
        continue;
      }
    }
    ++i;
  }
}

}  // namespace

const char* StorageName(StaticVar::Storage storage) {
  switch (storage) {
    case StaticVar::Storage::kNamespaceScope:
      return "namespace-scope";
    case StaticVar::Storage::kStaticLocal:
      return "static-local";
    case StaticVar::Storage::kStaticMember:
      return "static-member";
  }
  return "unknown";
}

const char* BannedApiReason(const std::string& token) {
  struct Banned {
    const char* token;
    const char* why;
  };
  static const Banned kBanned[] = {
      {"system_clock", "wall clock; use sim::SimEnvironment::now()"},
      {"steady_clock", "host clock; use sim::SimEnvironment::now()"},
      {"high_resolution_clock", "host clock; use sim::SimEnvironment::now()"},
      {"random_device", "nondeterministic seed; use Rng::Fork / env seed"},
      {"mt19937", "ambient RNG; use skyrise::Rng streams"},
      {"mt19937_64", "ambient RNG; use skyrise::Rng streams"},
      {"default_random_engine", "ambient RNG; use skyrise::Rng streams"},
      {"srand", "global RNG; use skyrise::Rng streams"},
      {"getenv", "environment lookup makes runs host-dependent"},
      {"gettimeofday", "wall clock; use sim::SimEnvironment::now()"},
      {"clock_gettime", "wall clock; use sim::SimEnvironment::now()"},
      {"localtime", "wall-clock formatting; derive from virtual time"},
      {"gmtime", "wall-clock formatting; derive from virtual time"},
      {"this_thread", "thread identity/sleep leaks host scheduling"},
  };
  for (const Banned& b : kBanned) {
    if (token == b.token) return b.why;
  }
  return nullptr;
}

bool SrcScoped(const std::string& path) {
  if (path.find('/') == std::string::npos) return true;
  return path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

void SymbolIndex::AddFile(const SourceFile& file) {
  const std::vector<Token> toks = Lex(file);
  const BracketMap brackets = PairBrackets(toks);
  const std::vector<FunctionScope> scopes = ExtractFunctions(toks, brackets);
  const std::vector<Region> regions = BuildRegions(toks, brackets, scopes);

  // --- Pass 1: create symbols (functions + lambdas assigned to locals) and
  // the per-scope ownership map (anonymous lambdas fold into their creator).
  struct ScopeInfo {
    size_t sym = kNone;        ///< Symbol this scope defines, or kNone.
    size_t owner_sym = kNone;  ///< Symbol owning this scope's tokens.
  };
  std::vector<ScopeInfo> infos(scopes.size());
  // Scopes are in body_begin order, so an enclosing scope precedes its
  // nested scopes; a stack of indices tracks the enclosing chain.
  std::vector<size_t> stack;
  for (size_t s = 0; s < scopes.size(); ++s) {
    const FunctionScope& scope = scopes[s];
    while (!stack.empty() &&
           scopes[stack.back()].body_end < scope.body_begin) {
      stack.pop_back();
    }
    const size_t parent = stack.empty() ? kNone : stack.back();
    const size_t parent_sym =
        parent != kNone ? infos[parent].owner_sym : kNone;

    std::string name;
    std::string qualified;
    bool creates_sym = false;
    if (!scope.is_lambda) {
      creates_sym = true;
      name = scope.name.empty() ? "<anonymous>" : scope.name;
      // Explicit qualifiers on an out-of-line definition: `A::B::name(`.
      std::string quals;
      if (scope.params_begin != kNone && scope.params_begin >= 1) {
        size_t idx = scope.params_begin - 1;
        while (idx >= 2 && toks[idx - 1].Is("::") &&
               toks[idx - 2].IsIdent()) {
          quals = toks[idx - 2].text + "::" + quals;
          idx -= 2;
        }
      }
      qualified = PrefixAt(regions, scope.body_begin);
      if (!qualified.empty()) qualified += "::";
      qualified += quals + name;
    } else if (scope.capture_begin != kNone && scope.capture_begin >= 2 &&
               toks[scope.capture_begin - 1].Is("=") &&
               toks[scope.capture_begin - 2].IsIdent()) {
      // `auto f = [...] {...};` — a named local callable.
      creates_sym = true;
      name = toks[scope.capture_begin - 2].text;
      qualified = parent_sym != kNone ? functions_[parent_sym].qualified
                                      : PrefixAt(regions, scope.body_begin);
      if (!qualified.empty()) qualified += "::";
      qualified += name;
    }

    if (creates_sym) {
      FunctionSym sym;
      sym.qualified = qualified;
      sym.name = name;
      sym.file = file.path;
      sym.line = toks[scope.body_begin].line;
      sym.is_lambda = scope.is_lambda;
      infos[s].sym = functions_.size();
      infos[s].owner_sym = infos[s].sym;
      functions_.push_back(std::move(sym));
      // The creator of a named lambda is assumed to invoke it: callbacks
      // run eventually, and for taint purposes creating one is as good as
      // calling it. The edge keeps witness chains connected.
      if (scope.is_lambda && parent_sym != kNone) {
        functions_[parent_sym].calls.push_back(
            CallSite{name, toks[scope.body_begin].line, false});
      }
    } else {
      infos[s].owner_sym = parent_sym;
    }
    stack.push_back(s);
  }

  // --- Pass 2: one linear walk attributing token events (calls, banned
  // APIs, bounds, scheduling) to the owning symbol.
  stack.clear();
  size_t next_scope = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    while (!stack.empty() && i > scopes[stack.back()].body_end) {
      stack.pop_back();
    }
    if (next_scope < scopes.size() && scopes[next_scope].body_begin == i) {
      stack.push_back(next_scope++);
      continue;  // The `{` token itself.
    }
    if (stack.empty()) continue;
    const size_t owner = infos[stack.back()].owner_sym;
    if (owner == kNone) continue;
    const Token& t = toks[i];
    if (!t.IsIdent()) continue;
    FunctionSym& sym = functions_[owner];

    if (IsBoundIdent(t.text)) sym.has_bound = true;

    const char* why = BannedApiReason(t.text);
    const bool call_pos = i + 1 < toks.size() && toks[i + 1].Is("(");
    const bool member_access =
        i >= 1 && (toks[i - 1].Is(".") || toks[i - 1].Is("->"));
    if (why == nullptr && call_pos && !member_access &&
        (t.text == "rand" || t.text == "time")) {
      why = "nondeterministic; use skyrise::Rng / virtual time";
    }
    if (why != nullptr) {
      BannedUse use;
      use.api = t.text;
      use.why = why;
      use.line = t.line;
      use.sanctioned_source =
          IsSuppressed(file, t.line, "transitive-nondeterminism");
      sym.banned.push_back(use);
    }

    // Call expression `name(...)` / `A::B::name(...)` / `x.name(...)`.
    if (call_pos && !IsCallKeyword(t.text)) {
      std::string callee = t.text;
      if (!member_access) {
        size_t idx = i;
        while (idx >= 2 && toks[idx - 1].Is("::") &&
               toks[idx - 2].IsIdent()) {
          callee = toks[idx - 2].text + "::" + callee;
          idx -= 2;
        }
      }
      bool retry_args = false;
      const size_t close = brackets.MatchOf(i + 1);
      if (close != BracketMap::kUnmatched) {
        for (size_t j = i + 2; j < close; ++j) {
          if (toks[j].IsIdent() && IsRetryIshIdent(toks[j].text)) {
            retry_args = true;
            break;
          }
        }
      }
      sym.calls.push_back(CallSite{callee, t.line, retry_args});
      if (t.text == "Schedule") {
        sym.calls_scheduler = true;
        if (retry_args && !sym.direct_retry_schedule) {
          sym.direct_retry_schedule = true;
          sym.retry_line = t.line;
        }
      }
      if (t.text == "Begin") sym.has_begin_call = true;
    }
  }

  // --- Pass 3: signature facts (parameter/capture tokens live outside the
  // body range and were not attributed above).
  for (size_t s = 0; s < scopes.size(); ++s) {
    if (infos[s].sym == kNone) continue;
    const FunctionScope& scope = scopes[s];
    FunctionSym& sym = functions_[infos[s].sym];
    auto scan_bounds = [&](size_t b, size_t e) {
      if (b == kNone || e == kNone) return;
      for (size_t j = b; j <= e && j < toks.size(); ++j) {
        if (toks[j].IsIdent() && IsBoundIdent(toks[j].text)) {
          sym.has_bound = true;
        }
      }
    };
    scan_bounds(scope.params_begin, scope.params_end);
    scan_bounds(scope.capture_begin, scope.capture_end);
    // Return type `[obs::]SpanId name(...)`, walking back over the explicit
    // qualifier chain from the name token.
    if (!scope.is_lambda && scope.params_begin != kNone &&
        scope.params_begin >= 2) {
      size_t idx = scope.params_begin - 1;  // Name token.
      while (idx >= 2 && toks[idx - 1].Is("::") && toks[idx - 2].IsIdent()) {
        idx -= 2;
      }
      if (idx >= 1 && toks[idx - 1].Is("SpanId") && sym.has_begin_call) {
        sym.returns_open_span = true;
      }
    }
  }

  // --- Pass 4: static-storage variables.
  CollectStaticsIn(file, toks, brackets, regions, functions_, &statics_);
}

std::set<std::string> SymbolIndex::SpanSourceNames() const {
  std::set<std::string> names;
  for (const FunctionSym& f : functions_) {
    if (f.returns_open_span) names.insert(f.name);
  }
  return names;
}

}  // namespace skyrise::check
