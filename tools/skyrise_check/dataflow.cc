#include "dataflow.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace skyrise::check {
namespace {

constexpr size_t kNone = FunctionScope::kNone;

enum class VarKind { kResult, kStatus, kSpan, kChunk, kCollector };
enum class CheckState { kUnknown, kOk, kErr };

/// Abstract per-variable facts. The lattice is finite, so loop bodies reach
/// a fixpoint after a bounded number of re-executions.
struct VarState {
  VarKind kind = VarKind::kStatus;
  CheckState checked = CheckState::kUnknown;
  bool moved = false;
  bool used = false;     ///< Read/consumed at least once on this path.
  bool open = false;     ///< Span begun and not yet ended on this path.
  bool escaped = false;  ///< Left local reasoning (captured, aliased...).
  bool tainted = false;  ///< Holds unordered-iteration-ordered contents.
  bool call_origin = false;   ///< Bound from a fallible (non-OK) call.
  bool ordered_type = false;  ///< Collector is std::map/std::set — safe.
  bool transfer = false;  ///< Span received from a span-returning helper.
  int decl_line = 0;
  int origin_line = 0;  ///< Begin / move / taint site for the diagnostic.
  std::string guard;    ///< Condition text the span was opened under.

  auto Key() const {
    return std::tie(kind, checked, moved, used, open, escaped, tainted,
                    call_origin, ordered_type, transfer, guard);
  }
  bool operator==(const VarState& o) const { return Key() == o.Key(); }
};

using AbsState = std::map<std::string, VarState>;

bool SameState(const AbsState& a, const AbsState& b) {
  if (a.size() != b.size()) return false;
  auto it = b.begin();
  for (const auto& [name, st] : a) {
    if (it->first != name || !(it->second == st)) return false;
    ++it;
  }
  return true;
}

/// Result of abstractly executing a statement: the fall-through state (when
/// control can reach the next statement) plus any states that exited via
/// break/continue, to be joined at the enclosing loop/switch.
struct Flow {
  bool falls = true;
  AbsState state;
  std::vector<AbsState> breaks;
  std::vector<AbsState> continues;
};

struct CondAtom {
  std::string var;
  bool positive = true;  ///< `x.ok()` vs `!x.ok()`.
};

struct CondInfo {
  enum class Shape { kNone, kSingle, kAnd, kOr };
  Shape shape = Shape::kNone;
  std::vector<CondAtom> atoms;
};

bool IsValueToken(const Token& t) {
  return t.IsIdent() || t.kind == Token::Kind::kNumber || t.Is(")") ||
         t.Is("]");
}

const std::set<std::string>& DerefNames() {
  static const std::set<std::string> kNames = {"ValueOrDie", "ValueUnsafe",
                                               "value"};
  return kNames;
}

const std::set<std::string>& ReinitNames() {
  static const std::set<std::string> kNames = {"clear", "Clear", "reset",
                                               "Reset"};
  return kNames;
}

/// Tracer methods that take a span id without transferring ownership.
const std::set<std::string>& SpanNeutralCallees() {
  static const std::set<std::string> kNames = {"SetArg", "Instant", "Begin",
                                               "Find", "AddCost"};
  return kNames;
}

/// Collector mutators that pull loop values in (taint sources when the loop
/// iterates an unordered container).
const std::set<std::string>& CollectorAppendNames() {
  static const std::set<std::string> kNames = {
      "push_back", "emplace_back", "insert", "emplace", "Append", "push",
      "append"};
  return kNames;
}

/// Collector methods that serialize contents in iteration order.
const std::set<std::string>& CollectorSinkNames() {
  static const std::set<std::string> kNames = {"Dump", "Render", "Write",
                                               "Serialize", "Export"};
  return kNames;
}

class FunctionAnalyzer {
 public:
  FunctionAnalyzer(const SourceFile& file, const FlowContext& ctx,
                   const std::vector<Token>& toks, const BracketMap& brackets,
                   const std::vector<FunctionScope>& all_scopes,
                   std::vector<Diagnostic>* out)
      : file_(file),
        ctx_(ctx),
        toks_(toks),
        brackets_(brackets),
        out_(out) {
    for (const FunctionScope& s : all_scopes) {
      scope_entries_[s.is_lambda ? s.capture_begin : s.body_begin] = &s;
    }
  }

  void Analyze(const FunctionScope& scope) {
    scope_ = &scope;
    AbsState state;
    TrackParams(scope, &state);
    const Stmt root =
        ParseFunctionBody(toks_, brackets_, scope.body_begin, scope.body_end);
    unordered_depth_ = 0;
    const Flow flow = Exec(root, std::move(state));
    if (flow.falls) ExitChecks(flow.state, toks_[scope.body_end].line);
  }

 private:
  // --- Diagnostics -------------------------------------------------------

  void Emit(int line, const std::string& rule, const std::string& dedupe,
            std::string message) {
    if (!emitted_.insert(rule + ":" + std::to_string(line) + ":" + dedupe)
             .second) {
      return;
    }
    EmitDiagnostic(file_, line, rule, std::move(message), out_);
  }

  void ExitChecks(const AbsState& state, int exit_line) {
    for (const auto& [name, st] : state) ScopeEndCheck(name, st, exit_line);
  }

  /// Applied when a variable's scope ends on a falling path: at return
  /// statements, at the end of the function, and for branch-local variables
  /// at the join after their branch.
  void ScopeEndCheck(const std::string& name, const VarState& st,
                     int exit_line) {
    if (st.escaped) return;
    if (st.kind == VarKind::kSpan && st.open) {
      if (st.transfer) {
        Emit(st.origin_line, "span-transfer-leak", name,
             "span `" + name + "` received open from a span-returning "
             "helper here is not ended on the path leaving scope at line " +
             std::to_string(exit_line) + "; the call transferred the End "
             "obligation — End()/EndWith() it on every path (or hand it "
             "off)");
      } else {
        Emit(st.origin_line, "span-leak", name,
             "span `" + name + "` opened here is not ended on the path "
             "leaving scope at line " + std::to_string(exit_line) +
             "; every path must End()/EndWith() it (or hand it off)");
      }
    }
    if ((st.kind == VarKind::kStatus || st.kind == VarKind::kResult) &&
        st.call_origin && !st.used) {
      Emit(st.decl_line, "status-path-drop", name,
           "`" + name + "` holds a Status/Result that is never consumed on "
           "the path leaving scope at line " + std::to_string(exit_line) +
           "; check, return, or propagate it on every path");
    }
  }

  void TaintSink(const std::string& name, const VarState& st, int line) {
    Emit(line, "unordered-taint", name,
         "`" + name + "` was filled from unordered-container iteration "
         "(line " + std::to_string(st.origin_line) + ") and flows into an "
         "ordered sink without an intervening sort; sort it first");
  }

  // --- Parameter and declaration tracking --------------------------------

  void TrackParams(const FunctionScope& scope, AbsState* state) {
    if (scope.params_begin == kNone || scope.params_end == kNone) return;
    size_t i = scope.params_begin + 1;
    const size_t end = scope.params_end;
    while (i < end) {
      // One parameter: up to `,` at depth 0.
      size_t stop = i;
      {
        size_t j = i;
        while (j < end) {
          const std::string& t = toks_[j].text;
          if (t == ",") break;
          if (t == "(" || t == "[" || t == "{" || t == "<") {
            const size_t m = t == "<" ? MatchAngleTok(j) : brackets_.MatchOf(j);
            if (m == kNone || m >= end) {
              j = end;
              break;
            }
            j = m + 1;
            continue;
          }
          ++j;
        }
        stop = j;
      }
      TrackOneParam(i, stop, state);
      i = stop + 1;
    }
  }

  void TrackOneParam(size_t b, size_t e, AbsState* state) {
    // Cut off a default argument.
    for (size_t j = b; j < e; ++j) {
      if (toks_[j].Is("=")) {
        e = j;
        break;
      }
    }
    if (e <= b) return;
    VarKind kind = VarKind::kChunk;
    bool by_value = true;
    bool found = false;
    for (size_t j = b; j < e; ++j) {
      const std::string& t = toks_[j].text;
      if (t == "&" || t == "&&") by_value = false;
      if (t == "Result" && j + 1 < e && toks_[j + 1].Is("<")) {
        kind = VarKind::kResult;
        found = true;
      } else if (t == "Chunk") {
        kind = VarKind::kChunk;
        found = true;
      } else if (t == "SpanId") {
        kind = VarKind::kSpan;
        found = true;
      }
    }
    if (!found) return;
    // Parameter name: the last identifier of the segment.
    size_t name_idx = kNone;
    for (size_t j = e; j > b;) {
      --j;
      if (toks_[j].IsIdent()) {
        name_idx = j;
        break;
      }
    }
    if (name_idx == kNone) return;
    const std::string& name = toks_[name_idx].text;
    if (name == "Result" || name == "Chunk" || name == "SpanId" ||
        name == "const") {
      return;  // Unnamed parameter.
    }
    VarState st;
    st.kind = kind;
    st.decl_line = toks_[name_idx].line;
    if (kind == VarKind::kSpan) st.escaped = true;  // Caller owns it.
    if (kind == VarKind::kResult) st.used = true;   // Caller's value.
    if (kind == VarKind::kChunk && !by_value) {
      // Only by-value / rvalue-ref parameters are move-tracked; a move from
      // `const Chunk&` would not compile as a real move anyway.
      const bool rvalue_ref = std::any_of(
          toks_.begin() + static_cast<long>(b),
          toks_.begin() + static_cast<long>(e),
          [](const Token& t) { return t.Is("&&"); });
      if (!rvalue_ref) return;
    }
    (*state)[name] = st;
  }

  /// Token-level template-argument matcher (`>>` closes two).
  size_t MatchAngleTok(size_t open) const {
    int depth = 0;
    for (size_t i = open; i < toks_.size() && i < open + 256; ++i) {
      const std::string& t = toks_[i].text;
      if (t == "<") ++depth;
      if (t == ">") --depth;
      if (t == ">>") depth -= 2;
      if (depth <= 0) return i;
      if (t == ";") break;
    }
    return kNone;
  }

  struct RhsInfo {
    enum class Origin {
      kNone,
      kResultCall,
      kStatusCall,
      kSpanBegin,
      kSpanTransfer,  ///< Call to a helper that returns an open span.
      kNoSpan,
    };
    Origin origin = Origin::kNone;
    int line = 0;
  };

  /// Classifies the initializer/assignment RHS in [b, e] by its first
  /// top-level call.
  RhsInfo ClassifyRhs(size_t b, size_t e) const {
    RhsInfo info;
    for (size_t i = b; i <= e && i < toks_.size(); ++i) {
      const Token& t = toks_[i];
      if (t.Is("kNoSpan")) {
        info.origin = RhsInfo::Origin::kNoSpan;
        info.line = t.line;
        return info;
      }
      // A `[` before any call means a lambda or subscript initializer; the
      // value's provenance is not a direct fallible call.
      if (t.Is("[")) return info;
      if (!t.IsIdent() || i + 1 > e || !toks_[i + 1].Is("(")) continue;
      const std::string& callee = t.text;
      info.line = t.line;
      if (callee == "Begin") {
        info.origin = RhsInfo::Origin::kSpanBegin;
        return info;
      }
      if (ctx_.span_source_names != nullptr &&
          ctx_.span_source_names->count(callee) > 0) {
        info.origin = RhsInfo::Origin::kSpanTransfer;
        return info;
      }
      // A chained call (`F(...).status()`, `F(...).ValueUnsafe()`) no longer
      // yields the callee's return type.
      const size_t close = brackets_.MatchOf(i + 1);
      const bool chained = close != kNone && close + 1 <= e &&
                           (toks_[close + 1].Is(".") ||
                            toks_[close + 1].Is("->"));
      if (chained) return info;
      if (ctx_.result_names != nullptr && ctx_.result_names->count(callee)) {
        info.origin = RhsInfo::Origin::kResultCall;
        return info;
      }
      if (ctx_.status_names != nullptr && ctx_.status_names->count(callee) &&
          (ctx_.void_names == nullptr || !ctx_.void_names->count(callee))) {
        info.origin = callee == "OK" ? RhsInfo::Origin::kNone
                                     : RhsInfo::Origin::kStatusCall;
        return info;
      }
      return info;  // Some other call: unknown value.
    }
    return info;
  }

  struct DeclInfo {
    bool recognized = false;
    std::string name;
    VarKind kind = VarKind::kStatus;
    bool ordered_type = false;
    bool has_kind = false;
    size_t init_begin = kNone;  ///< First RHS token, or kNone.
    size_t init_end = 0;
    int line = 0;
  };

  /// Best-effort local-declaration parse at the start of a statement.
  DeclInfo ParseDecl(size_t b, size_t e) const {
    DeclInfo d;
    size_t i = b;
    auto skip_quals = [&]() {
      while (i <= e && (toks_[i].Is("const") || toks_[i].Is("static") ||
                        toks_[i].Is("constexpr"))) {
        ++i;
      }
    };
    skip_quals();
    if (i > e) return d;
    const std::string& t0 = toks_[i].text;
    bool is_auto = false;
    if (t0 == "auto") {
      is_auto = true;
      ++i;
    } else if (t0 == "Status" ) {
      d.kind = VarKind::kStatus;
      d.has_kind = true;
      ++i;
    } else if (t0 == "Result" && i + 1 <= e && toks_[i + 1].Is("<")) {
      const size_t m = MatchAngleTok(i + 1);
      if (m == kNone || m > e) return d;
      d.kind = VarKind::kResult;
      d.has_kind = true;
      i = m + 1;
    } else if (t0 == "Json") {
      d.kind = VarKind::kCollector;
      d.has_kind = true;
      ++i;
    } else {
      // Qualified spellings: obs::SpanId, data::Chunk, std::vector<...>.
      size_t j = i;
      if (j + 2 <= e && toks_[j].IsIdent() && toks_[j + 1].Is("::")) j += 2;
      const std::string& ty = j <= e ? toks_[j].text : std::string();
      if (ty == "SpanId") {
        d.kind = VarKind::kSpan;
        d.has_kind = true;
        i = j + 1;
      } else if (ty == "Chunk") {
        d.kind = VarKind::kChunk;
        d.has_kind = true;
        i = j + 1;
      } else if (ty == "vector" || ty == "deque" || ty == "map" ||
                 ty == "set" || ty == "multimap" || ty == "multiset") {
        if (j + 1 > e || !toks_[j + 1].Is("<")) return d;
        const size_t m = MatchAngleTok(j + 1);
        if (m == kNone || m > e) return d;
        d.kind = VarKind::kCollector;
        d.ordered_type = ty != "vector" && ty != "deque";
        d.has_kind = true;
        i = m + 1;
      } else {
        return d;
      }
    }
    // Skip ref/pointer declarators; references alias something else, so only
    // track plain value declarations (and give up on pointers).
    if (i <= e && (toks_[i].Is("&") || toks_[i].Is("&&") || toks_[i].Is("*"))) {
      return d;
    }
    if (i > e || !toks_[i].IsIdent() || toks_[i].Is("operator")) return d;
    d.name = toks_[i].text;
    d.line = toks_[i].line;
    const size_t after = i + 1;
    if (after > e) {
      if (!is_auto && d.has_kind) d.recognized = true;  // `Status s;`
      return d;
    }
    const std::string& nx = toks_[after].text;
    if (nx == "=") {
      d.init_begin = after + 1;
      d.init_end = e;
      d.recognized = is_auto ? true : d.has_kind;
      if (is_auto) d.has_kind = false;
      return d;
    }
    if ((nx == "(" || nx == "{") && d.has_kind && !is_auto) {
      const size_t m = brackets_.MatchOf(after);
      if (m != kNone && m <= e) {
        d.init_begin = after + 1;
        d.init_end = m > after ? m - 1 : after;
        d.recognized = true;
      }
      return d;
    }
    if (nx == ";" || after == e) {
      d.recognized = !is_auto && d.has_kind;
      return d;
    }
    return d;
  }

  // --- Token-stream event interpretation ---------------------------------

  struct ScanFlags {
    bool in_condition = false;
    bool in_return = false;
  };

  /// Interprets one token range (a statement, condition, or capture-list
  /// segment) against `state`. Nested function/lambda scopes are treated as
  /// boundaries: their capture lists are scanned (moves and uses of
  /// enclosing locals), their parameter lists and bodies are skipped.
  void ScanTokens(size_t b, size_t e, AbsState* state, ScanFlags flags) {
    if (b == kNone || b > e) return;
    std::vector<std::string> frames;
    bool assign_seen = false;
    size_t i = b;
    while (i <= e && i < toks_.size()) {
      auto entry = scope_entries_.find(i);
      if (entry != scope_entries_.end() && entry->second != scope_ &&
          entry->second->body_end <= e) {
        const FunctionScope* child = entry->second;
        if (child->is_lambda && child->capture_begin != kNone) {
          ScanCaptureList(*child, state);
        }
        i = child->body_end + 1;
        continue;
      }
      const Token& t = toks_[i];
      if (t.Is("(") || t.Is("{") || t.Is("[")) {
        frames.push_back(i > 0 && toks_[i - 1].IsIdent() ? toks_[i - 1].text
                                                         : std::string());
        ++i;
        continue;
      }
      if (t.Is(")") || t.Is("}") || t.Is("]")) {
        if (!frames.empty()) frames.pop_back();
        ++i;
        continue;
      }
      if (t.Is("=") && frames.empty()) assign_seen = true;
      if (t.IsIdent() && state->count(t.text) > 0) {
        const bool member =
            i > b && (toks_[i - 1].Is(".") || toks_[i - 1].Is("->") ||
                      toks_[i - 1].Is("::"));
        if (!member) {
          HandleVarMention(i, b, e, frames, assign_seen, flags, state);
        }
      }
      ++i;
    }
  }

  void UseVar(const std::string& name, int line, VarState* st) {
    if (st->moved) {
      Emit(line, "use-after-move", name,
           "`" + name + "` is used here after being moved from on line " +
               std::to_string(st->origin_line) +
               " on at least one path; reinitialize it before reuse");
      st->moved = false;  // Report once per move site.
    }
    st->used = true;
  }

  void DerefResult(const std::string& name, int line, VarState* st) {
    if (st->kind != VarKind::kResult) return;
    if (st->checked != CheckState::kOk) {
      const char* why = st->checked == CheckState::kErr
                            ? "on a path where `ok()` was false"
                            : "without a dominating `ok()` check on this path";
      Emit(line, "unchecked-result-access", name,
           "`" + name + "` is dereferenced " + why +
               "; branch on `" + name + ".ok()` first");
      st->checked = CheckState::kOk;  // Avoid cascading reports.
    }
  }

  void HandleVarMention(size_t i, size_t stmt_begin, size_t stmt_end,
                        const std::vector<std::string>& frames,
                        bool assign_seen, ScanFlags flags, AbsState* state) {
    const std::string& name = toks_[i].text;
    VarState& st = (*state)[name];
    const int line = toks_[i].line;
    const Token* next = i + 1 <= stmt_end ? &toks_[i + 1] : nullptr;
    const Token* prev = i > stmt_begin ? &toks_[i - 1] : nullptr;

    // `SKYRISE_CHECK_OK(x.status())` aborts unless ok — the canonical
    // assert-style check; everything after it is a checked path.
    for (const std::string& f : frames) {
      if (f == "SKYRISE_CHECK_OK") {
        st.checked = CheckState::kOk;
        st.used = true;
        return;
      }
    }
    // `std::sort(rows.begin(), rows.end())` cleanses taint no matter how the
    // collector is mentioned inside the call.
    if (st.kind == VarKind::kCollector) {
      for (const std::string& f : frames) {
        if (f == "sort" || f == "stable_sort") {
          st.tainted = false;
          st.used = true;
          return;
        }
      }
    }

    // Member/method access: `x.m(...)` / `x->...`.
    if (next != nullptr && (next->Is(".") || next->Is("->"))) {
      if (next->Is("->")) {
        UseVar(name, line, &st);
        DerefResult(name, line, &st);
        return;
      }
      const Token* m = i + 2 <= stmt_end ? &toks_[i + 2] : nullptr;
      if (m != nullptr && m->IsIdent()) {
        if (ReinitNames().count(m->text) > 0) {
          st.moved = false;
          st.used = true;
          st.tainted = false;
          return;
        }
        if (m->text == "ok" || m->text == "has_value") {
          UseVar(name, line, &st);
          // Outside branch conditions, reading ok() is assert-style
          // awareness (SKYRISE_CHECK(x.ok()), ASSERT_TRUE(x.ok()), ternary
          // guards); the path is considered checked from here on.
          if (!flags.in_condition) st.checked = CheckState::kOk;
          return;
        }
        if (DerefNames().count(m->text) > 0) {
          UseVar(name, line, &st);
          DerefResult(name, line, &st);
          return;
        }
        if (st.kind == VarKind::kCollector) {
          HandleCollectorMethod(name, m->text, line, &st);
          return;
        }
        UseVar(name, line, &st);
        return;
      }
      UseVar(name, line, &st);
      return;
    }

    // Assignment target `x = ...`: classify the RHS, reset the state. (The
    // RHS tokens are scanned by the enclosing loop as usual; uses of other
    // variables there are still observed.)
    if (next != nullptr && next->Is("=") && frames.empty()) {
      const RhsInfo rhs = ClassifyRhs(i + 2, stmt_end);
      st.moved = false;
      st.checked = CheckState::kUnknown;
      switch (st.kind) {
        case VarKind::kSpan:
          if (rhs.origin == RhsInfo::Origin::kSpanBegin ||
              rhs.origin == RhsInfo::Origin::kSpanTransfer) {
            st.open = true;
            st.transfer = rhs.origin == RhsInfo::Origin::kSpanTransfer;
            st.origin_line = rhs.line;
            st.guard.clear();
          } else if (rhs.origin == RhsInfo::Origin::kNoSpan) {
            st.open = false;
          } else {
            st.escaped = true;  // Aliased to some other span id.
          }
          break;
        case VarKind::kStatus:
        case VarKind::kResult:
          st.used = false;
          st.call_origin = rhs.origin == RhsInfo::Origin::kStatusCall ||
                           rhs.origin == RhsInfo::Origin::kResultCall;
          break;
        case VarKind::kCollector:
          st.tainted = false;
          break;
        case VarKind::kChunk:
          break;
      }
      return;
    }

    // `std::move(x)` — exact argument of a move() frame.
    if (!frames.empty() && frames.back() == "move" && prev != nullptr &&
        prev->Is("(") && next != nullptr && next->Is(")")) {
      UseVar(name, line, &st);
      st.moved = true;
      st.origin_line = line;
      // `std::move(x).ValueUnsafe()` is still a dereference of x.
      if (i + 3 <= stmt_end && toks_[i + 2].Is(".") &&
          DerefNames().count(toks_[i + 3].text) > 0) {
        DerefResult(name, line, &st);
      }
      return;
    }

    // Unary dereference `*x`.
    if (prev != nullptr && prev->Is("*") &&
        (i < stmt_begin + 2 || !IsValueToken(toks_[i - 2]))) {
      UseVar(name, line, &st);
      DerefResult(name, line, &st);
      return;
    }

    if (st.kind == VarKind::kSpan) {
      if (!frames.empty()) {
        const std::string& callee = frames.back();
        if (callee == "End" || callee == "EndWith") {
          st.used = true;
          st.open = false;
          return;
        }
        if (SpanNeutralCallees().count(callee) > 0) {
          st.used = true;
          return;
        }
        st.used = true;
        st.escaped = true;  // Handed to other code; it owns closing now.
        return;
      }
      if (assign_seen || flags.in_return) {
        st.used = true;
        st.escaped = true;  // Aliased into another lvalue / returned.
        return;
      }
      st.used = true;
      return;
    }

    if (st.kind == VarKind::kCollector) {
      if (!frames.empty()) {
        const std::string& callee = frames.back();
        if (callee == "sort" || callee == "stable_sort") {
          st.used = true;
          st.tainted = false;
          return;
        }
        if (callee == "move" || callee == "swap") {
          st.used = true;
          return;
        }
        if (st.tainted) {
          TaintSink(name, st, line);
          st.tainted = false;  // Report once per taint site.
          return;
        }
      } else if (flags.in_return && st.tainted) {
        TaintSink(name, st, line);
        st.tainted = false;
        return;
      }
      st.used = true;
      return;
    }

    UseVar(name, line, &st);
  }

  void HandleCollectorMethod(const std::string& name, const std::string& m,
                             int line, VarState* st) {
    if (CollectorAppendNames().count(m) > 0) {
      if (unordered_depth_ > 0 && !st->ordered_type && !st->tainted) {
        st->tainted = true;
        st->origin_line = line;
      }
      st->used = true;
      return;
    }
    if (CollectorSinkNames().count(m) > 0 && st->tainted) {
      TaintSink(name, *st, line);
      st->tainted = false;
      return;
    }
    st->used = true;
  }

  /// Capture list `[a, &b, c = expr, this]`: by-value captures read the
  /// enclosing local; by-reference and default captures escape it; init
  /// captures execute their initializer (moves included) in the enclosing
  /// scope.
  void ScanCaptureList(const FunctionScope& child, AbsState* state) {
    size_t i = child.capture_begin + 1;
    const size_t end = child.capture_end;
    while (i < end) {
      size_t stop = i;
      {
        size_t j = i;
        while (j < end && !toks_[j].Is(",")) {
          if (toks_[j].Is("(") || toks_[j].Is("[") || toks_[j].Is("{")) {
            const size_t m = brackets_.MatchOf(j);
            if (m == kNone || m >= end) break;
            j = m;
          }
          ++j;
        }
        stop = j;
      }
      HandleCapture(i, stop, state);
      i = stop + 1;
    }
  }

  void HandleCapture(size_t b, size_t e, AbsState* state) {
    if (b >= e) {
      // `[&]` / `[=]` style single-token or empty segments are handled
      // below via b == e - 0 checks; fall through.
    }
    if (e == b + 1 && (toks_[b].Is("&") || toks_[b].Is("="))) {
      // Default capture: everything may be referenced inside the body.
      for (auto& [name, st] : *state) {
        st.used = true;
        st.escaped = true;
      }
      return;
    }
    if (e <= b) {
      if (b < toks_.size() && toks_[b].IsIdent() &&
          state->count(toks_[b].text) > 0) {
        VarState& st = (*state)[toks_[b].text];
        UseVar(toks_[b].text, toks_[b].line, &st);
        if (st.kind == VarKind::kSpan) st.escaped = true;
      }
      return;
    }
    // `&x`: by-reference capture.
    if (toks_[b].Is("&") && b + 1 < toks_.size() && toks_[b + 1].IsIdent()) {
      auto it = state->find(toks_[b + 1].text);
      if (it != state->end()) {
        it->second.used = true;
        it->second.escaped = true;
      }
      return;
    }
    // `name = expr`: init capture; the name shadows inside the lambda, the
    // initializer runs out here.
    if (toks_[b].IsIdent() && b + 1 <= e && toks_[b + 1].Is("=")) {
      ScanFlags flags;
      ScanTokens(b + 2, e, state, flags);
      return;
    }
    // Plain `x` (or `*this`, `this`).
    if (toks_[b].IsIdent() && state->count(toks_[b].text) > 0) {
      VarState& st = (*state)[toks_[b].text];
      UseVar(toks_[b].text, toks_[b].line, &st);
      if (st.kind == VarKind::kSpan) st.escaped = true;
    }
  }

  // --- Conditions --------------------------------------------------------

  std::string CondText(size_t b, size_t e) const {
    std::string text;
    for (size_t i = b; i <= e && i < toks_.size(); ++i) {
      if (!text.empty()) text += ' ';
      text += toks_[i].text;
    }
    return text;
  }

  /// Splits a C++17 `if (init; cond)` header; returns the cond sub-range.
  std::pair<size_t, size_t> SplitCondInit(size_t b, size_t e,
                                          AbsState* state) {
    for (size_t i = b; i <= e && i < toks_.size(); ++i) {
      const std::string& t = toks_[i].text;
      if (t == "(" || t == "[" || t == "{") {
        const size_t m = brackets_.MatchOf(i);
        if (m == kNone || m > e) break;
        i = m;
        continue;
      }
      if (t == ";") {
        ExecSimpleRange(b, i > b ? i - 1 : b, state);
        return {i + 1, e};
      }
    }
    return {b, e};
  }

  CondInfo ParseCondAtoms(size_t b, size_t e) const {
    CondInfo info;
    if (b > e || b == kNone) return info;
    // Strip one level of redundant parens.
    while (toks_[b].Is("(") && brackets_.MatchOf(b) == e && b + 1 < e) {
      ++b;
      --e;
    }
    bool saw_and = false, saw_or = false;
    std::vector<std::pair<size_t, size_t>> elems;
    size_t start = b;
    for (size_t i = b; i <= e; ++i) {
      const std::string& t = toks_[i].text;
      if (t == "(" || t == "[" || t == "{") {
        const size_t m = brackets_.MatchOf(i);
        if (m == kNone || m > e) return info;
        i = m;
        continue;
      }
      if (t == "&&" || t == "||") {
        (t == "&&" ? saw_and : saw_or) = true;
        if (i > start) elems.emplace_back(start, i - 1);
        start = i + 1;
      }
    }
    if (start <= e) elems.emplace_back(start, e);
    if (saw_and && saw_or) return info;  // Mixed: no branch facts.
    for (auto [eb, ee] : elems) {
      while (eb < ee && toks_[eb].Is("(") && brackets_.MatchOf(eb) == ee) {
        ++eb;
        --ee;
      }
      bool positive = true;
      while (eb <= ee && toks_[eb].Is("!")) {
        positive = !positive;
        ++eb;
      }
      // Exactly `x . ok ( )` / `x . has_value ( )`.
      if (ee == eb + 4 && toks_[eb].IsIdent() && toks_[eb + 1].Is(".") &&
          (toks_[eb + 2].Is("ok") || toks_[eb + 2].Is("has_value")) &&
          toks_[eb + 3].Is("(") && toks_[eb + 4].Is(")")) {
        info.atoms.push_back(CondAtom{toks_[eb].text, positive});
      }
    }
    if (info.atoms.empty()) return info;
    info.shape = saw_and   ? CondInfo::Shape::kAnd
                 : saw_or  ? CondInfo::Shape::kOr
                           : CondInfo::Shape::kSingle;
    return info;
  }

  void ApplyAtoms(const CondInfo& info, bool branch, AbsState* state) {
    auto set_atom = [&](const CondAtom& atom, bool truth) {
      auto it = state->find(atom.var);
      if (it == state->end()) return;
      it->second.checked = truth ? CheckState::kOk : CheckState::kErr;
    };
    switch (info.shape) {
      case CondInfo::Shape::kNone:
        return;
      case CondInfo::Shape::kSingle:
        set_atom(info.atoms[0], branch == info.atoms[0].positive);
        return;
      case CondInfo::Shape::kAnd:
        // `a && b` proves every atom on the true branch only.
        if (branch) {
          for (const CondAtom& a : info.atoms) set_atom(a, a.positive);
        }
        return;
      case CondInfo::Shape::kOr:
        // `!(a || b)` proves the negation of every atom (De Morgan).
        if (!branch) {
          for (const CondAtom& a : info.atoms) set_atom(a, !a.positive);
        }
        return;
    }
  }

  // --- Statement execution -----------------------------------------------

  void ExecSimpleRange(size_t b, size_t e, AbsState* state) {
    const DeclInfo d = ParseDecl(b, e);
    ScanFlags flags;
    if (d.recognized) {
      ScanTokens(d.init_begin, d.init_end, state, flags);
      VarState st;
      st.kind = d.kind;
      st.ordered_type = d.ordered_type;
      st.decl_line = d.line;
      const bool has_init = d.init_begin != kNone;
      if (has_init) {
        const RhsInfo rhs = ClassifyRhs(d.init_begin, d.init_end);
        if (!d.has_kind) {
          // `auto x = ...`: the kind comes from the initializer.
          switch (rhs.origin) {
            case RhsInfo::Origin::kResultCall:
              st.kind = VarKind::kResult;
              break;
            case RhsInfo::Origin::kStatusCall:
              st.kind = VarKind::kStatus;
              break;
            case RhsInfo::Origin::kSpanBegin:
            case RhsInfo::Origin::kSpanTransfer:
              st.kind = VarKind::kSpan;
              break;
            default:
              return;  // Untracked auto local.
          }
        }
        switch (rhs.origin) {
          case RhsInfo::Origin::kSpanBegin:
          case RhsInfo::Origin::kSpanTransfer:
            if (st.kind == VarKind::kSpan) {
              st.open = true;
              st.transfer = rhs.origin == RhsInfo::Origin::kSpanTransfer;
              st.origin_line = rhs.line;
            }
            break;
          case RhsInfo::Origin::kResultCall:
          case RhsInfo::Origin::kStatusCall:
            st.call_origin = true;
            break;
          default:
            break;
        }
      } else if (!d.has_kind) {
        return;
      }
      (*state)[d.name] = st;
      return;
    }
    ScanTokens(b, e, state, flags);
  }

  Flow Exec(const Stmt& stmt, AbsState in) {
    switch (stmt.kind) {
      case Stmt::Kind::kBlock:
        return ExecBlock(stmt, std::move(in));
      case Stmt::Kind::kSimple: {
        ExecSimpleRange(stmt.begin, stmt.end, &in);
        Flow f;
        f.state = std::move(in);
        return f;
      }
      case Stmt::Kind::kIf:
        return ExecIf(stmt, std::move(in));
      case Stmt::Kind::kLoop:
      case Stmt::Kind::kDo:
        return ExecLoop(stmt, std::move(in));
      case Stmt::Kind::kSwitch:
        return ExecSwitch(stmt, std::move(in));
      case Stmt::Kind::kTry:
        return ExecTry(stmt, std::move(in));
      case Stmt::Kind::kReturn: {
        ScanFlags flags;
        flags.in_return = true;
        ScanTokens(stmt.begin + 1, stmt.end, &in, flags);
        ExitChecks(in, toks_[stmt.begin].line);
        Flow f;
        f.falls = false;
        return f;
      }
      case Stmt::Kind::kBreak: {
        Flow f;
        f.falls = false;
        f.breaks.push_back(std::move(in));
        return f;
      }
      case Stmt::Kind::kContinue: {
        Flow f;
        f.falls = false;
        f.continues.push_back(std::move(in));
        return f;
      }
    }
    Flow f;
    f.state = std::move(in);
    return f;
  }

  Flow ExecBlock(const Stmt& stmt, AbsState in) {
    Flow out;
    AbsState cur = std::move(in);
    bool falls = true;
    for (const Stmt& sub : stmt.sub) {
      if (!falls) break;  // Unreachable after return/break/continue.
      Flow f = Exec(sub, std::move(cur));
      for (AbsState& s : f.breaks) out.breaks.push_back(std::move(s));
      for (AbsState& s : f.continues) out.continues.push_back(std::move(s));
      falls = f.falls;
      if (falls) cur = std::move(f.state);
    }
    out.falls = falls;
    if (falls) out.state = std::move(cur);
    return out;
  }

  /// Join two falling states. Variables present on one side only are
  /// branch-locals whose scope ends at the join: run their end-of-scope
  /// checks and drop them.
  AbsState Join(const AbsState& a, const AbsState& b, int join_line) {
    AbsState merged;
    for (const auto& [name, sa] : a) {
      auto it = b.find(name);
      if (it == b.end()) {
        ScopeEndCheck(name, sa, join_line);
        continue;
      }
      const VarState& sb = it->second;
      VarState m = sa;
      if (sa.checked != sb.checked) m.checked = CheckState::kUnknown;
      m.moved = sa.moved || sb.moved;
      m.used = sa.used && sb.used;
      m.open = sa.open || sb.open;
      m.escaped = sa.escaped || sb.escaped;
      m.tainted = sa.tainted || sb.tainted;
      // The drop fact is per-path: a branch that assigned a call result AND
      // consumed it is clean, even if the other branch never held one. Keep
      // `call_origin` only when some incoming path still has an unconsumed
      // call result (the exit check reads `call_origin && !used`).
      m.call_origin = (sa.call_origin && !sa.used) ||
                      (sb.call_origin && !sb.used);
      m.guard = sa.open ? sa.guard : sb.guard;
      // The diagnostic anchor (Begin/move/taint site) follows whichever side
      // carries the fact.
      if (m.origin_line == 0 || (sb.origin_line != 0 &&
                                 ((sb.open && !sa.open) ||
                                  (sb.moved && !sa.moved) ||
                                  (sb.tainted && !sa.tainted)))) {
        m.origin_line = sb.origin_line;
      }
      merged[name] = m;
    }
    for (const auto& [name, sb] : b) {
      if (a.find(name) == a.end()) ScopeEndCheck(name, sb, join_line);
    }
    return merged;
  }

  Flow ExecIf(const Stmt& stmt, AbsState in) {
    auto [cb, ce] = SplitCondInit(stmt.cond_begin, stmt.cond_end, &in);
    ScanFlags cond_flags;
    cond_flags.in_condition = true;
    ScanTokens(cb, ce, &in, cond_flags);
    const CondInfo cond = ParseCondAtoms(cb, ce);
    const std::string ctext = CondText(cb, ce);
    const AbsState pre = in;

    AbsState then_in = in;
    ApplyAtoms(cond, true, &then_in);
    Flow then_flow = Exec(stmt.sub[0], std::move(then_in));

    AbsState else_in = std::move(in);
    ApplyAtoms(cond, false, &else_in);
    Flow else_flow;
    if (stmt.sub.size() > 1) {
      else_flow = Exec(stmt.sub[1], std::move(else_in));
    } else {
      else_flow.state = std::move(else_in);
    }

    Flow out;
    for (auto& s : then_flow.breaks) out.breaks.push_back(std::move(s));
    for (auto& s : else_flow.breaks) out.breaks.push_back(std::move(s));
    for (auto& s : then_flow.continues) out.continues.push_back(std::move(s));
    for (auto& s : else_flow.continues) out.continues.push_back(std::move(s));
    out.falls = then_flow.falls || else_flow.falls;
    if (then_flow.falls && else_flow.falls) {
      const int join_line = toks_[stmt.end].line;
      out.state = Join(then_flow.state, else_flow.state, join_line);
      // Guard correlation for spans: `if (tracer_) s = Begin(...)` ...
      // `if (tracer_) End(s)` must not leak. A span opened only under this
      // condition remembers the condition text; a branch that closed it
      // under the same text closes it on the merged state too.
      for (auto& [name, m] : out.state) {
        if (m.kind != VarKind::kSpan) continue;
        const auto pit = pre.find(name);
        const auto tit = then_flow.state.find(name);
        const auto eit = else_flow.state.find(name);
        if (pit == pre.end() || tit == then_flow.state.end() ||
            eit == else_flow.state.end()) {
          continue;
        }
        const bool pre_open = pit->second.open;
        const bool then_open = tit->second.open;
        const bool else_open = eit->second.open;
        if (!pre_open && then_open && !else_open) m.guard = ctext;
        if (!pre_open && else_open && !then_open) m.guard = "!( " + ctext + " )";
        if (pre_open && !then_open && pit->second.guard == ctext) {
          m.open = false;
        }
        if (pre_open && !else_open &&
            pit->second.guard == "!( " + ctext + " )") {
          m.open = false;
        }
      }
    } else if (then_flow.falls) {
      out.state = std::move(then_flow.state);
    } else if (else_flow.falls) {
      out.state = std::move(else_flow.state);
    }
    return out;
  }

  /// True when a loop header iterates hash-ordered state: it mentions an
  /// unordered container declared in this file or its header, or a
  /// collector local that is itself tainted.
  bool LoopIsUnordered(size_t b, size_t e, const AbsState& state) const {
    for (size_t i = b; i <= e && i < toks_.size(); ++i) {
      if (!toks_[i].IsIdent()) continue;
      const bool member =
          i > b && (toks_[i - 1].Is(".") || toks_[i - 1].Is("->") ||
                    toks_[i - 1].Is("::"));
      if (member) continue;
      if (ctx_.unordered_names != nullptr &&
          ctx_.unordered_names->count(toks_[i].text) > 0) {
        return true;
      }
      auto it = state.find(toks_[i].text);
      if (it != state.end() && it->second.tainted) return true;
    }
    return false;
  }

  Flow ExecLoop(const Stmt& stmt, AbsState in) {
    size_t cb = stmt.cond_begin, ce = stmt.cond_end;
    size_t cond_b = cb, cond_e = ce;
    const bool classic_for =
        stmt.kind == Stmt::Kind::kLoop && !stmt.range_for && cb <= ce &&
        ScanToSemi(cb, ce) != kNone;
    if (classic_for) {
      // `for (init; cond; step)`: run init once, split out the condition.
      const size_t semi1 = ScanToSemi(cb, ce);
      if (semi1 != kNone) {
        if (semi1 > cb) ExecSimpleRange(cb, semi1 - 1, &in);
        const size_t semi2 = ScanToSemi(semi1 + 1, ce);
        cond_b = semi1 + 1;
        cond_e = semi2 != kNone && semi2 > semi1 ? semi2 - 1 : ce;
      }
    }
    const bool unordered = cb <= ce && LoopIsUnordered(cb, ce, in);
    const CondInfo cond = (stmt.kind == Stmt::Kind::kLoop && !stmt.range_for)
                              ? ParseCondAtoms(cond_b, cond_e)
                              : CondInfo{};
    ScanFlags cond_flags;
    cond_flags.in_condition = true;
    if (cb <= ce) ScanTokens(stmt.range_for ? cb : cond_b,
                             stmt.range_for ? ce : cond_e, &in, cond_flags);

    AbsState merged = std::move(in);
    std::vector<AbsState> break_states;
    const int join_line = toks_[stmt.end].line;
    for (int iter = 0; iter < 4; ++iter) {
      AbsState body_in = merged;
      ApplyAtoms(cond, true, &body_in);
      if (unordered) ++unordered_depth_;
      Flow f = Exec(stmt.sub[0], std::move(body_in));
      if (unordered) --unordered_depth_;
      AbsState next = merged;
      if (f.falls) next = Join(next, f.state, join_line);
      for (const AbsState& s : f.continues) next = Join(next, s, join_line);
      for (AbsState& s : f.breaks) break_states.push_back(std::move(s));
      if (SameState(next, merged)) break;
      merged = std::move(next);
    }
    AbsState after = std::move(merged);
    ApplyAtoms(cond, false, &after);
    for (const AbsState& s : break_states) after = Join(after, s, join_line);
    Flow out;
    out.state = std::move(after);
    return out;
  }

  size_t ScanToSemi(size_t b, size_t e) const {
    for (size_t i = b; i <= e && i < toks_.size(); ++i) {
      const std::string& t = toks_[i].text;
      if (t == "(" || t == "[" || t == "{") {
        const size_t m = brackets_.MatchOf(i);
        if (m == kNone || m > e) return kNone;
        i = m;
        continue;
      }
      if (t == ";") return i;
    }
    return kNone;
  }

  Flow ExecSwitch(const Stmt& stmt, AbsState in) {
    ScanFlags cond_flags;
    cond_flags.in_condition = true;
    if (stmt.cond_begin <= stmt.cond_end) {
      ScanTokens(stmt.cond_begin, stmt.cond_end, &in, cond_flags);
    }
    const int join_line = toks_[stmt.end].line;
    AbsState pre = in;
    Flow f = Exec(stmt.sub[0], std::move(in));
    AbsState after = std::move(pre);  // No case may match / default absent.
    if (f.falls) after = Join(after, f.state, join_line);
    for (const AbsState& s : f.breaks) after = Join(after, s, join_line);
    Flow out;
    for (AbsState& s : f.continues) out.continues.push_back(std::move(s));
    out.state = std::move(after);
    return out;
  }

  Flow ExecTry(const Stmt& stmt, AbsState in) {
    const int join_line = toks_[stmt.end].line;
    AbsState pre = in;
    Flow f = Exec(stmt.sub[0], std::move(in));
    Flow out;
    bool have = false;
    AbsState merged;
    if (f.falls) {
      merged = std::move(f.state);
      have = true;
    }
    for (AbsState& s : f.breaks) out.breaks.push_back(std::move(s));
    for (AbsState& s : f.continues) out.continues.push_back(std::move(s));
    for (size_t h = 1; h < stmt.sub.size(); ++h) {
      Flow hf = Exec(stmt.sub[h], pre);
      for (AbsState& s : hf.breaks) out.breaks.push_back(std::move(s));
      for (AbsState& s : hf.continues) out.continues.push_back(std::move(s));
      if (hf.falls) {
        merged = have ? Join(merged, hf.state, join_line)
                      : std::move(hf.state);
        have = true;
      }
    }
    out.falls = have;
    if (have) out.state = std::move(merged);
    return out;
  }

  const SourceFile& file_;
  const FlowContext& ctx_;
  const std::vector<Token>& toks_;
  const BracketMap& brackets_;
  std::vector<Diagnostic>* out_;
  std::map<size_t, const FunctionScope*> scope_entries_;
  const FunctionScope* scope_ = nullptr;
  std::set<std::string> emitted_;
  int unordered_depth_ = 0;
};

}  // namespace

void CheckFlowRules(const SourceFile& file, const FlowContext& ctx,
                    std::vector<Diagnostic>* out) {
  const std::vector<Token> toks = Lex(file);
  const BracketMap brackets = PairBrackets(toks);
  const std::vector<FunctionScope> scopes = ExtractFunctions(toks, brackets);
  FunctionAnalyzer analyzer(file, ctx, toks, brackets, scopes, out);
  for (const FunctionScope& scope : scopes) analyzer.Analyze(scope);
}

}  // namespace skyrise::check
