#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cfg.h"
#include "checker.h"
#include "lexer.h"

/// \file symbols.h
/// Cross-TU symbol index for the interprocedural half of skyrise_check.
/// Layered on the existing lexer/CFG: every file added to the index
/// contributes its function (and named-lambda) definitions with best-effort
/// qualified names, the call sites inside each body, the per-function facts
/// the interprocedural rules need (direct banned-API uses, retry-scheduling
/// sites, visible retry bounds, span-returning signatures), and every
/// static-storage variable (namespace-scope globals, static locals, static
/// data members) with its const-ness.
///
/// Name resolution model (documented best-effort, shared with callgraph.h):
///  - Free functions and methods get `ns::Class::Name` qualified names from
///    the enclosing namespace/class braces plus any explicit `A::B::`
///    qualifiers on an out-of-line definition.
///  - A lambda assigned to a local (`auto f = [...] {...};`) becomes its own
///    symbol named `<enclosing>::f`, with an implicit call edge from the
///    enclosing function (the lambda is assumed invoked by its creator —
///    callbacks run eventually, and for taint purposes creating one is as
///    good as calling it). Anonymous lambdas fold their facts into the
///    enclosing function for the same reason.
///  - Overloads share a name; calls resolve to every same-named definition.
///    This over-approximates edges, which is the conservative direction for
///    taint but can create spurious chains; diagnostics carry the full
///    witness chain so a false edge is visible and suppressible.

namespace skyrise::check {

/// One direct use of a banned nondeterminism API inside a function body.
struct BannedUse {
  std::string api;   ///< Token that matched (e.g. "steady_clock").
  std::string why;   ///< Reason string from the banned-API table.
  int line = 0;
  /// `skyrise-check: allow(banned-api)` covers the use itself; the wrapper
  /// still taints callers unless `allow(transitive-nondeterminism)` also
  /// covers this line (a blessed *source* stops propagation).
  bool sanctioned_source = false;
};

/// One call expression inside a function body.
struct CallSite {
  std::string name;  ///< Possibly qualified callee text, e.g. "sim::Now".
  int line = 0;
  /// Any identifier in the call's argument list (lambdas included) mentions
  /// retry/backoff/attempt — the trigger the retry-wrapper rule keys on.
  bool retry_args = false;
};

/// One function (or named-lambda) definition.
struct FunctionSym {
  std::string qualified;  ///< Best-effort "ns::Class::Name".
  std::string name;       ///< Last segment of `qualified`.
  std::string file;
  int line = 0;
  bool is_lambda = false;
  /// Declared return type is (obs::)SpanId and the body calls Begin: the
  /// function hands an *open* span to its caller, transferring the End
  /// obligation (span-transfer-leak keys on this).
  bool returns_open_span = false;
  /// Body contains a Schedule(...) call (any arguments) — the function puts
  /// work on the event loop, directly.
  bool calls_scheduler = false;
  /// Body contains a Schedule(...) whose arguments mention retry-ish work
  /// (the intraprocedural unbounded-retry trigger).
  bool direct_retry_schedule = false;
  int retry_line = 0;
  /// Some identifier in the capture list, parameters, or body names a
  /// deadline, a retry budget, or a max-attempts cap — the function's retry
  /// behavior is visibly clamped.
  bool has_bound = false;
  /// Body contains a Begin(...) call; with a SpanId return type this marks
  /// the function a span source (internal input to returns_open_span).
  bool has_begin_call = false;
  std::vector<BannedUse> banned;
  std::vector<CallSite> calls;
};

/// One static-storage variable: a namespace-scope global, a function-local
/// static, or a static data member.
struct StaticVar {
  enum class Storage { kNamespaceScope, kStaticLocal, kStaticMember };
  std::string qualified;  ///< "ns::Class::name" / "ns::Fn::name" for locals.
  std::string file;
  int line = 0;
  Storage storage = Storage::kNamespaceScope;
  bool is_const = false;  ///< const / constexpr / constinit declaration.
};

const char* StorageName(StaticVar::Storage storage);

/// Returns the reason a token is a banned nondeterminism API, or nullptr.
/// `rand`/`time` are only banned in call position; callers check context.
const char* BannedApiReason(const std::string& token);

/// True for paths the interprocedural rules police: src/ plus bare file
/// names (lint fixtures). Tests, tools, and benches drive simulations by
/// hand and may touch host state freely.
bool SrcScoped(const std::string& path);

class SymbolIndex {
 public:
  /// Indexes one preprocessed file. Never fails; constructs it cannot
  /// classify are skipped (degrading to "unknown", not to false facts).
  void AddFile(const SourceFile& file);

  const std::vector<FunctionSym>& functions() const { return functions_; }
  const std::vector<StaticVar>& statics() const { return statics_; }

  /// Names (last segment) of functions that return an open span; the
  /// dataflow pass treats calls to these like Tracer::Begin.
  std::set<std::string> SpanSourceNames() const;

 private:
  std::vector<FunctionSym> functions_;
  std::vector<StaticVar> statics_;
};

}  // namespace skyrise::check
