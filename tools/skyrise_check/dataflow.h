#pragma once

#include <set>
#include <string>
#include <vector>

#include "cfg.h"
#include "checker.h"
#include "lexer.h"

/// \file dataflow.h
/// Flow-sensitive rule pass: a symbolic abstract interpreter over the
/// statement tree from cfg.h. Per function (and per lambda — each lambda
/// body is its own scope, with its capture list treated as the boundary to
/// the enclosing scope), the engine tracks a small abstract state per local:
///
///   Result<T> locals/params   checked-ok / checked-err / unknown, driven by
///                             `ok()` / `has_value()` in branch conditions
///                             (polarity-aware, early returns narrow the
///                             fall-through path) and assert-style reads
///   Status/Result locals      consumed-on-this-path (read, returned, passed,
///                             branched on) for status-path-drop
///   data::Chunk/Status/Result moved-from via `std::move(x)`, including
///                             moves in lambda capture initializers
///   obs::SpanId locals        open/closed per path; `End`/`EndWith` close,
///                             guard-correlated conditionals (`if (tracer_)`
///                             around both Begin and End) do not leak
///   collector locals          tainted by appends inside iteration over an
///                             unordered container; `std::sort` cleanses;
///                             ordered collectors (std::map/set) never taint
///
/// Rules emitted here: unchecked-result-access, status-path-drop,
/// use-after-move, span-leak, unordered-taint. Loops run their body to a
/// small fixpoint (the lattice is finite), so facts survive back edges.

namespace skyrise::check {

/// Cross-file name knowledge harvested by Checker::CollectFallibleNames.
struct FlowContext {
  const std::set<std::string>* result_names = nullptr;  ///< return Result<T>
  const std::set<std::string>* status_names = nullptr;  ///< return Status
  const std::set<std::string>* void_names = nullptr;    ///< void overloads
  /// Functions (by last name segment, harvested cross-TU by the symbol
  /// index) that return an *open* span: `SpanId` return type and a Begin()
  /// in the body. Binding one transfers the End obligation to the caller —
  /// a leak there is span-transfer-leak rather than span-leak.
  const std::set<std::string>* span_source_names = nullptr;
  /// Unordered containers declared in the file or its paired header
  /// (Checker::CollectUnorderedNames): the unordered-taint sources.
  const std::set<std::string>* unordered_names = nullptr;
};

/// Runs every flow-sensitive rule over one file. Suppressions
/// (`skyrise-check: allow(<rule>)`) are honored via the shared Emit path.
void CheckFlowRules(const SourceFile& file, const FlowContext& ctx,
                    std::vector<Diagnostic>* out);

}  // namespace skyrise::check
