#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "sim/environment.h"

/// \file trace.h
/// Span-based tracing on the simulated clock. Every layer of the stack
/// (faas invocation lifecycle, storage requests and retries, engine stage/
/// fragment execution) opens and closes spans against sim::SimEnvironment
/// time, so a trace is a pure function of (seed, configuration): two runs
/// with the same seed serialize to byte-identical JSON.
///
/// Spans form a tree via explicit parent ids (there is no ambient thread
/// context in an event-driven simulation; parent ids travel through
/// ClientContext / FunctionContext / invocation payloads). Each span carries
/// the exact USD cost the CostMeter charged while it was the attribution
/// target, so per-span costs reconcile against the meter totals.
///
/// Export is Chrome trace-event JSON ("X" complete slices plus "i" instant
/// markers), loadable in Perfetto / chrome://tracing. The schema is
/// documented field-by-field in DESIGN.md §10 and enforced by
/// tools/trace_check in CI.

namespace skyrise::obs {

/// Span handle. 0 (`kNoSpan`) means "no enclosing span"; every Tracer
/// method accepts it and degrades to a no-op (or, for cost attribution,
/// books into the "unattributed" bucket).
using SpanId = int64_t;
inline constexpr SpanId kNoSpan = 0;

/// Handle into a tracer's string table (`Tracer::str`). Handle 0 is the
/// empty string; the others count up from 1 in first-intern order.
using StrId = uint32_t;

/// One span record: a fixed 64 bytes. Track, name, category and outcome are
/// interned in the owning tracer's string table, and args live in its flat
/// arg arena; resolve them with `Tracer::str` and `Tracer::Args`.
struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  SimTime start = 0;
  SimTime end = -1;  ///< -1 while the span is open.
  /// Exact sum of the CostMeter deltas attributed to this span.
  double cost_usd = 0;
  /// Display track (one Chrome-trace "process" per distinct name), e.g.
  /// "lambda", "storage/s3", "worker".
  StrId track = 0;
  StrId name = 0;
  /// Cost/metric bucket: "faas", "storage", "engine", ...
  StrId category = 0;
  /// Final state: "ok", "error", "timeout", "throttle", "crash",
  /// "fail_fast"; the empty string (handle 0) while open.
  StrId outcome = 0;
  /// Head of this span's list in the arg arena (index + 1; 0: no args).
  uint32_t args = 0;
  bool instant = false;

  SimDuration duration() const { return end < start ? 0 : end - start; }
};
static_assert(sizeof(Span) <= 64, "span records must stay compact");

class Tracer {
 public:
  explicit Tracer(sim::SimEnvironment* env);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span at the current simulated time. Ids are assigned from a
  /// per-tracer sequence, so identical runs produce identical ids.
  SpanId Begin(std::string_view track, std::string_view name,
               std::string_view category, SpanId parent = kNoSpan);

  /// Closes a span with outcome "ok". No-op for kNoSpan or a closed span.
  void End(SpanId id) { EndWith(id, "ok"); }
  void EndWith(SpanId id, std::string_view outcome);

  /// Records a zero-duration marker (throttle, injected fault, reap...).
  void Instant(std::string_view track, std::string_view name,
               std::string_view category, SpanId parent = kNoSpan);

  /// Attaches/overwrites an annotation on an open or closed span.
  void SetArg(SpanId id, std::string_view key, Json value);

  /// Attributes a CostMeter delta to `id`. The delta is also accumulated
  /// into the span's category bucket in call order, which makes
  /// `attributed_usd(bucket)` bitwise-equal to the corresponding meter
  /// total (same doubles added in the same order). kNoSpan books into the
  /// "unattributed" bucket.
  void AddCost(SpanId id, double usd);

  const std::vector<Span>& spans() const { return spans_; }
  /// nullptr for kNoSpan / unknown ids.
  const Span* Find(SpanId id) const;
  /// The interned string behind a handle of a span of this tracer. The view
  /// is valid until the next call that interns a string (Begin, EndWith,
  /// Instant, SetArg) or Reset.
  std::string_view str(StrId id) const {
    return std::string_view(text_.data() + offsets_[id],
                            offsets_[id + 1] - offsets_[id]);
  }
  /// A span's annotations as a JSON object (empty for unknown ids).
  Json Args(SpanId id) const;
  int64_t open_spans() const { return open_; }

  double attributed_usd(const std::string& bucket) const;
  /// Sum over all buckets (deterministic map order).
  double attributed_usd_total() const;
  const std::map<std::string, double>& cost_buckets() const {
    return cost_buckets_;
  }

  /// Structural invariants: every span closed, parents open before their
  /// children, and same-track children contained in their parent's
  /// interval (cross-track children may outlive their parent: a zombie
  /// worker keeps issuing storage requests after its execution span was
  /// settled by a timeout or an injected crash).
  [[nodiscard]] Status Validate() const;

  /// Chrome trace-event JSON document. Tracks become processes; overlapping
  /// subtrees within a track are spread over lanes (tids) greedily so
  /// "X" slices on one lane always nest. Open spans export with
  /// outcome "open" and a duration up to the current simulated time.
  Json ExportChromeTrace() const;
  std::string DumpChromeTrace() const { return ExportChromeTrace().Dump(); }
  [[nodiscard]] Status WriteChromeTrace(const std::string& path) const;

  void Reset();

 private:
  /// One annotation in the arg arena, in 16 bytes: the key handle and the
  /// value's type share a word, and the value is a number (bools as 0 or 1)
  /// or a handle (strings into the string table; arrays and objects, which
  /// are rare, into `json_args_`).
  struct Arg {
    StrId key : 29 = 0;
    uint32_t type : 3 = 0;  ///< A Json::Type.
    uint32_t next = 0;      ///< The span's next arg (index + 1; 0: end).
    union {
      double number = 0;
      uint32_t ref;
    };
  };
  static_assert(sizeof(Arg) == 16, "args must stay 16 bytes");
  static_assert(static_cast<int>(Json::Type::kObject) < 8,
                "a Json::Type must fit the arg's 3-bit type field");

  Span* FindMutable(SpanId id);
  SpanId Append(std::string_view track, std::string_view name,
                std::string_view category, SpanId parent);
  StrId Intern(std::string_view text);
  /// The index slot holding `text`, or the empty slot where it belongs.
  size_t Probe(std::string_view text) const;
  void StoreArg(Json value, Arg* arg);
  Json LoadArg(const Arg& arg) const;

  sim::SimEnvironment* env_;
  std::vector<Span> spans_;  ///< Index i holds span id i+1.
  std::vector<Arg> args_;
  std::vector<Json> json_args_;
  /// String table: every interned string's bytes back to back in one arena.
  /// String i is text_[offsets_[i], offsets_[i + 1]); the index is an
  /// open-addressing table of handles, hashed by content, at most half full
  /// (0 marks a free slot: the empty string is never looked up).
  std::string text_;
  std::vector<uint32_t> offsets_;
  std::vector<StrId> index_;
  std::map<std::string, double> cost_buckets_;
  int64_t open_ = 0;
};

}  // namespace skyrise::obs
