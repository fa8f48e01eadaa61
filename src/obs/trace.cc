#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>

#include "common/macros.h"
#include "common/string_util.h"

namespace skyrise::obs {

namespace {
constexpr size_t kInitialIndexSlots = 64;
}  // namespace

Tracer::Tracer(sim::SimEnvironment* env)
    : env_(env), offsets_{0, 0}, index_(kInitialIndexSlots, 0) {}

size_t Tracer::Probe(std::string_view text) const {
  const size_t mask = index_.size() - 1;
  size_t slot = std::hash<std::string_view>()(text) & mask;
  while (index_[slot] != 0 && str(index_[slot]) != text) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

StrId Tracer::Intern(std::string_view text) {
  if (text.empty()) return 0;
  const size_t slot = Probe(text);
  if (index_[slot] != 0) return index_[slot];
  const StrId id = static_cast<StrId>(offsets_.size() - 1);
  SKYRISE_CHECK(id < (StrId{1} << 29) &&
                text.size() <= std::numeric_limits<uint32_t>::max() -
                                   text_.size());
  text_.append(text);
  offsets_.push_back(static_cast<uint32_t>(text_.size()));
  index_[slot] = id;
  if (2 * static_cast<size_t>(id) >= index_.size()) {
    // Rehash into twice the slots, in handle order.
    index_.assign(2 * index_.size(), 0);
    for (StrId i = 1; i <= id; ++i) index_[Probe(str(i))] = i;
  }
  return id;
}

SpanId Tracer::Append(std::string_view track, std::string_view name,
                      std::string_view category, SpanId parent) {
  Span span;
  span.id = static_cast<SpanId>(spans_.size()) + 1;
  span.parent = parent;
  span.track = Intern(track);
  span.name = Intern(name);
  span.category = Intern(category);
  span.start = env_->now();
  spans_.push_back(span);
  return span.id;
}

SpanId Tracer::Begin(std::string_view track, std::string_view name,
                     std::string_view category, SpanId parent) {
  ++open_;
  return Append(track, name, category, parent);
}

void Tracer::EndWith(SpanId id, std::string_view outcome) {
  Span* span = FindMutable(id);
  if (span == nullptr || span->end >= span->start) return;
  span->end = env_->now();
  span->outcome = Intern(outcome);
  --open_;
}

void Tracer::Instant(std::string_view track, std::string_view name,
                     std::string_view category, SpanId parent) {
  Append(track, name, category, parent);
  Span& span = spans_.back();
  span.end = span.start;
  span.instant = true;
  span.outcome = Intern("ok");
}

void Tracer::StoreArg(Json value, Arg* arg) {
  arg->type = static_cast<uint32_t>(value.type());
  switch (value.type()) {
    case Json::Type::kNull:
      break;
    case Json::Type::kBool:
      arg->number = value.AsBool() ? 1 : 0;
      break;
    case Json::Type::kNumber:
      arg->number = value.AsDouble();
      break;
    case Json::Type::kString:
      arg->ref = Intern(value.AsString());
      break;
    case Json::Type::kArray:
    case Json::Type::kObject:
      arg->ref = static_cast<uint32_t>(json_args_.size());
      json_args_.push_back(std::move(value));
      break;
  }
}

Json Tracer::LoadArg(const Arg& arg) const {
  switch (static_cast<Json::Type>(arg.type)) {
    case Json::Type::kNull:
      return Json();
    case Json::Type::kBool:
      return Json(arg.number != 0);
    case Json::Type::kNumber:
      return Json(arg.number);
    case Json::Type::kString:
      return Json(std::string(str(arg.ref)));
    case Json::Type::kArray:
    case Json::Type::kObject:
      break;
  }
  return json_args_[arg.ref];
}

void Tracer::SetArg(SpanId id, std::string_view key, Json value) {
  Span* span = FindMutable(id);
  if (span == nullptr) return;
  const StrId key_id = Intern(key);
  for (uint32_t i = span->args; i != 0; i = args_[i - 1].next) {
    if (args_[i - 1].key == key_id) {
      StoreArg(std::move(value), &args_[i - 1]);
      return;
    }
  }
  Arg arg;
  arg.key = key_id;
  arg.next = span->args;
  StoreArg(std::move(value), &arg);
  args_.push_back(arg);
  span->args = static_cast<uint32_t>(args_.size());
}

Json Tracer::Args(SpanId id) const {
  Json args = Json::Object();
  const Span* span = Find(id);
  if (span == nullptr) return args;
  for (uint32_t i = span->args; i != 0; i = args_[i - 1].next) {
    args[std::string(str(args_[i - 1].key))] = LoadArg(args_[i - 1]);
  }
  return args;
}

void Tracer::AddCost(SpanId id, double usd) {
  Span* span = FindMutable(id);
  if (span == nullptr) {
    cost_buckets_["unattributed"] += usd;
    return;
  }
  span->cost_usd += usd;
  cost_buckets_[std::string(str(span->category))] += usd;
}

const Span* Tracer::Find(SpanId id) const {
  if (id <= 0 || id > static_cast<SpanId>(spans_.size())) return nullptr;
  return &spans_[static_cast<size_t>(id) - 1];
}

Span* Tracer::FindMutable(SpanId id) {
  if (id <= 0 || id > static_cast<SpanId>(spans_.size())) return nullptr;
  return &spans_[static_cast<size_t>(id) - 1];
}

double Tracer::attributed_usd(const std::string& bucket) const {
  auto it = cost_buckets_.find(bucket);
  return it == cost_buckets_.end() ? 0.0 : it->second;
}

double Tracer::attributed_usd_total() const {
  double total = 0;
  for (const auto& [bucket, usd] : cost_buckets_) total += usd;
  return total;
}

Status Tracer::Validate() const {
  const auto name = [this](const Span& span) {
    return std::string(str(span.name));
  };
  for (const Span& span : spans_) {
    if (span.end < span.start) {
      return Status::Internal(StrFormat("span %lld (%s) never closed",
                                        static_cast<long long>(span.id),
                                        name(span).c_str()));
    }
    if (span.parent == kNoSpan) continue;
    const Span* parent = Find(span.parent);
    if (parent == nullptr || parent->id >= span.id) {
      return Status::Internal(StrFormat(
          "span %lld (%s) has invalid parent %lld",
          static_cast<long long>(span.id), name(span).c_str(),
          static_cast<long long>(span.parent)));
    }
    if (span.start < parent->start) {
      return Status::Internal(StrFormat(
          "span %lld (%s) starts before its parent %lld",
          static_cast<long long>(span.id), name(span).c_str(),
          static_cast<long long>(parent->id)));
    }
    if (!span.instant && span.track == parent->track &&
        span.end > parent->end) {
      return Status::Internal(StrFormat(
          "span %lld (%s) outlives same-track parent %lld (%s)",
          static_cast<long long>(span.id), name(span).c_str(),
          static_cast<long long>(parent->id), name(*parent).c_str()));
    }
  }
  return Status::OK();
}

Json Tracer::ExportChromeTrace() const {
  const SimTime now = env_->now();
  // Track -> pid in first-appearance (span id) order; 0: not seen yet.
  const size_t strings = offsets_.size() - 1;
  std::vector<int> pid_of(strings, 0);
  std::vector<StrId> track_order;
  for (const Span& span : spans_) {
    if (pid_of[span.track] == 0) {
      track_order.push_back(span.track);
      pid_of[span.track] = static_cast<int>(track_order.size());
    }
  }

  // Lane (tid) assignment: a span whose parent lives on another track (or
  // has no parent) roots a subtree; subtree roots are packed greedily into
  // the lowest free lane of their track, children inherit their parent's
  // lane. Same-track containment (see Validate) keeps lanes well-nested.
  std::vector<int> lane_of(spans_.size(), 0);
  std::vector<std::vector<SimTime>> lane_busy_until(strings);
  for (const Span& span : spans_) {
    const Span* parent = Find(span.parent);
    const SimTime effective_end = span.end < span.start ? now : span.end;
    if (parent != nullptr && parent->track == span.track) {
      lane_of[static_cast<size_t>(span.id) - 1] =
          lane_of[static_cast<size_t>(parent->id) - 1];
      continue;
    }
    std::vector<SimTime>& lanes = lane_busy_until[span.track];
    size_t lane = 0;
    while (lane < lanes.size() && lanes[lane] > span.start) ++lane;
    if (lane == lanes.size()) lanes.push_back(effective_end);
    lanes[lane] = std::max(lanes[lane], effective_end);
    lane_of[static_cast<size_t>(span.id) - 1] = static_cast<int>(lane);
  }

  Json events = Json::Array();
  // Metadata: name each process after its track, each lane after its index.
  for (const StrId track : track_order) {
    Json meta = Json::Object();
    meta["ph"] = "M";
    meta["pid"] = pid_of[track];
    meta["name"] = "process_name";
    Json args = Json::Object();
    args["name"] = std::string(str(track));
    meta["args"] = std::move(args);
    events.Append(std::move(meta));
    const size_t lanes = lane_busy_until[track].size();
    for (size_t lane = 0; lane < std::max<size_t>(lanes, 1); ++lane) {
      Json thread = Json::Object();
      thread["ph"] = "M";
      thread["pid"] = pid_of[track];
      thread["tid"] = static_cast<int64_t>(lane);
      thread["name"] = "thread_name";
      Json targs = Json::Object();
      targs["name"] = StrFormat("lane %zu", lane);
      thread["args"] = std::move(targs);
      events.Append(std::move(thread));
    }
  }

  for (const Span& span : spans_) {
    Json event = Json::Object();
    event["pid"] = pid_of[span.track];
    event["tid"] =
        static_cast<int64_t>(lane_of[static_cast<size_t>(span.id) - 1]);
    event["name"] = std::string(str(span.name));
    event["cat"] = std::string(str(span.category));
    event["ts"] = span.start;
    Json args = Args(span.id);
    args["span"] = span.id;
    args["parent"] = span.parent;
    if (span.instant) {
      event["ph"] = "i";
      event["s"] = "t";
    } else {
      event["ph"] = "X";
      event["dur"] = (span.end < span.start ? now : span.end) - span.start;
      args["cost_usd"] = span.cost_usd;
      args["outcome"] =
          std::string(span.outcome == 0 ? "open" : str(span.outcome));
    }
    event["args"] = std::move(args);
    events.Append(std::move(event));
  }

  Json metadata = Json::Object();
  metadata["clock"] = "sim_us";
  metadata["seed"] = static_cast<int64_t>(env_->seed());
  metadata["span_count"] = static_cast<int64_t>(spans_.size());
  Json buckets = Json::Object();
  for (const auto& [bucket, usd] : cost_buckets_) buckets[bucket] = usd;
  metadata["attributed_usd"] = std::move(buckets);

  Json doc = Json::Object();
  doc["displayTimeUnit"] = "ms";
  doc["metadata"] = std::move(metadata);
  doc["traceEvents"] = std::move(events);
  return doc;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return Status::IoError("cannot open " + path);
  out << DumpChromeTrace() << "\n";
  if (!out.good()) return Status::IoError("failed writing " + path);
  return Status::OK();
}

void Tracer::Reset() {
  spans_.clear();
  args_.clear();
  json_args_.clear();
  text_.clear();
  offsets_.assign({0, 0});
  std::fill(index_.begin(), index_.end(), 0);
  cost_buckets_.clear();
  open_ = 0;
}

}  // namespace skyrise::obs
