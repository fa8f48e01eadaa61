#include "obs/trace.h"

#include <algorithm>
#include <fstream>

#include "common/string_util.h"

namespace skyrise::obs {

Tracer::Tracer(sim::SimEnvironment* env) : env_(env) { Intern(""); }

StrId Tracer::Intern(const std::string& text) {
  auto it = string_ids_.find(text);
  if (it != string_ids_.end()) return it->second;
  const StrId id = static_cast<StrId>(strings_.size());
  strings_.push_back(text);
  string_ids_.emplace(strings_.back(), id);
  return id;
}

SpanId Tracer::Append(const std::string& track, const std::string& name,
                      const std::string& category, SpanId parent) {
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

SpanId Tracer::Begin(const std::string& track, const std::string& name,
                     const std::string& category, SpanId parent) {
  ++open_;
  return Append(track, name, category, parent);
}

void Tracer::EndWith(SpanId id, const std::string& outcome) {
  Span* span = FindMutable(id);
  if (span == nullptr || span->end >= span->start) return;
  span->end = env_->now();
  span->outcome = Intern(outcome);
  --open_;
}

void Tracer::Instant(const std::string& track, const std::string& name,
                     const std::string& category, SpanId parent) {
  Append(track, name, category, parent);
  Span& span = spans_.back();
  span.end = span.start;
  span.instant = true;
  span.outcome = Intern("ok");
}

void Tracer::StoreArg(Json value, Arg* arg) {
  arg->type = value.type();
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
  switch (arg.type) {
    case Json::Type::kNull:
      return Json();
    case Json::Type::kBool:
      return Json(arg.number != 0);
    case Json::Type::kNumber:
      return Json(arg.number);
    case Json::Type::kString:
      return Json(str(arg.ref));
    case Json::Type::kArray:
    case Json::Type::kObject:
      break;
  }
  return json_args_[arg.ref];
}

void Tracer::SetArg(SpanId id, const std::string& key, Json value) {
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
    args[str(args_[i - 1].key)] = LoadArg(args_[i - 1]);
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
  cost_buckets_[str(span->category)] += usd;
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
  for (const Span& span : spans_) {
    if (span.end < span.start) {
      return Status::Internal(StrFormat("span %lld (%s) never closed",
                                        static_cast<long long>(span.id),
                                        str(span.name).c_str()));
    }
    if (span.parent == kNoSpan) continue;
    const Span* parent = Find(span.parent);
    if (parent == nullptr || parent->id >= span.id) {
      return Status::Internal(StrFormat(
          "span %lld (%s) has invalid parent %lld",
          static_cast<long long>(span.id), str(span.name).c_str(),
          static_cast<long long>(span.parent)));
    }
    if (span.start < parent->start) {
      return Status::Internal(StrFormat(
          "span %lld (%s) starts before its parent %lld",
          static_cast<long long>(span.id), str(span.name).c_str(),
          static_cast<long long>(parent->id)));
    }
    if (!span.instant && span.track == parent->track &&
        span.end > parent->end) {
      return Status::Internal(StrFormat(
          "span %lld (%s) outlives same-track parent %lld (%s)",
          static_cast<long long>(span.id), str(span.name).c_str(),
          static_cast<long long>(parent->id), str(parent->name).c_str()));
    }
  }
  return Status::OK();
}

Json Tracer::ExportChromeTrace() const {
  const SimTime now = env_->now();
  // Track -> pid in first-appearance (span id) order; 0: not seen yet.
  std::vector<int> pid_of(strings_.size(), 0);
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
  std::vector<std::vector<SimTime>> lane_busy_until(strings_.size());
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
    args["name"] = str(track);
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
    event["name"] = str(span.name);
    event["cat"] = str(span.category);
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
      args["outcome"] = span.outcome == 0 ? "open" : str(span.outcome);
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
  string_ids_.clear();
  strings_.clear();
  Intern("");
  cost_buckets_.clear();
  open_ = 0;
}

}  // namespace skyrise::obs
