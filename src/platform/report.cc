#include "platform/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

#include "common/string_util.h"
#include "common/units.h"

namespace skyrise::platform {

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TablePrinter::Render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out = "|";
    for (size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      out += " " + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    return out + "\n";
  };
  std::string out = render_row(headers_);
  std::string rule = "|";
  for (size_t c = 0; c < headers_.size(); ++c) {
    rule += std::string(widths[c] + 2, '-') + "|";
  }
  out += rule + "\n";
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void TablePrinter::Print() const { std::fputs(Render().c_str(), stdout); }

std::string RenderAsciiSeries(const std::vector<double>& values, int height,
                              int max_width) {
  if (values.empty()) return "(empty series)\n";
  // Downsample to the display width by averaging.
  std::vector<double> cols;
  const int width = std::min<int>(max_width, static_cast<int>(values.size()));
  for (int c = 0; c < width; ++c) {
    const size_t begin = values.size() * static_cast<size_t>(c) /
                         static_cast<size_t>(width);
    const size_t end = values.size() * static_cast<size_t>(c + 1) /
                       static_cast<size_t>(width);
    double sum = 0;
    for (size_t i = begin; i < std::max(end, begin + 1); ++i) sum += values[i];
    cols.push_back(sum / static_cast<double>(std::max<size_t>(1, end - begin)));
  }
  const double peak = *std::max_element(cols.begin(), cols.end());
  std::string out;
  for (int level = height; level >= 1; --level) {
    const double threshold =
        peak * (static_cast<double>(level) - 0.5) / static_cast<double>(height);
    std::string line;
    for (double v : cols) line += v >= threshold ? '#' : ' ';
    out += StrFormat("%10.2f |", peak * level / height) + line + "\n";
  }
  out += std::string(11, ' ') + "+" + std::string(cols.size(), '-') + "\n";
  return out;
}

Status WriteResultFile(const std::string& path, const Json& result) {
  std::ofstream out(path);
  if (!out.good()) return Status::IoError("cannot open " + path);
  out << result.Dump(2) << "\n";
  return Status::OK();
}

void PrintHeader(const std::string& experiment_id, const std::string& title) {
  std::printf("\n=== %s — %s ===\n\n", experiment_id.c_str(), title.c_str());
}

void PrintComparison(const std::string& metric, const std::string& paper,
                     const std::string& measured) {
  std::printf("  %-44s paper: %-14s measured: %s\n", metric.c_str(),
              paper.c_str(), measured.c_str());
}

std::string RenderFaultSummary(const Json& coordinator_response) {
  const Json& stages = coordinator_response.Get("stages");
  if (!stages.is_array() || stages.AsArray().empty()) return "";
  TablePrinter table({"pipeline", "fragments", "retries", "speculative",
                      "worker_errors"});
  for (const auto& stage : stages.AsArray()) {
    table.AddRow({std::to_string(stage.GetInt("pipeline")),
                  std::to_string(stage.GetInt("fragments")),
                  std::to_string(stage.GetInt("retries")),
                  std::to_string(stage.GetInt("speculative")),
                  std::to_string(stage.GetInt("worker_errors"))});
  }
  table.AddRow({"total", "",
                std::to_string(coordinator_response.GetInt("worker_retries")),
                std::to_string(
                    coordinator_response.GetInt("speculative_launches")),
                std::to_string(coordinator_response.GetInt("worker_errors"))});
  return table.Render();
}

std::string RenderWorkerStats(const Json& coordinator_response) {
  const Json& stages = coordinator_response.Get("stages");
  if (!stages.is_array() || stages.AsArray().empty()) return "";
  TablePrinter table({"pipeline", "fragments", "batches", "peak_memory",
                      "bytes_read", "bytes_written"});
  for (const auto& stage : stages.AsArray()) {
    table.AddRow({std::to_string(stage.GetInt("pipeline")),
                  std::to_string(stage.GetInt("fragments")),
                  std::to_string(stage.GetInt("batches")),
                  FormatBytes(stage.GetInt("peak_memory_bytes")),
                  FormatBytes(stage.GetInt("bytes_read")),
                  FormatBytes(stage.GetInt("bytes_written"))});
  }
  table.AddRow(
      {"total", "",
       std::to_string(coordinator_response.GetInt("total_batches")),
       FormatBytes(coordinator_response.GetInt("peak_worker_memory_bytes")),
       "", ""});
  std::string out = table.Render();
  const int64_t recommended =
      coordinator_response.GetInt("recommended_memory_mib");
  if (recommended > 0) {
    out += StrFormat("recommended worker memory: %lld MiB\n",
                     static_cast<long long>(recommended));
  }
  return out;
}

std::string RenderMetrics(const obs::MetricsRegistry& metrics) {
  std::string out;
  if (!metrics.counters().empty()) {
    TablePrinter counters({"counter", "value"});
    for (const auto& [name, value] : metrics.counters()) {
      counters.AddRow({name, std::to_string(value)});
    }
    out += counters.Render();
  }
  if (!metrics.histograms().empty()) {
    if (!out.empty()) out += "\n";
    TablePrinter hists(
        {"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, hist] : metrics.histograms()) {
      hists.AddRow({name, std::to_string(hist.count()),
                    StrFormat("%.2f", hist.mean()),
                    StrFormat("%.2f", hist.Percentile(50.0)),
                    StrFormat("%.2f", hist.Percentile(95.0)),
                    StrFormat("%.2f", hist.Percentile(99.0)),
                    StrFormat("%.2f", hist.max())});
    }
    out += hists.Render();
  }
  return out;
}

std::string RenderQueryProfile(const obs::Tracer& tracer) {
  const std::vector<obs::Span>& spans = tracer.spans();
  if (spans.empty()) return "";
  std::map<obs::SpanId, std::vector<const obs::Span*>> children;
  for (const auto& span : spans) children[span.parent].push_back(&span);
  // Profile root: the slowest top-level span; ties break to the earliest
  // id, so the rendering is deterministic.
  const obs::Span* root = nullptr;
  for (const obs::Span* span : children[obs::kNoSpan]) {
    if (root == nullptr || span->duration() > root->duration()) root = span;
  }
  if (root == nullptr) return "";

  std::string out = "critical path:\n";
  TablePrinter path({"span", "track", "start_ms", "duration_ms", "outcome"});
  std::string indent;
  for (const obs::Span* node = root; node != nullptr;) {
    path.AddRow({std::string(indent).append(tracer.str(node->name)),
                 std::string(tracer.str(node->track)),
                 StrFormat("%.3f", ToMillis(node->start - root->start)),
                 StrFormat("%.3f", ToMillis(node->duration())),
                 std::string(node->outcome == 0 ? "open"
                                                : tracer.str(node->outcome))});
    const obs::Span* next = nullptr;
    const auto it = children.find(node->id);
    if (it != children.end()) {
      for (const obs::Span* child : it->second) {
        if (child->instant) continue;
        if (next == nullptr || child->end > next->end) next = child;
      }
    }
    node = next;
    indent += "  ";
  }
  out += path.Render();

  out += "\ntime in state (per-category busy time, overlaps counted once):\n";
  std::map<std::string, std::vector<std::pair<SimTime, SimTime>>> by_category;
  for (const auto& span : spans) {
    if (span.instant || span.end <= span.start) continue;
    by_category[std::string(tracer.str(span.category))].emplace_back(
        span.start, span.end);
  }
  TablePrinter states({"category", "busy_ms", "share"});
  const double window_ms = ToMillis(root->duration());
  for (auto& [category, intervals] : by_category) {
    std::sort(intervals.begin(), intervals.end());
    SimDuration busy = 0;
    SimTime merged_start = intervals[0].first;
    SimTime merged_end = intervals[0].second;
    for (const auto& [begin, end] : intervals) {
      if (begin > merged_end) {
        busy += merged_end - merged_start;
        merged_start = begin;
        merged_end = end;
      } else {
        merged_end = std::max(merged_end, end);
      }
    }
    busy += merged_end - merged_start;
    states.AddRow({category, StrFormat("%.3f", ToMillis(busy)),
                   window_ms > 0
                       ? StrFormat("%.1f%%", 100.0 * ToMillis(busy) / window_ms)
                       : "-"});
  }
  out += states.Render();

  out += "\nslowest spans:\n";
  std::vector<const obs::Span*> slowest;
  for (const auto& span : spans) {
    if (!span.instant) slowest.push_back(&span);
  }
  std::stable_sort(slowest.begin(), slowest.end(),
                   [](const obs::Span* a, const obs::Span* b) {
                     return a->duration() > b->duration();
                   });
  if (slowest.size() > 10) slowest.resize(10);
  TablePrinter top({"span", "track", "duration_ms", "cost_usd", "outcome"});
  for (const obs::Span* span : slowest) {
    top.AddRow({std::string(tracer.str(span->name)),
                std::string(tracer.str(span->track)),
                StrFormat("%.3f", ToMillis(span->duration())),
                StrFormat("%.6f", span->cost_usd),
                std::string(span->outcome == 0 ? "open"
                                               : tracer.str(span->outcome))});
  }
  out += top.Render();
  return out;
}

}  // namespace skyrise::platform
