// The worker's per-fragment path (DESIGN.md §12.7). The pipeline comes
// from the coordinator's parsed plan while its grant is live, or from the
// payload's JSON once the coordinator has finished. Every table input,
// streamed or build side, goes through one per-row-group reader: column
// ranges that arrive in one GET are views of the stored object, decoded
// once per engine by its column memo, and a row group's rows are gathered
// from the memo's columns; only ranges split at `range_chunk_bytes` are
// assembled and decoded here. Shuffle objects are decoded from views of the
// object.

#include "engine/worker.h"

#include <deque>
#include <memory>
#include <optional>
#include <string_view>

#include "common/string_util.h"

namespace skyrise::engine {

namespace {

using data::Chunk;
using storage::Blob;

/// Storage requests a worker keeps in flight while reading one input or
/// writing its outputs.
constexpr int kMaxConcurrentRequests = 16;

/// One pending ranged read of the file being read. A column range larger
/// than `range_chunk_bytes` is split into pieces read in parallel
/// (Section 3.2).
struct ReadOp {
  int64_t offset = 0;
  int64_t length = 0;
  size_t range = 0;          ///< The RangeBytes this piece fills.
  int64_t range_offset = 0;  ///< Where the piece lies within its range.
  bool split = false;        ///< One of several pieces of its range.
};

/// The bytes of one column range. A range that arrives in one piece stays
/// the Blob it came in, a view of the stored object; only a range split at
/// `range_chunk_bytes` is assembled, piece by piece, at its offsets.
struct RangeBytes {
  Blob whole;
  std::string assembled;

  std::string_view view() const {
    return whole.is_synthetic() ? std::string_view(assembled) : whole.bytes();
  }
};

/// Queues the reads of column range `range`, [offset, offset + length) of
/// the file, split at `chunk` bytes; returns the number of pieces.
int SplitRange(int64_t offset, int64_t length, size_t range, int64_t chunk,
               std::deque<ReadOp>* pending) {
  const bool split = length > chunk;
  int pieces = 0;
  for (int64_t at = 0; at < length; at += chunk, ++pieces) {
    pending->push_back(
        ReadOp{offset + at, std::min(chunk, length - at), range, at, split});
  }
  return pieces;
}

/// Stores a completed piece into its range.
void StorePiece(const ReadOp& op, Blob&& piece, RangeBytes* range) {
  if (!op.split) {
    range->whole = std::move(piece);
    return;
  }
  if (piece.is_synthetic()) return;
  const std::string_view bytes = piece.bytes();
  const size_t end = static_cast<size_t>(op.range_offset) + bytes.size();
  if (range->assembled.size() < end) range->assembled.resize(end);
  bytes.copy(range->assembled.data() + op.range_offset, bytes.size());
}

/// Executes one fragment as a streaming morsel pipeline. Inputs are read one
/// at a time by the same table and shuffle readers: the build-side inputs
/// (pipeline inputs 1..n) first, each materializing in full, then the
/// streamed input 0, whose row groups are pushed through a FragmentPipeline
/// while further ranged reads are in flight — I/O and compute overlap on the
/// sim event loop. Decoded row groups are delivered in deterministic (file,
/// row group) / upstream-fragment order regardless of which reads straggled
/// or were retried, so result bytes are reproducible under faults.
class WorkerTask : public std::enable_shared_from_this<WorkerTask> {
 public:
  WorkerTask(EngineContext* ec,
             std::shared_ptr<faas::FunctionContext> fctx)
      : ec_(ec), fctx_(std::move(fctx)), cost_(ec->cost_model) {}

  void Run() {
    start_ = Now();
    tracer_ = fctx_->tracer();
    metrics_ = fctx_->metrics();
    const Json& payload = fctx_->payload();
    query_id_ = payload.GetString("query_id");
    fragment_ = static_cast<int>(payload.GetInt("fragment"));
    barrier_participants_ =
        static_cast<int>(payload.GetInt("barrier_participants", 0));
    // Phase spans live on the "worker" track under the platform's execution
    // span; storage request spans hang off the phase that issued them.
    if (tracer_ != nullptr) {
      input_span_ = tracer_->Begin("worker", "input", "engine", fctx_->span());
      tracer_->SetArg(input_span_, "fragment", Json(fragment_));
    }
    // While the query's coordinator is live, its grant carries the parsed
    // plan. Without a grant (the coordinator has finished: a zombie
    // attempt) the worker parses the pipeline its payload carries, the
    // JSON the coordinator's plan was parsed from.
    const Json& pipeline_json = payload.Get("pipeline");
    const auto* grants = ec_->FindGrants(query_id_);
    if (grants != nullptr && grants->plan != nullptr) {
      const PipelineSpec* granted = grants->plan->FindPipeline(
          static_cast<int>(pipeline_json.GetInt("id")));
      if (granted != nullptr) pipeline_ = {grants->plan, granted};
    }
    if (pipeline_ == nullptr) {
      auto parsed = PipelineSpec::FromJson(pipeline_json);
      if (!parsed.ok()) {
        Fail(parsed.status());
        return;
      }
      pipeline_ = std::make_shared<const PipelineSpec>(
          std::move(parsed).ValueUnsafe());
    }
    const Status decoded = DecodeAssignments(payload.Get("inputs"));
    if (!decoded.ok()) {
      Fail(decoded);
      return;
    }
    if (assignments_.size() != pipeline_->inputs.size()) {
      Fail(Status::InvalidArgument("input assignment mismatch"));
      return;
    }
    table_client_ = std::make_unique<storage::RetryClient>(
        ec_->env, ec_->table_store, ec_->retry,
        0x9000 + static_cast<uint64_t>(fragment_));
    shuffle_client_ = std::make_unique<storage::RetryClient>(
        ec_->env, ec_->shuffle_store, ec_->retry,
        0xA000 + static_cast<uint64_t>(fragment_));
    storage_ctx_.nic = fctx_->nic();
    storage_ctx_.fabric = fctx_->fabric();
    storage_ctx_.meter = ec_->meter;
    storage_ctx_.tracer = tracer_;
    storage_ctx_.span = input_span_;
    storage_ctx_.metrics = metrics_;
    // Overload robustness: the query deadline rides in the payload; the
    // retry-token pool is this query's coordinator-published grant, looked
    // up by query id (queries interleave on a shared context). A missing
    // entry means the coordinator already finished — this is a zombie
    // attempt and runs without a pooled budget.
    storage_ctx_.deadline =
        Deadline::At(fctx_->payload().GetInt("deadline_us", 0));
    storage_ctx_.retry_budget =
        grants != nullptr ? grants->retry_budget : nullptr;
    storage_ctx_.breaker = ec_->storage_breaker;
    loaded_.resize(pipeline_->inputs.size());
    pushdown_.resize(pipeline_->inputs.size());
    LoadBuildInput(1);
  }

 private:
  SimTime Now() const { return ec_->env->now(); }

  /// Reads the payload's per-input file lists and upstream fragment counts.
  [[nodiscard]] Status DecodeAssignments(const Json& inputs) {
    if (!inputs.is_array()) {
      return Status::InvalidArgument("worker payload lacks inputs");
    }
    for (const auto& input : inputs.AsArray()) {
      const Json& files = input.Get("files");
      if (!files.is_array()) {
        return Status::InvalidArgument("worker payload input lacks files");
      }
      WorkerInputAssignment assignment;
      for (const auto& f : files.AsArray()) {
        assignment.files.push_back(
            TableFileAssignment{f.GetString("key"), f.GetInt("size")});
      }
      assignment.upstream_fragments =
          static_cast<int>(input.GetInt("upstream_fragments"));
      assignments_.push_back(std::move(assignment));
    }
    return Status::OK();
  }

  void Fail(Status status) {
    if (done_) return;
    done_ = true;
    if (tracer_ != nullptr) {
      // Close whichever phase is still open (EndWith no-ops on the rest).
      tracer_->EndWith(input_span_, "error");
      tracer_->EndWith(compute_span_, "error");
      tracer_->EndWith(output_span_, "error");
    }
    fctx_->FinishError(std::move(status));
  }

  // --- Inputs, read one at a time: the build inputs 1..n in order, then,
  // after the barrier, the streamed input 0. The table and shuffle readers
  // hand every decoded chunk to Deliver and finish through InputDone; since
  // only one input is in flight, their cursors are task fields. ---

  void LoadBuildInput(size_t index) {
    if (index >= pipeline_->inputs.size()) {
      MaybeBarrier();
      return;
    }
    ReadInput(index);
  }

  void ReadInput(size_t index) {
    input_ = index;
    if (pipeline_->inputs[index].type == InputSpec::Type::kTable) {
      ReadTableFile(0);
    } else {
      ReadShuffleInput();
    }
  }

  void Deliver(size_t index, Chunk&& chunk) {
    if (index == 0) {
      Enqueue(std::move(chunk));
    } else {
      AccumulateInput(index, std::move(chunk));
    }
  }

  void InputDone(size_t index) {
    if (index == 0) {
      StreamEof();
    } else {
      LoadBuildInput(index + 1);
    }
  }

  void AccumulateInput(size_t index, Chunk&& chunk) {
    if (!loaded_[index].has_value()) {
      loaded_[index] = std::move(chunk);
      return;
    }
    loaded_[index]->Append(chunk);
    chunk_pool_.Release(std::move(chunk));
  }

  // --- Table inputs: per file, a footer fetch, row-group pruning, then
  // ranged reads per (row group, projected column) under the request
  // window. Row groups are decoded and delivered in (file, row group) order
  // as their columns arrive; once a file's last row group is delivered, the
  // next file's footer is fetched. ---

  void ReadTableFile(size_t file_index) {
    if (file_index >= assignments_[input_].files.size()) {
      InputDone(input_);
      return;
    }
    FetchFooter(file_index);
  }

  /// Fetches file `file_index`'s footer, parsed through the engine's footer
  /// memo or resolved via the synthetic catalog, then reads its columns.
  /// Failures finish the task.
  void FetchFooter(size_t file_index) {
    const TableFileAssignment& file = assignments_[input_].files[file_index];
    const int64_t fetch =
        std::min<int64_t>(file.size, format::kFooterFetchSize);
    auto self = shared_from_this();
    table_client_->GetRange(
        file.key, file.size - fetch, fetch, storage_ctx_,
        [self, file_index, fetch](Result<Blob> result) {
          if (self->done_) return;
          if (!result.ok()) {
            self->Fail(result.status());
            return;
          }
          self->bytes_read_ += result->size();
          const TableFileAssignment& file =
              self->assignments_[self->input_].files[file_index];
          std::shared_ptr<const format::FileMeta> meta;
          if (result->is_synthetic()) {
            auto found = self->ec_->catalog->Find(file.key);
            if (!found.ok()) {
              self->Fail(found.status());
              return;
            }
            meta = std::make_shared<const format::FileMeta>(
                std::move(found).ValueUnsafe());
          } else {
            auto footer = format::FooterText(result->bytes(),
                                             file.size - fetch, file.size);
            if (!footer.ok()) {
              self->Fail(footer.status());
              return;
            }
            auto parsed = self->ec_->table_footers.Parse(*footer);
            if (!parsed.ok()) {
              self->Fail(parsed.status());
              return;
            }
            meta = std::move(parsed).ValueUnsafe();
          }
          self->ReadRowGroups(file_index, std::move(meta));
        });
  }

  /// Row-group pruning on min/max statistics (selection pushdown).
  std::vector<size_t> PruneRowGroups(const InputSpec& spec,
                                     const format::FileMeta& meta) const {
    std::vector<size_t> survivors;
    for (size_t rg = 0; rg < meta.row_groups.size(); ++rg) {
      bool keep = true;
      if (spec.pushdown) {
        const auto& groups = meta.row_groups[rg];
        keep = RangeMayMatch(
            *spec.pushdown,
            [&](const std::string& column, double* min, double* max) {
              const int idx = meta.schema.FieldIndex(column);
              if (idx < 0) return false;
              const auto& cm = groups.columns[static_cast<size_t>(idx)];
              if (!cm.min.has_value() || !cm.max.has_value()) return false;
              *min = *cm.min;
              *max = *cm.max;
              return true;
            });
      }
      if (keep) survivors.push_back(rg);
    }
    return survivors;
  }

  std::vector<std::string> ProjectionFor(const InputSpec& spec,
                                         const format::FileMeta& meta) const {
    std::vector<std::string> projection = spec.columns;
    if (projection.empty()) {
      for (const auto& f : meta.schema.fields()) projection.push_back(f.name);
    }
    return projection;
  }

  /// Input `index`'s pushdown predicate, run through the filter kernel the
  /// filter operator uses. Synthetic pruning already reduced groups; the
  /// residual selectivity is relative to the pruned set.
  FilterKernel& Pushdown(size_t index) {
    const InputSpec& spec = pipeline_->inputs[index];
    std::optional<FilterKernel>& filter = pushdown_[index];
    if (!filter.has_value()) {
      filter.emplace(spec.pushdown, spec.pushdown_selectivity, &cost_,
                     &chunk_pool_);
    }
    return *filter;
  }

  /// Prunes file `file_index`'s row groups and queues the ranged reads of
  /// the survivors' projected columns.
  void ReadRowGroups(size_t file_index,
                     std::shared_ptr<const format::FileMeta> meta) {
    const InputSpec& spec = pipeline_->inputs[input_];
    file_meta_ = std::move(meta);
    projection_ = ProjectionFor(spec, *file_meta_);
    survivors_ = PruneRowGroups(spec, *file_meta_);
    {
      auto projected = file_meta_->schema.Select(projection_);
      if (!projected.ok()) {
        Fail(projected.status());
        return;
      }
      projected_ = std::move(projected).ValueUnsafe();
    }
    // The input's schema is known even if every row group is pruned: a
    // build input accumulates onto this empty chunk, and a streamed input
    // that delivers no morsel runs the chain once over it.
    if (!loaded_[input_].has_value()) {
      loaded_[input_] = Chunk::Empty(projected_);
    }
    file_index_ = file_index;
    if (survivors_.empty()) {
      ReadTableFile(file_index + 1);
      return;
    }
    const size_t cols = projection_.size();
    ranges_.assign(survivors_.size() * cols, RangeBytes());
    rg_pieces_.assign(survivors_.size(), 0);
    rg_ready_.assign(survivors_.size(), false);
    rg_cursor_ = 0;
    for (size_t slot = 0; slot < survivors_.size(); ++slot) {
      auto ranges = format::RowGroupColumnRanges(*file_meta_, survivors_[slot],
                                                 projection_);
      if (!ranges.ok()) {
        Fail(ranges.status());
        return;
      }
      for (size_t c = 0; c < cols; ++c) {
        rg_pieces_[slot] +=
            SplitRange((*ranges)[c].offset, (*ranges)[c].size, slot * cols + c,
                       ec_->range_chunk_bytes, &pending_reads_);
      }
      if (rg_pieces_[slot] == 0) rg_ready_[slot] = true;
    }
    AdvanceRowGroupCursor();
    PumpTableReads();
  }

  void PumpTableReads() {
    auto self = shared_from_this();
    while (table_outstanding_ < kMaxConcurrentRequests &&
           !pending_reads_.empty()) {
      const ReadOp op = pending_reads_.front();
      pending_reads_.pop_front();
      ++table_outstanding_;
      table_client_->GetRange(assignments_[input_].files[file_index_].key,
                              op.offset, op.length, storage_ctx_,
                              [self, op](Result<Blob> result) {
                                self->OnTableRead(op, std::move(result));
                              });
    }
  }

  void OnTableRead(const ReadOp& op, Result<Blob> result) {
    --table_outstanding_;
    if (done_) return;
    if (!result.ok()) {
      Fail(result.status());
      return;
    }
    bytes_read_ += result->size();
    cost_.AddNs(static_cast<double>(result->size()) *
                cost_.model().decode_ns_per_byte);
    StorePiece(op, std::move(*result), &ranges_[op.range]);
    const size_t slot = op.range / projection_.size();
    if (--rg_pieces_[slot] == 0) {
      rg_ready_[slot] = true;
      AdvanceRowGroupCursor();
    }
    if (!done_) PumpTableReads();
  }

  /// Decodes and delivers every ready row group at the front of the
  /// in-order cursor, then moves to the next file once this one is fully
  /// delivered.
  void AdvanceRowGroupCursor() {
    const size_t cols = projection_.size();
    while (rg_cursor_ < survivors_.size() && rg_ready_[rg_cursor_]) {
      RangeBytes* ranges = &ranges_[rg_cursor_ * cols];
      Result<Chunk> rows = ReadyRowGroup(ranges);
      // The chunk owns its values; the read bytes can go.
      for (size_t c = 0; c < cols; ++c) ranges[c] = RangeBytes();
      if (!rows.ok()) {
        Fail(rows.status());
        return;
      }
      ++rg_cursor_;
      Deliver(input_, std::move(rows).ValueUnsafe());
    }
    if (!survivors_.empty() && rg_cursor_ == survivors_.size()) {
      survivors_.clear();
      rg_cursor_ = 0;
      ReadTableFile(file_index_ + 1);
    }
  }

  /// The rows of row group rg_cursor_ that input_'s pushdown keeps, in a
  /// chunk of their own. When each column range of a real file arrived in
  /// one GET, the columns come from the engine's column memo, and only the
  /// survivors are gathered (every row without a pushdown); otherwise the
  /// row group is decoded into a pool chunk and filtered.
  [[nodiscard]] Result<Chunk> ReadyRowGroup(const RangeBytes* ranges) {
    const size_t cols = projection_.size();
    const size_t rg = survivors_[rg_cursor_];
    const bool has_pushdown = pipeline_->inputs[input_].pushdown != nullptr;
    bool memoised = !file_meta_->synthetic;
    for (size_t c = 0; c < cols; ++c) {
      memoised = memoised && !ranges[c].whole.is_synthetic();
    }
    if (!memoised) {
      column_views_.clear();
      for (size_t c = 0; c < cols; ++c) {
        column_views_.push_back(ranges[c].view());
      }
      Chunk decoded = chunk_pool_.AcquireRaw();
      SKYRISE_RETURN_IF_ERROR(format::DecodeRowGroupInto(
          *file_meta_, rg, projected_, column_views_, &decoded));
      if (!has_pushdown) return decoded;
      return Pushdown(input_).Apply(std::move(decoded));
    }
    // The memo's columns stay valid while `ranges` hold their buffers.
    const int64_t rows = file_meta_->row_groups[rg].rows;
    column_refs_.clear();
    for (size_t c = 0; c < cols; ++c) {
      const data::Column* column = nullptr;
      SKYRISE_ASSIGN_OR_RETURN(
          column, ec_->table_columns.Decode(ranges[c].whole,
                                            projected_.field(c).type, rows));
      column_refs_.push_back(column);
    }
    if (has_pushdown) {
      return Pushdown(input_).Gather(projected_, column_refs_,
                                     static_cast<size_t>(rows));
    }
    Chunk copy = chunk_pool_.AcquirePrepared(projected_);
    for (size_t c = 0; c < cols; ++c) {
      column_refs_[c]->SliceInto(0, static_cast<size_t>(rows),
                                 &copy.column(c));
    }
    return copy;
  }

  // --- Shuffle inputs: bounded GETs of every upstream fragment's
  // partition object. Reads complete in storage-latency order, which is not
  // deterministic across fault/retry schedules, so each object decodes into
  // one slot per upstream fragment and the slots are delivered in fragment
  // order as the completion cursor advances: the input chunk order (and thus
  // the query result bytes) is identical regardless of which attempts
  // straggled or were retried. ---

  void ReadShuffleInput() {
    const size_t count =
        static_cast<size_t>(assignments_[input_].upstream_fragments);
    shuffle_slots_.clear();
    shuffle_slots_.resize(count);
    shuffle_done_.assign(count, false);
    shuffle_cursor_ = 0;
    shuffle_next_ = 0;
    if (count == 0) {
      InputDone(input_);
      return;
    }
    PumpShuffleReads();
  }

  void PumpShuffleReads() {
    const int upstream = pipeline_->inputs[input_].upstream_pipeline;
    auto self = shared_from_this();
    while (shuffle_outstanding_ < kMaxConcurrentRequests &&
           shuffle_next_ < shuffle_slots_.size()) {
      const size_t uf = shuffle_next_++;
      ++shuffle_outstanding_;
      std::string key = ShuffleKey(query_id_, upstream, static_cast<int>(uf),
                                   fragment_);
      shuffle_client_->Get(key, storage_ctx_,
                           [self, key, uf](Result<Blob> result) {
                             self->OnShuffleRead(key, uf, std::move(result));
                           });
    }
  }

  void OnShuffleRead(const std::string& key, size_t uf, Result<Blob> result) {
    --shuffle_outstanding_;
    if (done_) return;
    if (!result.ok()) {
      Fail(result.status());
      return;
    }
    bytes_read_ += result->size();
    if (!DecodeShuffleObject(key, *result, &shuffle_slots_[uf])) return;
    shuffle_done_[uf] = true;
    AdvanceShuffleCursor();
    if (!done_) PumpShuffleReads();
  }

  void AdvanceShuffleCursor() {
    while (shuffle_cursor_ < shuffle_slots_.size() &&
           shuffle_done_[shuffle_cursor_]) {
      for (auto& chunk : shuffle_slots_[shuffle_cursor_]) {
        Deliver(input_, std::move(chunk));
      }
      shuffle_slots_[shuffle_cursor_].clear();
      ++shuffle_cursor_;
    }
    if (shuffle_cursor_ == shuffle_slots_.size()) InputDone(input_);
  }

  /// Decodes a whole shuffle object where it lies in `blob`.
  bool DecodeShuffleObject(const std::string& key, const Blob& blob,
                           std::vector<Chunk>* out) {
    format::FileMeta meta;
    std::string_view bytes;
    if (blob.is_synthetic()) {
      auto found = ec_->catalog->Find(key);
      if (!found.ok()) {
        Fail(found.status());
        return false;
      }
      meta = std::move(found).ValueUnsafe();
    } else {
      bytes = blob.bytes();
      auto parsed = format::ParseFooter(bytes, 0,
                                        static_cast<int64_t>(bytes.size()));
      if (!parsed.ok()) {
        Fail(parsed.status());
        return false;
      }
      meta = std::move(parsed).ValueUnsafe();
    }
    cost_.AddNs(static_cast<double>(blob.size()) *
                cost_.model().decode_ns_per_byte);
    // Every column, in schema order: the projected schema is the schema.
    for (size_t rg = 0; rg < meta.row_groups.size(); ++rg) {
      column_views_.clear();
      for (const format::ColumnChunkMeta& cm : meta.row_groups[rg].columns) {
        column_views_.push_back(
            meta.synthetic ? std::string_view()
                           : bytes.substr(static_cast<size_t>(cm.offset),
                                          static_cast<size_t>(cm.size)));
      }
      Chunk decoded = chunk_pool_.AcquireRaw();
      const Status decode_status = format::DecodeRowGroupInto(
          meta, rg, meta.schema, column_views_, &decoded);
      if (!decode_status.ok()) {
        Fail(decode_status);
        return false;
      }
      out->push_back(std::move(decoded));
    }
    if (meta.row_groups.empty()) {
      out->push_back(Chunk::Empty(meta.schema));
    }
    return true;
  }

  // --- Barrier, then the streamed input drives the pipeline. ---

  void MaybeBarrier() {
    bool has_barrier = false;
    for (const auto& op : pipeline_->ops) {
      if (op.op == "barrier") has_barrier = true;
    }
    if (!has_barrier || ec_->queue == nullptr || barrier_participants_ <= 0) {
      StartStream();
      return;
    }
    const std::string name =
        StrFormat("%s/p%d/barrier", query_id_.c_str(), pipeline_->id);
    obs::SpanId barrier_span = obs::kNoSpan;
    if (tracer_ != nullptr) {
      barrier_span = tracer_->Begin("worker", "barrier", "engine",
                                    input_span_);
    }
    auto self = shared_from_this();
    ec_->queue->Arrive(name, barrier_participants_, [self, barrier_span] {
      if (self->tracer_ != nullptr) self->tracer_->End(barrier_span);
      self->StartStream();
    });
  }

  void StartStream() {
    std::vector<Chunk> builds;
    for (size_t i = 1; i < loaded_.size(); ++i) {
      builds.push_back(loaded_[i].has_value() ? std::move(*loaded_[i])
                                              : Chunk::Empty(data::Schema()));
    }
    executor_ = std::make_unique<FragmentPipeline>(
        *pipeline_, std::move(builds), &cost_, &memory_, ec_->morsel_rows,
        &chunk_pool_);
    if (pipeline_->inputs.empty()) {
      StreamEof();
      return;
    }
    ReadInput(0);
  }

  // --- The compute pump: one morsel per Compute hop, charged as the
  // cumulative cost delta so total CPU equals the materialized path. ---

  void Enqueue(Chunk&& morsel) {
    ++morsels_seen_;
    morsels_.push_back(std::move(morsel));
    PumpCompute();
  }

  void StreamEof() {
    // Zero-morsel streams (e.g. every row group pruned) still run the chain
    // once over an empty batch with the projected schema, as the
    // materialized path did.
    if (morsels_seen_ == 0 && !loaded_.empty() && loaded_[0].has_value()) {
      morsels_.push_back(std::move(*loaded_[0]));
    }
    stream_eof_ = true;
    input_done_ = Now();
    if (tracer_ != nullptr) {
      tracer_->SetArg(input_span_, "bytes_read", Json(bytes_read_));
      tracer_->End(input_span_);
      compute_span_ = tracer_->Begin("worker", "compute", "engine",
                                     fctx_->span());
      tracer_->SetArg(compute_span_, "fragment", Json(fragment_));
      storage_ctx_.span = compute_span_;
    }
    PumpCompute();
  }

  void PumpCompute() {
    if (done_ || computing_ || finished_ || executor_ == nullptr) return;
    if (morsels_.empty()) {
      if (stream_eof_) FinishPipeline();
      return;
    }
    Chunk morsel = std::move(morsels_.front());
    morsels_.pop_front();
    Status pushed = executor_->Push(std::move(morsel));
    if (!pushed.ok()) {
      Fail(std::move(pushed));
      return;
    }
    computing_ = true;
    auto self = shared_from_this();
    ChargeCompute([self] {
      self->computing_ = false;
      self->PumpCompute();
    });
  }

  /// Sleeps for the not-yet-charged share of the accumulated CPU cost. The
  /// cumulative-delta scheme telescopes: total charged time equals
  /// Duration(total cost) regardless of how many batches it was split over.
  void ChargeCompute(std::function<void()> then) {
    const SimDuration total = cost_.Duration(fctx_->config().vcpus());
    const SimDuration delta = total - charged_;
    charged_ = total;
    fctx_->Compute(delta, std::move(then));
  }

  void FinishPipeline() {
    finished_ = true;
    auto outputs = executor_->Finish();
    if (!outputs.ok()) {
      Fail(outputs.status());
      return;
    }
    outputs_ = std::move(*outputs);
    auto self = shared_from_this();
    ChargeCompute([self] {
      self->compute_done_ = self->Now();
      if (self->tracer_ != nullptr) {
        self->tracer_->SetArg(self->compute_span_, "batches",
                              Json(self->executor_->batches()));
        self->tracer_->SetArg(self->compute_span_, "morsels",
                              Json(self->morsels_seen_));
        self->tracer_->SetArg(self->compute_span_, "peak_memory_bytes",
                              Json(self->memory_.peak()));
        self->tracer_->End(self->compute_span_);
        self->output_span_ = self->tracer_->Begin("worker", "output", "engine",
                                                  self->fctx_->span());
        self->tracer_->SetArg(self->output_span_, "fragment",
                              Json(self->fragment_));
        self->storage_ctx_.span = self->output_span_;
      }
      self->WriteOutputs();
    });
  }

  void WriteOutputs() {
    if (outputs_.empty()) {
      Respond();
      return;
    }
    // Encode all outputs (CPU already accounted), then write them with
    // bounded concurrency — an unbounded PUT volley against a cold bucket
    // would immediately exceed the write-IOPS envelope for every worker.
    for (auto& output : outputs_) {
      std::string key;
      if (output.partition < 0) {
        key = ResultKey(query_id_);
      } else {
        key = ShuffleKey(query_id_, pipeline_->id, fragment_,
                         output.partition);
      }
      Blob blob;
      if (output.chunk.is_synthetic()) {
        const int64_t encoded =
            std::max<int64_t>(static_cast<int64_t>(
                                  static_cast<double>(output.chunk.ByteSize()) *
                                  0.55),
                              64) +
            format::kCofTrailerSize;
        format::FileMeta meta = format::BuildSyntheticFileMeta(
            output.chunk.schema(), output.chunk.rows(), encoded, 1 << 20, {});
        ec_->catalog->Register(key, std::move(meta));
        blob = Blob::Synthetic(encoded);
      } else {
        std::string bytes =
            format::WriteCofFile(output.chunk.schema(), output.chunk);
        cost_.AddNs(static_cast<double>(bytes.size()) *
                    cost_.model().encode_ns_per_byte);
        blob = Blob::FromString(std::move(bytes));
      }
      bytes_written_ += blob.size();
      rows_out_ += output.chunk.rows();
      writes_.push_back(PendingWrite{std::move(key), std::move(blob)});
    }
    outputs_.clear();
    PumpWrites();
  }

  void PumpWrites() {
    auto self = shared_from_this();
    while (write_outstanding_ < kMaxConcurrentRequests &&
           write_next_ < writes_.size()) {
      PendingWrite& w = writes_[write_next_++];
      ++write_outstanding_;
      shuffle_client_->Put(w.key, std::move(w.blob), storage_ctx_,
                           [self](Status status) {
                             self->OnWriteDone(std::move(status));
                           });
    }
  }

  void OnWriteDone(Status status) {
    --write_outstanding_;
    if (done_) return;
    if (!status.ok()) {
      Fail(std::move(status));
      return;
    }
    if (write_next_ == writes_.size() && write_outstanding_ == 0) {
      Respond();
      return;
    }
    PumpWrites();
  }

  void Respond() {
    if (done_) return;
    done_ = true;
    if (tracer_ != nullptr) {
      tracer_->SetArg(output_span_, "bytes_written", Json(bytes_written_));
      tracer_->SetArg(output_span_, "rows_out", Json(rows_out_));
      tracer_->End(output_span_);
    }
    // Phase timings live in the trace and the metrics registry; the response
    // carries only the fields the coordinator aggregates.
    if (metrics_ != nullptr) {
      metrics_->Add("worker.fragments");
      metrics_->Record("worker.input_ms", ToMillis(input_done_ - start_));
      metrics_->Record("worker.compute_ms",
                       ToMillis(compute_done_ - input_done_));
      metrics_->Record("worker.output_ms", ToMillis(Now() - compute_done_));
      metrics_->Record("worker.duration_ms", ToMillis(Now() - start_));
      metrics_->Max("worker.peak_memory_bytes", memory_.peak());
    }
    Json response = Json::Object();
    response["fragment"] = fragment_;
    response["rows_out"] = rows_out_;
    response["bytes_read"] = bytes_read_;
    response["bytes_written"] = bytes_written_;
    response["requests"] = table_client_->stats().attempts +
                           shuffle_client_->stats().attempts;
    response["cold_start"] = fctx_->cold_start();
    response["duration_ms"] = ToMillis(Now() - start_);
    response["peak_memory_bytes"] = memory_.peak();
    response["batches"] = executor_ != nullptr ? executor_->batches() : 0;
    fctx_->Finish(std::move(response));
  }

  EngineContext* ec_;
  std::shared_ptr<faas::FunctionContext> fctx_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanId input_span_ = obs::kNoSpan;
  obs::SpanId compute_span_ = obs::kNoSpan;
  obs::SpanId output_span_ = obs::kNoSpan;
  CostAccumulator cost_;
  MemoryTracker memory_;
  std::unique_ptr<storage::RetryClient> table_client_;
  std::unique_ptr<storage::RetryClient> shuffle_client_;
  storage::ClientContext storage_ctx_;
  /// Points into the granted plan, which it keeps alive, or at this
  /// task's own parse of its payload.
  std::shared_ptr<const PipelineSpec> pipeline_;
  std::string query_id_;
  int fragment_ = 0;
  int barrier_participants_ = 0;
  std::vector<WorkerInputAssignment> assignments_;
  /// Per input: a build input's accumulated rows; for a table input, an
  /// empty chunk of its projected schema until rows arrive.
  std::vector<std::optional<Chunk>> loaded_;
  std::vector<std::optional<FilterKernel>> pushdown_;  ///< Per input.
  /// Views of one row group's column bytes, handed to the decoder.
  std::vector<std::string_view> column_views_;
  /// One row group's memoised columns, for the filter kernel.
  ExprKernel::ColumnRefs column_refs_;
  /// Per-task recycling pool: decoded row groups, pushdown-spent inputs, and
  /// pipeline morsels all share one free list (single-threaded on the sim
  /// event loop).
  data::ChunkPool chunk_pool_;

  // The streamed input's compute pump.
  std::unique_ptr<FragmentPipeline> executor_;
  std::deque<Chunk> morsels_;
  int64_t morsels_seen_ = 0;
  bool computing_ = false;
  bool finished_ = false;
  bool stream_eof_ = false;
  SimDuration charged_ = 0;

  size_t input_ = 0;  ///< The input being read (see ReadInput).

  // The table reader: the file being read and its row-group cursor.
  size_t file_index_ = 0;
  std::shared_ptr<const format::FileMeta> file_meta_;
  std::vector<std::string> projection_;
  data::Schema projected_;  ///< Schema of projection_.
  std::vector<size_t> survivors_;
  std::deque<ReadOp> pending_reads_;
  std::vector<RangeBytes> ranges_;
  std::vector<int> rg_pieces_;
  std::vector<bool> rg_ready_;
  size_t rg_cursor_ = 0;
  int table_outstanding_ = 0;

  // The shuffle reader: one slot per upstream fragment.
  std::vector<std::vector<Chunk>> shuffle_slots_;
  std::vector<bool> shuffle_done_;
  size_t shuffle_cursor_ = 0;
  size_t shuffle_next_ = 0;
  int shuffle_outstanding_ = 0;

  // Output phase: the pipeline's outputs, then their encoded writes.
  std::vector<FragmentOutput> outputs_;
  struct PendingWrite {
    std::string key;
    Blob blob;
  };
  std::vector<PendingWrite> writes_;
  size_t write_next_ = 0;
  int write_outstanding_ = 0;

  SimTime start_ = 0;
  SimTime input_done_ = 0;
  SimTime compute_done_ = 0;
  int64_t bytes_read_ = 0;
  int64_t bytes_written_ = 0;
  int64_t rows_out_ = 0;
  bool done_ = false;
};

}  // namespace

faas::FunctionHandler MakeWorkerHandler(EngineContext* context) {
  return [context](const std::shared_ptr<faas::FunctionContext>& fctx) {
    auto task = std::make_shared<WorkerTask>(context, fctx);
    task->Run();
  };
}

Json WorkerPayload(const std::string& query_id, const Json& pipeline,
                   int fragment,
                   const std::vector<WorkerInputAssignment>& inputs) {
  Json payload = Json::Object();
  payload["query_id"] = query_id;
  payload["pipeline"] = pipeline;
  payload["fragment"] = fragment;
  Json input_list = Json::Array();
  for (const auto& input : inputs) {
    Json in = Json::Object();
    Json files = Json::Array();
    for (const auto& f : input.files) {
      Json file = Json::Object();
      file["key"] = f.key;
      file["size"] = f.size;
      files.Append(std::move(file));
    }
    in["files"] = std::move(files);
    in["upstream_fragments"] = input.upstream_fragments;
    input_list.Append(std::move(in));
  }
  payload["inputs"] = std::move(input_list);
  return payload;
}

}  // namespace skyrise::engine
