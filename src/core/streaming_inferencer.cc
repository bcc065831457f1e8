#include "core/streaming_inferencer.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fusion/fuse_cache.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "inference/shape_cache.h"
#include "json/jsonl_chunk.h"
#include "json/parser.h"
#include "support/timer.h"
#include "telemetry/telemetry.h"
#include "types/interner.h"

namespace jsonsi::core {

StreamingInferencer::StreamingInferencer(const StreamingOptions& options)
    : options_(options) {
  if (options_.profile) {
    profiler_ = std::make_unique<annotate::SchemaProfiler>();
  }
}

json::MalformedLinePolicy StreamingInferencer::EffectivePolicy() const {
  // The legacy skip_malformed switch maps onto the policy enum unless the
  // caller picked an explicit non-default policy.
  if (options_.skip_malformed &&
      options_.on_malformed == json::MalformedLinePolicy::kFail) {
    return json::MalformedLinePolicy::kSkip;
  }
  return options_.on_malformed;
}

void StreamingInferencer::AddValue(const json::ValueRef& value) {
  types::TypeRef t = inference::InferType(*value);
  if (profiler_) profiler_->Observe(*value, record_count_);
  AddType(std::move(t));
}

void StreamingInferencer::AddType(types::TypeRef type) {
  // Once the watermark fired the distinct-type set is frozen: admitting new
  // hashes is what grows it, so the count becomes a lower bound.
  if (options_.count_distinct_types && !memory_degraded_) {
    distinct_hashes_.insert(type->hash());
  }
  size_t s = type->size();
  if (record_count_ == 0) {
    min_type_size_ = max_type_size_ = s;
  } else {
    min_type_size_ = std::min(min_type_size_, s);
    max_type_size_ = std::max(max_type_size_, s);
  }
  total_type_size_ += static_cast<double>(s);
  Stopwatch fold;
  fuser_.Add(std::move(type));
  fuse_seconds_ += fold.ElapsedSeconds();
  ++record_count_;
  JSONSI_COUNTER("stream.records").Increment();
  // Cheap periodic check; the estimate walks no types, so even every record
  // would be affordable, but 512 keeps it entirely off the hot path.
  if ((record_count_ & 511) == 0) EnforceMemoryBudget();
}

size_t StreamingInferencer::EstimateAuxiliaryMemory() const {
  // Rough, monotone accounting — a soft watermark needs the right order of
  // magnitude, not malloc truth. Per-entry costs approximate libstdc++ node
  // + bucket overhead; types themselves are shared (interned), so containers
  // are charged shallow ownership only.
  size_t bytes = distinct_hashes_.size() * 48;       // 8-byte hash + node
  bytes += fuser_.pending_distinct() * 96;           // (type, count) map node
  bytes += fuser_.slots().capacity() * sizeof(types::TypeRef);
  bytes += types::TypeInterner::Global().stats().size * 96;
  bytes += fusion::FuseCache::Global().stats().size * 128;
  bytes += inference::GetShapeCacheStats().bytes;
  return bytes;
}

void StreamingInferencer::EnforceMemoryBudget() {
  if (options_.soft_memory_limit_bytes == 0) return;
  if (EstimateAuxiliaryMemory() <= options_.soft_memory_limit_bytes) return;
  // Crossed: shed what can be shed without touching the schema. The dedup
  // buffer folds into the O(log n) slots (same reduction result), and the
  // global accelerator tables are pure caches — clearing them only costs
  // future hit rate. The frozen distinct-hash set is released outright; its
  // size() stays meaningful as a lower bound via stats, so keep the set but
  // stop growing it (AddType checks memory_degraded_).
  fuser_.ShrinkToSlots();
  types::TypeInterner::Global().Clear();  // other threads' shape caches too
  fusion::FuseCache::Global().Clear();
  inference::ClearShapeCache();
  if (!memory_degraded_) {
    memory_degraded_ = true;
    JSONSI_COUNTER("stream.memory_degraded").Increment();
  }
  JSONSI_COUNTER("stream.memory_sheds").Increment();
}

void StreamingInferencer::PublishIngestTelemetry() const {
  if (!telemetry::Enabled()) return;
  // Cumulative levels, not deltas: gauges mirror the ingest_stats() report
  // so an exporter snapshot always shows the stream totals, however the
  // input was batched.
  JSONSI_GAUGE("stream.lines_read")
      .Set(static_cast<int64_t>(ingest_stats_.lines_read));
  JSONSI_GAUGE("stream.malformed_lines")
      .Set(static_cast<int64_t>(ingest_stats_.malformed_lines));
}

Status StreamingInferencer::AddJson(std::string_view json_text) {
  // One document = one logical line of the cumulative ingestion report.
  ++ingest_stats_.lines_read;
  ingest_stats_.bytes_read += json_text.size();
  Result<json::ValueRef> value = json::Parse(json_text, options_.parse);
  if (value.ok()) {
    ++ingest_stats_.records;
    ingest_stats_.bytes_consumed = ingest_stats_.bytes_read;
    AddValue(value.value());
    return Status::OK();
  }

  ++ingest_stats_.malformed_lines;
  JSONSI_COUNTER("stream.malformed_documents").Increment();
  PublishIngestTelemetry();
  if (ingest_stats_.errors.size() < options_.max_recorded_errors) {
    ingest_stats_.errors.push_back(json::IngestError{
        ingest_stats_.lines_read, 0, value.status().message()});
  }
  switch (EffectivePolicy()) {
    case json::MalformedLinePolicy::kFail:
      return value.status();
    case json::MalformedLinePolicy::kSkip:
      ingest_stats_.bytes_consumed = ingest_stats_.bytes_read;
      return Status::OK();
    case json::MalformedLinePolicy::kFailAboveRate: {
      uint64_t non_blank =
          ingest_stats_.records + ingest_stats_.malformed_lines;
      if (non_blank >= options_.min_lines_for_rate &&
          static_cast<double>(ingest_stats_.malformed_lines) >
              options_.max_error_rate * static_cast<double>(non_blank)) {
        return Status::ParseError(
            "malformed-document rate " +
            std::to_string(ingest_stats_.malformed_lines) + "/" +
            std::to_string(non_blank) + " exceeds tolerated rate");
      }
      ingest_stats_.bytes_consumed = ingest_stats_.bytes_read;
      return Status::OK();
    }
  }
  return Status::OK();
}

Status StreamingInferencer::AddJsonLines(std::string_view text,
                                         bool end_of_stream) {
  json::IngestOptions ingest;
  ingest.parse = options_.parse;
  ingest.on_malformed = EffectivePolicy();
  ingest.max_error_rate = options_.max_error_rate;
  ingest.min_lines_for_rate = options_.min_lines_for_rate;
  ingest.max_recorded_errors = options_.max_recorded_errors;
  // Rate decisions must see the whole stream, not just this chunk:
  // without the baseline a late 5-line chunk with one bad line would abort
  // a stream that is 99.99% clean, and a rate creeping up across chunks
  // would never trip. ingest_stats_ is only read during the chunk; it is
  // folded forward below, after the read completes.
  ingest.rate_baseline = &ingest_stats_;
  // First-line BOM stripping belongs to the true start of the stream, not to
  // every batch: a follow-up chunk (or a resume at a mid-file offset) must
  // classify its first line exactly as a one-shot read of the whole input.
  ingest.continuation = ingest_stats_.lines_read > 0;
  ingest.end_of_stream = end_of_stream;
  json::IngestStats chunk;
  Status st;
  Stopwatch watch;
  const double fuse_before = fuse_seconds_;
  if (UseDirectIngestion()) {
    // DOM-free fused pass: type each line straight off the token stream,
    // behind the same line machinery (policy, report, rate baseline).
    JSONSI_SPAN("infer.direct");
    json::LineFn fn = [&](std::string_view line) -> Result<bool> {
      Result<types::TypeRef> t =
          inference::DirectInferType(line, ingest.parse);
      if (!t.ok()) return t.status();
      AddType(std::move(t).value());
      return true;
    };
    st = json::IngestJsonLines(text, fn, ingest, &chunk);
  } else {
    st = json::ReadJsonLines(
        text,
        [&](json::ValueRef v) {
          AddValue(v);
          return true;
        },
        ingest, &chunk);
  }
  // AddType timed the folds; the rest of the pass is typing.
  infer_seconds_ += watch.ElapsedSeconds() - (fuse_seconds_ - fuse_before);
  // Accumulate even on failure, so the report covers the aborted chunk.
  ingest_stats_.Absorb(chunk, options_.max_recorded_errors);
  PublishIngestTelemetry();
  return st;
}

engine::ThreadPool& StreamingInferencer::Pool(size_t num_threads) {
  if (!pool_ || pool_->num_threads() != num_threads) {
    pool_ = std::make_unique<engine::ThreadPool>(num_threads);
  }
  pool_->ResetErrors();
  return *pool_;
}

Status StreamingInferencer::FinishStream() {
  if (EffectivePolicy() != json::MalformedLinePolicy::kFailAboveRate) {
    return Status::OK();
  }
  // An empty end-of-stream read: no lines are consumed, only the deferred
  // end-of-read rate validation runs, with the stream's cumulative stats as
  // baseline — so the abort message cites the stream's first recorded error
  // at its global line number, exactly like a one-shot read.
  return AddJsonLines(std::string_view(), /*end_of_stream=*/true);
}

Status StreamingInferencer::AddJsonLinesParallel(std::string_view text,
                                                 size_t num_threads,
                                                 bool end_of_stream) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (num_threads <= 1) return AddJsonLines(text, end_of_stream);
  if (UseDirectIngestion()) {
    return AddJsonLinesParallelDirect(text, num_threads, end_of_stream);
  }
  JSONSI_SPAN("stream.add_parallel");

  json::IngestOptions ingest;
  ingest.parse = options_.parse;
  ingest.on_malformed = EffectivePolicy();
  ingest.max_error_rate = options_.max_error_rate;
  ingest.min_lines_for_rate = options_.min_lines_for_rate;
  ingest.max_recorded_errors = options_.max_recorded_errors;
  // Same cumulative-rate story as AddJsonLines: the replay judges this
  // buffer's malformed lines against the whole stream read so far.
  ingest.rate_baseline = &ingest_stats_;
  // As in AddJsonLines: only the stream's true first line sheds a BOM.
  ingest.continuation = ingest_stats_.lines_read > 0;
  ingest.end_of_stream = end_of_stream;

  Stopwatch watch;
  engine::ThreadPool& pool = Pool(num_threads);
  std::vector<json::ChunkSpan> spans =
      json::SplitJsonLines(text, num_threads * 4);
  std::vector<json::ChunkOutcome> outcomes(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    pool.Submit([&text, &spans, &outcomes, i, &ingest] {
      outcomes[i] = json::ParseJsonLinesChunk(
          text.substr(spans[i].begin, spans[i].size()), ingest.parse,
          ingest.max_recorded_errors, i == 0 && !ingest.continuation);
    });
  }
  pool.Wait();
  JSONSI_RETURN_IF_ERROR(pool.first_error());

  json::IngestStats chunk;
  json::ChunkReplay replay = json::ReplayChunkPolicy(outcomes, ingest, &chunk);
  infer_seconds_ += watch.ElapsedSeconds();
  watch.Reset();

  // Per-chunk inference shards, run on the pool and folded forward in chunk
  // order. Profiling provenance must carry GLOBAL record ordinals (the
  // serial path numbers records across the whole stream), so each shard is
  // seeded with the stream ordinal of its first included record.
  struct Shard {
    fusion::TreeFuser fuser;
    std::unordered_set<uint64_t> hashes;
    std::unique_ptr<annotate::SchemaProfiler> profiler;
    size_t min_size = 0;
    size_t max_size = 0;
    double total_size = 0;
    uint64_t count = 0;
  };
  const size_t included_chunks =
      replay.full_chunks + (replay.partial_records > 0 ? 1 : 0);
  std::vector<Shard> shards(included_chunks);
  uint64_t next_ordinal = record_count_;
  const bool count_distinct = options_.count_distinct_types;
  for (size_t c = 0; c < included_chunks; ++c) {
    const size_t take =
        c < replay.full_chunks
            ? outcomes[c].values.size()
            : std::min(replay.partial_records, outcomes[c].values.size());
    const uint64_t base = next_ordinal;
    next_ordinal += take;
    if (take == 0) continue;
    Shard& shard = shards[c];
    if (profiler_) {
      shard.profiler = std::make_unique<annotate::SchemaProfiler>();
    }
    pool.Submit([&outcomes, &shard, c, take, base, count_distinct] {
      JSONSI_SPAN("pipeline.worker");
      const std::vector<json::ValueRef>& vals = outcomes[c].values;
      for (size_t i = 0; i < take; ++i) {
        types::TypeRef t = inference::InferType(*vals[i]);
        if (count_distinct) shard.hashes.insert(t->hash());
        size_t s = t->size();
        if (shard.count == 0) {
          shard.min_size = shard.max_size = s;
        } else {
          shard.min_size = std::min(shard.min_size, s);
          shard.max_size = std::max(shard.max_size, s);
        }
        shard.total_size += static_cast<double>(s);
        if (shard.profiler) shard.profiler->Observe(*vals[i], base + i);
        shard.fuser.Add(std::move(t));
        ++shard.count;
        JSONSI_COUNTER("stream.records").Increment();
      }
    });
  }
  pool.Wait();
  JSONSI_RETURN_IF_ERROR(pool.first_error());

  // Fold shards in stream order — the same merge Merge() performs for
  // explicit shards, so the snapshot schema matches serial AddJsonLines.
  for (Shard& shard : shards) {
    if (shard.count == 0) continue;
    fuser_.Add(shard.fuser.Finish());
    if (record_count_ == 0) {
      min_type_size_ = shard.min_size;
      max_type_size_ = shard.max_size;
    } else {
      min_type_size_ = std::min(min_type_size_, shard.min_size);
      max_type_size_ = std::max(max_type_size_, shard.max_size);
    }
    total_type_size_ += shard.total_size;
    if (!memory_degraded_) {
      distinct_hashes_.insert(shard.hashes.begin(), shard.hashes.end());
    }
    if (profiler_ && shard.profiler) profiler_->Merge(*shard.profiler);
    record_count_ += shard.count;
  }
  fuse_seconds_ += watch.ElapsedSeconds();
  EnforceMemoryBudget();

  // Accumulate even on failure, so the report covers the aborted buffer.
  ingest_stats_.Absorb(chunk, options_.max_recorded_errors);
  PublishIngestTelemetry();
  if (telemetry::Enabled()) {
    JSONSI_COUNTER("pipeline.parallel.chunks").Add(spans.size());
  }
  return replay.status;
}

Status StreamingInferencer::AddJsonLinesParallelDirect(std::string_view text,
                                                       size_t num_threads,
                                                       bool end_of_stream) {
  JSONSI_SPAN("stream.add_parallel");

  json::IngestOptions ingest;
  ingest.parse = options_.parse;
  ingest.on_malformed = EffectivePolicy();
  ingest.max_error_rate = options_.max_error_rate;
  ingest.min_lines_for_rate = options_.min_lines_for_rate;
  ingest.max_recorded_errors = options_.max_recorded_errors;
  // Same cumulative-rate story as AddJsonLines: the replay judges this
  // buffer's malformed lines against the whole stream read so far.
  ingest.rate_baseline = &ingest_stats_;
  // As in AddJsonLines: only the stream's true first line sheds a BOM.
  ingest.continuation = ingest_stats_.lines_read > 0;
  ingest.end_of_stream = end_of_stream;

  Stopwatch watch;
  engine::ThreadPool& pool = Pool(num_threads);
  std::vector<json::ChunkSpan> spans =
      json::SplitJsonLines(text, num_threads * 4);
  std::vector<inference::TypedChunkOutcome> outcomes(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    pool.Submit([&text, &spans, &outcomes, i, &ingest] {
      outcomes[i] = inference::InferJsonLinesChunk(
          text.substr(spans[i].begin, spans[i].size()), ingest.parse,
          ingest.max_recorded_errors, i == 0 && !ingest.continuation);
    });
  }
  pool.Wait();
  JSONSI_RETURN_IF_ERROR(pool.first_error());

  json::IngestStats chunk;
  json::ChunkReplay replay =
      inference::ReplayChunkPolicy(outcomes, ingest, &chunk);
  infer_seconds_ += watch.ElapsedSeconds();
  watch.Reset();

  // Per-chunk statistics shards, folded forward in chunk order. Simpler
  // than the DOM arm: this path never runs with a profiler, so no global
  // record ordinals are needed.
  struct Shard {
    fusion::TreeFuser fuser;
    std::unordered_set<uint64_t> hashes;
    size_t min_size = 0;
    size_t max_size = 0;
    double total_size = 0;
    uint64_t count = 0;
  };
  const size_t included_chunks =
      replay.full_chunks + (replay.partial_records > 0 ? 1 : 0);
  std::vector<Shard> shards(included_chunks);
  const bool count_distinct = options_.count_distinct_types;
  for (size_t c = 0; c < included_chunks; ++c) {
    const size_t take =
        c < replay.full_chunks
            ? outcomes[c].types.size()
            : std::min(replay.partial_records, outcomes[c].types.size());
    if (take == 0) continue;
    Shard& shard = shards[c];
    pool.Submit([&outcomes, &shard, c, take, count_distinct] {
      JSONSI_SPAN("pipeline.worker");
      std::vector<types::TypeRef>& chunk_types = outcomes[c].types;
      for (size_t i = 0; i < take; ++i) {
        types::TypeRef& t = chunk_types[i];
        if (count_distinct) shard.hashes.insert(t->hash());
        size_t s = t->size();
        if (shard.count == 0) {
          shard.min_size = shard.max_size = s;
        } else {
          shard.min_size = std::min(shard.min_size, s);
          shard.max_size = std::max(shard.max_size, s);
        }
        shard.total_size += static_cast<double>(s);
        shard.fuser.Add(std::move(t));
        ++shard.count;
        JSONSI_COUNTER("stream.records").Increment();
      }
    });
  }
  pool.Wait();
  JSONSI_RETURN_IF_ERROR(pool.first_error());

  // Fold shards in stream order — same merge as the DOM arm, so the
  // snapshot schema matches serial AddJsonLines.
  for (Shard& shard : shards) {
    if (shard.count == 0) continue;
    fuser_.Add(shard.fuser.Finish());
    if (record_count_ == 0) {
      min_type_size_ = shard.min_size;
      max_type_size_ = shard.max_size;
    } else {
      min_type_size_ = std::min(min_type_size_, shard.min_size);
      max_type_size_ = std::max(max_type_size_, shard.max_size);
    }
    total_type_size_ += shard.total_size;
    if (!memory_degraded_) {
      distinct_hashes_.insert(shard.hashes.begin(), shard.hashes.end());
    }
    record_count_ += shard.count;
  }
  fuse_seconds_ += watch.ElapsedSeconds();
  EnforceMemoryBudget();

  // Accumulate even on failure, so the report covers the aborted buffer.
  ingest_stats_.Absorb(chunk, options_.max_recorded_errors);
  PublishIngestTelemetry();
  if (telemetry::Enabled()) {
    JSONSI_COUNTER("pipeline.parallel.chunks").Add(spans.size());
  }
  return replay.status;
}

void StreamingInferencer::Merge(const StreamingInferencer& other) {
  // Fold the other side's outstanding schema in one piece; statistics merge
  // pointwise.
  if (other.record_count_ > 0) {
    fuser_.Add(other.fuser_.Finish());
    if (record_count_ == 0) {
      min_type_size_ = other.min_type_size_;
      max_type_size_ = other.max_type_size_;
    } else {
      min_type_size_ = std::min(min_type_size_, other.min_type_size_);
      max_type_size_ = std::max(max_type_size_, other.max_type_size_);
    }
    total_type_size_ += other.total_type_size_;
  }
  distinct_hashes_.insert(other.distinct_hashes_.begin(),
                          other.distinct_hashes_.end());
  if (profiler_ && other.profiler_) profiler_->Merge(*other.profiler_);
  record_count_ += other.record_count_;
  infer_seconds_ += other.infer_seconds_;
  fuse_seconds_ += other.fuse_seconds_;
  // Shards are distinct streams; their reports concatenate (line numbers
  // shift past this side's totals, like sequential chunks).
  ingest_stats_.Absorb(other.ingest_stats_, options_.max_recorded_errors);
}

Schema StreamingInferencer::Snapshot() const {
  JSONSI_SPAN("stream.snapshot");
  JSONSI_COUNTER("stream.snapshots").Increment();
  PublishIngestTelemetry();
  Schema schema;
  Stopwatch finish;
  schema.type = fuser_.Finish();
  schema.stats.infer_seconds = infer_seconds_;
  schema.stats.fuse_seconds = fuse_seconds_ + finish.ElapsedSeconds();
  schema.stats.record_count = record_count_;
  schema.stats.distinct_type_count = distinct_hashes_.size();
  schema.stats.min_type_size = min_type_size_;
  schema.stats.max_type_size = max_type_size_;
  schema.stats.avg_type_size =
      record_count_ ? total_type_size_ / static_cast<double>(record_count_)
                    : 0.0;
  return schema;
}

}  // namespace jsonsi::core
