// Push-based streaming schema inference.
//
// SchemaInferencer (schema_inferencer.h) is the batch pipeline; this is the
// unbounded-feed counterpart the paper's incremental story calls for:
// records are pushed one at a time (or as raw JSON-Lines text), the running
// schema is maintained in balanced-tree fusion order (O(log n) memory), and
// a consistent snapshot — schema + statistics — can be taken at any moment
// without stopping ingestion. Snapshots are exact: by associativity, the
// snapshot schema equals the batch schema of everything pushed so far.
//
// Two streaming profiles can be enabled:
//   * distinct-type counting (hash-based, 8 bytes per distinct type),
//   * the statistics/provenance profiler of annotate/counted_schema.h.
//
// Text ingestion runs in degraded mode on request: a MalformedLinePolicy
// decides whether a bad line aborts the stream, is skipped, or is skipped
// until bad lines exceed a tolerated rate, and ingest_stats() reports what
// was read, skipped, and where the first errors were.

#ifndef JSONSI_CORE_STREAMING_INFERENCER_H_
#define JSONSI_CORE_STREAMING_INFERENCER_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_set>

#include "annotate/counted_schema.h"
#include "core/schema_inferencer.h"
#include "engine/thread_pool.h"
#include "fusion/tree_fuser.h"
#include "json/jsonl.h"
#include "json/value.h"
#include "support/status.h"
#include "types/type.h"

namespace jsonsi::core {

/// Streaming configuration.
struct StreamingOptions {
  /// Track the number of distinct inferred types (Tables 2-5 metric).
  bool count_distinct_types = true;
  /// Per-document parser budgets, applied identically on the DOM and direct
  /// paths, serial and chunk-parallel: `max_depth` caps nesting,
  /// `max_document_bytes` caps line size (0 = unlimited). A document over
  /// either budget is a malformed line under `on_malformed` — degraded-mode
  /// streams skip it and keep going instead of aborting.
  json::ParseOptions parse;
  /// Soft watermark (bytes, 0 = unlimited) over the inferencer's resident
  /// auxiliary state: the distinct-type hash set, the TreeFuser dedup
  /// buffer, and the process-global interner / fuse-cache tables. When the
  /// estimate crosses the watermark, ingestion keeps going but stops
  /// growing: the dedup buffer is flushed into the O(log n) fusion slots,
  /// the distinct-type set stops admitting new hashes (the count becomes a
  /// lower bound), and the global caches are cleared (identity-preserving —
  /// they are pure accelerators). The schema itself is never dropped.
  size_t soft_memory_limit_bytes = 0;
  /// Maintain the annotated profile (field counts, provenance, value stats).
  /// Costs one extra pass per record.
  bool profile = false;
  /// Legacy switch: when true (and on_malformed is the default kFail),
  /// malformed input is counted and skipped — equivalent to
  /// MalformedLinePolicy::kSkip.
  bool skip_malformed = false;
  /// Degraded-mode policy for AddJson/AddJsonLines; see json/jsonl.h.
  json::MalformedLinePolicy on_malformed = json::MalformedLinePolicy::kFail;
  /// kFailAboveRate knobs (same semantics as json::IngestOptions).
  double max_error_rate = 0.01;
  uint64_t min_lines_for_rate = 100;
  size_t max_recorded_errors = 8;
  /// Ingest AddJsonLines{,Parallel} text DOM-free (inference/direct_infer.h):
  /// types are built straight from the token stream, no json::Value per
  /// line. Policy decisions, reports and the snapshot schema are identical
  /// to the DOM path. Ignored (DOM path used) when `profile` is set — the
  /// profiler needs the parsed values. AddValue/AddJson always use the DOM
  /// path: their inputs are values by definition.
  bool direct_infer = true;
};

/// Accumulates a schema over a pushed stream of records.
class StreamingInferencer {
 public:
  explicit StreamingInferencer(const StreamingOptions& options = {});

  /// Pushes one already-parsed record.
  void AddValue(const json::ValueRef& value);

  /// Parses and pushes one JSON document. Parse errors are handled per the
  /// malformed-line policy: kFail propagates, kSkip records and continues,
  /// kFailAboveRate records and fails once the tolerated rate is exceeded.
  Status AddJson(std::string_view json_text);

  /// Parses and pushes a whole JSON-Lines buffer (blank lines skipped,
  /// CRLF/BOM tolerated, zero-copy line slicing). Chunks may be fed
  /// repeatedly; ingest_stats() accumulates across calls with coherent
  /// line numbers. Passing `end_of_stream = false` marks the buffer as an
  /// interior batch of a longer stream: the end-of-read rate validation is
  /// deferred until a final batch (or FinishStream()) closes the stream,
  /// so a batched feed aborts exactly where a one-shot read would.
  Status AddJsonLines(std::string_view text, bool end_of_stream = true);

  /// As AddJsonLines, but parses and infers the buffer chunk-parallel on
  /// `num_threads` workers (0 = hardware concurrency; <= 1 falls back to
  /// the serial method). Exactly equivalent to AddJsonLines — the degraded-
  /// mode policy is replayed against the cumulative stream (rate_baseline =
  /// ingest_stats()), profiling provenance keeps global record ordinals,
  /// and the snapshot schema is structurally identical by associativity.
  Status AddJsonLinesParallel(std::string_view text, size_t num_threads = 0,
                              bool end_of_stream = true);

  /// Closes a stream fed with `end_of_stream = false` batches: runs the
  /// deferred end-of-stream rate validation against the cumulative stream.
  /// No-op (OK) for other policies or when nothing was deferred.
  Status FinishStream();

  /// Merges another streaming inferencer (e.g. one per shard) into this one.
  /// Exact, by associativity/commutativity of fusion and profile merging.
  /// Distinct-type counts merge exactly (hash-set union).
  void Merge(const StreamingInferencer& other);

  /// Consistent snapshot of the current schema + statistics. O(log n) fuse
  /// work; ingestion may continue afterwards. The stats' infer/fuse seconds
  /// cover this object's text ingestion so far (not restored from a
  /// checkpoint): typing and policy replay, then folding.
  Schema Snapshot() const;

  /// Records successfully ingested so far.
  uint64_t record_count() const { return record_count_; }
  /// Text inputs rejected so far (only grows under kSkip/kFailAboveRate, or
  /// with the legacy skip_malformed switch).
  uint64_t malformed_count() const { return ingest_stats_.malformed_lines; }

  /// Cumulative text-ingestion report (AddJson + AddJsonLines).
  /// `ingest_stats().bytes_consumed` is the stream's exact resume offset —
  /// the byte just past the last fully-processed line — and is what a
  /// checkpoint records as the position to restart reading from.
  const json::IngestStats& ingest_stats() const { return ingest_stats_; }

  /// The annotated profile; nullptr unless options.profile was set.
  const annotate::SchemaProfiler* profiler() const { return profiler_.get(); }

  /// The streaming configuration this inferencer was built with.
  const StreamingOptions& options() const { return options_; }

  /// True once the soft memory watermark fired (see
  /// StreamingOptions::soft_memory_limit_bytes); the distinct-type count is
  /// a lower bound from then on.
  bool memory_degraded() const { return memory_degraded_; }

  /// Rough byte estimate of the resident auxiliary state the soft watermark
  /// governs: hash set, dedup buffer, and the process-global caches
  /// (interner, fuse cache, every thread's shape cache).
  size_t EstimateAuxiliaryMemory() const;

 private:
  // Crash-safe snapshot/restore of the full stream state (core/checkpoint.h
  // owns the on-disk format; it reads and writes the private fields below).
  friend Result<std::string> SerializeCheckpoint(
      const StreamingInferencer& inferencer);
  friend Status RestoreCheckpoint(std::string_view text,
                                  StreamingInferencer* inferencer);

  json::MalformedLinePolicy EffectivePolicy() const;
  /// True when text ingestion should run DOM-free.
  bool UseDirectIngestion() const {
    return options_.direct_infer && !profiler_;
  }
  /// Folds one inferred type into the running schema and statistics — the
  /// shared tail of AddValue (DOM) and the direct ingestion paths.
  void AddType(types::TypeRef type);
  /// DOM-free chunk-parallel ingestion (AddJsonLinesParallel's direct arm).
  Status AddJsonLinesParallelDirect(std::string_view text, size_t num_threads,
                                    bool end_of_stream);
  /// The stream's worker pool, (re)built only when the thread count
  /// changes, so worker threads — and their thread-local shape caches and
  /// hit-rate probes — live across batches. Its error channel is reset.
  engine::ThreadPool& Pool(size_t num_threads);
  /// Mirrors the cumulative ingestion report into stream.* gauges (no-op
  /// while telemetry is disabled).
  void PublishIngestTelemetry() const;
  /// Checks the soft watermark and sheds state once when it is crossed.
  void EnforceMemoryBudget();

  StreamingOptions options_;
  fusion::TreeFuser fuser_;
  std::unordered_set<uint64_t> distinct_hashes_;
  std::unique_ptr<annotate::SchemaProfiler> profiler_;
  json::IngestStats ingest_stats_;
  uint64_t record_count_ = 0;
  // Running size stats over inferred types.
  size_t min_type_size_ = 0;
  size_t max_type_size_ = 0;
  double total_type_size_ = 0;
  // Sticky soft-watermark latch: once crossed, the distinct-type set stops
  // growing and the dedup buffer stays flushed.
  bool memory_degraded_ = false;
  // Wall-clock of text ingestion: typing (with the policy replay) and
  // folding, reported by Snapshot().
  double infer_seconds_ = 0;
  double fuse_seconds_ = 0;
  std::unique_ptr<engine::ThreadPool> pool_;
};

}  // namespace jsonsi::core

#endif  // JSONSI_CORE_STREAMING_INFERENCER_H_
