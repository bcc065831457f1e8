// Shape-keyed type cache: the Map phase's answer for a record shape it has
// already typed.
//
// Real JSON-Lines streams repeat a handful of record shapes — 200K GitHub
// events carry ~250 distinct ones — yet DirectInferType rebuilds and
// re-interns the full type tree of every record. The plain (non-annotating)
// DirectInferType therefore first runs a tokenizer-only pass that writes the
// record's *signature*: every token kind plus the raw bytes of every record
// key, prefixed by the ParseOptions fields that can change the outcome. Two
// documents with equal signatures lex to the same token sequence and the
// same keys, so the full inference pass would build the same type (or fail
// the same way) on both. A hit returns the cached canonical TypeRef; a miss
// — or a tokenizer error — runs the full inference pass, so error text
// never comes from the cache, and only successes are inserted.
//
// Design constraints:
//   * Exact: entries are compared byte for byte, never by hash alone, and
//     the signature pass is the same json::Tokenizer that pass uses, so
//     every scalar is validated exactly as before (tests/direct_infer_test.cc
//     and fuzz/differential_fuzz.cc check hits against the DOM path).
//   * Thread-local and lock-free: each thread owns its cache, so a hit takes
//     no lock and allocates nothing.
//   * Bounded in bytes: a thread's table, signature arena and signature buffer
//     stay under kShapeCacheMaxBytes; an insert that would cross it flushes
//     the table first. Nothing is allocated before a thread's first lookup.
//   * Adaptive: a fixed window of kShapeProbeWindow lookups measures the
//     hit rate; below one half the thread bypasses the signature pass for a
//     run of records that doubles on every failed window (shape-diverse
//     streams like Wikidata pay a few windows, not a second tokenize per
//     record).
//   * Coherent with interning: the cache is on only while interning is
//     (`jsi --no-intern` turns it off with the rest of the memo stack), and
//     a TypeInterner::Global().Clear() invalidates every thread's entries.

#ifndef JSONSI_INFERENCE_SHAPE_CACHE_H_
#define JSONSI_INFERENCE_SHAPE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "types/type.h"

namespace jsonsi::inference {

/// Per-thread byte cap over table slots, signature arena and signature buffer.
inline constexpr size_t kShapeCacheMaxBytes = 256 << 10;
/// Signatures longer than this are not cached (the record is typed in full).
inline constexpr size_t kShapeSignatureMaxBytes = 16 << 10;
/// Lookups per hit-rate window.
inline constexpr uint32_t kShapeProbeWindow = 256;
/// Records bypassed after the first failed window; doubles per failed
/// window up to kShapeMaxBypass, and resets once a window passes.
inline constexpr uint64_t kShapeMinBypass = 2048;
inline constexpr uint64_t kShapeMaxBypass = uint64_t{1} << 20;

/// Process-wide accounting over every thread's cache. Counters are
/// cumulative since start-up (exited threads included); `entries` and
/// `bytes` cover the caches of live threads.
struct ShapeCacheStats {
  uint64_t hits = 0;      // lookups answered from a cache
  uint64_t misses = 0;    // lookups typed in full (then inserted if valid)
  uint64_t bypassed = 0;  // records the hit-rate probe sent straight through
  size_t entries = 0;
  size_t bytes = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

ShapeCacheStats GetShapeCacheStats();

/// Starts the calling thread's cache over: entries and memory are dropped
/// now and the hit-rate probe is reset. Other threads' caches drop their
/// entries on their next lookup after a TypeInterner::Global().Clear();
/// memory-budget enforcement calls both.
void ClearShapeCache();

/// One thread's cache. Used by DirectInferType; not thread-safe by design
/// (ForThisThread hands each thread its own).
class ShapeCache {
 public:
  static ShapeCache& ForThisThread();

  ShapeCache(const ShapeCache&) = delete;
  ShapeCache& operator=(const ShapeCache&) = delete;

  /// False while the hit-rate probe bypasses the cache (the record is
  /// counted as bypassed and must be typed without a lookup).
  bool Admit();

  /// The cached type for `signature`, or nullptr; counts a hit or a miss.
  const types::TypeRef* Find(uint64_t hash, std::string_view signature);
  /// Counts a miss for a record that produced no signature.
  void RecordMiss() { Record(/*hit=*/false); }

  /// Caches `type` under `signature` (flushing the table first when the
  /// byte cap would be crossed).
  void Insert(uint64_t hash, std::string_view signature,
              const types::TypeRef& type);

  /// Reused signature buffer, reserved once past kShapeSignatureMaxBytes.
  std::string& SignatureBuffer();

  /// Drops every entry, the signature buffer and the probe state: the
  /// thread's cache holds no memory and admits the next record.
  void Release();

  /// Hash of a signature; never 0 (0 marks an empty slot).
  static uint64_t Hash(std::string_view signature);

 private:
  friend ShapeCacheStats GetShapeCacheStats();

  struct Slot {
    uint64_t hash = 0;
    uint32_t offset = 0;
    uint32_t length = 0;
    types::TypeRef type;
  };

  // Registers in / retires from the process-wide stats registry.
  ShapeCache();
  ~ShapeCache();

  void Record(bool hit);
  void Clear();  // drops every entry; the signature buffer stays
  void DropIfStale();
  void Rehash(size_t slots);
  void PublishSize();
  // Owner-only writes to counters another thread may read.
  static void Bump(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  std::vector<Slot> slots_;  // open addressing, power-of-two size
  std::vector<char> arena_;  // concatenated signatures
  std::string sig_buf_;
  size_t live_ = 0;
  uint64_t generation_ = 0;  // TypeInterner::Global().generation() at fill

  // Hit-rate probe.
  uint32_t window_lookups_ = 0;
  uint32_t window_hits_ = 0;
  uint64_t bypass_left_ = 0;
  uint64_t next_bypass_ = kShapeMinBypass;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> bypassed_{0};
  std::atomic<size_t> entries_{0};
  std::atomic<size_t> bytes_{0};
};

}  // namespace jsonsi::inference

#endif  // JSONSI_INFERENCE_SHAPE_CACHE_H_
