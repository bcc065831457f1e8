#include "inference/shape_cache.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "support/hash.h"
#include "types/interner.h"

namespace jsonsi::inference {

namespace {

// Room past the signature cap for the token that crosses it.
constexpr size_t kSignatureBufferBytes = kShapeSignatureMaxBytes + 64;
// The byte cap split between a table of at most kMaxSlots slots (half of
// them live) and the signature arena, so neither can starve the other.
constexpr size_t kInitialSlots = 64;
constexpr size_t kMaxSlots = 2048;

// Live caches (for GetShapeCacheStats) plus the counters of exited threads.
struct Registry {
  std::mutex mu;
  std::vector<const ShapeCache*> live;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bypassed = 0;
};

Registry& TheRegistry() {
  static Registry* registry = new Registry();  // outlives thread_locals
  return *registry;
}

}  // namespace

ShapeCache& ShapeCache::ForThisThread() {
  thread_local ShapeCache cache;
  return cache;
}

ShapeCache::ShapeCache()
    : generation_(types::TypeInterner::Global().generation()) {
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.live.push_back(this);
}

ShapeCache::~ShapeCache() {
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.hits += hits_.load(std::memory_order_relaxed);
  r.misses += misses_.load(std::memory_order_relaxed);
  r.bypassed += bypassed_.load(std::memory_order_relaxed);
  r.live.erase(std::find(r.live.begin(), r.live.end(), this));
}

bool ShapeCache::Admit() {
  if (bypass_left_ == 0) return true;
  --bypass_left_;
  Bump(bypassed_);
  return false;
}

void ShapeCache::Record(bool hit) {
  Bump(hit ? hits_ : misses_);
  ++window_lookups_;
  window_hits_ += hit ? 1 : 0;
  if (2 * (window_lookups_ - window_hits_) > kShapeProbeWindow) {
    // The window can no longer reach a one-half hit rate: decide now, so a
    // shape-diverse stream pays half a window per probe, not a whole one.
    bypass_left_ = next_bypass_;
    next_bypass_ = std::min(next_bypass_ * 2, kShapeMaxBypass);
  } else if (window_lookups_ == kShapeProbeWindow) {
    next_bypass_ = kShapeMinBypass;
  } else {
    return;
  }
  window_lookups_ = 0;
  window_hits_ = 0;
}

void ShapeCache::DropIfStale() {
  const uint64_t generation = types::TypeInterner::Global().generation();
  if (generation == generation_) return;
  Clear();
  generation_ = generation;
}

const types::TypeRef* ShapeCache::Find(uint64_t hash,
                                       std::string_view signature) {
  DropIfStale();
  if (!slots_.empty()) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.hash == 0) break;
      if (s.hash == hash && s.length == signature.size() &&
          std::memcmp(arena_.data() + s.offset, signature.data(),
                      signature.size()) == 0) {
        Record(/*hit=*/true);
        return &s.type;
      }
    }
  }
  Record(/*hit=*/false);
  return nullptr;
}

void ShapeCache::Insert(uint64_t hash, std::string_view signature,
                        const types::TypeRef& type) {
  constexpr size_t kArenaMaxBytes =
      kShapeCacheMaxBytes - kMaxSlots * sizeof(Slot) - kSignatureBufferBytes;
  static_assert(kShapeSignatureMaxBytes < kArenaMaxBytes);
  if ((live_ + 1) * 2 > kMaxSlots ||
      arena_.size() + signature.size() > kArenaMaxBytes) {
    Clear();  // flush when full: the probe turns a thrashing cache off
  }
  size_t slots = std::max(slots_.size(), kInitialSlots);
  if ((live_ + 1) * 2 > slots) slots *= 2;  // keep the load under 1/2
  if (slots != slots_.size()) Rehash(slots);
  if (arena_.size() + signature.size() > arena_.capacity()) {
    // Geometric growth, clamped to the arena's share of the cap
    // (vector::reserve allocates exactly what it is asked for).
    arena_.reserve(std::min(
        kArenaMaxBytes,
        std::max(arena_.size() + signature.size(),
                 std::max<size_t>(4096, 2 * arena_.capacity()))));
  }
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].hash != 0) i = (i + 1) & mask;
  slots_[i].hash = hash;
  slots_[i].offset = static_cast<uint32_t>(arena_.size());
  slots_[i].length = static_cast<uint32_t>(signature.size());
  slots_[i].type = type;
  arena_.insert(arena_.end(), signature.begin(), signature.end());
  ++live_;
  PublishSize();
}

void ShapeCache::Rehash(size_t slots) {
  std::vector<Slot> old = std::move(slots_);
  slots_ = std::vector<Slot>(slots);
  const size_t mask = slots - 1;
  for (Slot& s : old) {
    if (s.hash == 0) continue;
    size_t i = s.hash & mask;
    while (slots_[i].hash != 0) i = (i + 1) & mask;
    slots_[i] = std::move(s);
  }
}

std::string& ShapeCache::SignatureBuffer() {
  if (sig_buf_.capacity() < kSignatureBufferBytes) {
    sig_buf_.reserve(kSignatureBufferBytes);
    PublishSize();
  }
  return sig_buf_;
}

void ShapeCache::Clear() {
  std::vector<Slot>().swap(slots_);
  std::vector<char>().swap(arena_);
  live_ = 0;
  PublishSize();
}

void ShapeCache::Release() {
  std::string().swap(sig_buf_);
  Clear();
  window_lookups_ = 0;
  window_hits_ = 0;
  bypass_left_ = 0;
  next_bypass_ = kShapeMinBypass;
}

void ShapeCache::PublishSize() {
  // An empty string's capacity is its inline buffer, not heap.
  const size_t sig_buf =
      sig_buf_.capacity() > std::string().capacity() ? sig_buf_.capacity() : 0;
  entries_.store(live_, std::memory_order_relaxed);
  bytes_.store(slots_.capacity() * sizeof(Slot) + arena_.capacity() + sig_buf,
               std::memory_order_relaxed);
}

uint64_t ShapeCache::Hash(std::string_view signature) {
  // Word-at-a-time multiply-xorshift; the final Mix64 spreads the low bits
  // that pick the slot.
  uint64_t h = signature.size() * 0x9e3779b97f4a7c15ULL;
  size_t i = 0;
  for (; i + 8 <= signature.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, signature.data() + i, 8);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  if (i < signature.size()) {
    uint64_t w = 0;
    std::memcpy(&w, signature.data() + i, signature.size() - i);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
  }
  h = Mix64(h);
  return h == 0 ? 1 : h;
}

ShapeCacheStats GetShapeCacheStats() {
  Registry& r = TheRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  ShapeCacheStats s;
  s.hits = r.hits;
  s.misses = r.misses;
  s.bypassed = r.bypassed;
  for (const ShapeCache* c : r.live) {
    s.hits += c->hits_.load(std::memory_order_relaxed);
    s.misses += c->misses_.load(std::memory_order_relaxed);
    s.bypassed += c->bypassed_.load(std::memory_order_relaxed);
    s.entries += c->entries_.load(std::memory_order_relaxed);
    s.bytes += c->bytes_.load(std::memory_order_relaxed);
  }
  return s;
}

void ClearShapeCache() { ShapeCache::ForThisThread().Release(); }

}  // namespace jsonsi::inference
