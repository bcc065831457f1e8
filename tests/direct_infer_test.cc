// Differential tests for the DOM-free direct inference kernel
// (inference/direct_infer.h): DirectInferType must be observationally
// equivalent to the composed pipeline InferType(*Parse(text)) — same types
// (TypeEquals), and on malformed input the *same Status*, message and
// position byte-for-byte. The suite drives both paths over the datagen
// corpora, an adversarial gallery, every truncation of a nested document,
// all malformed-line policies through SchemaInferencer, the chunk-parallel
// path, the streaming inferencer, the infer.direct.* telemetry contract
// (default path never materializes a json::Value), and the shape cache's
// hit path (inference/shape_cache.h), which must be just as exact.

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/schema_inferencer.h"
#include "core/streaming_inferencer.h"
#include "datagen/generator.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "inference/shape_cache.h"
#include "json/parser.h"
#include "json/serializer.h"
#include "telemetry/telemetry.h"
#include "types/interner.h"
#include "types/printer.h"
#include "types/type.h"

namespace jsonsi {
namespace {

using core::InferenceOptions;
using core::SchemaInferencer;
using core::StreamingInferencer;
using core::StreamingOptions;
using inference::DirectInferType;
using json::MalformedLinePolicy;
using json::ParseOptions;

// Runs both pipelines on one document and asserts observational
// equivalence: equal types when both succeed, equal Status (code and
// message, hence position) when both fail, and never a split verdict.
void ExpectParity(std::string_view text, const ParseOptions& options = {}) {
  auto direct = DirectInferType(text, options);
  auto parsed = json::Parse(text, options);
  if (parsed.ok()) {
    ASSERT_TRUE(direct.ok())
        << "direct failed where parse succeeded on: " << text << "\n  "
        << direct.status().message();
    auto via_dom = inference::InferType(*parsed.value());
    EXPECT_TRUE(types::TypeEquals(direct.value(), via_dom))
        << "type mismatch on: " << text << "\n  direct: "
        << types::ToString(*direct.value())
        << "\n  dom:    " << types::ToString(*via_dom);
  } else {
    ASSERT_FALSE(direct.ok())
        << "direct succeeded where parse failed on: " << text
        << "\n  parse error: " << parsed.status().message();
    EXPECT_EQ(direct.status(), parsed.status()) << "on: " << text;
  }
}

TEST(DirectInferTest, ScalarsAndEmptyContainers) {
  for (std::string_view text :
       {"null", "true", "false", "0", "-1", "3.25", "1e6", "-2.5E-3",
        "\"\"", "\"abc\"", "{}", "[]", "  42  ", "\t\"x\"\n"}) {
    ExpectParity(text);
  }
}

TEST(DirectInferTest, NestedStructures) {
  for (std::string_view text :
       {R"({"a":1})", R"({"a":1,"b":"x"})", R"({"b":1,"a":2})",
        R"([1,2,3])", R"([1,"a",null,true])", R"([[1],[2,3],[]])",
        R"({"a":{"b":{"c":[]}}})", R"([{"a":1},{"a":2,"b":3}])",
        R"({"k":[{"x":null}],"m":{}})",
        R"({"esc":"a\nb\t\"c\"\\d\/e\u0041\uD83D\uDE00"})"}) {
    ExpectParity(text);
  }
}

// Every document of the adversarial gallery; the shape-cache tests replay
// it so each well-formed line is answered from the cache.
const std::vector<std::string_view>& AdversarialGallery() {
  static const std::vector<std::string_view> gallery = {
      // Literals and numbers.
      "nul", "truex", "fals", "01", "1.", "1e", "1e+", "-", "+1",
      ".5", "1e999", "--1", "1.2.3",
      // Strings and escapes.
      "\"abc", "\"a\\", "\"a\\q\"", "\"a\nb\"", "\"\\u12\"",
      "\"\\uZZZZ\"", "\"\\uD800x\"", "\"\\uD800\\u0041\"",
      "\"\\uDC00\"",
      // Records.
      "{", "{}x", "{\"a\"}", "{\"a\":}", "{\"a\" 1}", "{\"a\":1,}",
      "{\"a\":1 \"b\":2}", "{1:2}", "{\"a\":1,\"a\":2}",
      "{\"a\":1,\"b\":2,\"a\":3}", "{\"\\u0041\":1,\"A\":2}",
      // Arrays.
      "[", "[1,]", "[1 2]", "[,1]", "[1,2", "]", "}",
      // Top level.
      "", "   ", "1 2", "{} {}", ":", ",",
  };
  return gallery;
}

TEST(DirectInferTest, AdversarialGalleryMatchesParserErrors) {
  for (std::string_view text : AdversarialGallery()) ExpectParity(text);
}

TEST(DirectInferTest, DepthLimitParity) {
  ParseOptions shallow;
  shallow.max_depth = 4;
  for (std::string_view text :
       {"[[[[1]]]]", "[[[[[1]]]]]", R"({"a":{"b":{"c":{"d":1}}}})",
        R"({"a":{"b":{"c":{"d":{"e":1}}}}})", R"([{"a":[{"b":1}]}])"}) {
    ExpectParity(text, shallow);
    ExpectParity(text);  // default depth for good measure
  }
}

TEST(DirectInferTest, DocumentBudgetParity) {
  ParseOptions tight;
  tight.max_document_bytes = 16;
  for (std::string_view text :
       {"{\"key\":\"a much longer document\"}", "[1,2,3,4,5,6,7,8,9,10]",
        "\"exactly seventeen\"", "{\"a\":1}", "null", ""}) {
    ExpectParity(text, tight);
    ExpectParity(text);  // unlimited budget for good measure
  }
  // A document of exactly the limit is admitted.
  ParseOptions exact;
  exact.max_document_bytes = 7;
  ExpectParity("{\"a\":1}", exact);
  auto ok = DirectInferType("{\"a\":1}", exact);
  EXPECT_TRUE(ok.ok()) << ok.status().message();
}

TEST(DirectInferTest, TrailingContentOptionParity) {
  ParseOptions lenient;
  lenient.allow_trailing_content = true;
  for (std::string_view text : {"1 2", "{} {\"a\":1}", "null trailing",
                                "[1]   ", "\"x\"y"}) {
    ExpectParity(text, lenient);
  }
}

TEST(DirectInferTest, EveryTruncationOfANestedDocument) {
  const std::string doc =
      R"({"id":17,"tags":["a","b\u00e9"],"meta":{"ok":true,"note":null},)"
      R"("score":-1.5e2})";
  for (size_t n = 0; n <= doc.size(); ++n) {
    ExpectParity(std::string_view(doc).substr(0, n));
  }
}

TEST(DirectInferTest, DatagenDifferentialWithAndWithoutInterning) {
  for (auto id : {datagen::DatasetId::kGitHub, datagen::DatasetId::kTwitter,
                  datagen::DatasetId::kWikidata,
                  datagen::DatasetId::kNYTimes}) {
    auto values = datagen::MakeGenerator(id, 7)->GenerateMany(200);
    for (bool intern : {true, false}) {
      types::ScopedInterning scope(intern);
      for (const auto& v : values) {
        const std::string text = json::ToJson(v);
        auto direct = DirectInferType(text);
        ASSERT_TRUE(direct.ok()) << direct.status().message();
        EXPECT_TRUE(
            types::TypeEquals(direct.value(), inference::InferType(*v)))
            << "intern=" << intern << " on: " << text;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shape cache: a hit must be exactly what the full pass would return. The
// benchmark's reference run goes through the cache too, so only these
// differential checks can catch a wrong hit.

// Runs `text` twice on a fresh thread cache: the first call misses (and
// inserts when well-formed), the second hits. Both must match the DOM path,
// and the hit must be the miss's canonical node.
void ExpectCachedParity(std::string_view text,
                        const ParseOptions& options = {}) {
  inference::ClearShapeCache();
  ExpectParity(text, options);
  const uint64_t hits = inference::GetShapeCacheStats().hits;
  ExpectParity(text, options);
  const bool well_formed = json::Parse(text, options).ok();
  EXPECT_EQ(inference::GetShapeCacheStats().hits, hits + (well_formed ? 1 : 0))
      << "on: " << text;
  if (well_formed) {
    EXPECT_EQ(DirectInferType(text, options).value().get(),
              DirectInferType(text, options).value().get());
  }
}

TEST(ShapeCacheTest, GalleryTwiceMatchesDom) {
  for (std::string_view text : AdversarialGallery()) ExpectCachedParity(text);
  for (std::string_view text :
       {"null", "true", "0", "\"\"", "{}", "[]", "  42  ", R"({"a":1})",
        R"({"b":1,"a":2})", R"([1,"a",null,true])", R"([[1],[2,3],[]])",
        R"({"a":{"b":{"c":[]}}})", R"([{"a":1},{"a":2,"b":3}])",
        R"({"esc":"a\nb\t\"c\"\\d\/e\u0041\uD83D\uDE00"})",
        R"({"\u0041":1,"B":[{"x":null}]})"}) {
    ExpectCachedParity(text);
  }
}

// Pairs of documents with one signature (or one up to key escapes) that
// must not share a verdict: the second runs against a cache primed by the
// first.
void ExpectTwinParity(std::string_view first, std::string_view second,
                      const ParseOptions& first_options = {},
                      const ParseOptions& second_options = {}) {
  inference::ClearShapeCache();
  ExpectParity(first, first_options);
  ExpectParity(second, second_options);
}

TEST(ShapeCacheTest, MalformedScalarTwinsMiss) {
  const char* good = R"({"a":0,"b":"x","c":true})";
  for (std::string_view bad :
       {R"({"a":01,"b":"x","c":true})", R"({"a":0,"b":"\q","c":true})",
        R"({"a":0,"b":"x","c":tru})", R"({"a":1e,"b":"x","c":true})",
        R"({"a":0,"b":"\uD800","c":true})",
        "{\"a\":0,\"b\":\"\x01\",\"c\":true}",
        R"({"a":0,"b":"x","c":true} x)"}) {
    ExpectTwinParity(good, bad);
  }
  // True and false share a signature code and a type.
  ExpectTwinParity(R"({"c":true})", R"({"c":false})");
}

TEST(ShapeCacheTest, EscapedEqualKeysAreNotConfused) {
  ExpectTwinParity(R"({"a":1,"b":2})", R"({"a":1,"\u0061":2})");
  ExpectTwinParity(R"({"a":1})", R"({"\u0061":1})");
  ExpectTwinParity(R"({"\u0061":1})", R"({"a":1})");
  ExpectTwinParity(R"({"ab":1,"c":2})", R"({"a":1,"bc":2})");
}

TEST(ShapeCacheTest, DocumentBudgetTwins) {
  ParseOptions tight;
  tight.max_document_bytes = 16;
  // Same signature, lengths 15, 16 and 17 bytes.
  for (std::string_view doc : {R"({"a":1,"b":123})", R"({"a":1,"b":1234})",
                               R"({"a":1,"b":12345})"}) {
    ExpectTwinParity(R"({"a":1,"b":2})", doc, tight, tight);
    ExpectTwinParity(R"({"a":1,"b":123456789})", doc, ParseOptions{}, tight);
  }
}

TEST(ShapeCacheTest, OptionTwinsDoNotShareEntries) {
  ParseOptions shallow;
  shallow.max_depth = 1;
  ExpectTwinParity("[[1]]", "[[1]]", ParseOptions{}, shallow);
  ExpectTwinParity("[1]", "[1]", shallow, ParseOptions{});
  ExpectTwinParity(R"({"a":{}})", R"({"a":{}})", ParseOptions{}, shallow);
  ParseOptions lenient;
  lenient.allow_trailing_content = true;
  ExpectTwinParity("{} 1", "{} 1", lenient, ParseOptions{});
  ExpectTwinParity("[1] [", "[1] [", lenient, ParseOptions{});
}

TEST(ShapeCacheTest, OffWithInterning) {
  types::ScopedInterning off(false);
  inference::ClearShapeCache();
  const auto before = inference::GetShapeCacheStats();
  for (int i = 0; i < 3; ++i) ExpectParity(R"({"a":[1,{"b":null}]})");
  const auto after = inference::GetShapeCacheStats();
  EXPECT_EQ(after.hits + after.misses + after.bypassed,
            before.hits + before.misses + before.bypassed);
}

TEST(ShapeCacheTest, DiverseStreamIsBypassedAndRepeatsHit) {
  inference::ClearShapeCache();
  auto before = inference::GetShapeCacheStats();
  // Every document a new shape: the probe gives up after half a window.
  for (size_t i = 0; i < inference::kShapeProbeWindow; ++i) {
    const std::string doc = "{\"k" + std::to_string(i) + "\":1}";
    ASSERT_TRUE(DirectInferType(doc).ok());
  }
  auto after = inference::GetShapeCacheStats();
  EXPECT_EQ(after.misses - before.misses, inference::kShapeProbeWindow / 2 + 1);
  EXPECT_EQ(after.bypassed - before.bypassed,
            inference::kShapeProbeWindow / 2 - 1);
  // A repetitive stream keeps the cache on.
  inference::ClearShapeCache();
  before = inference::GetShapeCacheStats();
  for (size_t i = 0; i < 4 * inference::kShapeProbeWindow; ++i) {
    ASSERT_TRUE(DirectInferType(R"({"id":7,"tags":["x"]})").ok());
  }
  after = inference::GetShapeCacheStats();
  EXPECT_EQ(after.bypassed, before.bypassed);
  EXPECT_EQ(after.misses - before.misses, 1u);
}

TEST(ShapeCacheTest, ByteCapHolds) {
  inference::ClearShapeCache();
  const auto before = inference::GetShapeCacheStats();
  size_t flushes = 0;
  size_t entries = 0;
  for (size_t i = 0; i < 4000; ++i) {
    // Long distinct keys: the table flushes instead of growing past the cap.
    const std::string doc =
        "{\"" + std::string(200, 'k') + std::to_string(i) + "\":1}";
    ASSERT_TRUE(DirectInferType(doc).ok());
    // Two hits per miss keep the hit-rate probe from bypassing the cache.
    ASSERT_TRUE(DirectInferType(doc).ok());
    ASSERT_TRUE(DirectInferType(doc).ok());
    const auto now = inference::GetShapeCacheStats();
    ASSERT_LE(now.bytes, inference::kShapeCacheMaxBytes);
    if (now.entries < entries) ++flushes;
    entries = now.entries;
  }
  EXPECT_GT(flushes, 0u);
  EXPECT_EQ(inference::GetShapeCacheStats().bypassed, before.bypassed);
}

TEST(ShapeCacheTest, MemoryBudgetClearsAndCountsTheCache) {
  types::TypeInterner::Global().Clear();
  inference::ClearShapeCache();
  std::string text;
  for (int i = 0; i < 512; ++i) text += R"({"a":1,"b":[true]})" "\n";

  StreamingInferencer unbounded;
  ASSERT_TRUE(unbounded.AddJsonLines(text).ok());
  const inference::ShapeCacheStats filled = inference::GetShapeCacheStats();
  ASSERT_GT(filled.entries, 0u);
  ASSERT_GT(filled.bytes, 0u);
  const size_t with_cache = unbounded.EstimateAuxiliaryMemory();
  inference::ClearShapeCache();
  EXPECT_EQ(with_cache - unbounded.EstimateAuxiliaryMemory(), filled.bytes);

  // The 512th record trips the watermark check, which sheds the cache.
  StreamingOptions tight;
  tight.soft_memory_limit_bytes = 1;
  StreamingInferencer bounded(tight);
  ASSERT_TRUE(bounded.AddJsonLines(text).ok());
  EXPECT_TRUE(bounded.memory_degraded());
  EXPECT_EQ(inference::GetShapeCacheStats().entries, 0u);
  EXPECT_EQ(inference::GetShapeCacheStats().bytes, 0u);
  EXPECT_TRUE(types::TypeEquals(bounded.Snapshot().type,
                                unbounded.Snapshot().type));
}

TEST(ShapeCacheTest, InternerClearInvalidatesEntries) {
  inference::ClearShapeCache();
  const std::string doc = R"({"a":[{"b":1}]})";
  const types::TypeRef cached = DirectInferType(doc).value();
  EXPECT_EQ(DirectInferType(doc).value().get(), cached.get());
  types::TypeInterner::Global().Clear();
  // A fresh representative, as the interner now hands out.
  const types::TypeRef fresh = DirectInferType(doc).value();
  EXPECT_NE(fresh.get(), cached.get());
  EXPECT_TRUE(types::TypeEquals(fresh, cached));
  EXPECT_EQ(fresh.get(), inference::InferType(*json::Parse(doc).value()).get());
}

// TSan target: threads share shapes (and the interner) while another thread
// clears the interner and reads the cache statistics.
TEST(ShapeCacheTest, ConcurrentThreadsShareShapes) {
  std::vector<std::string> lines;
  std::vector<types::TypeRef> expected;
  for (auto id : {datagen::DatasetId::kGitHub, datagen::DatasetId::kTwitter}) {
    for (const auto& v : datagen::MakeGenerator(id, 13)->GenerateMany(24)) {
      lines.push_back(json::ToJson(v));
      expected.push_back(inference::InferType(*v));
    }
  }
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 40; ++round) {
        for (size_t i = 0; i < lines.size(); ++i) {
          const size_t k = (i + static_cast<size_t>(w) * 7) % lines.size();
          auto t = DirectInferType(lines[k]);
          if (!t.ok() || !types::TypeEquals(t.value(), expected[k])) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread churn([&] {
    while (!done.load()) {
      types::TypeInterner::Global().Clear();
      (void)inference::GetShapeCacheStats();
      std::this_thread::yield();
    }
  });
  for (std::thread& t : workers) t.join();
  done.store(true);
  churn.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Pipeline-level equivalence: SchemaInferencer with direct_infer on vs off.

std::string DirtyJsonl() {
  std::string text = "\xEF\xBB\xBF";  // BOM on the first line
  auto values =
      datagen::MakeGenerator(datagen::DatasetId::kGitHub, 3)->GenerateMany(40);
  for (size_t i = 0; i < values.size(); ++i) {
    text += json::ToJson(values[i]);
    text += (i % 5 == 2) ? "\r\n" : "\n";
    if (i % 7 == 3) text += "\n";                  // blank line
    if (i % 9 == 4) text += "{\"broken\": nope}\n";  // malformed line
  }
  text += "not json at all\n";
  return text;
}

void ExpectIngestStatsEq(const json::IngestStats& a,
                         const json::IngestStats& b) {
  EXPECT_EQ(a.lines_read, b.lines_read);
  EXPECT_EQ(a.blank_lines, b.blank_lines);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.malformed_lines, b.malformed_lines);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (size_t i = 0; i < a.errors.size(); ++i) {
    EXPECT_EQ(a.errors[i].line_number, b.errors[i].line_number);
    EXPECT_EQ(a.errors[i].byte_offset, b.errors[i].byte_offset);
    EXPECT_EQ(a.errors[i].message, b.errors[i].message);
  }
}

TEST(DirectInferPipelineTest, PolicyDifferentialAgainstDomPath) {
  const std::string text = DirtyJsonl();
  for (auto policy : {MalformedLinePolicy::kFail, MalformedLinePolicy::kSkip,
                      MalformedLinePolicy::kFailAboveRate}) {
    for (double rate : {0.01, 0.5}) {
      InferenceOptions direct_opts;
      direct_opts.num_threads = 1;
      direct_opts.ingest.on_malformed = policy;
      direct_opts.ingest.max_error_rate = rate;
      direct_opts.ingest.min_lines_for_rate = 4;
      InferenceOptions dom_opts = direct_opts;
      dom_opts.direct_infer = false;

      json::IngestStats direct_stats, dom_stats;
      auto direct = SchemaInferencer(direct_opts)
                        .InferFromJsonLines(text, &direct_stats);
      auto dom =
          SchemaInferencer(dom_opts).InferFromJsonLines(text, &dom_stats);

      ASSERT_EQ(direct.ok(), dom.ok())
          << "policy=" << static_cast<int>(policy) << " rate=" << rate;
      ExpectIngestStatsEq(direct_stats, dom_stats);
      if (direct.ok()) {
        EXPECT_TRUE(types::TypeEquals(direct.value().type, dom.value().type));
        EXPECT_EQ(direct.value().stats.record_count,
                  dom.value().stats.record_count);
        // Mode accounting: each pipeline attributes every record to its
        // own ingestion path.
        EXPECT_EQ(direct.value().stats.direct_records,
                  direct.value().stats.record_count);
        EXPECT_EQ(direct.value().stats.dom_records, 0u);
        EXPECT_EQ(dom.value().stats.dom_records,
                  dom.value().stats.record_count);
        EXPECT_EQ(dom.value().stats.direct_records, 0u);
      } else {
        EXPECT_EQ(direct.status(), dom.status());
      }
    }
  }
}

TEST(ShapeCacheTest, OutputIdenticalWithCacheOnAndOff) {
  // The dirty corpus twice over, so the second copy's records hit.
  const std::string text = DirtyJsonl() + DirtyJsonl();
  for (size_t threads : {1u, 4u}) {
    for (auto policy :
         {MalformedLinePolicy::kSkip, MalformedLinePolicy::kFailAboveRate}) {
      InferenceOptions opts;
      opts.num_threads = threads;
      opts.parallel_ingest_min_bytes = 0;
      opts.ingest.on_malformed = policy;
      opts.ingest.min_lines_for_rate = 4;
      json::IngestStats on_stats, off_stats;
      inference::ClearShapeCache();
      auto on = SchemaInferencer(opts).InferFromJsonLines(text, &on_stats);
      auto off = [&] {
        types::ScopedInterning no_cache(false);
        return SchemaInferencer(opts).InferFromJsonLines(text, &off_stats);
      }();
      ExpectIngestStatsEq(on_stats, off_stats);
      ASSERT_EQ(on.ok(), off.ok()) << "threads=" << threads;
      if (on.ok()) {
        EXPECT_EQ(on.value().ToString(), off.value().ToString());
      } else {
        EXPECT_EQ(on.status(), off.status());
      }
    }
  }
}

TEST(DirectInferPipelineTest, ParallelSchemaIdenticalToSerial) {
  std::string text;
  auto values = datagen::MakeGenerator(datagen::DatasetId::kTwitter, 11)
                    ->GenerateMany(120);
  for (const auto& v : values) {
    text += json::ToJson(v);
    text += '\n';
  }

  InferenceOptions serial;
  serial.num_threads = 1;
  auto base = SchemaInferencer(serial).InferFromJsonLines(text);
  ASSERT_TRUE(base.ok()) << base.status().message();

  for (size_t threads : {2u, 4u}) {
    InferenceOptions par = serial;
    par.num_threads = threads;
    par.parallel_ingest_min_bytes = 0;  // force chunking on this small input
    auto schema = SchemaInferencer(par).InferFromJsonLines(text);
    ASSERT_TRUE(schema.ok()) << schema.status().message();
    EXPECT_TRUE(types::TypeEquals(schema.value().type, base.value().type))
        << "threads=" << threads;
    EXPECT_EQ(schema.value().stats.record_count,
              base.value().stats.record_count);
    EXPECT_EQ(schema.value().stats.direct_records, values.size());
  }
}

// ---------------------------------------------------------------------------
// Telemetry contract: the default path never materializes a json::Value.

class DirectInferTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::MetricsRegistry::Global().ResetAll();
    telemetry::SetEnabled(true);
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    telemetry::MetricsRegistry::Global().ResetAll();
  }
};

TEST_F(DirectInferTelemetryTest, DefaultPathBypassesDomForEveryRecord) {
  std::string text;
  constexpr size_t kRecords = 64;
  auto values = datagen::MakeGenerator(datagen::DatasetId::kNYTimes, 5)
                    ->GenerateMany(kRecords);
  for (const auto& v : values) {
    text += json::ToJson(v);
    text += '\n';
  }

  InferenceOptions options;
  options.num_threads = 1;
  auto schema = SchemaInferencer(options).InferFromJsonLines(text);
  ASSERT_TRUE(schema.ok()) << schema.status().message();

  auto snap = telemetry::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("infer.direct.records"), kRecords);
  EXPECT_EQ(snap.CounterValue("infer.direct.dom_bypassed"), kRecords);
  EXPECT_EQ(snap.CounterValue("infer.direct.errors"), 0u);
  EXPECT_EQ(snap.CounterValue("parse.calls"), 0u)
      << "direct path must not invoke the DOM parser";
  // Every record went through the shape cache: hit, miss or bypass.
  EXPECT_EQ(snap.CounterValue("infer.shape.hits") +
                snap.CounterValue("infer.shape.misses") +
                snap.CounterValue("infer.shape.bypassed"),
            kRecords);

  // The DOM fallback, by contrast, parses every record.
  telemetry::MetricsRegistry::Global().ResetAll();
  options.direct_infer = false;
  schema = SchemaInferencer(options).InferFromJsonLines(text);
  ASSERT_TRUE(schema.ok()) << schema.status().message();
  snap = telemetry::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterValue("parse.calls"), kRecords);
  EXPECT_EQ(snap.CounterValue("infer.direct.records"), 0u);
}

// ---------------------------------------------------------------------------
// Streaming inferencer parity.

TEST(DirectInferStreamingTest, StreamingDirectMatchesDomSnapshot) {
  const std::string text = DirtyJsonl();
  StreamingOptions direct_opts;
  direct_opts.on_malformed = MalformedLinePolicy::kSkip;
  StreamingOptions dom_opts = direct_opts;
  dom_opts.direct_infer = false;

  StreamingInferencer direct(direct_opts), dom(dom_opts);
  ASSERT_TRUE(direct.AddJsonLines(text).ok());
  ASSERT_TRUE(dom.AddJsonLines(text).ok());
  // Feed a second batch to exercise cumulative stats on the direct arm.
  ASSERT_TRUE(direct.AddJsonLines(text).ok());
  ASSERT_TRUE(dom.AddJsonLines(text).ok());

  EXPECT_EQ(direct.record_count(), dom.record_count());
  EXPECT_EQ(direct.malformed_count(), dom.malformed_count());
  ExpectIngestStatsEq(direct.ingest_stats(), dom.ingest_stats());
  EXPECT_TRUE(types::TypeEquals(direct.Snapshot().type, dom.Snapshot().type));
}

TEST(DirectInferStreamingTest, StreamingParallelMatchesSerial) {
  std::string text;
  auto values = datagen::MakeGenerator(datagen::DatasetId::kWikidata, 9)
                    ->GenerateMany(150);
  for (const auto& v : values) {
    text += json::ToJson(v);
    text += '\n';
  }

  StreamingInferencer serial, parallel;
  ASSERT_TRUE(serial.AddJsonLines(text).ok());
  ASSERT_TRUE(parallel.AddJsonLinesParallel(text, 4).ok());
  EXPECT_EQ(serial.record_count(), parallel.record_count());
  EXPECT_TRUE(
      types::TypeEquals(serial.Snapshot().type, parallel.Snapshot().type));
  ExpectIngestStatsEq(serial.ingest_stats(), parallel.ingest_stats());
}

TEST(DirectInferStreamingTest, ProfilerForcesDomPathAndStaysExact) {
  std::string text;
  auto values = datagen::MakeGenerator(datagen::DatasetId::kGitHub, 21)
                    ->GenerateMany(30);
  for (const auto& v : values) {
    text += json::ToJson(v);
    text += '\n';
  }

  StreamingOptions profiled;
  profiled.profile = true;  // direct_infer stays true but must be ignored
  StreamingInferencer with_profile(profiled), plain;
  ASSERT_TRUE(with_profile.AddJsonLines(text).ok());
  ASSERT_TRUE(plain.AddJsonLines(text).ok());
  ASSERT_NE(with_profile.profiler(), nullptr);
  EXPECT_EQ(with_profile.record_count(), plain.record_count());
  EXPECT_TRUE(types::TypeEquals(with_profile.Snapshot().type,
                                plain.Snapshot().type));
}

}  // namespace
}  // namespace jsonsi
