// Differential fuzz target: the DOM parser and the DOM-free direct
// inference kernel must be observationally equivalent on ARBITRARY bytes —
// same accept/reject decision, byte-identical Status message, and (on
// accept) a direct type TypeEquals-identical to InferType over the parsed
// value. This is the fuzz-hardened version of the fixed adversarial gallery
// in tests/direct_infer_test.cc; the gallery seeds the corpus.
//
// The first input byte selects the ParseOptions variant (default, shallow
// max_depth, tiny max_document_bytes, trailing content allowed) and, in its
// high half (selector >= 4), turns annotation collection on: the same four
// option variants re-run with an Annotation accumulator, cross-checking that
// annotating changes no accept/reject decision or type, and that the
// tokenizer-driven collection agrees exactly with the DOM-walk ObserveValue
// (annotate/annotation.h). The second byte selects the SIMD kernel the
// direct path runs under (modulo the kernels this host actually has, so
// every corpus entry is meaningful on every machine). The direct pass
// additionally runs under the scalar kernel and both results are
// cross-checked — a vector kernel that mis-scans any byte sequence shows
// up as a scalar/vector divergence even when the DOM comparison alone
// would pass. The rest of the input is the document.
//
// The second byte's high half is the io-pipeline axis (PR 10): when bit 7
// is set, the document is additionally treated as JSONL and fed through a
// PipelineReader over a Contents()-hidden MemorySource with a tiny buffer
// (bits 4-6 pick the size, down to a single byte, so batch seams land
// inside tokens, strings and error positions). The pumped stream must
// reproduce the one-shot AddJsonLines exactly — same accept/abort status
// message, same IngestStats to the byte offset, same snapshot type —
// under both the skip and the fail-above-rate policies.
//
// The shape-cache axis (inference/shape_cache.h): every non-annotating
// input is inferred a second time, which answers from the cache when the
// first call succeeded, and must agree with the DOM path the same way. When
// the document holds a newline, the part before it additionally primes a
// fresh cache under each of the four option variants, and the part after
// it is then checked against the DOM path under the selected options —
// same-signature twins (a malformed scalar, an escaped-equal key, another
// length or depth budget) must never inherit the primer's verdict.
//
// Built with -fsanitize=fuzzer under Clang (see fuzz/CMakeLists.txt); under
// GCC the same target links fuzz/standalone_main.cc and replays the corpus
// as a ctest smoke.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "annotate/annotation.h"
#include "core/io_pump.h"
#include "core/streaming_inferencer.h"
#include "inference/direct_infer.h"
#include "inference/infer.h"
#include "inference/shape_cache.h"
#include "io/input_source.h"
#include "io/pipeline_reader.h"
#include "json/parser.h"
#include "json/simd/kernel.h"
#include "json/value.h"
#include "types/type.h"

namespace {

void Fail(const char* what, std::string_view doc) {
  std::fprintf(stderr, "differential_fuzz: %s on %zu-byte input: ", what,
               doc.size());
  std::fwrite(doc.data(), 1, doc.size(), stderr);
  std::fputc('\n', stderr);
  std::abort();
}

bool SameStats(const jsonsi::json::IngestStats& a,
               const jsonsi::json::IngestStats& b) {
  if (a.lines_read != b.lines_read || a.blank_lines != b.blank_lines ||
      a.records != b.records || a.malformed_lines != b.malformed_lines ||
      a.bytes_read != b.bytes_read || a.bytes_consumed != b.bytes_consumed ||
      a.errors.size() != b.errors.size()) {
    return false;
  }
  for (size_t i = 0; i < a.errors.size(); ++i) {
    if (a.errors[i].line_number != b.errors[i].line_number ||
        a.errors[i].byte_offset != b.errors[i].byte_offset ||
        a.errors[i].message != b.errors[i].message) {
      return false;
    }
  }
  return true;
}

// The io-pipeline parity axis: batching `doc` through a tiny-buffer
// PipelineReader must be observationally identical to one AddJsonLines
// call of the whole text.
void CheckStreamParity(std::string_view doc, size_t buffer_bytes,
                       jsonsi::json::MalformedLinePolicy policy) {
  jsonsi::core::StreamingOptions opts;
  opts.on_malformed = policy;
  opts.max_error_rate = 0.25;
  opts.min_lines_for_rate = 4;

  jsonsi::core::StreamingInferencer one_shot(opts);
  jsonsi::Status want = one_shot.AddJsonLines(doc);

  jsonsi::core::StreamingInferencer pumped(opts);
  jsonsi::io::MemorySource source(doc, /*expose_contents=*/false);
  jsonsi::io::IoOptions io;
  io.buffer_bytes = buffer_bytes;
  io.overlap = false;  // deterministic single-thread replay
  jsonsi::io::PipelineReader reader(&source, io);
  jsonsi::Status got = jsonsi::core::PumpJsonLines(reader, pumped, {});

  if (want.ok() != got.ok()) Fail("pipeline accept/abort split", doc);
  if (!want.ok() && want.message() != got.message()) {
    Fail("pipeline abort message mismatch", doc);
  }
  if (!SameStats(one_shot.ingest_stats(), pumped.ingest_stats())) {
    Fail("pipeline IngestStats mismatch", doc);
  }
  if (want.ok() &&
      !one_shot.Snapshot().type->Equals(*pumped.Snapshot().type)) {
    Fail("pipeline type mismatch", doc);
  }
}

jsonsi::json::ParseOptions OptionVariant(unsigned variant) {
  jsonsi::json::ParseOptions options;
  switch (variant % 4) {
    case 0:
      break;  // defaults
    case 1:
      options.max_depth = 4;
      break;
    case 2:
      options.max_document_bytes = 16;
      break;
    case 3:
      options.allow_trailing_content = true;
      break;
  }
  return options;
}

// `got` (from the direct path, possibly a shape-cache hit) must agree with
// the DOM path's verdict on `doc`.
void CheckAgainstDom(const jsonsi::Result<jsonsi::types::TypeRef>& got,
                     std::string_view doc,
                     const jsonsi::json::ParseOptions& options,
                     const char* what) {
  jsonsi::Result<jsonsi::json::ValueRef> parsed =
      jsonsi::json::Parse(doc, options);
  if (parsed.ok() != got.ok()) Fail(what, doc);
  if (!parsed.ok()) {
    if (parsed.status().message() != got.status().message()) Fail(what, doc);
    return;
  }
  if (!jsonsi::inference::InferType(*parsed.value())->Equals(*got.value())) {
    Fail(what, doc);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  namespace simd = jsonsi::json::simd;
  static const std::vector<simd::Kernel> kKernels = simd::AvailableKernels();

  jsonsi::json::ParseOptions options;
  bool annotate = false;
  std::string_view doc(reinterpret_cast<const char*>(data), size);
  if (!doc.empty()) {
    const unsigned selector = static_cast<unsigned char>(doc.front()) % 8;
    annotate = selector >= 4;
    options = OptionVariant(selector);
    doc.remove_prefix(1);
  }
  simd::Kernel kernel = simd::Kernel::kScalar;
  bool stream_parity = false;
  size_t stream_buffer = 1;
  if (!doc.empty()) {
    const unsigned byte = static_cast<unsigned char>(doc.front());
    kernel = kKernels[byte % kKernels.size()];
    stream_parity = (byte & 0x80) != 0;
    static constexpr size_t kBufferSizes[8] = {1, 2, 3, 5, 8, 13, 64, 4096};
    stream_buffer = kBufferSizes[(byte >> 4) & 7];
    doc.remove_prefix(1);
  }

  if (stream_parity) {
    CheckStreamParity(doc, stream_buffer,
                      jsonsi::json::MalformedLinePolicy::kSkip);
    CheckStreamParity(doc, stream_buffer,
                      jsonsi::json::MalformedLinePolicy::kFailAboveRate);
  }

  jsonsi::Result<jsonsi::json::ValueRef> parsed =
      jsonsi::json::Parse(doc, options);

  // A fresh shape cache before each kernel's pass, so both run the full
  // inference pass.
  jsonsi::annotate::Annotation ann_scalar;
  jsonsi::annotate::Annotation ann_vector;
  simd::SetKernel(simd::Kernel::kScalar);
  jsonsi::inference::ClearShapeCache();
  jsonsi::Result<jsonsi::types::TypeRef> scalar =
      annotate ? jsonsi::inference::DirectInferType(doc, options, &ann_scalar)
               : jsonsi::inference::DirectInferType(doc, options);
  simd::SetKernel(kernel);
  jsonsi::inference::ClearShapeCache();
  jsonsi::Result<jsonsi::types::TypeRef> direct =
      annotate ? jsonsi::inference::DirectInferType(doc, options, &ann_vector)
               : jsonsi::inference::DirectInferType(doc, options);
  if (!annotate) {
    // Shape-cache axis: the repeat is a hit whenever `direct` succeeded.
    CheckAgainstDom(jsonsi::inference::DirectInferType(doc, options), doc,
                    options, "shape-cache repeat mismatch");
    if (size_t nl = doc.find('\n'); nl != std::string_view::npos) {
      const std::string_view primer = doc.substr(0, nl);
      const std::string_view twin = doc.substr(nl + 1);
      for (unsigned variant = 0; variant < 4; ++variant) {
        jsonsi::inference::ClearShapeCache();
        (void)jsonsi::inference::DirectInferType(primer,
                                                 OptionVariant(variant));
        CheckAgainstDom(jsonsi::inference::DirectInferType(twin, options),
                        twin, options, "shape-cache twin mismatch");
      }
    }
  }

  // Vector kernel vs scalar: the SIMD parity axis.
  if (scalar.ok() != direct.ok()) Fail("kernel accept/reject split", doc);
  if (!scalar.ok() &&
      scalar.status().message() != direct.status().message()) {
    Fail("kernel status message mismatch", doc);
  }
  if (scalar.ok() && !scalar.value()->Equals(*direct.value())) {
    Fail("kernel type mismatch", doc);
  }

  // Direct vs DOM: the PR-7 parity axis.
  if (parsed.ok() != direct.ok()) Fail("accept/reject mismatch", doc);
  if (!parsed.ok()) {
    if (parsed.status().message() != direct.status().message()) {
      Fail("status message mismatch", doc);
    }
    return 0;
  }
  jsonsi::types::TypeRef via_dom =
      jsonsi::inference::InferType(*parsed.value());
  if (!via_dom->Equals(*direct.value())) Fail("type mismatch", doc);

  if (annotate) {
    // Annotation axes: collection must not perturb the type, the two
    // kernels must accumulate identical statistics, and the tokenizer
    // collection must equal the DOM walk.
    jsonsi::Result<jsonsi::types::TypeRef> plain =
        jsonsi::inference::DirectInferType(doc, options);
    if (!plain.ok() || !plain.value()->Equals(*direct.value())) {
      Fail("annotated/unannotated type mismatch", doc);
    }
    if (!ann_scalar.Equals(ann_vector)) {
      Fail("kernel annotation mismatch", doc);
    }
    jsonsi::annotate::Annotation ann_dom;
    jsonsi::annotate::ObserveValue(*parsed.value(), &ann_dom);
    if (!ann_dom.Equals(ann_vector)) Fail("DOM annotation mismatch", doc);
  }
  return 0;
}
