#include "inference/direct_infer.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>

#include "inference/shape_cache.h"
#include "json/line_scan.h"
#include "json/simd/kernel.h"
#include "json/tokenizer.h"
#include "telemetry/telemetry.h"
#include "types/interner.h"

namespace jsonsi::inference {

using json::Token;
using json::TokenKind;
using json::Tokenizer;
using types::FieldType;
using types::Type;
using types::TypeRef;

namespace {

// Iterative grammar driver: the parser's recursive descent flattened onto
// an explicit frame stack, producing type nodes where the parser produces
// Values. Every error check runs in the same order and at the same cursor
// position as the recursive parser, so statuses match byte for byte
// (differential-tested). Tokens are pulled only at value positions — at
// key and separator positions the parser reports grammar errors before
// lexing anything, so it peeks instead. The tokenizer must sit at
// the document's first byte.
class DirectInferrer {
 public:
  DirectInferrer(Tokenizer& tok, const json::ParseOptions& options,
                 annotate::Annotation* ann)
      : tok_(tok),
        options_(options),
        intern_(types::InterningEnabled()),
        ann_(ann) {
    if (ann_ != nullptr) ann_targets_.push_back(ann_);
  }

  Result<TypeRef> Infer() {
    TypeRef root;
    JSONSI_RETURN_IF_ERROR(Run(&root));
    if (!options_.allow_trailing_content) {
      tok_.SkipWhitespace();
      if (!tok_.AtEnd()) {
        return tok_.ErrorHere("trailing content after JSON value");
      }
    }
    return root;
  }

 private:
  // One record or array under construction. `start` indexes the shared
  // accumulator (fields_ for records, elems_ for arrays): children pushed
  // past it belong to this frame and are consumed when it closes. When
  // annotating, `ann` is the container's own accumulator and
  // `scalar_start` its slice of scalar_fields_ (shape evidence).
  struct Frame {
    bool is_record;
    size_t start;
    annotate::Annotation* ann = nullptr;
    size_t scalar_start = 0;
  };

  // The accumulator the next value at the cursor observes into: the root,
  // the current field's node, or the enclosing array's items node.
  annotate::Annotation* AnnTarget() { return ann_targets_.back(); }

  Status Run(TypeRef* out) {
    for (;;) {
      // --- Value position: the only place a token is pulled. ---
      Token t;
      TypeRef closed;
      if (ann_ == nullptr) {
        JSONSI_RETURN_IF_ERROR(tok_.Next(&t));
      } else {
        // Annotation needs unescaped string payloads (lengths, samples);
        // the extra buffer changes no validation or error position.
        val_buf_.clear();
        JSONSI_RETURN_IF_ERROR(tok_.Next(&t, &val_buf_));
      }
      switch (t.kind) {
        case TokenKind::kNull:
          closed = Type::Null();
          if (ann_ != nullptr) {
            AnnTarget()->ObserveNull();
            pending_scalar_ = annotate::EncodeNull();
            has_pending_scalar_ = true;
          }
          break;
        case TokenKind::kTrue:
        case TokenKind::kFalse: {
          closed = Type::Bool();
          if (ann_ != nullptr) {
            const bool b = t.kind == TokenKind::kTrue;
            AnnTarget()->ObserveBool(b);
            pending_scalar_ = annotate::EncodeBool(b);
            has_pending_scalar_ = true;
          }
          break;
        }
        case TokenKind::kNumber:
          closed = Type::Num();
          if (ann_ != nullptr) {
            // Re-parse the validated lexeme with the same std::from_chars
            // the DOM parser's ScanNumber uses — bit-identical doubles.
            double d = 0;
            std::from_chars(t.text.data(), t.text.data() + t.text.size(), d);
            AnnTarget()->ObserveNum(d);
            pending_scalar_ = annotate::EncodeNum(d);
            has_pending_scalar_ = true;
          }
          break;
        case TokenKind::kString:
          closed = Type::Str();
          if (ann_ != nullptr) {
            AnnTarget()->ObserveStr(val_buf_);
            pending_scalar_ = annotate::EncodeStr(val_buf_);
            has_pending_scalar_ = true;
          }
          break;
        case TokenKind::kEnd:
          return Tokenizer::ErrorAt(t, "unexpected end of input");
        case TokenKind::kLBrace: {
          if (frames_.size() >= options_.max_depth) {
            return Tokenizer::ErrorAt(t, "nesting too deep");
          }
          tok_.SkipWhitespace();
          if (!tok_.AtEnd() && tok_.Peek() == '}') {
            tok_.Advance();
            if (ann_ != nullptr) {
              annotate::Annotation* a = AnnTarget();
              a->ObserveRecordOpen();
              a->ObserveShape(std::string(), {});
            }
            closed = MakeRecord({});
            break;
          }
          frames_.push_back(Frame{/*is_record=*/true, fields_.size()});
          if (ann_ != nullptr) {
            Frame& f = frames_.back();
            f.ann = AnnTarget();
            f.scalar_start = scalar_fields_.size();
            f.ann->ObserveRecordOpen();
          }
          JSONSI_RETURN_IF_ERROR(ReadKey());
          continue;  // next value = first field value
        }
        case TokenKind::kLBracket: {
          if (frames_.size() >= options_.max_depth) {
            return Tokenizer::ErrorAt(t, "nesting too deep");
          }
          tok_.SkipWhitespace();
          if (!tok_.AtEnd() && tok_.Peek() == ']') {
            tok_.Advance();
            if (ann_ != nullptr) AnnTarget()->ObserveArray(0);
            closed = MakeArray({});
            break;
          }
          frames_.push_back(Frame{/*is_record=*/false, elems_.size()});
          if (ann_ != nullptr) {
            Frame& f = frames_.back();
            f.ann = AnnTarget();
            ann_targets_.push_back(f.ann->ItemsEntry());
          }
          continue;  // next value = first element
        }
        default:
          // Stray punctuation at a value position: the parser falls into
          // ParseNumber and fails at the token's first byte.
          return Tokenizer::ErrorAt(t, "invalid number");
      }

      // --- A value closed: unwind frames until one needs another value. ---
      for (;;) {
        if (frames_.empty()) {
          *out = std::move(closed);
          return Status::OK();
        }
        Frame& frame = frames_.back();
        if (frame.is_record) {
          // fields_.back() is this frame's pending field (nested frames
          // consume their fields before we unwind back here).
          fields_.back().type = std::move(closed);
          if (ann_ != nullptr) {
            ann_targets_.pop_back();  // leave the field position
            if (has_pending_scalar_) {
              scalar_fields_.emplace_back(fields_.back().key,
                                          std::move(pending_scalar_));
              has_pending_scalar_ = false;
            }
          }
          tok_.SkipWhitespace();
          if (tok_.AtEnd()) return tok_.ErrorHere("unterminated record");
          char c = tok_.Peek();
          if (c == ',') {
            tok_.Advance();
            JSONSI_RETURN_IF_ERROR(ReadKey());
            break;  // back to value position
          }
          if (c == '}') {
            tok_.Advance();
            JSONSI_RETURN_IF_ERROR(CloseRecord(&closed));
            continue;  // keep unwinding
          }
          return tok_.ErrorHere("expected ',' or '}' in record");
        }
        elems_.push_back(std::move(closed));
        // Array elements contribute no shape evidence; drop any scalar
        // encoding the element left behind.
        has_pending_scalar_ = false;
        tok_.SkipWhitespace();
        if (tok_.AtEnd()) return tok_.ErrorHere("unterminated array");
        char c = tok_.Peek();
        if (c == ',') {
          tok_.Advance();
          break;  // back to value position
        }
        if (c == ']') {
          tok_.Advance();
          CloseArray(&closed);
          continue;  // keep unwinding
        }
        return tok_.ErrorHere("expected ',' or ']' in array");
      }
    }
  }

  // Key, colon, and the pending-field push. Mirrors the top of the
  // parser's record loop, including the order of its error checks.
  Status ReadKey() {
    tok_.SkipWhitespace();
    if (tok_.AtEnd() || tok_.Peek() != '"') {
      return tok_.ErrorHere("expected record key string");
    }
    Token key;
    key_buf_.clear();
    JSONSI_RETURN_IF_ERROR(tok_.Next(&key, &key_buf_));
    tok_.SkipWhitespace();
    if (tok_.AtEnd() || tok_.Peek() != ':') {
      return tok_.ErrorHere("expected ':' after key");
    }
    tok_.Advance();
    fields_.push_back(FieldType{key_buf_, nullptr, /*optional=*/false});
    if (ann_ != nullptr) {
      // Enter the field position: the next value observes into this node.
      ann_targets_.push_back(frames_.back().ann->ObserveFieldEntry(key_buf_));
    }
    return Status::OK();
  }

  // Pops the top record frame into a record type node. Keys are compared
  // unescaped (so "A" and "A" collide, as on the DOM path), and the
  // duplicate-key message + position match Value::Record's rejection as
  // re-wrapped by the parser: reported just past the closing '}'.
  Status CloseRecord(TypeRef* closed) {
    const Frame frame = frames_.back();
    const size_t start = frame.start;
    frames_.pop_back();
    auto first = fields_.begin() + static_cast<ptrdiff_t>(start);
    std::sort(first, fields_.end(),
              [](const FieldType& a, const FieldType& b) {
                return a.key < b.key;
              });
    for (size_t i = start; i + 1 < fields_.size(); ++i) {
      if (fields_[i].key == fields_[i + 1].key) {
        return tok_.ErrorHere("duplicate record key: \"" + fields_[i].key +
                              "\"");
      }
    }
    if (ann_ != nullptr) {
      // Same signature scheme as the DOM path: each sorted key followed by
      // a separator (so {} and {"":x} stay distinct).
      std::string signature;
      for (size_t i = start; i < fields_.size(); ++i) {
        signature += fields_[i].key;
        signature += '\x1f';
      }
      std::vector<std::pair<std::string, std::string>> scalars(
          std::make_move_iterator(scalar_fields_.begin() +
                                  static_cast<ptrdiff_t>(frame.scalar_start)),
          std::make_move_iterator(scalar_fields_.end()));
      scalar_fields_.resize(frame.scalar_start);
      frame.ann->ObserveShape(signature, scalars);
    }
    std::vector<FieldType> fields(std::make_move_iterator(first),
                                  std::make_move_iterator(fields_.end()));
    fields_.resize(start);
    *closed = MakeRecord(std::move(fields));
    return Status::OK();
  }

  void CloseArray(TypeRef* closed) {
    const Frame frame = frames_.back();
    const size_t start = frame.start;
    frames_.pop_back();
    if (ann_ != nullptr) {
      ann_targets_.pop_back();  // leave the items position
      frame.ann->ObserveArray(elems_.size() - start);
    }
    auto first = elems_.begin() + static_cast<ptrdiff_t>(start);
    std::vector<TypeRef> elements(std::make_move_iterator(first),
                                  std::make_move_iterator(elems_.end()));
    elems_.resize(start);
    *closed = MakeArray(std::move(elements));
  }

  // Same interning policy as InferNode: record/array nodes are hash-consed
  // bottom-up when interning is enabled; leaves are already singletons.
  TypeRef MakeRecord(std::vector<FieldType> fields) {
    TypeRef t = Type::RecordFromSorted(std::move(fields));
    return intern_ ? types::TypeInterner::Global().Intern(std::move(t)) : t;
  }

  TypeRef MakeArray(std::vector<TypeRef> elements) {
    TypeRef t = Type::ArrayExact(std::move(elements));
    return intern_ ? types::TypeInterner::Global().Intern(std::move(t)) : t;
  }

  Tokenizer& tok_;
  json::ParseOptions options_;
  const bool intern_;
  std::vector<Frame> frames_;
  std::vector<FieldType> fields_;  // shared field accumulator
  std::vector<TypeRef> elems_;     // shared element accumulator
  std::string key_buf_;            // reused unescape buffer for keys

  // Annotation state — all idle (and ann_targets_ untouched) when ann_ is
  // null, so the default path pays nothing but a branch per token.
  annotate::Annotation* ann_;
  std::vector<annotate::Annotation*> ann_targets_;
  // Shared (key, encoded scalar) accumulator, sliced by Frame::scalar_start
  // exactly like fields_ — the shape evidence for discriminator detection.
  std::vector<std::pair<std::string, std::string>> scalar_fields_;
  std::string val_buf_;         // reused unescape buffer for string values
  std::string pending_scalar_;  // encoding of the value that just closed
  bool has_pending_scalar_ = false;
};

// Writes the shape-cache signature of the document under `tok` (at its
// first byte) into `sig`: the ParseOptions fields that decide the outcome,
// then one code per token, where a string followed by ':' (a record key)
// adds 'K', its raw length as a varint and its raw bytes at the colon. The
// encoding decodes unambiguously, so equal signatures mean equal token
// sequences and equal keys. True and false share a code: both type as
// Bool. False when the tokenizer rejects the text (the caller re-runs the
// full inference pass for its error) or the signature outgrows the cap.
bool BuildSignature(Tokenizer& tok, const json::ParseOptions& options,
                    std::string* sig) {
  sig->clear();
  const uint64_t max_depth = options.max_depth;
  sig->append(reinterpret_cast<const char*>(&max_depth), sizeof(max_depth));
  sig->push_back(options.allow_trailing_content ? 'T' : 'F');
  Token t;
  std::string_view last_string;
  bool after_string = false;
  for (;;) {
    if (!tok.Next(&t).ok()) return false;
    char code = 0;
    switch (t.kind) {
      case TokenKind::kEnd:
        return true;
      case TokenKind::kNull:
        code = '0';
        break;
      case TokenKind::kTrue:
      case TokenKind::kFalse:
        code = 'b';
        break;
      case TokenKind::kNumber:
        code = 'n';
        break;
      case TokenKind::kString:
        code = 's';
        break;
      case TokenKind::kLBrace:
        code = '{';
        break;
      case TokenKind::kRBrace:
        code = '}';
        break;
      case TokenKind::kLBracket:
        code = '[';
        break;
      case TokenKind::kRBracket:
        code = ']';
        break;
      case TokenKind::kComma:
        code = ',';
        break;
      case TokenKind::kColon:
        code = ':';
        break;
    }
    if (code == ':' && after_string) {
      // 'K', at most ten varint bytes, the key.
      if (sig->size() + 11 + last_string.size() > kShapeSignatureMaxBytes) {
        return false;
      }
      sig->push_back('K');
      for (uint64_t n = last_string.size(); ; n >>= 7) {
        sig->push_back(static_cast<char>((n & 0x7f) | (n >= 0x80 ? 0x80 : 0)));
        if (n < 0x80) break;
      }
      sig->append(last_string);
    } else {
      if (sig->size() >= kShapeSignatureMaxBytes) return false;
      sig->push_back(code);
    }
    after_string = t.kind == TokenKind::kString;
    if (after_string) last_string = t.text;
  }
}

// One document: the full DirectInferrer pass when annotating or with
// interning off, otherwise a shape-cache lookup first and the full pass on a
// miss.
Result<TypeRef> InferDocument(std::string_view text,
                              const json::ParseOptions& options,
                              annotate::Annotation* ann) {
  Tokenizer tok(text);
  if (ann != nullptr || !types::InterningEnabled()) {
    return DirectInferrer(tok, options, ann).Infer();
  }
  ShapeCache& cache = ShapeCache::ForThisThread();
  if (!cache.Admit()) {
    JSONSI_COUNTER("infer.shape.bypassed").Increment();
    return DirectInferrer(tok, options, nullptr).Infer();
  }
  std::string& sig = cache.SignatureBuffer();
  const bool keyed = BuildSignature(tok, options, &sig);
  uint64_t hash = 0;
  if (keyed) {
    hash = ShapeCache::Hash(sig);
    if (const TypeRef* hit = cache.Find(hash, sig)) {
      JSONSI_COUNTER("infer.shape.hits").Increment();
      return *hit;
    }
  } else {
    cache.RecordMiss();
  }
  JSONSI_COUNTER("infer.shape.misses").Increment();
  tok.Rewind();
  Result<TypeRef> result = DirectInferrer(tok, options, nullptr).Infer();
  if (keyed && result.ok()) cache.Insert(hash, sig, result.value());
  return result;
}

}  // namespace

Result<TypeRef> DirectInferType(std::string_view text,
                                const json::ParseOptions& options) {
  return DirectInferType(text, options, /*ann=*/nullptr);
}

Result<TypeRef> DirectInferType(std::string_view text,
                                const json::ParseOptions& options,
                                annotate::Annotation* ann) {
  if (options.max_document_bytes != 0 &&
      text.size() > options.max_document_bytes) {
    return json::DocumentTooLarge(text.size(), options.max_document_bytes);
  }
  Result<TypeRef> result = InferDocument(text, options, ann);
  if (telemetry::Enabled()) {
    JSONSI_COUNTER("infer.direct.bytes").Add(text.size());
    json::simd::AddKernelBytes(text.size());
    if (result.ok()) {
      JSONSI_COUNTER("infer.direct.records").Increment();
      JSONSI_COUNTER("infer.direct.dom_bypassed").Increment();
      JSONSI_HISTOGRAM("infer.type_size").Record(result.value()->size());
      if (ann != nullptr) JSONSI_COUNTER("annotate.records").Increment();
    } else {
      JSONSI_COUNTER("infer.direct.errors").Increment();
    }
  }
  return result;
}

TypedChunkOutcome InferJsonLinesChunk(std::string_view chunk,
                                      const json::ParseOptions& parse,
                                      size_t max_recorded_errors,
                                      bool first_chunk, bool annotate) {
  JSONSI_SPAN("infer.direct.chunk");
  TypedChunkOutcome out;
  if (annotate) out.annotation = std::make_unique<annotate::Annotation>();
  size_t pos = 0;
  // Identical line-splitting loop to json::ParseJsonLinesChunk, with
  // DirectInferType in place of Parse — the only difference between the
  // DOM and DOM-free chunk workers.
  while (pos < chunk.size()) {
    size_t nl = json::simd::FindNewline(chunk, pos);
    size_t end = nl;
    std::string_view line = chunk.substr(pos, end - pos);
    uint64_t line_start = pos;
    pos = nl < chunk.size() ? nl + 1 : chunk.size();
    out.stats.bytes_read = pos;
    // Every line is fully processed at the chunk stage (the abort decision
    // is the replay's); the resume offset tracks the scan.
    out.stats.bytes_consumed = pos;
    ++out.stats.lines_read;
    line = json::internal::UndecorateLine(
        line, first_chunk && out.stats.lines_read == 1);
    if (json::internal::IsBlankLine(line)) {
      ++out.stats.blank_lines;
      continue;
    }
    // When annotating, observe into a per-record tree and fold it into the
    // chunk accumulator only on success: a mid-record parse failure must
    // not leak partial observations into the merge.
    annotate::Annotation rec;
    Result<TypeRef> type = annotate ? DirectInferType(line, parse, &rec)
                                    : DirectInferType(line, parse);
    if (annotate && type.ok()) out.annotation->MergeFrom(rec);
    if (type.ok()) {
      ++out.stats.records;
      out.types.push_back(std::move(type).value());
      continue;
    }
    ++out.stats.malformed_lines;
    if (out.stats.malformed_lines == 1) {
      out.first_error_message = type.status().message();
    }
    if (out.stats.errors.size() < max_recorded_errors) {
      out.stats.errors.push_back(json::IngestError{
          out.stats.lines_read, line_start, type.status().message()});
    }
    out.malformed.push_back(json::ChunkIngest::MalformedAt{
        out.stats.lines_read, out.stats.blank_lines, out.stats.records,
        out.stats.malformed_lines, out.stats.bytes_read, line_start});
  }
  return out;
}

void AnnotateChunkPrefix(std::string_view chunk,
                         const json::ParseOptions& parse, bool first_chunk,
                         size_t records, annotate::Annotation* acc) {
  size_t pos = 0;
  size_t lines_read = 0;
  size_t kept = 0;
  while (pos < chunk.size() && kept < records) {
    size_t nl = json::simd::FindNewline(chunk, pos);
    std::string_view line = chunk.substr(pos, nl - pos);
    pos = nl < chunk.size() ? nl + 1 : chunk.size();
    ++lines_read;
    line = json::internal::UndecorateLine(line, first_chunk && lines_read == 1);
    if (json::internal::IsBlankLine(line)) continue;
    annotate::Annotation rec;
    if (DirectInferType(line, parse, &rec).ok()) {
      acc->MergeFrom(rec);
      ++kept;
    }
  }
}

json::ChunkReplay ReplayChunkPolicy(
    const std::vector<TypedChunkOutcome>& outcomes,
    const json::IngestOptions& options, json::IngestStats* stats) {
  std::vector<const json::ChunkIngest*> views;
  views.reserve(outcomes.size());
  for (const TypedChunkOutcome& o : outcomes) views.push_back(&o);
  return json::ReplayChunkPolicy(views, options, stats);
}

std::vector<TypeRef> TakeIncludedTypes(
    std::vector<TypedChunkOutcome>&& outcomes,
    const json::ChunkReplay& replay) {
  size_t total = 0;
  for (size_t c = 0; c < replay.full_chunks && c < outcomes.size(); ++c) {
    total += outcomes[c].types.size();
  }
  total += replay.partial_records;
  std::vector<TypeRef> types;
  types.reserve(total);
  for (size_t c = 0; c < replay.full_chunks && c < outcomes.size(); ++c) {
    auto& chunk_types = outcomes[c].types;
    types.insert(types.end(), std::make_move_iterator(chunk_types.begin()),
                 std::make_move_iterator(chunk_types.end()));
  }
  if (replay.partial_records > 0 && replay.full_chunks < outcomes.size()) {
    auto& chunk_types = outcomes[replay.full_chunks].types;
    size_t keep = std::min(replay.partial_records, chunk_types.size());
    types.insert(types.end(), std::make_move_iterator(chunk_types.begin()),
                 std::make_move_iterator(chunk_types.begin() + keep));
  }
  return types;
}

}  // namespace jsonsi::inference
