// Pull-style, zero-allocation JSON tokenizer over string_view.
//
// This is the lexical half of the DOM-free inference kernel: it turns JSON
// text into a stream of tokens without materializing values — number
// payloads are validated and handed back as lexeme slices, string payloads
// are validated (full escape / surrogate checking) but only unescaped into
// a caller-provided buffer on request (record keys need the unescaped
// form for duplicate detection; value strings never do). All scanning is
// shared with the DOM parser via json/scan.h, including the SWAR fast
// paths, so error messages and line/column positions are byte-identical
// to Parse(...).
//
// The tokenizer is deliberately context-free only where JSON is: callers
// (the grammar driver in inference/direct_infer.cc) must not pull a token
// at positions where the grammar expects specific punctuation, because the
// parser's errors there ("expected record key string", ...) are reported
// before any lexing happens. The cursor accessors (AtEnd/Peek/Advance/
// SkipWhitespace/ErrorHere) exist for exactly that.

#ifndef JSONSI_JSON_TOKENIZER_H_
#define JSONSI_JSON_TOKENIZER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "json/scan.h"
#include "json/simd/structural.h"
#include "support/status.h"

namespace jsonsi::json {

enum class TokenKind {
  kNull,
  kTrue,
  kFalse,
  kNumber,    // text = the full number lexeme (validated, finite)
  kString,    // text = raw contents between the quotes (escapes validated)
  kLBrace,
  kRBrace,
  kLBracket,
  kRBracket,
  kColon,
  kComma,
  kEnd,       // end of input
};

/// One token. `text` aliases the tokenizer's input — zero-copy; `offset`,
/// `line`, `column` locate the token's first byte (for kEnd: the end of
/// input), matching the position Parse(...) would report an error at.
struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;
  size_t offset = 0;
  size_t line = 1;
  size_t column = 1;
};

class Tokenizer {
 public:
  /// Builds the stage-1 structural index over `text` when a vector SIMD
  /// kernel is active and the document spans at least one 64-byte block
  /// (simd::ShouldIndex); the cursor's bulk skips then consume the
  /// precomputed bit planes. Under the scalar kernel — or for short
  /// documents — the PR-5 SWAR paths run unchanged.
  explicit Tokenizer(std::string_view text) {
    cursor_.text = text;
    if (simd::ShouldIndex(text.size())) {
      index_.Build(text);
      cursor_.index = &index_;
    }
  }

  /// The stage-1 index, or nullptr when this document is unindexed.
  const simd::StructuralIndex* index() const { return cursor_.index; }

  /// Skips whitespace and lexes one token into `*token`. Number tokens are
  /// fully validated (range-checked via from_chars); string tokens are
  /// escape-validated, and when `unescaped` is non-null the unescaped
  /// contents are appended to it (the buffer is NOT cleared — callers
  /// clear it, so they can reuse one allocation across tokens).
  Status Next(Token* token, std::string* unescaped = nullptr);

  // Cursor pass-throughs for grammar drivers that must look before lexing.
  bool AtEnd() const { return cursor_.AtEnd(); }
  char Peek() const { return cursor_.Peek(); }
  void Advance() { cursor_.Advance(); }
  void SkipWhitespace() { cursor_.SkipWhitespace(); }
  size_t pos() const { return cursor_.pos; }

  /// Moves the cursor back to the first byte, keeping the stage-1 index, so
  /// a second pass over the same document skips rebuilding it.
  void Rewind() {
    cursor_.pos = 0;
    cursor_.line = 1;
    cursor_.line_start = 0;
  }

  /// Error at the current cursor position, Parse(...)-formatted.
  Status ErrorHere(const std::string& message) const {
    return cursor_.Error(message);
  }

  /// Error positioned at a previously returned token's first byte.
  static Status ErrorAt(const Token& token, const std::string& message) {
    return Status::ParseError(message + " at line " +
                              std::to_string(token.line) + ", column " +
                              std::to_string(token.column));
  }

 private:
  scan::Cursor cursor_;
  simd::StructuralIndex index_;
};

}  // namespace jsonsi::json

#endif  // JSONSI_JSON_TOKENIZER_H_
