// KeepBitmap: the predicate path's 1-bit-per-row keep vector.
//
// Predicates mark surviving rows of a batch in a word-addressed bitmap
// (uint64_t words, bit i of word w = row 64*w + i) instead of the
// byte-per-row uint8_t vector the engine used before: 8x less memory
// traffic on the scan -> filter -> probe path, word-wise AND/OR for
// predicate fusion, and popcount/ctz shortcuts when the selection is
// expanded (SelVector::FromKeep) or counted.
//
// == Kernel contract ==
//
// * Sizing. `Reset(n)` / `ResetAllSet(n)` size the bitmap to n rows and
//   clear / set every row bit. Consumers hand predicates a bitmap that
//   is already Reset to the batch's row count; a predicate writes each
//   row's verdict exactly once (`SetTo`, or whole words via `words()` /
//   `FillFrom`).
// * Tail-word semantics. Bits >= size() in the last word are ALWAYS
//   ZERO. Every mutator here maintains the invariant (ResetAllSet masks
//   the tail; And/Or of two well-formed bitmaps stay well-formed); a
//   producer that writes raw words must mask its final partial word
//   with TailMask(size()) — FillFrom does this for you. The invariant
//   is what lets every consumer (CountSet, All, FromKeep, And, Or) run
//   word-at-a-time with no per-row tail special case.
// * Alignment. Storage is a std::vector<uint64_t>: 8-byte aligned,
//   contiguous, sized ceil(n/64) words. Words are addressed in memory
//   order, so sequential predicate evaluation streams the bitmap.
// * Fusion rules. Conjunction = word-wise And(), disjunction = word-wise
//   Or(), both requiring equal size(). A multi-predicate filter
//   evaluates each predicate into a scratch bitmap and folds with
//   And()/Or() — no intermediate SelVector or compacted batch is
//   materialized (see EvalConjunction in exec/filter.h); the single
//   final bitmap is expanded once.
// * Writing each row at most once. `SetTo(i, v)` ORs `v` into a bit that
//   is still zero; it does not clear. This keeps the hot marking loops
//   (join probe match marking) branchless. There is deliberately no
//   per-bit clear: to rewrite verdicts, Reset(n) and produce the bitmap
//   again (clearing bits one at a time is not a predicate-path shape).
#ifndef PDTSTORE_COLUMNSTORE_KEEP_BITMAP_H_
#define PDTSTORE_COLUMNSTORE_KEEP_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace pdtstore {

class KeepBitmap {
 public:
  KeepBitmap() = default;

  /// Mask of the valid bits of the final word of an n-bit bitmap
  /// (all-ones when n is a multiple of 64).
  static constexpr uint64_t TailMask(size_t n) {
    const size_t rem = n & 63;
    return rem == 0 ? ~uint64_t{0} : (uint64_t{1} << rem) - 1;
  }

  /// Resizes to n rows, all bits cleared.
  void Reset(size_t n) {
    bits_ = n;
    words_.assign(NumWords(n), 0);
  }

  /// Resizes to n rows, all row bits set (tail bits zero, per contract).
  void ResetAllSet(size_t n) {
    bits_ = n;
    words_.assign(NumWords(n), ~uint64_t{0});
    if (!words_.empty()) words_.back() = TailMask(n);
  }

  size_t size() const { return bits_; }
  size_t num_words() const { return words_.size(); }
  uint64_t* words() { return words_.data(); }
  const uint64_t* words() const { return words_.data(); }

  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  /// ORs `v` into bit i (branchless). The bit must still be zero — the
  /// state Reset leaves it in; this is the row-at-a-time producer path.
  void SetTo(size_t i, bool v) {
    words_[i >> 6] |= static_cast<uint64_t>(v) << (i & 63);
  }

  /// Evaluates `pred(i) -> bool` once per row, in ascending row order,
  /// and masks the tail. The whole-word producer path for typed
  /// predicate kernels: each full word's 64 verdicts land as bytes in a
  /// stack buffer, then pack 8 bytes per multiply (PackVerdicts). With a
  /// branch-free predicate body the verdict loop has no branch and no
  /// dependency between rows, so the CPU overlaps rows freely; OR-ing
  /// each verdict into the word would chain 64 dependent operations.
  template <typename RowPred>
  void FillFrom(RowPred pred) {
    const size_t full = bits_ >> 6;
    alignas(8) uint8_t verdict[64];
    for (size_t w = 0; w < full; ++w) {
      const size_t base = w << 6;
      for (size_t b = 0; b < 64; ++b) {
        verdict[b] = static_cast<uint8_t>(pred(base + b));
      }
      words_[w] = PackVerdicts(verdict);
    }
    if (bits_ & 63) {
      const size_t base = full << 6;
      uint64_t word = 0;
      for (size_t b = 0; base + b < bits_; ++b) {
        word |= static_cast<uint64_t>(pred(base + b)) << b;
      }
      words_[full] = word;  // tail bits never written: stays masked
    }
  }

  /// Sets every bit of [begin, end) word-wise (ORs; bits in the range
  /// must still be zero, same contract as SetTo). The run-at-a-time
  /// producer path for RLE predicates: one compare per run, then a word
  /// fill here instead of per-row stores. end <= size().
  void SetRange(size_t begin, size_t end) {
    if (begin >= end) return;
    const size_t wb = begin >> 6, we = (end - 1) >> 6;
    const uint64_t first = ~uint64_t{0} << (begin & 63);
    const uint64_t last = TailMask(end);  // low (end & 63) bits, all if 0
    if (wb == we) {
      words_[wb] |= first & last;
      return;
    }
    words_[wb] |= first;
    for (size_t w = wb + 1; w < we; ++w) words_[w] = ~uint64_t{0};
    words_[we] |= last;
  }

  /// Number of set bits (word-wise popcount).
  size_t CountSet() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
    return n;
  }

  /// True iff no row bit is set / every row bit is set. Word-at-a-time;
  /// the tail invariant makes All() a plain word compare too.
  bool None() const {
    for (uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  bool All() const {
    if (bits_ == 0) return true;
    for (size_t w = 0; w + 1 < words_.size(); ++w) {
      if (words_[w] != ~uint64_t{0}) return false;
    }
    return words_.back() == TailMask(bits_);
  }

  /// Word-wise conjunction / disjunction with an equal-size bitmap.
  void And(const KeepBitmap& other) {
    for (size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  }
  void Or(const KeepBitmap& other) {
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  }

 private:
  /// Packs 64 verdict bytes, each 0 or 1, into one word (byte b -> bit
  /// b). On little-endian hosts 8 bytes load as one word whose byte k
  /// holds verdict k at bit 8k; multiplying by 0x0102040810204080 sums
  /// shifted copies so that bit 56 + k of the product is verdict k, and
  /// no two partial products share a bit, so nothing carries into the
  /// top byte. That only holds because every byte is 0 or 1.
  static uint64_t PackVerdicts(const uint8_t* verdict) {
    uint64_t word = 0;
    if constexpr (std::endian::native == std::endian::little) {
      for (size_t g = 0; g < 8; ++g) {
        uint64_t bytes = 0;
        std::memcpy(&bytes, verdict + 8 * g, sizeof(bytes));
        word |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * g);
      }
    } else {
      for (size_t b = 0; b < 64; ++b) {
        word |= static_cast<uint64_t>(verdict[b]) << b;
      }
    }
    return word;
  }

  static size_t NumWords(size_t n) { return (n + 63) >> 6; }

  size_t bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace pdtstore

#endif  // PDTSTORE_COLUMNSTORE_KEEP_BITMAP_H_
