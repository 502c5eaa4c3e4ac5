// Dense bitmap used throughout the SDR stack: AtomicBitmap, lock-free
// concurrent set/test, used by DPA workers that update per-packet bitmaps
// from multiple threads (paper §3.4.2: "atomically update the corresponding
// chunk in the per-packet bitmap") and by the message table's chunk and
// packet bitmaps.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace sdr {

/// Number of 64-bit words required to hold `bits` bits.
constexpr std::size_t bitmap_words(std::size_t bits) {
  return (bits + 63) / 64;
}

/// Concurrent bitmap with the semantics DPA workers need: `set_and_check`
/// atomically sets a bit and reports whether this call was the one that set
/// it (so exactly one worker performs the chunk-coalescing follow-up).
class AtomicBitmap {
 public:
  AtomicBitmap() = default;
  explicit AtomicBitmap(std::size_t bits) { resize(bits); }

  /// Own fresh storage for `bits` bits, all clear.
  void resize(std::size_t bits) {
    owned_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(bitmap_words(bits));
    attach(owned_.get(), bits);
  }

  /// Use `words` as the storage for `bits` bits and clear them. The caller
  /// owns the bitmap_words(bits) words and keeps them alive as long as this
  /// bitmap: a table of many bitmaps carves them out of one allocation.
  void attach(std::atomic<std::uint64_t>* words, std::size_t bits) {
    words_ = words;
    bits_ = bits;
    word_count_ = bitmap_words(bits);
    clear_all();
  }

  std::size_t size() const { return bits_; }

  void clear_all() {
    for (std::size_t w = 0; w < word_count_; ++w) {
      words_[w].store(0, std::memory_order_relaxed);
    }
  }

  /// Atomically set bit i; returns true iff the bit transitioned 0 -> 1.
  bool set_and_check(std::size_t i) {
    const std::uint64_t mask = 1ULL << (i & 63);
    const std::uint64_t prev =
        words_[i >> 6].fetch_or(mask, std::memory_order_acq_rel);
    return (prev & mask) == 0;
  }

  bool test(std::size_t i) const {
    return (words_[i >> 6].load(std::memory_order_acquire) >> (i & 63)) & 1ULL;
  }

  std::size_t popcount() const {
    std::size_t n = 0;
    for (std::size_t w = 0; w < word_count_; ++w) {
      n += static_cast<std::size_t>(
          __builtin_popcountll(words_[w].load(std::memory_order_acquire)));
    }
    return n;
  }

  /// True iff all `count` bits in the word-aligned range starting at
  /// `first` are set. `first` must be a multiple of 64 or the range must
  /// stay within one word; DPA chunk coalescing always passes packet ranges
  /// of a chunk, which the config layer aligns accordingly.
  bool range_all_set(std::size_t first, std::size_t count) const {
    std::size_t i = first;
    const std::size_t end = first + count;
    while (i < end) {
      const std::size_t word = i >> 6;
      const std::size_t bit = i & 63;
      const std::size_t span = std::min<std::size_t>(64 - bit, end - i);
      const std::uint64_t mask =
          span == 64 ? ~0ULL : (((1ULL << span) - 1) << bit);
      if ((words_[word].load(std::memory_order_acquire) & mask) != mask)
        return false;
      i += span;
    }
    return true;
  }

  /// Word access for consumers that read the bitmap a word at a time.
  /// Word count follows bitmap_words(size()).
  std::uint64_t load_word(std::size_t w) const {
    return words_[w].load(std::memory_order_acquire);
  }
  std::size_t word_count() const { return word_count_; }

  /// First zero bit among the low `limit` bits (cumulative-ACK helper),
  /// or `limit` if they are all set. Word scan: the SR receiver calls this
  /// on every ACK/NACK construction, so the per-bit version was O(chunks)
  /// atomic loads per control message.
  std::size_t first_zero(std::size_t limit) const {
    const std::size_t nwords = bitmap_words(limit);
    for (std::size_t wi = 0; wi < nwords; ++wi) {
      const std::uint64_t inverted =
          ~words_[wi].load(std::memory_order_acquire);
      if (inverted != 0) {
        const std::size_t bit =
            (wi << 6) + static_cast<std::size_t>(__builtin_ctzll(inverted));
        return bit < limit ? bit : limit;
      }
    }
    return limit;
  }

 private:
  std::size_t bits_{0};
  std::size_t word_count_{0};
  std::atomic<std::uint64_t>* words_{nullptr};
  std::unique_ptr<std::atomic<std::uint64_t>[]> owned_;  // unless attached
};

}  // namespace sdr
