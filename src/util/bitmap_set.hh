/**
 * @file
 * An ordered set of integers in [0, capacity) kept as a bitmap with two
 * summary levels.
 *
 * Level 0 holds one bit per index, level 1 one bit per non-zero level-0
 * word, and level 2 one bit per non-zero level-1 word, so the lowest
 * member is three countr_zero()s away and insert/erase/contains touch
 * one word per level.  Level-0 words are allocated lazily, in 2 KB
 * chunks, only where an index was ever inserted: a set sized for a
 * terabyte of frames costs memory only where members actually landed.
 * The summaries (1/4096 and 1/262144 of the index range) are allocated
 * up front.
 */

#ifndef TPS_UTIL_BITMAP_SET_HH
#define TPS_UTIL_BITMAP_SET_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/logging.hh"

namespace tps {

/** Ordered set of integers backed by a lazily chunked bitmap. */
class OrderedBitmapSet
{
  public:
    /**
     * log2 of the level-0 words per lazily allocated chunk (2 KB).  4 KB
     * chunks raised perfbench `steady`'s peak RSS by 0.3 MB (6%); 2 KB
     * and smaller chunks did not.
     */
    static constexpr unsigned kChunkWordBits = 8;
    /** Indices covered by one chunk. */
    static constexpr uint64_t kChunkIndices = 64ull << kChunkWordBits;

    /** An empty set able to hold the indices [0, @p capacity). */
    explicit OrderedBitmapSet(uint64_t capacity);

    uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** True iff @p i is a member (any @p i, even beyond capacity). */
    bool contains(uint64_t i) const
    {
        if (i >= capacity_)
            return false;
        const uint64_t *chunk = chunks_[i >> (kChunkWordBits + 6)].get();
        return chunk != nullptr && (wordIn(chunk, i >> 6) >> (i & 63)) & 1;
    }

    /** Insert @p i, which must be below capacity and not a member. */
    void insert(uint64_t i)
    {
        tps_assert(i < capacity_);
        uint64_t w = i >> 6;
        std::unique_ptr<uint64_t[]> &chunk = chunks_[w >> kChunkWordBits];
        if (!chunk)
            allocChunk(w >> kChunkWordBits);
        uint64_t &word = wordIn(chunk.get(), w);
        uint64_t bit = 1ull << (i & 63);
        tps_assert((word & bit) == 0);
        if (word == 0)
            markWord(w);
        word |= bit;
        ++size_;
    }

    /** Remove @p i; false (and no change) if it is not a member. */
    bool erase(uint64_t i)
    {
        if (i >= capacity_)
            return false;
        uint64_t w = i >> 6;
        uint64_t *chunk = chunks_[w >> kChunkWordBits].get();
        if (chunk == nullptr)
            return false;
        uint64_t &word = wordIn(chunk, w);
        uint64_t bit = 1ull << (i & 63);
        if ((word & bit) == 0)
            return false;
        word &= ~bit;
        --size_;
        if (word == 0)
            unmarkWord(w);
        return true;
    }

    /** The lowest member; the set must not be empty. */
    uint64_t first() const
    {
        tps_assert(size_ != 0);
        uint64_t s = (lowTop_ << 6) | ctz(top_[lowTop_]);
        uint64_t w = (s << 6) | ctz(summary_[s]);
        return (w << 6) | ctz(wordAt(w));
    }

    /** Visit every member in ascending order. */
    template <typename Visit>
    void forEach(Visit &&visit) const
    {
        for (uint64_t t = lowTop_; t < top_.size(); ++t) {
            for (uint64_t tb = top_[t]; tb != 0; tb &= tb - 1) {
                uint64_t s = (t << 6) | ctz(tb);
                for (uint64_t sb = summary_[s]; sb != 0; sb &= sb - 1) {
                    uint64_t w = (s << 6) | ctz(sb);
                    for (uint64_t b = wordAt(w); b != 0; b &= b - 1)
                        visit((w << 6) | ctz(b));
                }
            }
        }
    }

  private:
    static unsigned ctz(uint64_t v)
    {
        return static_cast<unsigned>(std::countr_zero(v));
    }

    static uint64_t &wordIn(uint64_t *chunk, uint64_t w)
    {
        return chunk[w & ((1ull << kChunkWordBits) - 1)];
    }
    static uint64_t wordIn(const uint64_t *chunk, uint64_t w)
    {
        return chunk[w & ((1ull << kChunkWordBits) - 1)];
    }

    /** Level-0 word @p w, whose chunk must exist. */
    uint64_t wordAt(uint64_t w) const
    {
        return wordIn(chunks_[w >> kChunkWordBits].get(), w);
    }

    /** Allocate chunk @p c, zero-filled. */
    void allocChunk(uint64_t c);
    /** Level-0 word @p w became non-zero: set its summary bits. */
    void markWord(uint64_t w);
    /** Level-0 word @p w became zero: clear its summary bits. */
    void unmarkWord(uint64_t w);

    uint64_t capacity_;
    uint64_t size_ = 0;
    uint64_t words_;                                //!< level-0 words
    std::vector<std::unique_ptr<uint64_t[]>> chunks_;  //!< level 0
    std::vector<uint64_t> summary_;                 //!< level 1
    std::vector<uint64_t> top_;                     //!< level 2
    //! Index of the lowest non-zero top_ word; top_.size() when empty.
    uint64_t lowTop_;
};

} // namespace tps

#endif // TPS_UTIL_BITMAP_SET_HH
