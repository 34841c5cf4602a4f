#include "util/bitmap_set.hh"

#include <algorithm>

namespace tps {

OrderedBitmapSet::OrderedBitmapSet(uint64_t capacity)
    : capacity_(capacity), words_((capacity + 63) / 64),
      chunks_((words_ + (1ull << kChunkWordBits) - 1) >> kChunkWordBits),
      summary_((words_ + 63) / 64), top_((summary_.size() + 63) / 64),
      lowTop_(top_.size())
{
}

void
OrderedBitmapSet::allocChunk(uint64_t c)
{
    uint64_t first = c << kChunkWordBits;
    uint64_t n = std::min(uint64_t{1} << kChunkWordBits, words_ - first);
    chunks_[c] = std::make_unique<uint64_t[]>(n);
}

void
OrderedBitmapSet::markWord(uint64_t w)
{
    uint64_t s = w >> 6;
    if (summary_[s] == 0) {
        uint64_t t = s >> 6;
        top_[t] |= 1ull << (s & 63);
        lowTop_ = std::min(lowTop_, t);
    }
    summary_[s] |= 1ull << (w & 63);
}

void
OrderedBitmapSet::unmarkWord(uint64_t w)
{
    uint64_t s = w >> 6;
    summary_[s] &= ~(1ull << (w & 63));
    if (summary_[s] != 0)
        return;
    uint64_t t = s >> 6;
    top_[t] &= ~(1ull << (s & 63));
    while (lowTop_ < top_.size() && top_[lowTop_] == 0)
        ++lowTop_;
}

} // namespace tps
