/**
 * @file
 * The basic-block cache (paper §4.1).
 *
 * Rather than interpreting cold code, DynamoRIO copies every executed
 * basic block into a basic-block cache before running it. Blocks here
 * execute straight from the AddressSpace's predecoded streams, so the
 * "copy into the bb cache" is bookkeeping: a residency entry per dense
 * block id, invalidated by id range when a module unmaps, plus the copy
 * statistics for the cost accounting.
 */

#ifndef GENCACHE_RUNTIME_BB_CACHE_H
#define GENCACHE_RUNTIME_BB_CACHE_H

#include <cstdint>
#include <vector>

#include "guest/block_index.h"

namespace gencache::runtime {

/** Statistics of the basic-block cache. */
struct BbCacheStats
{
    std::uint64_t copies = 0;       ///< blocks copied in
    std::uint64_t copiedBytes = 0;
    std::uint64_t hits = 0;         ///< lookups served from the cache
    std::uint64_t invalidations = 0; ///< blocks dropped by unmap
};

/** Software cache of copied basic blocks, keyed by dense block id. */
class BasicBlockCache
{
  public:
    BasicBlockCache() = default;

    /** Grow the residency table to cover ids below @p limit. */
    void ensureCapacity(guest::BlockId limit)
    {
        if (limit > sizes_.size()) {
            sizes_.resize(limit, 0);
        }
    }

    /** Count a fetch of block @p block (@p size_bytes big): a copy on
     *  first touch, a hit afterwards. */
    void fetch(guest::BlockId block, std::uint32_t size_bytes)
    {
        if (sizes_[block] != 0) {
            ++stats_.hits;
            return;
        }
        sizes_[block] = size_bytes;
        ++stats_.copies;
        stats_.copiedBytes += size_bytes;
        usedBytes_ += size_bytes;
        ++blockCount_;
    }

    /** @return true when block @p block is resident. */
    bool contains(guest::BlockId block) const
    {
        return block < sizes_.size() && sizes_[block] != 0;
    }

    /** Drop every resident block with id in [first, last) (module
     *  unload invalidation). */
    void invalidateRange(guest::BlockId first, guest::BlockId last)
    {
        for (guest::BlockId block = first; block < last; ++block) {
            if (sizes_[block] != 0) {
                usedBytes_ -= sizes_[block];
                sizes_[block] = 0;
                ++stats_.invalidations;
                --blockCount_;
            }
        }
    }

    /** @return number of resident blocks. */
    std::size_t blockCount() const { return blockCount_; }

    /** @return total bytes of resident blocks. */
    std::uint64_t usedBytes() const { return usedBytes_; }

    const BbCacheStats &stats() const { return stats_; }

  private:
    std::vector<std::uint32_t> sizes_; ///< 0 = not resident
    std::size_t blockCount_ = 0;
    std::uint64_t usedBytes_ = 0;
    BbCacheStats stats_;
};

} // namespace gencache::runtime

#endif // GENCACHE_RUNTIME_BB_CACHE_H
