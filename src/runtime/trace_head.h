/**
 * @file
 * Trace-head detection and hotness counters (paper §4.1).
 *
 * Blocks become trace heads when they are (a) the target of a backward
 * branch, or (b) an exit from an existing trace. Each execution of a
 * trace head increments a counter; crossing the trace creation
 * threshold (50 executions, matching DynamoRIO) triggers trace
 * generation mode.
 */

#ifndef GENCACHE_RUNTIME_TRACE_HEAD_H
#define GENCACHE_RUNTIME_TRACE_HEAD_H

#include <cstdint>
#include <vector>

#include "guest/block_index.h"

namespace gencache::runtime {

/** DynamoRIO's default trace creation threshold. */
constexpr std::uint32_t kDefaultTraceThreshold = 50;

/** Why a block became a trace head. */
enum class TraceHeadKind : std::uint8_t {
    BackwardBranchTarget,
    TraceExit,
};

/**
 * Counter table for candidate trace heads, keyed by dense
 * `guest::BlockId`, so the per-block-execution hot operations
 * (isHead / recordExecution) are vector reads.
 */
class TraceHeadTable
{
  public:
    explicit TraceHeadTable(
        std::uint32_t threshold = kDefaultTraceThreshold)
        : threshold_(threshold)
    {
    }

    std::uint32_t threshold() const { return threshold_; }

    /** Grow the side tables to cover ids below @p limit (called after
     *  every module load; ids are never reused). */
    void ensureCapacity(guest::BlockId limit)
    {
        if (limit > kinds_.size()) {
            kinds_.resize(limit, kNotAHead);
            counts_.resize(limit, 0);
        }
    }

    /** Register @p block as a trace head (idempotent). */
    void markHead(guest::BlockId block, TraceHeadKind kind)
    {
        if (kinds_[block] == kNotAHead) {
            kinds_[block] = static_cast<std::uint8_t>(kind);
            counts_[block] = 0;
            ++headCount_;
        }
    }

    /** @return true when @p block is a registered trace head. */
    bool isHead(guest::BlockId block) const
    {
        return kinds_[block] != kNotAHead;
    }

    /**
     * Count one execution of trace head @p block.
     * @return true when the counter just reached the threshold (the
     * caller should enter trace generation mode); false for non-heads.
     */
    bool recordExecution(guest::BlockId block)
    {
        if (kinds_[block] == kNotAHead) {
            return false;
        }
        return ++counts_[block] == threshold_;
    }

    /** Remove the head (after its trace was built) so the counter
     *  stops; re-marking later restarts from zero. Removing a block
     *  that is not a head is a no-op. */
    void remove(guest::BlockId block)
    {
        if (kinds_[block] != kNotAHead) {
            kinds_[block] = kNotAHead;
            counts_[block] = 0;
            --headCount_;
        }
    }

    /** Remove every head with id in [first, last) (module unload). */
    void removeRange(guest::BlockId first, guest::BlockId last)
    {
        for (guest::BlockId block = first; block < last; ++block) {
            remove(block);
        }
    }

    /** Current counter value; 0 when not a head. */
    std::uint32_t count(guest::BlockId block) const
    {
        return block < counts_.size() ? counts_[block] : 0;
    }

    std::size_t headCount() const { return headCount_; }

  private:
    static constexpr std::uint8_t kNotAHead = 0xff;

    std::uint32_t threshold_;
    std::vector<std::uint8_t> kinds_;    ///< TraceHeadKind or kNotAHead
    std::vector<std::uint32_t> counts_;
    std::size_t headCount_ = 0;
};

} // namespace gencache::runtime

#endif // GENCACHE_RUNTIME_TRACE_HEAD_H
