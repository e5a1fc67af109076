/**
 * @file
 * Block-granular interpreter for the synthetic guest ISA.
 *
 * The dynamic optimizer interposes at basic-block boundaries, so the
 * interpreter's unit of work is one block: execute every instruction,
 * resolve the terminator, and report the next program counter. The
 * runtime uses this both to "interpret" cold code and to discover the
 * dynamic control flow that drives trace selection.
 *
 * Every loop runs the AddressSpace's predecoded instruction streams
 * (guest::PredecodedInst: operands plus precomputed address and
 * fall-through), through one shared per-instruction step.
 */

#ifndef GENCACHE_INTERP_INTERPRETER_H
#define GENCACHE_INTERP_INTERPRETER_H

#include <cstdint>

#include "guest/address_space.h"
#include "interp/cpu_state.h"

namespace gencache::interp {

/** Outcome of executing one basic block. */
struct BlockResult
{
    isa::GuestAddr next = 0;       ///< next program counter
    std::uint64_t instructions = 0; ///< instructions retired
    bool halted = false;           ///< guest executed Halt
    bool takenBranch = false;      ///< terminator was a taken
                                   ///< conditional or any jump "up"
    bool backwardTransfer = false; ///< next < block start (loop edge)
};

/** Outcome of one trace-cache execution (Interpreter::executeTrace). */
struct TraceResult
{
    isa::GuestAddr next = 0;        ///< pc at trace exit
    std::uint64_t instructions = 0; ///< instructions retired
    bool halted = false;            ///< guest executed Halt
};

/** Executes guest code found through an AddressSpace. */
class Interpreter
{
  public:
    /** @param space resolves program counters to blocks; must outlive
     *  the interpreter. */
    explicit Interpreter(const guest::AddressSpace &space);

    /**
     * Execute the block at @p state.pc and advance the state.
     * Panics when the pc does not resolve to a mapped block (stale
     * code: the caller must guarantee mapped execution).
     */
    BlockResult executeBlock(CpuState &state);

    /**
     * Execute block @p block, which must be the dense id of the block
     * at @p state.pc, and advance the state: executeBlock(state)
     * without the pc lookup.
     */
    BlockResult executeBlock(CpuState &state, guest::BlockId block);

    /**
     * Execute a trace's flattened predecoded stream —
     * block @p b spans @p stream [block_end[b-1], block_end[b]) and
     * continues into block b+1 when its terminator resolves to
     * @p continuations [b] (the next block's start address). Stops at
     * the first off-path terminator, Halt, or the end of the last
     * block. Per-block semantics and accounting are bit-identical to
     * calling executeBlock once per block; only the lookups and the
     * per-block call overhead are gone.
     *
     * @param blocks number of blocks; must be at least 1, and
     *        @p continuations must have @p blocks - 1 entries.
     */
    TraceResult executeTrace(CpuState &state,
                             const guest::PredecodedInst *stream,
                             const std::uint32_t *block_end,
                             const isa::GuestAddr *continuations,
                             std::size_t blocks);

    /**
     * Run until Halt or until @p max_blocks blocks have executed.
     * @return total instructions retired.
     */
    std::uint64_t run(CpuState &state, std::uint64_t max_blocks);

    /** @return total instructions retired across all calls. */
    std::uint64_t instructionsRetired() const { return retired_; }

  private:
    const guest::AddressSpace &space_;
    std::uint64_t retired_ = 0;
};

} // namespace gencache::interp

#endif // GENCACHE_INTERP_INTERPRETER_H
