#include "interp/interpreter.h"

#include "support/logging.h"

namespace gencache::interp {

using isa::wrapAdd;
using isa::wrapMul;
using isa::wrapSub;

namespace {

/**
 * Execute one predecoded instruction against @p state. Shared by the
 * block and trace loops so the two cannot drift semantically; the
 * instruction carries its own address and fall-through. Forced inline:
 * it runs once per guest instruction, and GCC otherwise keeps it out
 * of line, which costs the front end about a fifth of its speed.
 */
[[gnu::always_inline]] inline void
step(CpuState &state, const guest::PredecodedInst &inst,
     BlockResult &result)
{
    switch (inst.opcode) {
      case isa::Opcode::Nop:
        break;
      case isa::Opcode::Add:
        state.regs[inst.dst] =
            wrapAdd(state.regs[inst.src1], state.regs[inst.src2]);
        break;
      case isa::Opcode::Sub:
        state.regs[inst.dst] =
            wrapSub(state.regs[inst.src1], state.regs[inst.src2]);
        break;
      case isa::Opcode::Mul:
        state.regs[inst.dst] =
            wrapMul(state.regs[inst.src1], state.regs[inst.src2]);
        break;
      case isa::Opcode::AddImm:
        state.regs[inst.dst] =
            wrapAdd(state.regs[inst.src1], inst.imm);
        break;
      case isa::Opcode::MovImm:
        state.regs[inst.dst] = inst.imm;
        break;
      case isa::Opcode::Mov:
        state.regs[inst.dst] = state.regs[inst.src1];
        break;
      case isa::Opcode::Load:
        state.regs[inst.dst] = state.loadMem(
            static_cast<isa::GuestAddr>(
                wrapAdd(state.regs[inst.src1], inst.imm)));
        break;
      case isa::Opcode::Store:
        state.storeMem(
            static_cast<isa::GuestAddr>(
                wrapAdd(state.regs[inst.src1], inst.imm)),
            state.regs[inst.src2]);
        break;
      case isa::Opcode::Jump:
        result.next = inst.target;
        result.takenBranch = true;
        break;
      case isa::Opcode::BranchNz:
        if (state.regs[inst.src1] != 0) {
            result.next = inst.target;
            result.takenBranch = true;
        } else {
            result.next = inst.fallThrough;
        }
        break;
      case isa::Opcode::BranchZ:
        if (state.regs[inst.src1] == 0) {
            result.next = inst.target;
            result.takenBranch = true;
        } else {
            result.next = inst.fallThrough;
        }
        break;
      case isa::Opcode::JumpReg:
        result.next = static_cast<isa::GuestAddr>(
            state.regs[inst.src1]);
        result.takenBranch = true;
        break;
      case isa::Opcode::Call:
        state.callStack.push_back(inst.fallThrough);
        result.next = inst.target;
        result.takenBranch = true;
        break;
      case isa::Opcode::CallReg:
        state.callStack.push_back(inst.fallThrough);
        result.next = static_cast<isa::GuestAddr>(
            state.regs[inst.src1]);
        result.takenBranch = true;
        break;
      case isa::Opcode::Return:
        if (state.callStack.empty()) {
            GENCACHE_PANIC("return with empty call stack at {}",
                           inst.addr);
        }
        result.next = state.callStack.back();
        state.callStack.pop_back();
        result.takenBranch = true;
        break;
      case isa::Opcode::Halt:
        result.halted = true;
        state.halted = true;
        result.next = inst.addr;
        break;
    }
}

} // namespace

Interpreter::Interpreter(const guest::AddressSpace &space)
    : space_(space)
{
}

BlockResult
Interpreter::executeBlock(CpuState &state)
{
    guest::BlockId block = space_.blockIdAt(state.pc);
    if (block == guest::kInvalidBlockId) {
        GENCACHE_PANIC("no mapped block at guest pc {} ({})", state.pc,
                       space_.describeAddr(state.pc));
    }
    return executeBlock(state, block);
}

BlockResult
Interpreter::executeBlock(CpuState &state, guest::BlockId block)
{
    if (state.halted) {
        GENCACHE_PANIC("executeBlock on a halted guest");
    }
    const guest::BlockIndex &index = space_.blockIndex();
    const guest::BlockMeta &meta = index.meta(block);

    BlockResult result;
    const guest::PredecodedInst *end = index.instEnd(block);
    for (const guest::PredecodedInst *inst = index.instBegin(block);
         inst != end; ++inst) {
        ++result.instructions;
        step(state, *inst, result);
    }

    // A taken transfer to the block's own start (a self-loop) is a
    // backward edge too, hence <= rather than <.
    result.backwardTransfer = !result.halted && result.takenBranch &&
                              result.next <= meta.startAddr;
    state.pc = result.next;
    retired_ += result.instructions;
    return result;
}

TraceResult
Interpreter::executeTrace(CpuState &state,
                          const guest::PredecodedInst *stream,
                          const std::uint32_t *block_end,
                          const isa::GuestAddr *continuations,
                          std::size_t blocks)
{
    if (state.halted) {
        GENCACHE_PANIC("executeTrace on a halted guest");
    }

    TraceResult out;
    const guest::PredecodedInst *inst = stream;
    std::size_t block = 0;
    for (;;) {
        // Segments are contiguous, so `inst` rolls straight from one
        // block's end into the next block's start.
        const guest::PredecodedInst *end = stream + block_end[block];
        BlockResult result;
        for (; inst != end; ++inst) {
            ++result.instructions;
            step(state, *inst, result);
        }
        out.instructions += result.instructions;
        state.pc = result.next;
        if (result.halted) {
            out.halted = true;
            break;
        }
        if (block + 1 < blocks && result.next == continuations[block]) {
            ++block;
            continue;
        }
        break;
    }
    out.next = state.pc;
    retired_ += out.instructions;
    return out;
}

std::uint64_t
Interpreter::run(CpuState &state, std::uint64_t max_blocks)
{
    std::uint64_t start = retired_;
    for (std::uint64_t i = 0; i < max_blocks && !state.halted; ++i) {
        executeBlock(state);
    }
    return retired_ - start;
}

} // namespace gencache::interp
