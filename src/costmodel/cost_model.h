/**
 * @file
 * The paper's instruction-overhead model (§6.2, Table 2).
 *
 * The authors measured DynamoRIO events with Pentium-4 performance
 * counters via PAPI and reduced them to best-fit formulas:
 *
 *   trace generation   865 * bytes^0.8
 *   DR context switch  25
 *   eviction           2.75 * bytes + 2650
 *   promotion          22 * bytes + 8030
 *
 * A conflict miss in the trace cache costs two context switches, one
 * trace regeneration, and one basic-block-to-trace copy (priced as a
 * promotion). For the 242-byte median trace this gives 69,834 / 3,316
 * / 13,354 instructions for generation / eviction / promotion and
 * roughly 85,000 instructions per miss — all reproduced by this
 * module and checked in the unit tests.
 *
 * CostModel is the formula source of sim::CostTables; the rules that
 * price cache events with those tables are sim::TableOverheadListener's.
 */

#ifndef GENCACHE_COSTMODEL_COST_MODEL_H
#define GENCACHE_COSTMODEL_COST_MODEL_H

#include <cstdint>

#include "support/units.h"

namespace gencache::cost {

/** Table 2's best-fit overhead formulas. */
class CostModel
{
  public:
    CostModel() = default;

    /** 865 * bytes^0.8 */
    InstrCount traceGeneration(std::uint32_t bytes) const;

    /** 25 instructions per DynamoRIO context switch. */
    InstrCount contextSwitch() const { return kContextSwitch; }

    /** 2.75 * bytes + 2650 */
    InstrCount eviction(std::uint32_t bytes) const;

    /** 22 * bytes + 8030 */
    InstrCount promotion(std::uint32_t bytes) const;

    /** Basic-block-to-trace copy: "the same cost as a promotion". */
    InstrCount copy(std::uint32_t bytes) const
    {
        return promotion(bytes);
    }

    /** Full §6.2 conflict-miss cost: 2 switches + regeneration +
     *  copy. ~85k instructions for the 242-byte median trace. */
    InstrCount missCost(std::uint32_t bytes) const;

    /** The paper's median trace size across all benchmarks. */
    static constexpr std::uint32_t kMedianTraceBytes = 242;

  private:
    static constexpr InstrCount kContextSwitch = 25;
    static constexpr double kGenCoeff = 865.0;
    static constexpr double kGenExponent = 0.8;
    static constexpr double kEvictCoeff = 2.75;
    static constexpr InstrCount kEvictBase = 2650;
    static constexpr double kPromoteCoeff = 22.0;
    static constexpr InstrCount kPromoteBase = 8030;
};

/** Per-category instruction overhead totals. */
struct OverheadBreakdown
{
    InstrCount traceGeneration = 0;
    InstrCount contextSwitches = 0;
    InstrCount evictions = 0;
    InstrCount promotions = 0;
    InstrCount copies = 0;

    InstrCount total() const
    {
        return traceGeneration + contextSwitches + evictions +
               promotions + copies;
    }
};

} // namespace gencache::cost

#endif // GENCACHE_COSTMODEL_COST_MODEL_H
