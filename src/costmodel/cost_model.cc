#include "costmodel/cost_model.h"

#include <cmath>

namespace gencache::cost {

InstrCount
CostModel::traceGeneration(std::uint32_t bytes) const
{
    return static_cast<InstrCount>(std::llround(
        kGenCoeff * std::pow(static_cast<double>(bytes),
                             kGenExponent)));
}

InstrCount
CostModel::eviction(std::uint32_t bytes) const
{
    return static_cast<InstrCount>(std::llround(
               kEvictCoeff * static_cast<double>(bytes))) +
           kEvictBase;
}

InstrCount
CostModel::promotion(std::uint32_t bytes) const
{
    return static_cast<InstrCount>(std::llround(
               kPromoteCoeff * static_cast<double>(bytes))) +
           kPromoteBase;
}

InstrCount
CostModel::missCost(std::uint32_t bytes) const
{
    return 2 * contextSwitch() + traceGeneration(bytes) + copy(bytes);
}

} // namespace gencache::cost
