/**
 * @file
 * Trace lifetime analysis (paper §5.1, Equation 2, Figure 6).
 *
 * lifetime_i = (lastExecution_i - firstExecution_i) / totalTime
 *
 * Lifetimes are measured from the compiled log itself, never from
 * generator parameters, so the Figure 6 reproduction is an honest
 * measurement of the synthetic workloads.
 */

#ifndef GENCACHE_TRACELOG_LIFETIME_H
#define GENCACHE_TRACELOG_LIFETIME_H

#include <vector>

#include "stats/histogram.h"
#include "tracelog/compiled_log.h"

namespace gencache::tracelog {

/** First/last execution bounds of one trace. */
struct TraceLifetime
{
    TimeUs firstExec = 0;
    TimeUs lastExec = 0;
    std::uint64_t executions = 0;

    /** Equation 2: lifetime as a fraction of @p total_time. */
    double fraction(TimeUs total_time) const;
};

/** Computes per-trace lifetimes from a compiled log. */
class LifetimeAnalyzer
{
  public:
    /** Scan @p log's type, time and trace columns once (TraceCreate
     *  counts as the first execution, since creation in DynamoRIO
     *  happens on the triggering execution). */
    explicit LifetimeAnalyzer(const CompiledLog &log);

    /** One lifetime per dense id of the log: a trace created again
     *  after its module reloads has its own dense id, so each
     *  creation is its own lifetime. */
    const std::vector<TraceLifetime> &lifetimes() const
    {
        return lifetimes_;
    }

    /** Total application execution time used as the denominator. */
    TimeUs totalTime() const { return totalTime_; }

    /** Figure 6: unweighted (static) histogram of trace lifetimes in
     *  five 20% buckets. */
    Histogram lifetimeHistogram() const;

    /** Fraction of traces with lifetime < 0.2 (short-lived). */
    double shortLivedFraction() const;

    /** Fraction of traces with lifetime >= 0.8 (long-lived). */
    double longLivedFraction() const;

  private:
    std::vector<TraceLifetime> lifetimes_;
    TimeUs totalTime_ = 0;
};

} // namespace gencache::tracelog

#endif // GENCACHE_TRACELOG_LIFETIME_H
