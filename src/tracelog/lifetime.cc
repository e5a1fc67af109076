#include "tracelog/lifetime.h"

#include <algorithm>

namespace gencache::tracelog {

double
TraceLifetime::fraction(TimeUs total_time) const
{
    if (total_time == 0) {
        return 0.0;
    }
    return static_cast<double>(lastExec - firstExec) /
           static_cast<double>(total_time);
}

LifetimeAnalyzer::LifetimeAnalyzer(const CompiledLog &log)
    : lifetimes_(log.traceCount()), totalTime_(log.duration())
{
    const std::vector<EventType> &types = log.types();
    const std::vector<TimeUs> &times = log.times();
    const std::vector<DenseTraceId> &traces = log.traces();
    for (std::size_t i = 0; i < log.size(); ++i) {
        switch (types[i]) {
          case EventType::TraceCreate:
            lifetimes_[traces[i]].firstExec = times[i];
            [[fallthrough]];
          case EventType::TraceExec: {
            TraceLifetime &lifetime = lifetimes_[traces[i]];
            lifetime.lastExec = times[i];
            ++lifetime.executions;
            break;
          }
          default:
            break;
        }
    }
    // A log's events are in time order, so its last event is its
    // latest.
    if (!log.empty()) {
        totalTime_ = std::max(totalTime_, times.back());
    }
}

Histogram
LifetimeAnalyzer::lifetimeHistogram() const
{
    Histogram histogram = makeLifetimeHistogram();
    for (const TraceLifetime &lifetime : lifetimes_) {
        histogram.add(lifetime.fraction(totalTime_));
    }
    return histogram;
}

double
LifetimeAnalyzer::shortLivedFraction() const
{
    return lifetimeHistogram().binFraction(0); // [0, 20%)
}

double
LifetimeAnalyzer::longLivedFraction() const
{
    return lifetimeHistogram().binFraction(4); // [80%, 100%]
}

} // namespace gencache::tracelog
