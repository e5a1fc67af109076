/**
 * @file
 * The repository benchmark: four workloads that time every layer of
 * the gencache pipeline from outside.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--size full|tiny] [--goldens FILE] [--spans-out FILE]
 *             [--digests-out FILE] [--git-sha SHA]
 *
 * Workloads (one process each, at most two worker threads):
 *
 *  - methodology: the paper's §6 pipeline (Figs 9/10/11) over all 38
 *    profiles: ExperimentRunner (generation), runUnbounded, runUnified,
 *    then compare(paperLayouts(), pool) on a 2-worker ThreadPool.
 *  - tournament: runTournament over gcc, art and word with the full
 *    1,040-config grid on 2 threads (blocked kernel, local and
 *    promotion policies).
 *  - fleet: FleetSimulator::run() on an office and a storm fleet,
 *    sharing off and on; the fleet logs are generated and compiled in
 *    set-up (SharedCodeStore probes, publishes, invalidations).
 *  - live: the nine front-end guest shapes run to halt under a bounded
 *    generational manager, then gclog v2 encode + decode in memory,
 *    checkRuntime and runTemporalReplay over the decoded log.
 *
 * A run sets up the inputs from --seed three times (the median is
 * setup_s; set-up ends with an untimed warm-up on a slice of the
 * inputs), then repeats the measured pass until --seconds have
 * elapsed (at least three passes). wall_s and cpu_s are the fastest
 * pass's: on a shared host, neighbours slow single passes by up to a
 * third, and the fastest pass is the one they disturbed least. Scale,
 * seed mixing and worker counts are fixed here; no GENCACHE_* variable
 * is read. Except for fleet, whose eight-process logs already average
 * out, every input's seed is size-matched (closestSeed): the seed
 * picks the content, not the amount of work.
 *
 * Every pass digests its outputs (64-bit FNV-1a) per operation. A
 * digest must equal the first pass's (determinism) and, when the
 * goldens file has an entry for (workload, size, seed), the golden.
 * Internal checks (decode == encode, zero error diagnostics, primed
 * baselines == compare()'s baselines) run on every seed. failed /
 * attempted is the error rate.
 *
 * With --trace 1, passes alternate between traced and untraced; the
 * traced ones keep spans (name, start, end, parent, run id) in memory
 * around each public call, written once at exit to --spans-out. The
 * per-layer metrics are derived from the spans' self times and the
 * layer counters; trace.overhead_s is the fastest traced minus the
 * fastest untraced pass wall time.
 *
 * The last line of stdout is the result object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit status: 0 on a completed run (even with failed checks, which
 * the result reports), 2 on a usage error, 1 when an input file
 * cannot be read or written.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/checker.h"
#include "analysis/diagnostics.h"
#include "analysis/temporal_passes.h"
#include "codecache/generational_cache.h"
#include "guest/address_space.h"
#include "guest/synthetic_program.h"
#include "runtime/runtime.h"
#include "sim/experiment.h"
#include "sim/fleet.h"
#include "sim/tournament.h"
#include "support/simd.h"
#include "support/thread_pool.h"
#include "support/units.h"
#include "tracelog/compiled_log.h"
#include "tracelog/serialize.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace {

using namespace gencache;
using Clock = std::chrono::steady_clock;

/** Worker threads of the pooled workloads (methodology, tournament). */
constexpr std::size_t kWorkers = 2;
/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Fewest measured passes per run (traced runs take twice as many). */
constexpr int kMinPasses = 3;

// ------------------------------------------------------------------
// Clocks
// ------------------------------------------------------------------

const Clock::time_point kEpoch = Clock::now();

double
wallNow()
{
    return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/** User + system CPU seconds of the whole process (every thread). */
double
cpuNow()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** The fastest of repeated timings: the one other tenants of the host
 *  disturbed least. */
double
fastest(const std::vector<double> &values)
{
    return values.empty()
               ? 0.0
               : *std::min_element(values.begin(), values.end());
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : (values[mid - 1] + values[mid]) / 2.0;
}

// ------------------------------------------------------------------
// Digests and seeds
// ------------------------------------------------------------------

/** 64-bit FNV-1a over the bytes of the values added. */
class Digest
{
  public:
    Digest &add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            byte(static_cast<unsigned char>(value >> (8 * i)));
        }
        return *this;
    }
    Digest &add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        return add(bits);
    }
    Digest &add(std::string_view text)
    {
        add(static_cast<std::uint64_t>(text.size()));
        for (char c : text) {
            byte(static_cast<unsigned char>(c));
        }
        return *this;
    }
    std::uint64_t value() const { return hash_; }

  private:
    void byte(unsigned char b)
    {
        hash_ ^= b;
        hash_ *= 1099511628211ULL;
    }
    std::uint64_t hash_ = 1469598103934665603ULL;
};

/** Per-input seed: splitmix64 of the run seed and the input's name. */
std::uint64_t
mixSeed(std::uint64_t seed, std::string_view name)
{
    std::uint64_t z = seed ^ Digest().add(name).value();
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Size-matched seed: of @p candidates sub-seeds of (@p seed, @p name),
 * the one with the smallest @p gap (distance of the input it draws
 * from the stated input size). Keeps the seed's effect on content
 * while pinning the amount of work.
 */
template <typename Gap>
std::uint64_t
closestSeed(std::uint64_t seed, const std::string &name, int candidates,
            Gap gap)
{
    double best_gap = -1.0;
    std::uint64_t best = 0;
    for (int c = 0; c < candidates; ++c) {
        const std::uint64_t sub =
            mixSeed(seed, name + "#" + std::to_string(c));
        const double g = gap(sub);
        if (best_gap < 0.0 || g < best_gap) {
            best_gap = g;
            best = sub;
        }
    }
    return best;
}

void
addSim(Digest &digest, const sim::SimResult &result)
{
    digest.add(result.benchmark).add(result.manager);
    for (std::uint64_t field :
         {result.lookups, result.hits, result.misses,
          result.regenerations, result.peakBytes, result.createdTraces,
          result.createdBytes}) {
        digest.add(field);
    }
    const cache::ManagerStats &m = result.managerStats;
    for (std::uint64_t field :
         {m.lookups, m.hits, m.misses, m.inserts, m.insertedBytes,
          m.deletions, m.deletedBytes, m.unmapDeletions,
          m.unmapDeletedBytes, m.promotions, m.promotedBytes,
          m.probationRejections, m.placementFailures}) {
        digest.add(field);
    }
    const cost::OverheadBreakdown &o = result.overhead;
    for (std::uint64_t field :
         {o.traceGeneration, o.contextSwitches, o.evictions,
          o.promotions, o.copies}) {
        digest.add(field);
    }
}

std::uint64_t
simDigest(const sim::SimResult &result)
{
    Digest digest;
    addSim(digest, result);
    return digest.value();
}

// ------------------------------------------------------------------
// Spans
// ------------------------------------------------------------------

/** In-memory span recorder; records nothing while disabled. */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        unsigned run = 0; ///< 0 = set-up, k = measured pass k
    };

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }
    void setRun(unsigned run) { run_ = run; }

    int open(const char *name)
    {
        if (!enabled_) {
            return -1;
        }
        spans_.push_back(Span{name, wallNow(), 0.0, current_, run_});
        current_ = static_cast<int>(spans_.size()) - 1;
        return current_;
    }

    void close(int id)
    {
        if (id < 0) {
            return;
        }
        spans_[id].end = wallNow();
        current_ = spans_[id].parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: its duration minus the part its
     *  children cover (children never overlap: one thread opens
     *  them). */
    std::vector<double> selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] = spans_[i].end - spans_[i].start;
        }
        for (const Span &span : spans_) {
            if (span.parent >= 0) {
                self[span.parent] -= span.end - span.start;
            }
        }
        return self;
    }

  private:
    std::vector<Span> spans_;
    int current_ = -1;
    unsigned run_ = 0;
    bool enabled_ = false;
};

/** RAII span around one call into a layer. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.open(name))
    {
    }
    ~SpanScope() { tracer_.close(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

// ------------------------------------------------------------------
// Output checks
// ------------------------------------------------------------------

/** Digest and internal checks; failed / attempted is error_rate. */
class Checks
{
  public:
    /** Load the goldens of (workload, size, seed) from @p path. Lines:
     *  "<workload> <size> <seed> <operation> <16 hex digits>"; '#'
     *  starts a comment. @return false when the file is unreadable or
     *  malformed. */
    bool loadGoldens(const std::string &path, const std::string &workload,
                     const std::string &size, std::uint64_t seed)
    {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "perfbench: cannot read goldens %s\n",
                         path.c_str());
            return false;
        }
        std::string line;
        int number = 0;
        while (std::getline(in, line)) {
            ++number;
            if (line.empty() || line[0] == '#') {
                continue;
            }
            std::istringstream fields(line);
            std::string w, s, op, hex, extra;
            std::uint64_t golden_seed = 0;
            if (!(fields >> w >> s >> golden_seed >> op >> hex) ||
                (fields >> extra) || hex.size() != 16 ||
                hex.find_first_not_of("0123456789abcdef") !=
                    std::string::npos) {
                std::fprintf(stderr,
                             "perfbench: %s:%d: malformed golden line\n",
                             path.c_str(), number);
                return false;
            }
            if (w == workload && s == size && golden_seed == seed) {
                golden_[op] = std::strtoull(hex.c_str(), nullptr, 16);
            }
        }
        return true;
    }

    bool haveGoldens() const { return !golden_.empty(); }

    /** Checks are suspended during the set-up warm-up. */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Record @p value as the digest of operation @p op. */
    void digest(const std::string &op, std::uint64_t value)
    {
        if (!enabled_) {
            return;
        }
        ++attempted_;
        auto [it, first] = seen_.emplace(op, value);
        if (first) {
            order_.push_back(op);
        } else if (it->second != value) {
            fail(op, "digest " + hex(value) + " differs from the "
                         "first pass's " + hex(it->second) +
                         " (nondeterministic)");
            return;
        }
        if (haveGoldens()) {
            auto golden = golden_.find(op);
            if (golden == golden_.end()) {
                fail(op, "no golden digest for this operation");
            } else if (golden->second != value) {
                fail(op, "digest " + hex(value) + " != golden " +
                             hex(golden->second));
            }
        }
    }

    /** An internal check (holds on every seed). */
    void expect(const std::string &op, bool ok, const std::string &why)
    {
        if (!enabled_) {
            return;
        }
        ++attempted_;
        if (!ok) {
            fail(op, why);
        }
    }

    /** Every golden operation must have been produced. */
    void finish()
    {
        if (!haveGoldens()) {
            return;
        }
        for (const auto &[op, value] : golden_) {
            (void)value;
            expect(op, seen_.count(op) == 1,
                   "golden operation never ran");
        }
    }

    /** Write the first pass's digests in golden-file format. */
    bool writeDigests(const std::string &path, const std::string &workload,
                      const std::string &size, std::uint64_t seed) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return false;
        }
        for (const std::string &op : order_) {
            std::fprintf(out, "%s %s %" PRIu64 " %s %s\n",
                         workload.c_str(), size.c_str(), seed, op.c_str(),
                         hex(seen_.at(op)).c_str());
        }
        return std::fclose(out) == 0;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    static std::string hex(std::uint64_t value)
    {
        char buffer[20];
        std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
        return buffer;
    }

    void fail(const std::string &op, const std::string &why)
    {
        ++failed_;
        if (failed_ <= 20) {
            std::fprintf(stderr, "perfbench: FAILED %s: %s\n", op.c_str(),
                         why.c_str());
        }
    }

    std::map<std::string, std::uint64_t> golden_;
    std::map<std::string, std::uint64_t> seen_;
    std::vector<std::string> order_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool enabled_ = true;
};

// ------------------------------------------------------------------
// Run context
// ------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string goldens = "perfbench/goldens.txt";
    std::string spansOut;
    std::string digestsOut;
    std::string gitSha = "unknown";
};

/** Layer counters of the traced passes, summed. */
using Counters = std::map<std::string, double>;

double
counter(const Counters &counters, const std::string &key)
{
    auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
}

struct Run
{
    Options options;
    Tracer tracer;
    Checks checks;
    Counters counters;

    void count(const std::string &key, double value)
    {
        if (tracer.enabled()) {
            counters[key] += value;
        }
    }
};

/** Self seconds per span name over the traced measured passes, and
 *  the number of such passes. */
struct LayerTimes
{
    std::map<std::string, double> self;
    std::map<std::string, double> setupSelf;
    double passes = 0.0;
    double passWall = 0.0; ///< summed wall of the traced passes

    double of(const std::string &name) const
    {
        return counter(self, name);
    }
    double setupOf(const std::string &name) const
    {
        return counter(setupSelf, name);
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One workload: inputs from the seed, a measured pass, and the
 *  per-layer metrics its spans and counters give. */
class Workload
{
  public:
    virtual ~Workload() = default;
    virtual double scale() const = 0;
    virtual unsigned workers() const = 0;
    /** Build the inputs from the seed. */
    virtual void setup(Run &run) = 0;
    /** The measured phase once; @p warmup limits it to a slice of the
     *  inputs (set-up's untimed warm-up). */
    virtual void pass(Run &run, bool warmup) = 0;
    /** Traced runs only, after the passes: untimed extra counting. */
    virtual void afterPasses(Run &) {}
    /** Fill the per-layer metrics this workload exercises. */
    virtual void
    layerMetrics(const Run &run, const LayerTimes &times,
                 std::map<std::string, double> &out) const = 0;
    /** Share of a traced pass spent in the layers this workload
     *  claims to stress. */
    virtual double claimedShare(const LayerTimes &times) const = 0;
};

// ------------------------------------------------------------------
// methodology
// ------------------------------------------------------------------

/** @p profile with its volume and duration scaled by @p factor. */
workload::BenchmarkProfile
scaledProfile(workload::BenchmarkProfile profile, double factor)
{
    profile.finalCacheKb *= factor;
    profile.durationSec *= factor;
    profile.finalCacheKb = std::max(profile.finalCacheKb, 16.0);
    profile.durationSec = std::max(profile.durationSec, 0.25);
    return profile;
}

class Methodology : public Workload
{
  public:
    explicit Methodology(bool tiny) : tiny_(tiny) {}

    double scale() const override { return tiny_ ? 0.005 : 0.03; }
    unsigned workers() const override { return kWorkers; }

    /** Each profile's seed is size-matched: the sub-seed whose log's
     *  event count is closest to that of the profile's own (table)
     *  seed. Unmatched, crafty's heavy-tailed log sets a peak memory
     *  that moves by 10% between seeds. */
    void setup(Run &run) override
    {
        profiles_.clear();
        for (const workload::BenchmarkProfile &profile :
             workload::allProfiles()) {
            profiles_.push_back(scaledProfile(profile, scale()));
            workload::BenchmarkProfile &scaled = profiles_.back();
            const double target = eventsOf(scaled);
            scaled.seed = closestSeed(
                run.options.seed, profile.name, kCandidates,
                [&](std::uint64_t sub) {
                    workload::BenchmarkProfile candidate = scaled;
                    candidate.seed = sub;
                    return std::fabs(ratio(eventsOf(candidate), target) -
                                     1.0);
                });
            if (tiny_ && profiles_.size() == 4) {
                break;
            }
        }
        if (!pool_) {
            pool_ = std::make_unique<ThreadPool>(kWorkers);
        }
    }

    void pass(Run &run, bool warmup) override
    {
        const std::vector<sim::GenerationalLayout> layouts =
            sim::paperLayouts();
        const std::size_t count = warmup ? 2 : profiles_.size();
        for (std::size_t p = 0; p < count; ++p) {
            runProfile(run, profiles_[p], layouts);
        }
    }

    void layerMetrics(const Run &run, const LayerTimes &t,
                      std::map<std::string, double> &out) const override
    {
        const Counters &c = run.counters;
        const double events = counter(c, "events");
        out["workload.generate.ns_per_event"] =
            ratio(t.of("workload.generate") * 1e9, events);
        out["workload.generate.share"] =
            ratio(t.of("workload.generate"), t.passWall);
        out["sim.baseline.ns_per_event"] =
            ratio((t.of("sim.baseline.unbounded") +
                   t.of("sim.baseline.unified")) * 1e9,
                  2.0 * events);
        out["sim.compare.ns_per_event_layout"] =
            ratio(t.of("sim.compare") * 1e9,
                  events * static_cast<double>(
                               sim::paperLayouts().size()));
        out["sim.compare.cpu_per_wall"] =
            ratio(counter(c, "compare.cpu_s"), t.of("sim.compare"));
        out["codecache.miss_ratio"] =
            ratio(counter(c, "best.misses"), counter(c, "best.lookups"));
        out["codecache.promotions"] =
            ratio(counter(c, "promotions"), t.passes);
        out["model.miss_reduction_pct"] =
            ratio(counter(c, "reduction_pct"), counter(c, "profiles"));
    }

    double claimedShare(const LayerTimes &t) const override
    {
        return ratio(t.of("workload.generate") +
                         t.of("sim.baseline.unbounded") +
                         t.of("sim.baseline.unified"),
                     t.passWall);
    }

  private:
    /** Sub-seeds tried per profile by setup(). */
    static constexpr int kCandidates = 4;

    static double eventsOf(const workload::BenchmarkProfile &profile)
    {
        return static_cast<double>(
            workload::generateWorkload(profile).size());
    }

    void runProfile(Run &run, const workload::BenchmarkProfile &profile,
                    const std::vector<sim::GenerationalLayout> &layouts)
    {
        Tracer &tracer = run.tracer;
        std::unique_ptr<sim::ExperimentRunner> runner;
        {
            SpanScope span(tracer, "workload.generate");
            runner = std::make_unique<sim::ExperimentRunner>(profile);
        }
        sim::SimResult unbounded;
        {
            SpanScope span(tracer, "sim.baseline.unbounded");
            unbounded = runner->runUnbounded();
        }
        // Prime the unified baseline at exactly the capacity compare()
        // computes, so compare() finds both baselines memoized and no
        // replay runs twice.
        std::uint64_t capacity = static_cast<std::uint64_t>(std::llround(
            static_cast<double>(unbounded.peakBytes) *
            sim::kCachePressureFactor));
        capacity = std::max<std::uint64_t>(capacity, 4096);
        sim::SimResult unified;
        {
            SpanScope span(tracer, "sim.baseline.unified");
            unified = runner->runUnified(capacity);
        }
        sim::BenchmarkComparison comparison;
        const double cpu_before = cpuNow();
        {
            SpanScope span(tracer, "sim.compare");
            comparison = runner->compare(layouts, pool_.get());
        }
        run.count("compare.cpu_s", cpuNow() - cpu_before);

        const std::string prefix = profile.name + "/";
        run.checks.expect(
            prefix + "primed-baselines",
            comparison.capacityBytes == capacity &&
                simDigest(comparison.unbounded) == simDigest(unbounded) &&
                simDigest(comparison.unified) == simDigest(unified),
            "compare() baselines differ from the primed ones");
        run.checks.digest(prefix + "unbounded", simDigest(unbounded));
        run.checks.digest(prefix + "unified", simDigest(unified));
        for (std::size_t i = 0; i < comparison.generational.size();
             ++i) {
            std::string label = layouts[i].label;
            std::replace(label.begin(), label.end(), ' ', '_');
            run.checks.digest(prefix + label,
                              simDigest(comparison.generational[i]));
        }

        // The paper's winner, 45-10-45 with single-hit promotion, is
        // the last of paperLayouts().
        const std::size_t best = layouts.size() - 1;
        const sim::SimResult &winner = comparison.generational[best];
        run.count("events", static_cast<double>(runner->log().size()));
        run.count("best.misses", static_cast<double>(winner.misses));
        run.count("best.lookups", static_cast<double>(winner.lookups));
        for (const sim::SimResult &result : comparison.generational) {
            run.count("promotions", static_cast<double>(
                                        result.managerStats.promotions));
        }
        run.count("reduction_pct", comparison.missRateReductionPct(best));
        run.count("profiles", 1.0);
    }

    bool tiny_;
    std::vector<workload::BenchmarkProfile> profiles_;
    std::unique_ptr<ThreadPool> pool_;
};

// ------------------------------------------------------------------
// tournament
// ------------------------------------------------------------------

class Tournament : public Workload
{
  public:
    explicit Tournament(bool tiny) : tiny_(tiny) {}

    double scale() const override { return tiny_ ? 0.002 : 0.004; }
    unsigned workers() const override { return kWorkers; }

    void setup(Run &run) override
    {
        profiles_.clear();
        for (const char *name : {"gcc", "art", "word"}) {
            profiles_.push_back(sizeMatched(
                scaledProfile(workload::findProfile(name), scale()),
                run.options.seed));
        }
        configs_ = tiny_ ? sim::smokeTournamentConfigs()
                         : sim::defaultTournamentConfigs();
    }

    void pass(Run &run, bool warmup) override
    {
        if (warmup) {
            sim::runTournament({profiles_[1]},
                               sim::smokeTournamentConfigs(), kWorkers);
            return;
        }
        sim::TournamentResult result;
        {
            SpanScope span(run.tracer, "sim.tournament");
            result = sim::runTournament(profiles_, configs_, kWorkers);
        }

        Digest rows;
        double miss = 0.0;
        double reduction = 0.0;
        for (const sim::TournamentRow &row : result.rows) {
            rows.add(row.config).add(row.topology).add(row.localPolicy)
                .add(row.promotion)
                .add(static_cast<std::uint64_t>(row.tierCount))
                .add(row.capacityFactor).add(row.meanMissRate)
                .add(row.meanMissRateReductionPct)
                .add(row.meanOverheadRatioPct);
            miss += row.meanMissRate;
            reduction += row.meanMissRateReductionPct;
        }
        Digest pareto;
        for (std::size_t index : result.pareto) {
            pareto.add(static_cast<std::uint64_t>(index))
                .add(result.rows[index].config);
        }
        Digest rejected;
        for (const sim::TournamentRejection &rejection : result.rejected) {
            rejected.add(rejection.config);
            for (const analysis::Diagnostic &diagnostic :
                 rejection.diagnostics) {
                rejected.add(diagnostic.checkId);
            }
        }
        run.checks.expect("tournament/profiles",
                          result.profileCount == profiles_.size(),
                          "profile count differs from the input");
        run.checks.digest("tournament/rows", rows.value());
        run.checks.digest("tournament/pareto", pareto.value());
        run.checks.digest("tournament/rejected", rejected.value());

        const auto accepted = static_cast<double>(result.rows.size());
        run.count("configs_accepted", accepted);
        run.count("rejected", static_cast<double>(result.rejected.size()));
        run.count("mean_miss_rate", ratio(miss, accepted));
        run.count("mean_reduction_pct", ratio(reduction, accepted));
    }

    /** The tournament generates its logs internally; regenerate them
     *  once, untimed by the passes, for the per-event denominators and
     *  the generator's share. */
    void afterPasses(Run &run) override
    {
        run.tracer.setRun(0);
        for (const workload::BenchmarkProfile &profile : profiles_) {
            tracelog::AccessLog log;
            {
                SpanScope span(run.tracer, "workload.generate");
                log = workload::generateWorkload(profile);
            }
            events_ += static_cast<double>(log.size());
        }
    }

    void layerMetrics(const Run &run, const LayerTimes &t,
                      std::map<std::string, double> &out) const override
    {
        const Counters &c = run.counters;
        const double accepted =
            ratio(counter(c, "configs_accepted"), t.passes);
        const double tournament = ratio(t.of("sim.tournament"), t.passes);
        const double generate = t.setupOf("workload.generate");
        out["workload.generate.ns_per_event"] =
            ratio(generate * 1e9, events_);
        out["workload.generate.share"] = ratio(generate, tournament);
        out["sim.tournament.ns_per_event_lane"] =
            ratio(tournament * 1e9, events_ * accepted);
        out["sim.tournament.configs_accepted"] = accepted;
        out["analysis.topo_lint.rejected"] =
            ratio(counter(c, "rejected"), t.passes);
        out["codecache.miss_ratio"] =
            ratio(counter(c, "mean_miss_rate"), t.passes);
        out["model.miss_reduction_pct"] =
            ratio(counter(c, "mean_reduction_pct"), t.passes);
    }

    double claimedShare(const LayerTimes &t) const override
    {
        // Replay share of runTournament: everything but generating the
        // three logs (measured separately after the passes).
        const double tournament = ratio(t.of("sim.tournament"), t.passes);
        const double generate = t.setupOf("workload.generate");
        return ratio(tournament - generate, ratio(t.passWall, t.passes));
    }

  private:
    /** Sub-seeds tried per profile by sizeMatched(). */
    static constexpr int kCandidates = 32;

    /** What sizeMatched() compares: the log's event count and the
     *  misses of the paper's unified baseline at half the unbounded
     *  peak (the churn every configuration's replay pays for). */
    static std::pair<double, double>
    sizeOf(const workload::BenchmarkProfile &profile)
    {
        sim::ExperimentRunner runner(profile);
        const std::uint64_t peak = runner.runUnbounded().peakBytes;
        return {static_cast<double>(runner.log().size()),
                static_cast<double>(
                    runner.runUnified(std::max<std::uint64_t>(4096,
                                                              peak / 2))
                        .misses)};
    }

    /**
     * @p profile with a generator seed drawn from the run seed and
     * matched in size: of kCandidates sub-seeds, the one whose log is
     * closest, in relative event count plus relative baseline misses,
     * to the log of the profile's own (table) seed. Three small logs
     * are too few to average out the generator's heavy-tailed
     * execution counts; unmatched, the tournament's work moves by about
     * +-8% from seed to seed.
     */
    static workload::BenchmarkProfile
    sizeMatched(workload::BenchmarkProfile profile, std::uint64_t seed)
    {
        const auto [events, misses] = sizeOf(profile);
        profile.seed = closestSeed(
            seed, profile.name, kCandidates, [&](std::uint64_t sub) {
                workload::BenchmarkProfile candidate = profile;
                candidate.seed = sub;
                const auto [e, m] = sizeOf(candidate);
                return std::fabs(ratio(e, events) - 1.0) +
                       std::fabs(ratio(m, misses) - 1.0);
            });
        return profile;
    }

    bool tiny_;
    std::vector<workload::BenchmarkProfile> profiles_;
    std::vector<sim::TournamentConfig> configs_;
    double events_ = 0.0;
};

// ------------------------------------------------------------------
// fleet
// ------------------------------------------------------------------

class Fleet : public Workload
{
  public:
    explicit Fleet(bool tiny) : tiny_(tiny) {}

    double scale() const override { return tiny_ ? 0.1 : 1.0; }
    unsigned workers() const override { return 0; }

    void setup(Run &run) override
    {
        // office: eight interactive processes over four shared DLLs, no
        // churn (dedup). storm: the same with three fleet-wide unmap
        // storms (invalidation writes beside the probes).
        workload::FleetWorkloadConfig office;
        office.processes = tiny_ ? 3 : 8;
        office.sharedDlls = 4;
        office.sharedLibKb = 192.0 * scale();
        office.privateKb = 96.0 * scale();
        office.durationSec = 20.0 * scale();
        office.namePrefix = "office";
        office.seed = mixSeed(run.options.seed, office.namePrefix);
        workload::FleetWorkloadConfig storm = office;
        storm.unmapStorms = 3;
        storm.namePrefix = "storm";
        storm.seed = mixSeed(run.options.seed, storm.namePrefix);

        fleets_.clear();
        for (const workload::FleetWorkloadConfig &config :
             {office, storm}) {
            FleetInput input;
            input.config = config;
            std::vector<tracelog::AccessLog> logs;
            {
                SpanScope span(run.tracer, "workload.generate");
                logs = workload::generateFleetWorkload(config);
            }
            SpanScope span(run.tracer, "tracelog.compile");
            for (const tracelog::AccessLog &log : logs) {
                input.compiled.push_back(
                    tracelog::CompiledLog::compile(log));
                input.events += log.size();
            }
            fleets_.push_back(std::move(input));
        }
        if (run.tracer.enabled()) {
            compiledEvents_ += static_cast<double>(
                fleets_[0].events + fleets_[1].events);
        }
    }

    void pass(Run &run, bool warmup) override
    {
        for (const FleetInput &input : fleets_) {
            sim::FleetResult isolated;
            {
                SpanScope span(run.tracer, "sim.fleet.isolated");
                sim::FleetSimulator simulator(input.compiled,
                                              options(input, false));
                isolated = simulator.run();
            }
            if (warmup) {
                return;
            }
            sim::FleetResult shared;
            {
                SpanScope span(run.tracer, "sim.fleet.shared");
                sim::FleetSimulator simulator(input.compiled,
                                              options(input, true));
                shared = simulator.run();
            }
            record(run, input, isolated, shared);
        }
    }

    void layerMetrics(const Run &run, const LayerTimes &t,
                      std::map<std::string, double> &out) const override
    {
        const Counters &c = run.counters;
        const double events = counter(c, "events");
        const double isolated = t.of("sim.fleet.isolated");
        const double shared = t.of("sim.fleet.shared");
        const double probes = counter(c, "probes");
        const double publishes = counter(c, "publishes");
        const double compile = t.setupOf("tracelog.compile");
        out["tracelog.compile.ns_per_event"] =
            ratio(compile * 1e9, compiledEvents_);
        out["sim.fleet.isolated.ns_per_event"] =
            ratio(isolated * 1e9, events);
        out["sim.fleet.shared.ns_per_event"] = ratio(shared * 1e9, events);
        out["codecache.shared.ns_per_op"] =
            ratio((shared - isolated) * 1e9, probes + publishes);
        const double passes = t.passes;
        out["codecache.shared.probes"] = ratio(probes, passes);
        out["codecache.shared.probe_hit_ratio"] =
            ratio(counter(c, "probe_hits"), probes);
        out["codecache.shared.publishes"] = ratio(publishes, passes);
        for (const char *key : {"inserts", "attaches", "invalidations",
                                "unmap_evictions", "dedup_saved_bytes"}) {
            out[std::string("codecache.shared.") + key] =
                ratio(counter(c, key), passes);
        }
        out["codecache.shared.regenerations_avoided_ratio"] =
            1.0 - ratio(counter(c, "shared_regenerations"),
                        counter(c, "isolated_regenerations"));
    }

    double claimedShare(const LayerTimes &t) const override
    {
        return ratio(t.of("sim.fleet.isolated") + t.of("sim.fleet.shared"),
                     t.passWall);
    }

  private:
    struct FleetInput
    {
        workload::FleetWorkloadConfig config;
        std::vector<tracelog::CompiledLog> compiled;
        std::uint64_t events = 0;
    };

    /** Private budget at half of one process's footprint (the paper's
     *  pressure point), the store sized for the shared libraries. */
    static sim::FleetOptions options(const FleetInput &input, bool sharing)
    {
        const workload::FleetWorkloadConfig &w = input.config;
        sim::FleetOptions options;
        options.sharing = sharing;
        options.budgetBytes = static_cast<std::uint64_t>(
            (w.sharedLibKb + w.privateKb) * static_cast<double>(kKiB) /
            2.0);
        options.store.shards = 8;
        options.store.capacityBytes = static_cast<std::uint64_t>(
            w.sharedDlls * w.sharedLibKb * 2.0 *
            static_cast<double>(kKiB));
        return options;
    }

    static std::uint64_t resultDigest(const sim::FleetResult &result)
    {
        Digest digest;
        digest.add(static_cast<std::uint64_t>(result.sharing));
        for (const sim::FleetProcessResult &process : result.processes) {
            addSim(digest, process.sim);
            const cache::TierPipeline::SharedTierStats &s =
                process.sharedTier;
            for (std::uint64_t field :
                 {s.probes, s.hits, s.publishes, s.publishedInserts,
                  s.publishedAttaches, s.publishedDuplicates,
                  s.publishedRejects, s.invalidationsForwarded}) {
                digest.add(field);
            }
        }
        const cache::SharedStoreStats &s = result.storeStats;
        for (std::uint64_t field :
             {s.probes, s.probeHits, s.publishes, s.inserts, s.attaches,
              s.duplicatePublishes, s.rejectedPublishes,
              s.capacityEvictions, s.capacityEvictedBytes,
              s.unmapEvictions, s.unmapEvictedBytes, s.invalidations,
              result.storePeakUsedBytes, result.storePeakClaimedBytes,
              result.storeEntries}) {
            digest.add(field);
        }
        return digest.value();
    }

    void record(Run &run, const FleetInput &input,
                const sim::FleetResult &isolated,
                const sim::FleetResult &shared) const
    {
        const std::string &name = input.config.namePrefix;
        run.checks.expect(name + "/processes",
                          isolated.processes.size() ==
                                  input.compiled.size() &&
                              shared.processes.size() ==
                                  input.compiled.size(),
                          "one result per process expected");
        run.checks.digest(name + "/isolated", resultDigest(isolated));
        run.checks.digest(name + "/shared", resultDigest(shared));

        double isolated_regens = 0.0;
        double shared_regens = 0.0;
        for (std::size_t p = 0; p < shared.processes.size(); ++p) {
            isolated_regens += static_cast<double>(
                isolated.processes[p].sim.regenerations);
            shared_regens += static_cast<double>(
                shared.processes[p].sim.regenerations);
        }
        const cache::SharedStoreStats &s = shared.storeStats;
        run.count("events", static_cast<double>(input.events));
        run.count("probes", static_cast<double>(s.probes));
        run.count("probe_hits", static_cast<double>(s.probeHits));
        run.count("publishes", static_cast<double>(s.publishes));
        run.count("inserts", static_cast<double>(s.inserts));
        run.count("attaches", static_cast<double>(s.attaches));
        run.count("invalidations", static_cast<double>(s.invalidations));
        run.count("unmap_evictions",
                  static_cast<double>(s.unmapEvictions));
        run.count("dedup_saved_bytes",
                  static_cast<double>(shared.dedupSavedBytes()));
        run.count("isolated_regenerations", isolated_regens);
        run.count("shared_regenerations", shared_regens);
    }

    bool tiny_;
    std::vector<FleetInput> fleets_;
    double compiledEvents_ = 0.0;
};

// ------------------------------------------------------------------
// live
// ------------------------------------------------------------------

/** Shape class of a benchmark's synthetic guest stand-in. */
struct GuestShape
{
    const char *name;
    unsigned phases;
    unsigned functionsPerPhase;
    unsigned sharedFunctions;
    unsigned dllCount;
    unsigned blocksPerFunction;
    unsigned phaseIterations; ///< at scale 1
    unsigned innerIterations;
};

/** The nine front-end throughput shapes: SPEC integer codes, wide
 *  flat gcc, scorching SPEC fp loops, phased DLL-heavy interactive
 *  programs. */
const GuestShape kGuestShapes[] = {
    {"gzip", 3, 4, 2, 1, 4, 900, 60},
    {"vpr", 3, 5, 2, 1, 5, 700, 50},
    {"gcc", 5, 8, 3, 2, 6, 500, 25},
    {"crafty", 3, 6, 3, 1, 5, 700, 45},
    {"eon", 4, 5, 2, 1, 5, 650, 45},
    {"art", 2, 3, 2, 0, 3, 1400, 120},
    {"applu", 2, 3, 2, 0, 4, 1200, 110},
    {"word", 6, 5, 2, 3, 4, 450, 30},
    {"solitaire", 6, 4, 2, 3, 4, 500, 30},
};

bool
sameEvents(const tracelog::AccessLog &a, const tracelog::AccessLog &b)
{
    if (a.benchmark() != b.benchmark() || a.duration() != b.duration() ||
        a.footprintBytes() != b.footprintBytes() || a.size() != b.size()) {
        return false;
    }
    using tracelog::EventType;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const tracelog::Event &x = a[i];
        const tracelog::Event &y = b[i];
        if (x.type != y.type || x.time != y.time) {
            return false;
        }
        // Compare the fields the gclog v2 format carries per type.
        const bool traced = x.type != EventType::ModuleLoad &&
                            x.type != EventType::ModuleUnload;
        const bool moduled = x.type == EventType::TraceCreate ||
                             !traced;
        if ((traced && x.trace != y.trace) ||
            (moduled && x.module != y.module) ||
            (x.type == EventType::TraceCreate &&
             x.sizeBytes != y.sizeBytes)) {
            return false;
        }
    }
    return true;
}

class Live : public Workload
{
  public:
    explicit Live(bool tiny) : tiny_(tiny) {}

    double scale() const override { return tiny_ ? 0.01 : 0.16; }
    unsigned workers() const override { return 0; }

    /** Each shape's program seed is size-matched: the sub-seed whose
     *  short probe run logs the event count closest to the seed-0
     *  program's. Unmatched, vpr's log alone moves by +-20% between
     *  seeds, and the peak memory with it. */
    void setup(Run &run) override
    {
        programs_.clear();
        for (const GuestShape &shape : kGuestShapes) {
            guest::SyntheticProgramConfig config;
            config.phases = shape.phases;
            config.functionsPerPhase = shape.functionsPerPhase;
            config.sharedFunctions = shape.sharedFunctions;
            config.dllCount = shape.dllCount;
            config.blocksPerFunction = shape.blocksPerFunction;
            config.phaseIterations = std::max(
                1U, static_cast<unsigned>(
                        static_cast<double>(shape.phaseIterations) *
                        scale()));
            config.innerIterations = shape.innerIterations;
            config.seed = mixSeed(0, shape.name);
            const double target = probeEvents(run, config);
            config.seed = closestSeed(
                run.options.seed, shape.name, kCandidates,
                [&](std::uint64_t sub) {
                    guest::SyntheticProgramConfig candidate = config;
                    candidate.seed = sub;
                    return std::fabs(probeEvents(run, candidate) - target);
                });
            programs_.push_back(guest::generateSyntheticProgram(config));
        }
    }

    void pass(Run &run, bool warmup) override
    {
        const std::size_t count = warmup ? 1 : programs_.size();
        for (std::size_t i = 0; i < count; ++i) {
            runShape(run, kGuestShapes[i].name, programs_[i]);
        }
    }

    void layerMetrics(const Run &run, const LayerTimes &t,
                      std::map<std::string, double> &out) const override
    {
        const Counters &c = run.counters;
        const double events = counter(c, "events");
        const double run_s = t.of("runtime.run");
        out["guest.load.s"] = ratio(t.of("guest.load"), t.passes);
        out["runtime.insts_per_s"] =
            ratio(counter(c, "instructions"), run_s);
        out["runtime.ns_per_event"] = ratio(run_s * 1e9, events);
        out["runtime.cache_residency"] =
            ratio(counter(c, "trace_instructions"),
                  counter(c, "instructions"));
        out["runtime.regenerations"] =
            ratio(counter(c, "regenerations"), t.passes);
        out["tracelog.encode.ns_per_event"] =
            ratio(t.of("tracelog.encode") * 1e9, events);
        out["tracelog.decode.ns_per_event"] =
            ratio(t.of("tracelog.decode") * 1e9, events);
        out["tracelog.encode.bytes_per_event"] =
            ratio(counter(c, "encoded_bytes"), events);
        out["analysis.check_runtime.ms_per_subject"] =
            ratio(t.of("analysis.check_runtime") * 1e3,
                  counter(c, "subjects"));
        out["analysis.temporal.ns_per_event"] =
            ratio(t.of("analysis.temporal") * 1e9, events);
        out["analysis.errors"] = ratio(counter(c, "errors"), t.passes);
    }

    double claimedShare(const LayerTimes &t) const override
    {
        return ratio(t.of("runtime.run"), t.passWall);
    }

  private:
    /** The bounded generational manager: 45-10-45, single-hit
     *  promotion, over a budget small enough that traces are evicted,
     *  unlinked and regenerated. */
    static std::unique_ptr<cache::GenerationalCacheManager> manager()
    {
        return std::make_unique<cache::GenerationalCacheManager>(
            cache::GenerationalConfig::fromProportions(
                kLiveBudgetBytes, 0.45, 0.10, /*threshold=*/1));
    }

    /** Load @p synthetic into @p runtime and run it to halt. */
    static void execute(Tracer &tracer,
                        const guest::SyntheticProgram &synthetic,
                        runtime::Runtime &runtime)
    {
        {
            SpanScope span(tracer, "guest.load");
            for (const auto &module : synthetic.program.modules()) {
                runtime.loadModule(*module);
            }
        }
        runtime.start(synthetic.program.entry());
        SpanScope span(tracer, "runtime.run");
        runtime.run();
    }

    /** Events logged by @p config's program at kProbeIterations phase
     *  iterations: events grow linearly with the iterations, so a
     *  short run predicts the full run's log size. */
    static double probeEvents(Run &run,
                              guest::SyntheticProgramConfig config)
    {
        config.phaseIterations = kProbeIterations;
        const guest::SyntheticProgram synthetic =
            guest::generateSyntheticProgram(config);
        std::unique_ptr<cache::GenerationalCacheManager> bounded =
            manager();
        guest::AddressSpace space;
        runtime::Runtime runtime(space, *bounded);
        execute(run.tracer, synthetic, runtime);
        return static_cast<double>(runtime.log().size());
    }

    void runShape(Run &run, const std::string &name,
                  const guest::SyntheticProgram &synthetic)
    {
        Tracer &tracer = run.tracer;
        std::unique_ptr<cache::GenerationalCacheManager> bounded =
            manager();
        guest::AddressSpace space;
        runtime::Runtime runtime(space, *bounded);
        execute(tracer, synthetic, runtime);
        const tracelog::AccessLog &log = runtime.log();

        std::stringstream buffer;
        {
            SpanScope span(tracer, "tracelog.encode");
            tracelog::writeBinary(log, buffer, 2);
        }
        const auto encoded_bytes =
            static_cast<double>(buffer.tellp());
        tracelog::AccessLog decoded;
        {
            SpanScope span(tracer, "tracelog.decode");
            decoded = tracelog::readBinary(buffer);
        }
        analysis::DiagnosticEngine checked;
        {
            SpanScope span(tracer, "analysis.check_runtime");
            checked = analysis::checkRuntime(synthetic.program, runtime);
        }
        analysis::DiagnosticEngine temporal;
        std::uint64_t temporal_events = 0;
        {
            SpanScope span(tracer, "analysis.temporal");
            std::unique_ptr<cache::GenerationalCacheManager> replay =
                manager();
            temporal_events =
                analysis::runTemporalReplay(decoded, *replay, temporal);
        }

        const std::string prefix = name + "/";
        const runtime::RuntimeStats &stats = runtime.stats();
        const std::size_t errors =
            checked.errorCount() + temporal.errorCount();
        run.checks.expect(prefix + "halted", runtime.finished(),
                          "guest did not run to halt");
        run.checks.expect(prefix + "decode", sameEvents(log, decoded),
                          "gclog v2 decode differs from its encode");
        run.checks.expect(prefix + "diagnostics", errors == 0,
                          std::to_string(errors) +
                              " error diagnostics");

        Digest log_digest;
        log_digest.add(log.benchmark()).add(log.duration())
            .add(log.footprintBytes());
        for (const tracelog::Event &event : log.events()) {
            log_digest.add(static_cast<std::uint64_t>(event.type))
                .add(event.time).add(event.trace)
                .add(static_cast<std::uint64_t>(event.sizeBytes))
                .add(static_cast<std::uint64_t>(event.module));
        }
        run.checks.digest(prefix + "log", log_digest.value());
        Digest stat_digest;
        for (std::uint64_t field :
             {stats.instructionsInterpreted, stats.instructionsInTraces,
              stats.contextSwitches, stats.tracesBuilt,
              stats.traceRegenerations, stats.traceExecutions,
              stats.blocksInterpreted, stats.tracesOptimized,
              stats.optimizerBytesSaved, stats.optimizerInstsRemoved,
              temporal_events}) {
            stat_digest.add(field);
        }
        for (const analysis::DiagnosticEngine *engine :
             {&checked, &temporal}) {
            for (analysis::Severity severity :
                 {analysis::Severity::Note, analysis::Severity::Warning,
                  analysis::Severity::Error}) {
                stat_digest.add(
                    static_cast<std::uint64_t>(engine->count(severity)));
            }
        }
        run.checks.digest(prefix + "stats", stat_digest.value());

        run.count("events", static_cast<double>(log.size()));
        run.count("instructions",
                  static_cast<double>(stats.totalInstructions()));
        run.count("trace_instructions",
                  static_cast<double>(stats.instructionsInTraces));
        run.count("regenerations",
                  static_cast<double>(stats.traceRegenerations));
        run.count("encoded_bytes", encoded_bytes);
        run.count("subjects", 1.0);
        run.count("errors", static_cast<double>(errors));
    }

    static constexpr std::uint64_t kLiveBudgetBytes = 2 * kKiB;
    /** Sub-seeds tried per shape, and the probe runs' length. */
    static constexpr int kCandidates = 16;
    static constexpr unsigned kProbeIterations = 8;

    bool tiny_;
    std::vector<guest::SyntheticProgram> programs_;
};

// ------------------------------------------------------------------
// Metrics registry and output
// ------------------------------------------------------------------

struct MetricSpec
{
    const char *name;
    const char *unit;
};

const MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Every per-layer metric, reported by every workload (0 where the
 *  workload does not run that layer). */
const MetricSpec kPerLayer[] = {
    {"workload.generate.ns_per_event", "ns"},
    {"workload.generate.share", "ratio"},
    {"sim.baseline.ns_per_event", "ns"},
    {"sim.compare.ns_per_event_layout", "ns"},
    {"sim.compare.cpu_per_wall", "ratio"},
    {"tracelog.compile.ns_per_event", "ns"},
    {"sim.tournament.ns_per_event_lane", "ns"},
    {"sim.tournament.configs_accepted", "count"},
    {"analysis.topo_lint.rejected", "count"},
    {"sim.fleet.isolated.ns_per_event", "ns"},
    {"sim.fleet.shared.ns_per_event", "ns"},
    {"codecache.shared.ns_per_op", "ns"},
    {"codecache.shared.probes", "count"},
    {"codecache.shared.probe_hit_ratio", "ratio"},
    {"codecache.shared.publishes", "count"},
    {"codecache.shared.inserts", "count"},
    {"codecache.shared.attaches", "count"},
    {"codecache.shared.invalidations", "count"},
    {"codecache.shared.unmap_evictions", "count"},
    {"codecache.shared.dedup_saved_bytes", "bytes"},
    {"codecache.shared.regenerations_avoided_ratio", "ratio"},
    {"guest.load.s", "s"},
    {"runtime.insts_per_s", "1/s"},
    {"runtime.ns_per_event", "ns"},
    {"runtime.cache_residency", "ratio"},
    {"runtime.regenerations", "count"},
    {"tracelog.encode.ns_per_event", "ns"},
    {"tracelog.decode.ns_per_event", "ns"},
    {"tracelog.encode.bytes_per_event", "bytes"},
    {"analysis.check_runtime.ms_per_subject", "ms"},
    {"analysis.temporal.ns_per_event", "ns"},
    {"analysis.errors", "count"},
    {"codecache.miss_ratio", "ratio"},
    {"codecache.promotions", "count"},
    {"model.miss_reduction_pct", "%"},
    {"trace.overhead_s", "s"},
    {"trace.claimed_share", "ratio"},
};

std::string
number(double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return std::isfinite(value) ? buffer : "0";
}

std::string
metricsJson(const MetricSpec *begin, const MetricSpec *end,
            const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const MetricSpec *spec = begin; spec != end; ++spec) {
        auto it = values.find(spec->name);
        const double value = it == values.end() ? 0.0 : it->second;
        if (out.size() > 1) {
            out += ", ";
        }
        out += "\"" + std::string(spec->name) + "\": {\"value\": " +
               number(value) + ", \"unit\": \"" + spec->unit + "\"}";
    }
    return out + "}";
}

void
writeSpans(const std::string &path, const Tracer &tracer,
           const std::vector<double> &self)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::fprintf(out, "[\n");
    const std::vector<Tracer::Span> &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Span &s = spans[i];
        std::fprintf(out,
                     "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"self\": %.9f, \"parent\": %d, "
                     "\"run\": %u}%s\n",
                     i, s.name.c_str(), s.start, s.end, self[i], s.parent,
                     s.run, i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    if (std::fclose(out) != 0) {
        std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                     path.c_str());
        std::exit(1);
    }
}

// ------------------------------------------------------------------
// Command line
// ------------------------------------------------------------------

const char kUsage[] =
    "usage: perfbench --workload methodology|tournament|fleet|live "
    "--seed N --seconds S --trace 0|1\n"
    "                 [--size full|tiny] [--goldens FILE] "
    "[--spans-out FILE]\n"
    "                 [--digests-out FILE] [--git-sha SHA]\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
    std::exit(2);
}

/** Strict unsigned decimal: digits only, no sign, no overflow. */
bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 20 ||
        text.find_first_not_of("0123456789") != std::string::npos) {
        return false;
    }
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && *end == '\0';
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usageError("missing value after " + flag);
        }
        const std::string value = argv[++i];
        std::uint64_t number_value = 0;
        if (flag == "--workload") {
            if (value != "methodology" && value != "tournament" &&
                value != "fleet" && value != "live") {
                usageError("unknown workload '" + value + "'");
            }
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseU64(value, number_value)) {
                usageError("--seed wants an unsigned decimal integer, "
                           "got '" + value + "'");
            }
            options.seed = number_value;
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseU64(value, number_value) || number_value == 0 ||
                number_value > 3600) {
                usageError("--seconds wants an integer in [1, 3600], "
                           "got '" + value + "'");
            }
            options.seconds = static_cast<double>(number_value);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") {
                usageError("--trace wants 0 or 1, got '" + value + "'");
            }
            options.trace = value == "1";
            have_trace = true;
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny") {
                usageError("--size wants full or tiny, got '" + value +
                           "'");
            }
            options.tiny = value == "tiny";
        } else if (flag == "--goldens") {
            options.goldens = value;
        } else if (flag == "--spans-out") {
            options.spansOut = value;
        } else if (flag == "--digests-out") {
            options.digestsOut = value;
        } else if (flag == "--git-sha") {
            options.gitSha = value;
        } else {
            usageError("unknown option '" + flag + "'");
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usageError("--workload, --seed, --seconds and --trace are "
                   "required");
    }
    return options;
}

std::unique_ptr<Workload>
makeWorkload(const Options &options)
{
    if (options.workload == "methodology") {
        return std::make_unique<Methodology>(options.tiny);
    }
    if (options.workload == "tournament") {
        return std::make_unique<Tournament>(options.tiny);
    }
    if (options.workload == "fleet") {
        return std::make_unique<Fleet>(options.tiny);
    }
    return std::make_unique<Live>(options.tiny);
}

} // namespace

int
main(int argc, char **argv)
{
    // Pin glibc's mmap and trim thresholds at their initial 128 KiB.
    // Left adaptive, they follow the allocation history, and the same
    // inputs then peak at resident sizes 10-15% apart between runs.
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    mallopt(M_TRIM_THRESHOLD, 128 * 1024);

    Run run;
    run.options = parseOptions(argc, argv);
    const Options &options = run.options;
    const std::string size = options.tiny ? "tiny" : "full";
    if (!options.goldens.empty() &&
        !run.checks.loadGoldens(options.goldens, options.workload, size,
                                options.seed)) {
        return 1;
    }
    std::unique_ptr<Workload> workload = makeWorkload(options);

    std::printf("# perfbench workload=%s size=%s seed=%" PRIu64
                " scale=%g workers=%u seconds=%g trace=%d git_sha=%s "
                "simd=%s goldens=%s\n",
                options.workload.c_str(), size.c_str(), options.seed,
                workload->scale(), workload->workers(), options.seconds,
                options.trace ? 1 : 0, options.gitSha.c_str(),
                simd::activeSimdMode(),
                run.checks.haveGoldens() ? "yes" : "none-for-seed");
    std::fflush(stdout);

    // Set-up: inputs from the seed, then an untimed warm-up slice.
    // Traced runs record set-up spans under run id 0.
    run.tracer.setEnabled(options.trace);
    std::vector<double> setups;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double start = wallNow();
        workload->setup(run);
        run.tracer.setEnabled(false);
        run.checks.setEnabled(false);
        workload->pass(run, /*warmup=*/true);
        run.checks.setEnabled(true);
        setups.push_back(wallNow() - start);
    }

    // Measured passes. Traced runs alternate traced (even) and
    // untraced (odd) passes.
    std::vector<double> walls;
    std::vector<double> cpus;
    std::vector<double> traced_walls;
    const double measure_start = wallNow();
    const int min_passes = options.trace ? 2 * kMinPasses : kMinPasses;
    for (unsigned p = 0;
         static_cast<int>(p) < min_passes ||
         wallNow() - measure_start < options.seconds;
         ++p) {
        const bool traced = options.trace && p % 2 == 0;
        run.tracer.setEnabled(traced);
        run.tracer.setRun(p + 1);
        const double cpu_start = cpuNow();
        const double start = wallNow();
        {
            SpanScope span(run.tracer, "pass");
            workload->pass(run, /*warmup=*/false);
        }
        const double wall = wallNow() - start;
        (traced ? traced_walls : walls).push_back(wall);
        if (!traced) {
            cpus.push_back(cpuNow() - cpu_start);
        }
    }
    run.checks.finish();

    std::map<std::string, double> values;
    std::string metrics;
    if (options.trace) {
        run.tracer.setEnabled(true);
        workload->afterPasses(run);
        run.tracer.setEnabled(false);

        LayerTimes times;
        const std::vector<double> self = run.tracer.selfTimes();
        const std::vector<Tracer::Span> &spans = run.tracer.spans();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].run == 0) {
                times.setupSelf[spans[i].name] += self[i];
            } else if (spans[i].name == "pass") {
                times.passes += 1.0;
                times.passWall += spans[i].end - spans[i].start;
            } else {
                times.self[spans[i].name] += self[i];
            }
        }
        workload->layerMetrics(run, times, values);
        values["trace.overhead_s"] =
            fastest(traced_walls) - fastest(walls);
        values["trace.claimed_share"] = workload->claimedShare(times);
        if (!options.spansOut.empty()) {
            writeSpans(options.spansOut, run.tracer, self);
        }
        std::printf("# layer self seconds over %g traced passes "
                    "(%.3f s of pass wall):\n",
                    times.passes, times.passWall);
        for (const auto &[name, seconds] : times.self) {
            std::printf("#   %-28s %10.4f s  %5.1f%%\n", name.c_str(),
                        seconds, 100.0 * ratio(seconds, times.passWall));
        }
        for (const auto &[name, seconds] : times.setupSelf) {
            std::printf("#   %-28s %10.4f s  (set-up / after passes)\n",
                        name.c_str(), seconds);
        }
        metrics = metricsJson(std::begin(kPerLayer), std::end(kPerLayer),
                              values);
    } else {
        values["wall_s"] = fastest(walls);
        values["cpu_s"] = fastest(cpus);
        values["setup_s"] = median(setups);
        values["peak_rss_mb"] = peakRssMb();
        metrics = metricsJson(std::begin(kEndToEnd), std::end(kEndToEnd),
                              values);
    }

    if (!options.digestsOut.empty() &&
        !run.checks.writeDigests(options.digestsOut, options.workload,
                                 size, options.seed)) {
        return 1;
    }

    const std::uint64_t attempted = run.checks.attempted();
    const std::uint64_t failed = run.checks.failed();
    std::printf("# %zu measured passes (%zu traced); error_rate = %.6g "
                "(%" PRIu64 " failed of %" PRIu64 " checked operations)\n",
                walls.size() + traced_walls.size(), traced_walls.size(),
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                failed, attempted);
    std::printf("# pass wall seconds:");
    for (double wall : walls) {
        std::printf(" %.4f", wall);
    }
    std::printf("\n");
    for (const auto &[name, value] : values) {
        std::printf("# %s = %s\n", name.c_str(), number(value).c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metrics.c_str());
    return 0;
}
