/**
 * @file
 * Identity helpers shared by the replay, tier, fleet, front-end,
 * workload, tracelog and oracle tests: the one field-by-field
 * SimResult comparator, the 64-bit FNV-1a digest the committed golden
 * tables are written in, the lookup and printing of those tables'
 * rows (DigestRow and expectRow for rows of SimResult digests), and
 * the profile scaling the committed logs are generated at.
 *
 * Both walk one field list, numericFields(), which the Figure-8 model
 * of figure8_oracle.h also reports. A digest stands in for a
 * field-by-field comparison against an implementation that no longer
 * exists (the frozen pre-pipeline managers, the per-event replay
 * loop); TierEquivalence.DigestCoversEveryComparedField checks that
 * changing any compared field, or the manager name, moves it.
 */

#ifndef GENCACHE_TESTS_SIM_IDENTITY_H
#define GENCACHE_TESTS_SIM_IDENTITY_H

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "codecache/cache_manager.h"
#include "costmodel/cost_model.h"
#include "sim/batched_replay.h"
#include "workload/profile.h"

namespace gencache::identity {

// A new field must join numericFields() and the mutations of
// TierEquivalence.DigestCoversEveryComparedField.
static_assert(sizeof(cache::ManagerStats) == 13 * sizeof(std::uint64_t));
static_assert(sizeof(cost::OverheadBreakdown) ==
              5 * sizeof(std::uint64_t));
static_assert(sizeof(sim::SimResult) ==
              2 * sizeof(std::string) + 7 * sizeof(std::uint64_t) +
                  sizeof(cache::ManagerStats) +
                  sizeof(cost::OverheadBreakdown));

/** 64-bit FNV-1a over little-endian 64-bit words. */
class Fnv1a
{
  public:
    void add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xffu;
            hash_ *= 0x100000001b3ULL;
        }
    }

    /** @p text as its length, then one word per character. */
    void addText(const std::string &text)
    {
        add(text.size());
        for (char c : text) {
            add(static_cast<unsigned char>(c));
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/** The numeric SimResult fields, by name, in declaration order: what
 *  expectIdentical() compares and digestOf() hashes beside the two
 *  names. */
inline std::array<std::pair<const char *, std::uint64_t>, 25>
numericFields(const sim::SimResult &r)
{
    const cache::ManagerStats &s = r.managerStats;
    const cost::OverheadBreakdown &o = r.overhead;
    return {{
        {"lookups", r.lookups},
        {"hits", r.hits},
        {"misses", r.misses},
        {"regenerations", r.regenerations},
        {"peakBytes", r.peakBytes},
        {"createdTraces", r.createdTraces},
        {"createdBytes", r.createdBytes},
        {"stats.lookups", s.lookups},
        {"stats.hits", s.hits},
        {"stats.misses", s.misses},
        {"stats.inserts", s.inserts},
        {"stats.insertedBytes", s.insertedBytes},
        {"stats.deletions", s.deletions},
        {"stats.deletedBytes", s.deletedBytes},
        {"stats.unmapDeletions", s.unmapDeletions},
        {"stats.unmapDeletedBytes", s.unmapDeletedBytes},
        {"stats.promotions", s.promotions},
        {"stats.promotedBytes", s.promotedBytes},
        {"stats.probationRejections", s.probationRejections},
        {"stats.placementFailures", s.placementFailures},
        // The overhead breakdown aggregates a cost per cache event, so
        // equal overheads mean equivalent event streams, not just
        // matching end counters.
        {"overhead.traceGeneration", o.traceGeneration},
        {"overhead.contextSwitches", o.contextSwitches},
        {"overhead.evictions", o.evictions},
        {"overhead.promotions", o.promotions},
        {"overhead.copies", o.copies},
    }};
}

/** Expect the benchmark and every numeric field of @p a and @p b to be
 *  equal (the manager name is not compared); @p what labels a
 *  failure. */
inline void
expectIdentical(const sim::SimResult &a, const sim::SimResult &b,
                const std::string &what)
{
    EXPECT_EQ(a.benchmark, b.benchmark) << what;
    const auto x = numericFields(a);
    const auto y = numericFields(b);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].second, y[i].second)
            << what << ": " << x[i].first;
    }
}

/** Digest of the benchmark, the manager name and every numeric field,
 *  in declaration order. */
inline std::uint64_t
digestOf(const sim::SimResult &result)
{
    Fnv1a hash;
    hash.addText(result.benchmark);
    hash.addText(result.manager);
    for (const auto &field : numericFields(result)) {
        hash.add(field.second);
    }
    return hash.value();
}

/** @p digest as a table literal, "0x" and 16 hex digits. */
inline std::string
hexDigest(std::uint64_t digest)
{
    char text[24];
    std::snprintf(text, sizeof(text), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return text;
}

/** The row of @p table labelled @p label, or nullptr. */
template <typename Row, std::size_t N>
const Row *
findRow(const Row (&table)[N], const std::string &label)
{
    for (const Row &row : table) {
        if (label == row.label) {
            return &row;
        }
    }
    return nullptr;
}

/** A committed row of @p N result digests under one label. */
template <std::size_t N>
struct DigestRow
{
    const char *label;
    std::array<std::uint64_t, N> digests;
};

/** @p digests as a DigestRow literal, wrapped at 75 columns. */
template <std::size_t N>
std::string
digestRowText(const std::string &label,
              const std::array<std::uint64_t, N> &digests)
{
    std::string text = "    {\"" + label + "\", {";
    std::size_t lineStart = 0;
    for (std::size_t i = 0; i < N; ++i) {
        const std::string item =
            hexDigest(digests[i]) + (i + 1 < N ? "," : "}},");
        if (text.size() - lineStart + 1 + item.size() > 75) {
            lineStart = text.size() + 1;
            text += "\n     ";
        } else if (i > 0) {
            text += ' ';
        }
        text += item;
    }
    return text;
}

/** Expect @p digests to be the committed row of @p table labelled
 *  @p label; on a mismatch, print the row that would replace it. */
template <std::size_t N, std::size_t M>
void
expectRow(const DigestRow<N> (&table)[M], const char *table_name,
          const std::string &label,
          const std::array<std::uint64_t, N> &digests)
{
    const DigestRow<N> *golden = findRow(table, label);
    EXPECT_TRUE(golden != nullptr && golden->digests == digests)
        << label << " does not match a committed row. If the change "
        << "is intended, its row in " << table_name << " becomes:\n"
        << digestRowText(label, digests);
}

/** @p profile with its volume and duration scaled by @p factor, as
 *  the figure benches and perfbench scale it: the scales the
 *  committed log rows are recorded at. */
inline workload::BenchmarkProfile
scaledProfile(workload::BenchmarkProfile profile, double factor)
{
    profile.finalCacheKb = std::max(profile.finalCacheKb * factor, 16.0);
    profile.durationSec = std::max(profile.durationSec * factor, 0.25);
    return profile;
}

} // namespace gencache::identity

#endif // GENCACHE_TESTS_SIM_IDENTITY_H
