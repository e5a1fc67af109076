/**
 * @file
 * Shared helpers for the benchmark harness binaries.
 *
 * paper_figures (every table, figure, sweep and ablation,
 * paper_figures.h), policy_tournament and fleet_replay replay the full
 * benchmark suites by default. Set GENCACHE_SCALE=<factor> (e.g. 0.1)
 * to scale workload volume down proportionally for quick runs —
 * insertion rates and shapes are preserved, absolute sizes shrink.
 */

#ifndef GENCACHE_BENCH_BENCH_UTIL_H
#define GENCACHE_BENCH_BENCH_UTIL_H

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "support/logging.h"
#include "support/simd.h"
#include "workload/profile.h"

namespace gencache::bench {

/** Scale factor from GENCACHE_SCALE (default 1.0, clamped to
 *  [0.01, 10]). A value that is not one whole, finite, unsigned
 *  number (starting with a digit or '.') is rejected with a warning
 *  in favour of the default. */
inline double
scaleFactor()
{
    const char *env = std::getenv("GENCACHE_SCALE");
    if (env == nullptr) {
        return 1.0;
    }
    // Accept only a complete decimal number: atof() turned "abc"
    // into 0, which the clamp below then silently shrank to 0.01, and
    // strtod() alone skips a leading blank or sign (" 0.5", "+0.5").
    char *end = nullptr;
    errno = 0;
    double value = std::strtod(env, &end);
    if ((!std::isdigit(static_cast<unsigned char>(env[0])) &&
         env[0] != '.') ||
        *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
        warn("ignoring invalid GENCACHE_SCALE='{}' (not a finite "
             "number); using 1.0",
             env);
        return 1.0;
    }
    if (value < 0.01) {
        return 0.01;
    }
    if (value > 10.0) {
        return 10.0;
    }
    return value;
}

/** Scale one profile's volume and duration by @p factor (a binary
 *  reads scaleFactor() once and passes it to every profile). */
inline workload::BenchmarkProfile
scaled(workload::BenchmarkProfile profile, double factor)
{
    profile.finalCacheKb *= factor;
    profile.durationSec *= factor;
    if (profile.finalCacheKb < 16.0) {
        profile.finalCacheKb = 16.0;
    }
    if (profile.durationSec < 0.25) {
        profile.durationSec = 0.25;
    }
    return profile;
}

/** All SPEC2000 profiles, scaled by @p factor. */
inline std::vector<workload::BenchmarkProfile>
scaledSpecProfiles(double factor)
{
    std::vector<workload::BenchmarkProfile> profiles;
    for (const auto &profile : workload::spec2000Profiles()) {
        profiles.push_back(scaled(profile, factor));
    }
    return profiles;
}

/** All interactive profiles, scaled by @p factor. */
inline std::vector<workload::BenchmarkProfile>
scaledInteractiveProfiles(double factor)
{
    std::vector<workload::BenchmarkProfile> profiles;
    for (const auto &profile : workload::interactiveProfiles()) {
        profiles.push_back(scaled(profile, factor));
    }
    return profiles;
}

/** Print a section banner. */
inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

/** Monotonic wall-clock stopwatch for before/after perf numbers. */
class WallTimer
{
  public:
    WallTimer() : start_(Clock::now()) {}

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_)
            .count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * Minimal ordered JSON object builder for perf artifacts
 * (BENCH_*.json). Keys keep insertion order; values are numbers,
 * strings, bools, or pre-rendered JSON (nested objects/arrays).
 */
class JsonObject
{
  public:
    JsonObject &put(const std::string &key, const std::string &value)
    {
        return putRaw(key, quote(value));
    }
    JsonObject &put(const std::string &key, const char *value)
    {
        return putRaw(key, quote(value));
    }
    JsonObject &put(const std::string &key, double value)
    {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.6g", value);
        return putRaw(key, buffer);
    }
    JsonObject &put(const std::string &key, std::uint64_t value)
    {
        return putRaw(key, std::to_string(value));
    }
    JsonObject &put(const std::string &key, std::int64_t value)
    {
        return putRaw(key, std::to_string(value));
    }
    JsonObject &put(const std::string &key, int value)
    {
        return putRaw(key, std::to_string(value));
    }
    JsonObject &put(const std::string &key, bool value)
    {
        return putRaw(key, value ? "true" : "false");
    }
    /** Insert @p raw_json (an already-rendered value) verbatim. */
    JsonObject &putRaw(const std::string &key,
                       const std::string &raw_json)
    {
        if (!body_.empty()) {
            body_ += ",";
        }
        body_ += quote(key) + ":" + raw_json;
        return *this;
    }

    std::string toString() const { return "{" + body_ + "}"; }

    /** Render @p text as a JSON string literal. */
    static std::string quote(const std::string &text)
    {
        std::string out = "\"";
        for (char c : text) {
            switch (c) {
              case '"': out += "\\\""; break;
              case '\\': out += "\\\\"; break;
              case '\n': out += "\\n"; break;
              case '\t': out += "\\t"; break;
              default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                                  c);
                    out += buffer;
                } else {
                    out += c;
                }
            }
        }
        out += "\"";
        return out;
    }

  private:
    std::string body_;
};

/** Companion array builder; elements are pre-rendered JSON values. */
class JsonArray
{
  public:
    JsonArray &push(const JsonObject &object)
    {
        return pushRaw(object.toString());
    }
    JsonArray &pushRaw(const std::string &raw_json)
    {
        if (!body_.empty()) {
            body_ += ",";
        }
        body_ += raw_json;
        return *this;
    }

    std::string toString() const { return "[" + body_ + "]"; }

  private:
    std::string body_;
};

/** Best-effort git revision of the working tree; "unknown" when the
 *  binary runs outside a checkout (or git is unavailable). */
inline std::string
gitRevision()
{
    FILE *pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
    if (pipe == nullptr) {
        return "unknown";
    }
    char buffer[80] = {0};
    std::string sha;
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
        sha = buffer;
        while (!sha.empty() &&
               (sha.back() == '\n' || sha.back() == '\r')) {
            sha.pop_back();
        }
    }
    ::pclose(pipe);
    return sha.empty() ? "unknown" : sha;
}

/** The run-environment stamp every perf artifact carries: where the
 *  numbers came from (revision), and what changes them without a code
 *  change (the binary's scale @p factor and @p threads, SIMD dispatch). */
inline JsonObject
runMetadata(double factor, std::size_t threads)
{
    JsonObject meta;
    meta.put("git_sha", gitRevision())
        .put("threads", static_cast<std::uint64_t>(threads))
        .put("simd", simd::activeSimdMode())
        .put("scale", factor);
    return meta;
}

/** Write @p object to @p path (stamped with runMetadata(@p factor,
 *  @p threads) under a "meta" key) and report where it went.
 *  @return false (with a message) when the file cannot be written. */
inline bool
writeJsonArtifact(const std::string &path, const JsonObject &object,
                  double factor, std::size_t threads)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write perf artifact %s\n",
                     path.c_str());
        return false;
    }
    JsonObject stamped = object;
    stamped.putRaw("meta", runMetadata(factor, threads).toString());
    out << stamped.toString() << "\n";
    std::printf("\nperf artifact: %s\n", path.c_str());
    return true;
}

} // namespace gencache::bench

#endif // GENCACHE_BENCH_BENCH_UTIL_H
