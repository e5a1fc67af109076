/**
 * @file
 * Seeded corruption of gclog streams, shared by the codec's committed
 * outcomes (Serialize.CorruptStreamsMatchCommittedOutcomes in
 * test_tracelog.cc) and the tool-level fuzz cases (test_tool_fuzz.cc):
 * the hand-built sample log, the six clean streams both start from,
 * and mutate(), the one corruption they both apply.
 */

#ifndef GENCACHE_TESTS_CORRUPT_STREAMS_H
#define GENCACHE_TESTS_CORRUPT_STREAMS_H

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim_identity.h"
#include "support/format.h"
#include "support/rng.h"
#include "tracelog/event.h"
#include "tracelog/serialize.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace gencache::corrupt {

/** A small hand-built log: two modules, a pin and unpin, an unload. */
inline tracelog::AccessLog
sampleLog()
{
    using tracelog::Event;
    tracelog::AccessLog log;
    log.setBenchmark("sample");
    log.setDuration(1000);
    log.setFootprintBytes(4096);
    log.append(Event::moduleLoad(0, 0));
    log.append(Event::moduleLoad(0, 1));
    log.append(Event::traceCreate(10, 1, 100, 0));
    log.append(Event::traceExec(20, 1));
    log.append(Event::traceCreate(30, 2, 200, 1));
    log.append(Event::pin(40, 2));
    log.append(Event::unpin(50, 2));
    log.append(Event::traceExec(900, 1));
    log.append(Event::moduleUnload(950, 1));
    return log;
}

/** One clean encoding of a log. */
struct CleanStream
{
    std::string label;     ///< "<log> v<version>" or "<log> text"
    std::string bytes;
    const char *extension; ///< ".gclogb" or ".gclog": picks the reader
};

/** Both binary versions and the text of sampleLog() and of solitaire
 *  at scale 0.03, in seed order: the binary streams first, as they
 *  were committed before the text ones. */
inline std::vector<CleanStream>
cleanStreams()
{
    const std::pair<const char *, tracelog::AccessLog> logs[] = {
        {"sample", sampleLog()},
        {"solitaire", workload::generateWorkload(identity::scaledProfile(
                          workload::findProfile("solitaire"), 0.03))},
    };
    std::vector<CleanStream> streams;
    for (const auto &[name, log] : logs) {
        for (int version : {1, 2}) {
            std::stringstream stream;
            tracelog::writeBinary(log, stream, version);
            streams.push_back({std::string(name) + " v" +
                                   std::to_string(version),
                               stream.str(), ".gclogb"});
        }
    }
    for (const auto &[name, log] : logs) {
        std::stringstream stream;
        tracelog::writeText(log, stream);
        streams.push_back(
            {std::string(name) + " text", stream.str(), ".gclog"});
    }
    return streams;
}

/** Corrupt @p bytes as @p rng draws it: 1-4 bit flips, a splice of
 *  1-64 bytes copied from elsewhere in the stream, or a truncation.
 *  @return what was done. */
inline std::string
mutate(std::string &bytes, Rng &rng)
{
    const auto size = static_cast<std::int64_t>(bytes.size());
    switch (rng.uniformInt(0, 2)) {
      case 0: {
        std::string what = "flip bits";
        for (auto flips = rng.uniformInt(1, 4); flips > 0; --flips) {
            const std::int64_t bit = rng.uniformInt(0, 8 * size - 1);
            bytes[static_cast<std::size_t>(bit / 8)] ^=
                static_cast<char>(1 << (bit % 8));
            what += " " + std::to_string(bit);
        }
        return what;
      }
      case 1: {
        const std::int64_t length =
            std::min<std::int64_t>(rng.uniformInt(1, 64), size);
        const std::int64_t from = rng.uniformInt(0, size - length);
        const std::int64_t to = rng.uniformInt(0, size - length);
        const std::string piece = bytes.substr(
            static_cast<std::size_t>(from),
            static_cast<std::size_t>(length));
        bytes.replace(static_cast<std::size_t>(to), piece.size(), piece);
        return format("splice {} bytes from {} to {}", length, from, to);
      }
      default: {
        const std::int64_t cut = rng.uniformInt(0, size - 1);
        bytes.resize(static_cast<std::size_t>(cut));
        return format("truncate to {} bytes", cut);
      }
    }
}

} // namespace gencache::corrupt

#endif // GENCACHE_TESTS_CORRUPT_STREAMS_H
