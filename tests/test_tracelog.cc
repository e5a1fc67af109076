/**
 * @file
 * Unit tests for the access log: event construction, validation,
 * text/binary round trips, and lifetime analysis (Equation 2).
 *
 * The codec is pinned by data: committed digests of both binary
 * versions' encodings of five logs, and of the outcomes of a fixed
 * budget of seeded corruptions of binary and text streams loaded
 * through tryLoadLog. On a mismatch the failure prints the
 * replacement row; an intended change is recorded by pasting it over
 * the old one.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "codecache/unified_cache.h"
#include "corrupt_streams.h"
#include "guest/synthetic_program.h"
#include "runtime/runtime.h"
#include "sim_identity.h"
#include "support/format.h"
#include "support/rng.h"
#include "tracelog/compiled_log.h"
#include "tracelog/event.h"
#include "tracelog/lifetime.h"
#include "tracelog/serialize.h"
#include "workload/generator.h"
#include "workload/profile.h"

namespace gencache::tracelog {
namespace {

using corrupt::sampleLog;

TEST(AccessLog, TracksCreatedVolume)
{
    AccessLog log = sampleLog();
    EXPECT_EQ(log.createdTraceCount(), 2u);
    EXPECT_EQ(log.createdTraceBytes(), 300u);
    EXPECT_EQ(log.size(), 9u);
}

TEST(AccessLog, ValidatePassesOnWellFormedLog)
{
    sampleLog().validate();
}

TEST(AccessLogDeath, RejectsTimeTravel)
{
    AccessLog log;
    log.append(Event::traceCreate(10, 1, 100, 0));
    EXPECT_DEATH(log.append(Event::traceExec(5, 1)), "backwards");
}

TEST(AccessLogDeath, ValidateCatchesUseBeforeCreate)
{
    AccessLog log;
    log.append(Event::traceExec(5, 1));
    EXPECT_DEATH(log.validate(), "before creation");
}

TEST(AccessLogDeath, ValidateCatchesDuplicateCreate)
{
    AccessLog log;
    log.append(Event::moduleLoad(0, 0));
    log.append(Event::traceCreate(1, 1, 10, 0));
    log.append(Event::traceCreate(2, 1, 10, 0));
    EXPECT_DEATH(log.validate(), "duplicate");
}

TEST(AccessLogDeath, ValidateCatchesUnloadWithoutLoad)
{
    AccessLog log;
    log.append(Event::moduleUnload(1, 3));
    EXPECT_DEATH(log.validate(), "not loaded");
}

TEST(AccessLog, ModuleReloadIsLegal)
{
    AccessLog log;
    log.append(Event::moduleLoad(0, 1));
    log.append(Event::moduleUnload(10, 1));
    log.append(Event::moduleLoad(20, 1));
    log.validate();
}

TEST(Serialize, TextRoundTrip)
{
    AccessLog original = sampleLog();
    std::stringstream stream;
    writeText(original, stream);
    AccessLog loaded = readText(stream);

    EXPECT_EQ(loaded.benchmark(), original.benchmark());
    EXPECT_EQ(loaded.duration(), original.duration());
    EXPECT_EQ(loaded.footprintBytes(), original.footprintBytes());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].type, original[i].type) << i;
        EXPECT_EQ(loaded[i].time, original[i].time) << i;
        EXPECT_EQ(loaded[i].trace, original[i].trace) << i;
        EXPECT_EQ(loaded[i].sizeBytes, original[i].sizeBytes) << i;
        EXPECT_EQ(loaded[i].module, original[i].module) << i;
    }
}

TEST(Serialize, BinaryRoundTrip)
{
    AccessLog original = sampleLog();
    std::stringstream stream;
    writeBinary(original, stream);
    AccessLog loaded = readBinary(stream);
    EXPECT_EQ(loaded.benchmark(), original.benchmark());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].type, original[i].type) << i;
        EXPECT_EQ(loaded[i].time, original[i].time) << i;
        EXPECT_EQ(loaded[i].trace, original[i].trace) << i;
    }
}

TEST(Serialize, FileRoundTripBothFormats)
{
    AccessLog original = sampleLog();
    for (const char *name : {"/tmp/gencache_test.gclog",
                             "/tmp/gencache_test.gclogb"}) {
        saveLog(original, name);
        AccessLog loaded = loadLog(name);
        EXPECT_EQ(loaded.size(), original.size()) << name;
        EXPECT_EQ(loaded.benchmark(), original.benchmark()) << name;
        std::remove(name);
    }
}

/** Write a text journal of @p events (@p count of them), lasting
 *  @p duration microseconds, to a file private to this process and
 *  return its path. */
std::string
writeJournal(const std::string &events, std::size_t count,
             const char *duration = "10")
{
    std::string path = ::testing::TempDir() + "gencache_journal_" +
                       std::to_string(getpid()) + ".gclog";
    std::FILE *file = std::fopen(path.c_str(), "w");
    EXPECT_NE(file, nullptr) << path;
    std::fprintf(file,
                 "gclog 1\nbenchmark journal\nduration_us %s\n"
                 "footprint_bytes 64\nevents %zu\n%s",
                 duration, count, events.c_str());
    std::fclose(file);
    return path;
}

TEST(Serialize, TryLoadLogRejectsBrokenEventSemantics)
{
    // Journals are user input: events that break the log's rules are
    // a load failure naming the culprit, not a panic in whatever
    // replays the log next.
    struct Case
    {
        const char *name;
        const char *events;
        std::size_t count;
        const char *culprit;
        const char *duration = "10";
    };
    const Case broken[] = {
        {"exec before create",
         "load 0 0 0 1\nexec 5 42 0 0\ncreate 6 42 64 1\n", 3,
         "trace 42"},
        {"duplicate create",
         "load 0 0 0 1\ncreate 1 42 64 1\ncreate 2 42 64 1\n", 3,
         "trace 42"},
        {"unload of a module never loaded",
         "load 0 0 0 1\nunload 3 0 0 7\n", 2, "module 7"},
        {"time running backwards", "load 5 0 0 1\nload 4 0 0 2\n", 2,
         "earlier"},
        // kInvalidTrace, 2^64 - 1, is a number the text reader takes.
        {"reserved trace id",
         "load 0 0 0 1\ncreate 1 18446744073709551615 64 1\n"
         "exec 2 18446744073709551615 0 0\n",
         3, "trace 18446744073709551615"},
        {"load of the reserved module id", "load 0 0 0 4294967295\n", 1,
         "module 4294967295"},
        {"unload of the reserved module id",
         "load 0 0 0 1\nunload 1 0 0 4294967295\n", 2,
         "module 4294967295"},
        {"create in the reserved module id",
         "load 0 0 0 1\ncreate 1 42 64 4294967295\n", 2,
         "module 4294967295"},
        {"create in a module never loaded",
         "load 0 0 0 1\ncreate 1 42 64 7\nexec 2 42 0 0\n", 3,
         "module 7"},
        {"create after the module unloaded",
         "load 0 0 0 1\nunload 1 0 0 1\ncreate 2 42 64 1\n", 3,
         "module 1"},
        // Every number is one whole unsigned decimal that fits its
        // field: a sign, junk or an overflow names the field, the
        // event and the token, where it used to wrap or truncate.
        {"negative time", "load 0 0 0 1\ncreate -5 42 64 1\n", 2,
         "event 1 has bad time '-5'"},
        {"negative trace id",
         "load 0 0 0 1\ncreate 1 -1 64 1\nexec 2 -1 0 0\n", 3,
         "event 1 has bad trace '-1'"},
        {"negative size", "load 0 0 0 1\ncreate 5 42 -1 1\n", 2,
         "event 1 has bad size '-1'"},
        {"negative module", "load 0 0 0 -1\n", 1,
         "event 0 has bad module '-1'"},
        {"plus sign", "load 0 0 0 1\ncreate 5 42 +64 1\n", 2,
         "event 1 has bad size '+64'"},
        {"negative zero", "load 0 0 0 1\ncreate 5 42 64 -0\n", 2,
         "event 1 has bad module '-0'"},
        {"size of 2^32", "load 0 0 0 1\ncreate 5 42 4294967296 1\n", 2,
         "event 1 has bad size '4294967296'"},
        {"trace id of 2^64",
         "load 0 0 0 1\ncreate 5 18446744073709551616 64 1\n", 2,
         "event 1 has bad trace '18446744073709551616'"},
        {"trailing junk", "load 0 0 0 1\ncreate 4x 42 64 1\n", 2,
         "event 1 has bad time '4x'"},
        {"negative duration", "load 0 0 0 1\n", 1,
         "bad duration_us '-6'", "-6"},
    };
    for (const Case &c : broken) {
        std::string path = writeJournal(c.events, c.count, c.duration);
        AccessLog log;
        std::string error;
        EXPECT_FALSE(tryLoadLog(path, log, error)) << c.name;
        EXPECT_NE(error.find(c.culprit), std::string::npos)
            << c.name << ": " << error;
        EXPECT_EQ(error.rfind("'" + path + "': ", 0), 0u)
            << c.name << ": " << error;
        std::remove(path.c_str());
    }

    // A module reload re-creates its traces under the same ids.
    std::string path = writeJournal(
        "load 0 0 0 1\ncreate 1 42 64 1\nexec 2 42 0 0\n"
        "unload 3 0 0 1\nload 4 0 0 1\ncreate 5 42 64 1\n"
        "exec 6 42 0 0\n",
        7);
    AccessLog log;
    std::string error;
    EXPECT_TRUE(tryLoadLog(path, log, error)) << error;
    EXPECT_EQ(log.size(), 7u);
    std::remove(path.c_str());
}

TEST(SerializeDeath, LoadLogRejectsBrokenEventSemantics)
{
    std::string path = writeJournal(
        "load 0 0 0 1\nexec 5 42 0 0\ncreate 6 42 64 1\n", 3);
    EXPECT_EXIT(loadLog(path), ::testing::ExitedWithCode(1),
                "trace 42 used before creation");
    std::remove(path.c_str());
}

TEST(SerializeDeath, MissingFileIsFatal)
{
    EXPECT_EXIT(loadLog("/nonexistent/path.gclog"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(SerializeDeath, GarbageTextIsFatal)
{
    std::stringstream stream("not a log at all");
    EXPECT_EXIT(readText(stream), ::testing::ExitedWithCode(1),
                "not a gclog");
}

TEST(SerializeDeath, GarbageBinaryIsFatal)
{
    std::stringstream stream("XXXXXXXXXXXXXXXX");
    EXPECT_EXIT(readBinary(stream), ::testing::ExitedWithCode(1),
                "not a gclog");
}

TEST(SerializeDeath, TruncatedBinaryIsFatal)
{
    AccessLog original = sampleLog();
    std::stringstream stream;
    writeBinary(original, stream);
    std::string bytes = stream.str();
    std::stringstream truncated(
        bytes.substr(0, bytes.size() / 2));
    EXPECT_EXIT(readBinary(truncated), ::testing::ExitedWithCode(1),
                "truncated");
}

void
expectLogsEqual(const AccessLog &loaded, const AccessLog &original)
{
    EXPECT_EQ(loaded.benchmark(), original.benchmark());
    EXPECT_EQ(loaded.duration(), original.duration());
    EXPECT_EQ(loaded.footprintBytes(), original.footprintBytes());
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].type, original[i].type) << i;
        EXPECT_EQ(loaded[i].time, original[i].time) << i;
        EXPECT_EQ(loaded[i].trace, original[i].trace) << i;
        EXPECT_EQ(loaded[i].sizeBytes, original[i].sizeBytes) << i;
        EXPECT_EQ(loaded[i].module, original[i].module) << i;
    }
}

TEST(SerializeV2, RoundTripAllFields)
{
    AccessLog original = sampleLog();
    std::stringstream stream;
    writeBinary(original, stream, 2);
    expectLogsEqual(readBinary(stream), original);
}

TEST(SerializeV2, RoundTripsSentinelIds)
{
    // kNoModule and the default field values of non-create events
    // sit at the edges of the +1-shifted varint encoding.
    AccessLog original;
    original.append(Event::traceCreate(0, 0, 16, cache::kNoModule));
    original.append(Event::traceExec(5, 0));
    std::stringstream stream;
    writeBinary(original, stream, 2);
    expectLogsEqual(readBinary(stream), original);
}

TEST(SerializeV2, SmallerThanV1)
{
    AccessLog log = sampleLog();
    std::stringstream v1;
    std::stringstream v2;
    writeBinary(log, v1, 1);
    writeBinary(log, v2, 2);
    EXPECT_LT(v2.str().size(), v1.str().size());
}

TEST(SerializeV2, V1StillLoads)
{
    AccessLog original = sampleLog();
    std::stringstream stream;
    writeBinary(original, stream, 1);
    expectLogsEqual(readBinary(stream), original);
}

TEST(SerializeV2Death, UnsupportedVersionIsFatal)
{
    AccessLog log = sampleLog();
    std::stringstream stream;
    EXPECT_EXIT(writeBinary(log, stream, 3),
                ::testing::ExitedWithCode(1),
                "unsupported binary gclog version");
}

TEST(SerializeV2Death, TruncatedV2IsFatal)
{
    AccessLog original = sampleLog();
    std::stringstream stream;
    writeBinary(original, stream, 2);
    std::string bytes = stream.str();
    std::stringstream truncated(
        bytes.substr(0, bytes.size() / 2));
    EXPECT_EXIT(readBinary(truncated), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(SerializeV2Death, BadEventTypeIsFatal)
{
    // GCL2 header with empty name, zero duration/footprint, one
    // event whose type byte is out of range.
    std::string bytes("GCL2\0\0\0\x01\xff", 9);
    std::stringstream stream(bytes);
    EXPECT_EXIT(readBinary(stream), ::testing::ExitedWithCode(1),
                "bad event type");
}

TEST(SerializeV2Death, TimeOverflowIsFatal)
{
    // Two exec events whose summed time deltas overflow 64 bits.
    std::string bytes("GCL2\0\0\0\x02", 8);
    bytes += '\x01';                            // exec
    bytes += std::string(9, '\xff');            // delta =
    bytes += '\x01';                            //   2^64 - 1
    bytes += '\x02';                            // trace 1
    bytes += '\x01';                            // exec
    bytes += '\x01';                            // delta 1: overflow
    std::stringstream stream(bytes);
    EXPECT_EXIT(readBinary(stream), ::testing::ExitedWithCode(1),
                "time overflows");
}

TEST(SerializeV2Death, ZeroTraceReferenceIsFatal)
{
    // One exec event whose +1-biased trace varint is 0 — decoding it
    // would underflow to kInvalidTrace, so the loader must reject it.
    std::string bytes("GCL2\0\0\0\x01", 8);
    bytes += '\x01'; // exec
    bytes += '\x00'; // delta 0
    bytes += '\x00'; // trace reference 0: reserved
    std::stringstream stream(bytes);
    EXPECT_EXIT(readBinary(stream), ::testing::ExitedWithCode(1),
                "trace reference 0");
}

TEST(SerializeV2Death, OversizedTraceSizeIsFatal)
{
    // A create whose size varint needs more than 32 bits; silently
    // truncating it would corrupt every downstream byte count.
    std::string bytes("GCL2\0\0\0\x01", 8);
    bytes += '\x00';                    // create
    bytes += '\x00';                    // delta 0
    bytes += '\x01';                    // trace 0
    bytes += "\x80\x80\x80\x80\x10";    // size = 2^32
    bytes += '\x01';                    // module (unreached)
    std::stringstream stream(bytes);
    EXPECT_EXIT(readBinary(stream), ::testing::ExitedWithCode(1),
                "exceeds 32 bits");
}

TEST(SerializeV2Death, OversizedModuleReferenceIsFatal)
{
    std::string bytes("GCL2\0\0\0\x01", 8);
    bytes += '\x02';                        // module load
    bytes += '\x00';                        // delta 0
    bytes += "\x81\x80\x80\x80\x80\x10";    // module ref > 2^32
    std::stringstream stream(bytes);
    EXPECT_EXIT(readBinary(stream), ::testing::ExitedWithCode(1),
                "bad module reference");
}

TEST(SerializeV2Death, HugeEventCountIsNotReserved)
{
    // A header that announces 2^62 events, then one valid event. The
    // count is untrusted: the reader must report the truncation, not
    // reserve room for the count (which would throw length_error, and
    // exceed the allocator's maximum under ASan).
    std::string bytes("GCL2\0\0\0", 7);
    bytes += "\x80\x80\x80\x80\x80\x80\x80\x80\x40"; // 2^62 events
    bytes += std::string("\x02\x00\x01", 3);            // load module 0
    std::stringstream stream(bytes);
    EXPECT_EXIT(readBinary(stream), ::testing::ExitedWithCode(1),
                "truncated");
}

TEST(SerializeV2Death, EveryClipPointDiagnosesCleanly)
{
    // Clipping a valid stream at any byte boundary must produce a
    // clean fatal diagnostic, never a silent partial load or a read
    // past the buffer. Both versions share the reader.
    AccessLog original = sampleLog();
    for (int version : {1, 2}) {
        std::stringstream stream;
        writeBinary(original, stream, version);
        const std::string bytes = stream.str();
        for (std::size_t cut : {std::size_t{3}, std::size_t{7},
                                bytes.size() / 4, bytes.size() / 2,
                                bytes.size() - 2, bytes.size() - 1}) {
            std::stringstream clipped(bytes.substr(0, cut));
            EXPECT_EXIT(readBinary(clipped),
                        ::testing::ExitedWithCode(1), "gclog|truncated")
                << "v" << version << " clip at " << cut;
        }
    }
}

TEST(SerializeV2, BitFlipsNeverLoadSilentlyWrongEventCounts)
{
    // Flip one bit at a time across the whole stream. Every flip must
    // either still load (the flip hit a benign field: name byte,
    // metadata, a time delta, an id) or die with a diagnostic — the
    // loader must never crash uncleanly. Loads that succeed must not
    // read past the event count.
    AccessLog original = sampleLog();
    // Exit code 0 (benign flip, clean load) and 1 (fatal diagnostic)
    // are both fine; a crash signal is not.
    auto exited_cleanly = [](int status) {
        return WIFEXITED(status) && (WEXITSTATUS(status) == 0 ||
                                     WEXITSTATUS(status) == 1);
    };
    for (int version : {1, 2}) {
        std::stringstream stream;
        writeBinary(original, stream, version);
        const std::string bytes = stream.str();
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            for (int bit : {0, 3, 7}) {
                std::string mutated = bytes;
                mutated[i] = static_cast<char>(
                    mutated[i] ^ static_cast<char>(1 << bit));
                std::stringstream in(mutated);
                // Run the loader in a child so a fatal() exit does
                // not take the test down.
                EXPECT_EXIT(
                    {
                        AccessLog loaded = readBinary(in);
                        (void)loaded;
                        std::exit(0);
                    },
                    exited_cleanly, "")
                    << "v" << version << " byte " << i << " bit "
                    << bit;
            }
        }
    }
}

TEST(Serialize, ReaderStopsAtTheLogsLastByte)
{
    // The binary reader consumes exactly the log's bytes: a byte
    // written after the log is still the stream's next byte, which a
    // reader that read ahead would swallow.
    const AccessLog original = sampleLog();
    for (int version : {1, 2}) {
        std::stringstream stream;
        writeBinary(original, stream, version);
        const std::streampos end = stream.tellp();
        stream << 'Z';
        expectLogsEqual(readBinary(stream), original);
        EXPECT_EQ(stream.tellg(), end) << "v" << version;
        EXPECT_EQ(stream.get(), 'Z') << "v" << version;
    }
}

/** One committed encoding: its length and the FNV-1a of its bytes. */
struct GoldenEncoding
{
    const char *label; ///< "<log> v<version>"
    std::size_t bytes;
    std::uint64_t digest;
};

const GoldenEncoding kGoldenEncodings[] = {
    {"sample v1", 263, 0x1fae2307925a91d2},
    {"sample v2", 49, 0x9350e1c6e5420e48},
    {"gzip v1", 1035436, 0x057b2d7bce444273},
    {"gzip v2", 503065, 0x51251b6755769859},
    {"word v1", 3651861, 0xd6c5ff24b40a8c7c},
    {"word v2", 1641676, 0xfa05d76669fce1d8},
    {"fleet process 0 v1", 5772918, 0x94219047d611a6cb},
    {"fleet process 0 v2", 2573702, 0x6fba5e0ed545d9c0},
    {"live v1", 52007, 0xec21f066d808c5f8},
    {"live v2", 23810, 0x0270c383e8a69150},
};

/** The live runtime's log of one small synthetic program. */
AccessLog
liveLog()
{
    guest::SyntheticProgramConfig config;
    config.seed = 17;
    config.phases = 2;
    config.phaseIterations = 10;
    config.innerIterations = 8;
    config.dllCount = 1;
    const guest::SyntheticProgram synthetic =
        guest::generateSyntheticProgram(config);
    guest::AddressSpace space;
    for (const auto &module : synthetic.program.modules()) {
        space.map(*module);
    }
    cache::UnifiedCacheManager manager(0);
    runtime::Runtime runtime(space, manager, 10);
    runtime.start(synthetic.program.entry());
    runtime.run();
    return runtime.log();
}

// The binary writer's bytes, both versions, for a hand-built log, two
// generated profiles at methodology's scale, a fleet process and the
// live runtime, must reproduce their committed digests; each encoding
// must also decode back to its log.
TEST(Serialize, EncodingsMatchCommittedDigests)
{
    using workload::findProfile;
    const std::pair<const char *, AccessLog> logs[] = {
        {"sample", sampleLog()},
        {"gzip", workload::generateWorkload(
                     identity::scaledProfile(findProfile("gzip"), 0.03))},
        {"word", workload::generateWorkload(
                     identity::scaledProfile(findProfile("word"), 0.03))},
        {"fleet process 0",
         workload::generateFleetWorkload(
             {.processes = 2, .durationSec = 2.0})[0]},
        {"live", liveLog()},
    };
    for (const auto &[name, log] : logs) {
        EXPECT_EQ(log.firstViolation(), "") << name;
        for (int version : {1, 2}) {
            std::stringstream stream;
            writeBinary(log, stream, version);
            const std::string bytes = stream.str();
            identity::Fnv1a hash;
            hash.addText(bytes);
            const std::string label =
                std::string(name) + " v" + std::to_string(version);
            const GoldenEncoding *golden =
                identity::findRow(kGoldenEncodings, label);
            EXPECT_TRUE(golden != nullptr &&
                        golden->bytes == bytes.size() &&
                        golden->digest == hash.value())
                << label << " does not match a committed row. If the "
                << "change is intended, its row in kGoldenEncodings "
                << "becomes:\n    {\"" << label << "\", " << bytes.size()
                << ", " << identity::hexDigest(hash.value()) << "},";
            expectLogsEqual(readBinary(stream), log);
        }
    }
}

/** FNV-1a of a loaded log: its metadata, its event count, then every
 *  field of every event. */
std::uint64_t
logDigest(const AccessLog &log)
{
    identity::Fnv1a hash;
    hash.addText(log.benchmark());
    hash.add(log.duration());
    hash.add(log.footprintBytes());
    hash.add(log.size());
    for (const Event &event : log.events()) {
        hash.add(static_cast<std::uint64_t>(event.type));
        hash.add(event.time);
        hash.add(event.trace);
        hash.add(event.sizeBytes);
        hash.add(event.module);
    }
    return hash.value();
}

/** One corrupted stream's committed outcomes: the FNV-1a over every
 *  case's outcome, in case order, and the low hex digit of each
 *  case's outcome, which locates the first case that moved. */
struct GoldenOutcomes
{
    const char *label; ///< "<log> v<version>" or "<log> text"
    std::uint64_t digest;
    const char *cases;
};

const GoldenOutcomes kGoldenOutcomes[] = {
    {"sample v1", 0x3968b20fe036edd9,
     "9bb98985caf55595c555755c38f8bf55192d59f85c53565affe9595ab9526f55"
     "55f5573e025b6b99e5b9c5f5845f3f555555f465d5edd56195b55d74930535c5"
     "56234f5c185af5bffa55e81551b0df55f50c5b656153575555bd155495d51c5d"
     "755e8551555431f59969195353d84425f0f45a25a92ff36a5f3b591505955585"
     "85885ca5f31455b55505555de1df5559c578d514953b"},
    {"sample v2", 0xe52b044e3bc4011f,
     "93989d1354753545859553153913551709555996983571e655f9991551b53185"
     "76595181631f3549555a5e715316f835191e5d9b2969519d0e1617555555d952"
     "53e83efebb155e8195f9b559b2ebf531f15599121e4c1995b15d965962155315"
     "59d15f1869d79a991b999b1559335159351b1d9b359c5531dd55bd539ab59137"
     "29955b9159153585b8553155b0196558ed51556db377"},
    {"solitaire v1", 0x5402c2d0d266f8ac,
     "0ccf10ca56549975dc12555552daf8f355cc555eee575455c5552d5558355555"
     "8f75355a54a51da5055555f65fd8555d5d5545155d59545f0505fa8ef75d9585"
     "550555e95dd554b8ab57e0d9575555504605250785e5b953e5f5c1c5f920691f"
     "6d45c333559f256f0555a758da565555b515dc5c5068a7bf5575b5ad595755c5"
     "f72545a158ea1c5595d253945c5f8cf55553fa53c545"},
    {"solitaire v2", 0x174ff0debaadd4f5,
     "557eb005c045c85d0d7556df5558c6d5055aba56b06863f56d5b2055cb555d5e"
     "c761f58e5505e5a0515bb5d8f5c555d505b55552b585ae25516a55e5665bad50"
     "9f5e580552505d1d5b950f1ff51525554080d6f8f0dd7d59067b555b4055bd72"
     "05407598605580244575280d5b858f5d6cb01013cbb59520655668430555ae87"
     "5708de5567054ab8c055bd3cc6825505595056555c5c"},
    {"sample text", 0xeb861810dd840173,
     "178eba4f6dfc1f9b76d52c9b044dae3eba2cb47d14221d5b2d6142e90cdb07c6"
     "ef3495cd7b3988cb5d4c7948d3cfeb19f48467d2add418b24b3cf4bfc0fcb55a"
     "da7b478cfb8e3971d94ad548490873e1a86cfd0c30071b0d344b4c93d48b473b"
     "f4cdd58fc33bdf7ea87a9d8c5aa4c805dd13b9f7b0efdf4896d5b4df43b27a3e"
     "f9bcead01c89edf68bbdba69affce3a4831b8e73d30f"},
    {"solitaire text", 0x4875e8f27576bb81,
     "6a4e2b3ac8326bc8258f6d80ddadebe04b4667d60656644c83859da28f27ab37"
     "61c9a4d6be5aaa24dc668336e6a6fe38808e98619b4955665bfdd22f4547a98f"
     "2515eefb49900413853fad23494f0f1a240f0a94305eb89b72bf3a37eefeec8c"
     "4ca2b4eb6c2c7ecbd86e46b0561b60c8c192d2ebd6db624f97c8031495aa70a6"
     "96a8c0d2007a4ce14a9f08121e1ec836968e168a15de"},
};

// A fixed budget of seeded corruptions of six clean streams, both
// binary versions and the text of two logs, each loaded through
// tryLoadLog from a file: every case must return, and each case's
// outcome (the loaded log's digest, or the error without the path)
// must reproduce the committed rows.
TEST(Serialize, CorruptStreamsMatchCommittedOutcomes)
{
    constexpr int kCasesPerStream = 300;
    const std::string stem = ::testing::TempDir() + "gencache_corrupt_" +
                             std::to_string(getpid());
    std::uint64_t seed = 18;
    for (const corrupt::CleanStream &clean : corrupt::cleanStreams()) {
        const std::string path = stem + clean.extension;
        Rng rng(seed++);
        identity::Fnv1a digest;
        std::string cases;
        std::vector<std::string> described;
        for (int i = 0; i < kCasesPerStream; ++i) {
            std::string bytes = clean.bytes;
            const std::string mutation = corrupt::mutate(bytes, rng);
            std::ofstream(path, std::ios::binary) << bytes;
            AccessLog loaded;
            std::string result;
            std::uint64_t outcome = 0;
            if (tryLoadLog(path, loaded, result)) {
                outcome = logDigest(loaded);
                result = format("loads {} events", loaded.size());
            } else {
                for (auto at = result.find(path); at != std::string::npos;
                     at = result.find(path)) {
                    result.erase(at, path.size());
                }
                identity::Fnv1a hash;
                hash.addText(result);
                outcome = hash.value();
            }
            digest.add(outcome);
            cases += "0123456789abcdef"[outcome & 0xf];
            described.push_back(format("case {} ({}): {}, {}", i, mutation,
                                       result,
                                       identity::hexDigest(outcome)));
        }
        const GoldenOutcomes *golden =
            identity::findRow(kGoldenOutcomes, clean.label);
        if (golden != nullptr && golden->digest == digest.value() &&
            golden->cases == cases) {
            continue;
        }
        std::size_t first = 0;
        while (golden != nullptr && first < cases.size() &&
               golden->cases[first] == cases[first]) {
            ++first;
        }
        std::string row = "    {\"" + clean.label + "\", " +
                          identity::hexDigest(digest.value()) + ",";
        for (std::size_t at = 0; at < cases.size(); at += 64) {
            row += "\n     \"" + cases.substr(at, 64) + "\"";
        }
        ADD_FAILURE() << clean.label << " does not match a committed row; "
                      << (first < cases.size()
                              ? "first differing case: " + described[first]
                              : "no single case's digit moved")
                      << ". If the change is intended, its row in "
                      << "kGoldenOutcomes becomes:\n"
                      << row << "},";
    }
    std::remove((stem + ".gclogb").c_str());
    std::remove((stem + ".gclog").c_str());
}

// A file's buffer reports only the block it holds, so the reader asks
// the file how many bytes are left: a loaded log's event vector is
// reserved once, for exactly its events, instead of growing by
// doubling.
TEST(Serialize, FileLoadReservesTheEventsOnce)
{
    const AccessLog log = workload::generateWorkload(identity::scaledProfile(
        workload::findProfile("word"), 0.03));
    ASSERT_GE(log.size(), 100000u);
    const std::string path = ::testing::TempDir() + "gencache_reserve_" +
                             std::to_string(getpid()) + ".gclogb";
    for (int version : {1, 2}) {
        saveLog(log, path, version);
        const AccessLog loaded = loadLog(path);
        EXPECT_EQ(loaded.size(), log.size()) << "v" << version;
        EXPECT_EQ(loaded.events().capacity(), loaded.size())
            << "v" << version;
    }
    std::remove(path.c_str());
}

TEST(CompiledLog, ColumnsMirrorTheLog)
{
    AccessLog log = sampleLog();
    CompiledLog compiled = CompiledLog::compile(log);
    EXPECT_EQ(compiled.benchmark(), log.benchmark());
    EXPECT_EQ(compiled.duration(), log.duration());
    EXPECT_EQ(compiled.footprintBytes(), log.footprintBytes());
    EXPECT_EQ(compiled.createdTraceBytes(), log.createdTraceBytes());
    EXPECT_EQ(compiled.createdTraceCount(), log.createdTraceCount());
    ASSERT_EQ(compiled.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(compiled.types()[i], log[i].type) << i;
        EXPECT_EQ(compiled.times()[i], log[i].time) << i;
    }
}

TEST(CompiledLog, DenseRemapPreservesIdentity)
{
    AccessLog log = sampleLog();
    CompiledLog compiled = CompiledLog::compile(log);
    ASSERT_EQ(compiled.traceCount(), 2u);
    // Dense ids are assigned in order of first appearance.
    EXPECT_EQ(compiled.originalId(0), 1u);
    EXPECT_EQ(compiled.originalId(1), 2u);
    EXPECT_EQ(compiled.traceSize(0), 100u);
    EXPECT_EQ(compiled.traceSize(1), 200u);
    EXPECT_EQ(compiled.traceModule(0), 0u);
    EXPECT_EQ(compiled.traceModule(1), 1u);
    // Every trace-bearing event column entry stays in bounds.
    for (std::size_t i = 0; i < compiled.size(); ++i) {
        EventType type = compiled.types()[i];
        if (type == EventType::ModuleLoad ||
            type == EventType::ModuleUnload) {
            continue;
        }
        EXPECT_LT(compiled.traces()[i], compiled.traceCount()) << i;
    }
}

TEST(CompiledLog, DenseRemapGrowsPastTheCreatedCount)
{
    // Pins may name traces the log never creates, so the remap must
    // outgrow its created-count sizing hint and keep every id.
    AccessLog log;
    log.append(Event::traceCreate(0, 5, 64, cache::kNoModule));
    const cache::TraceId kIds = 1000;
    for (cache::TraceId id = 0; id < kIds; ++id) {
        log.append(Event::pin(static_cast<TimeUs>(id + 1), id << 32));
    }
    for (cache::TraceId id = kIds; id-- > 0;) {
        log.append(Event::unpin(static_cast<TimeUs>(2 * kIds - id),
                                id << 32));
    }
    CompiledLog compiled = CompiledLog::compile(log);
    ASSERT_EQ(compiled.traceCount(), kIds + 1);
    EXPECT_EQ(compiled.originalId(0), 5u);
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(compiled.originalId(compiled.traces()[i]), log[i].trace)
            << i;
    }
    for (cache::TraceId id = 0; id < kIds; ++id) {
        EXPECT_EQ(compiled.originalId(static_cast<DenseTraceId>(id + 1)),
                  id << 32);
    }
}

TEST(CompiledLog, ModuleRangesCoverLoadsAndUnloads)
{
    AccessLog log = sampleLog();
    CompiledLog compiled = CompiledLog::compile(log);
    ASSERT_EQ(compiled.moduleRanges().size(), 2u);
    const CompiledLog::ModuleRange &mod0 = compiled.moduleRanges()[0];
    const CompiledLog::ModuleRange &mod1 = compiled.moduleRanges()[1];
    EXPECT_EQ(mod0.module, 0u);
    EXPECT_EQ(mod0.loads, 1u);
    EXPECT_EQ(mod0.unloads, 0u);
    EXPECT_EQ(mod0.firstEvent, 0u);
    EXPECT_EQ(mod1.module, 1u);
    EXPECT_EQ(mod1.loads, 1u);
    EXPECT_EQ(mod1.unloads, 1u);
    EXPECT_EQ(mod1.lastEvent, 8u);
}

TEST(CompiledLog, ChunksTileTheLogWithModuleBarriers)
{
    AccessLog log = sampleLog();
    CompiledLog compiled = CompiledLog::compile(log);
    std::size_t covered = 0;
    for (const CompiledLog::Chunk &chunk : compiled.chunks()) {
        EXPECT_EQ(chunk.first, covered);
        EXPECT_GT(chunk.count, 0u);
        std::uint8_t expected = 0;
        for (std::size_t i = 0; i < chunk.count; ++i) {
            EventType type = compiled.types()[chunk.first + i];
            expected |= static_cast<std::uint8_t>(
                1u << static_cast<unsigned>(type));
            if (chunk.barrier) {
                EXPECT_TRUE(type == EventType::ModuleLoad ||
                            type == EventType::ModuleUnload);
            }
        }
        EXPECT_EQ(chunk.typeMask, expected);
        if (chunk.barrier) {
            EXPECT_EQ(chunk.count, 1u);
        }
        covered += chunk.count;
    }
    EXPECT_EQ(covered, compiled.size());
}

TEST(CompiledLog, LongChunksSplitAtTheChunkSize)
{
    AccessLog log;
    log.append(Event::traceCreate(0, 1, 64, cache::kNoModule));
    for (std::size_t i = 0; i < 3 * CompiledLog::kChunkEvents; ++i) {
        log.append(Event::traceExec(static_cast<TimeUs>(i + 1), 1));
    }
    CompiledLog compiled = CompiledLog::compile(log);
    ASSERT_GE(compiled.chunks().size(), 3u);
    EXPECT_EQ(compiled.chunks()[0].count, CompiledLog::kChunkEvents);
    EXPECT_FALSE(compiled.chunks()[0].pureExec()); // holds the create
    EXPECT_TRUE(compiled.chunks()[1].pureExec());
}

TEST(CompiledLog, ExecPinnedFollowsPinWindows)
{
    AccessLog log;
    log.append(Event::traceCreate(0, 7, 64, cache::kNoModule));
    log.append(Event::traceExec(1, 7));   // before pin: 0
    log.append(Event::pin(2, 7));
    log.append(Event::traceExec(3, 7));   // pinned: 1
    log.append(Event::unpin(4, 7));
    log.append(Event::traceExec(5, 7));   // after unpin: 0
    CompiledLog compiled = CompiledLog::compile(log);
    const std::vector<std::uint8_t> &pinned = compiled.execPinned();
    ASSERT_EQ(pinned.size(), compiled.size());
    EXPECT_EQ(pinned[1], 0);
    EXPECT_EQ(pinned[3], 1);
    EXPECT_EQ(pinned[5], 0);
}

/** @p rounds loads of module 1, each creating traces 1-4 in it (the
 *  second and later rounds re-create them: a module reload), pinning
 *  trace 2 and running 1,500 executions before unpinning and
 *  unloading; trace 9, outside any module, runs throughout. */
AccessLog
reloadRounds(int rounds)
{
    AccessLog log;
    TimeUs now = 0;
    log.append(Event::traceCreate(now++, 9, 48, cache::kNoModule));
    for (int round = 0; round < rounds; ++round) {
        log.append(Event::moduleLoad(now++, 1));
        for (cache::TraceId id = 1; id <= 4; ++id) {
            log.append(Event::traceCreate(now++, id, 64 * id, 1));
        }
        log.append(Event::pin(now++, 2));
        for (std::uint64_t i = 0; i < 1500; ++i) {
            log.append(Event::traceExec(now++, i % 7 == 0 ? 9 : 1 + i % 4));
        }
        log.append(Event::unpin(now++, 2));
        log.append(Event::moduleUnload(now++, 1));
    }
    log.setDuration(now);
    return log;
}

// A windowed compile holds, window by window, exactly the whole
// compile's columns and chunks, and the whole log's trace tables and
// module ranges from the first window on.
TEST(CompiledLog, WindowsTileTheWholeCompile)
{
    const AccessLog log = reloadRounds(5);
    const CompiledLog whole = CompiledLog::compile(log);
    ASSERT_EQ(whole.traceCount(), 21u); // trace 9, then 4 per round
    for (std::size_t window : {std::size_t{1}, std::size_t{7},
                               std::size_t{1000}, std::size_t{4096},
                               log.size() + 1}) {
        CompiledLogWindows windows(log, window);
        const CompiledLog &part = windows.log();
        EXPECT_EQ(part.originalIds(), whole.originalIds()) << window;
        for (DenseTraceId id = 0; id < whole.traceCount(); ++id) {
            EXPECT_EQ(part.traceSize(id), whole.traceSize(id)) << id;
            EXPECT_EQ(part.traceModule(id), whole.traceModule(id)) << id;
        }
        ASSERT_EQ(part.moduleRanges().size(), 1u);
        EXPECT_EQ(part.moduleRanges()[0].loads, 5u);
        EXPECT_EQ(part.moduleRanges()[0].unloads, 5u);
        EXPECT_EQ(part.moduleRanges()[0].lastEvent, log.size() - 1);

        std::size_t first = 0;
        std::size_t chunk = 0;
        do {
            ASSERT_GT(part.size(), 0u) << window;
            for (std::size_t i = 0; i < part.size(); ++i) {
                const std::size_t at = first + i;
                EXPECT_EQ(part.types()[i], whole.types()[at]) << at;
                EXPECT_EQ(part.times()[i], whole.times()[at]) << at;
                EXPECT_EQ(part.traces()[i], whole.traces()[at]) << at;
                EXPECT_EQ(part.sizes()[i], whole.sizes()[at]) << at;
                EXPECT_EQ(part.modules()[i], whole.modules()[at]) << at;
                EXPECT_EQ(part.execPinned()[i], whole.execPinned()[at])
                    << at;
            }
            for (const CompiledLog::Chunk &c : part.chunks()) {
                ASSERT_LT(chunk, whole.chunks().size()) << window;
                const CompiledLog::Chunk &w = whole.chunks()[chunk++];
                EXPECT_EQ(first + c.first, w.first) << window;
                EXPECT_EQ(c.count, w.count) << window;
                EXPECT_EQ(c.typeMask, w.typeMask) << window;
                EXPECT_EQ(c.barrier, w.barrier) << window;
            }
            first += part.size();
            if (first < log.size()) {
                EXPECT_GE(part.size(), window);
            }
        } while (windows.next());
        EXPECT_EQ(first, log.size()) << window;
        EXPECT_EQ(chunk, whole.chunks().size()) << window;
        EXPECT_FALSE(windows.next());
    }

    const AccessLog empty;
    CompiledLogWindows none(empty, 4);
    EXPECT_TRUE(none.log().empty());
    EXPECT_TRUE(none.log().chunks().empty());
    EXPECT_FALSE(none.next());
}

TEST(CompiledLogDeath, DuplicateCreateIsFatal)
{
    AccessLog log;
    log.append(Event::traceCreate(1, 7, 10, 0));
    log.append(Event::traceCreate(2, 7, 10, 0));
    EXPECT_DEATH(CompiledLog::compile(log), "created twice");
}

TEST(CompiledLogDeath, ExecBeforeCreateIsFatal)
{
    AccessLog log;
    log.append(Event::traceExec(1, 7));
    EXPECT_DEATH(CompiledLog::compile(log), "unknown trace");
}

TEST(CompiledLogDeath, WindowedExecBeforeCreateIsFatal)
{
    AccessLog log;
    log.append(Event::traceCreate(0, 1, 64, cache::kNoModule));
    log.append(Event::traceExec(1, 1));
    log.append(Event::traceExec(2, 7));
    EXPECT_DEATH(
        {
            CompiledLogWindows windows(log, 1);
            while (windows.next()) {
            }
        },
        "unknown trace");
}

TEST(EventType, Names)
{
    EXPECT_STREQ(eventTypeName(EventType::TraceCreate), "create");
    EXPECT_STREQ(eventTypeName(EventType::ModuleUnload), "unload");
}

TEST(Lifetime, Equation2)
{
    // lifetime = (last - first) / total
    AccessLog log;
    log.setDuration(1000);
    log.append(Event::traceCreate(100, 1, 50, 0));
    log.append(Event::traceExec(600, 1));
    LifetimeAnalyzer analyzer(log);
    ASSERT_EQ(analyzer.lifetimes().size(), 1u);
    const TraceLifetime &lifetime = analyzer.lifetimes()[0];
    EXPECT_EQ(lifetime.firstExec, 100u);
    EXPECT_EQ(lifetime.lastExec, 600u);
    EXPECT_EQ(lifetime.executions, 2u);
    EXPECT_DOUBLE_EQ(lifetime.fraction(analyzer.totalTime()), 0.5);
}

TEST(Lifetime, HistogramBuckets)
{
    AccessLog log;
    log.setDuration(1000);
    log.append(Event::traceCreate(0, 1, 10, 0));   // long-lived
    log.append(Event::traceCreate(0, 2, 10, 0));   // short-lived
    log.append(Event::traceExec(100, 2));
    log.append(Event::traceExec(990, 1));
    LifetimeAnalyzer analyzer(log);
    Histogram histogram = analyzer.lifetimeHistogram();
    EXPECT_EQ(histogram.binTotal(0), 1u); // trace 2: 0.1
    EXPECT_EQ(histogram.binTotal(4), 1u); // trace 1: 0.99
    EXPECT_DOUBLE_EQ(analyzer.shortLivedFraction(), 0.5);
    EXPECT_DOUBLE_EQ(analyzer.longLivedFraction(), 0.5);
}

TEST(Lifetime, NeverExecutedAgainIsZeroLength)
{
    AccessLog log;
    log.setDuration(1000);
    log.append(Event::traceCreate(500, 7, 10, 0));
    LifetimeAnalyzer analyzer(log);
    EXPECT_DOUBLE_EQ(
        analyzer.lifetimes()[0].fraction(analyzer.totalTime()), 0.0);
    EXPECT_DOUBLE_EQ(analyzer.shortLivedFraction(), 1.0);
}

} // namespace
} // namespace gencache::tracelog
