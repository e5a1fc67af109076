/**
 * @file
 * Unit tests for the access log: event construction, validation,
 * text/binary round trips, and lifetime analysis (Equation 2).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "tracelog/compiled_log.h"
#include "tracelog/event.h"
#include "tracelog/lifetime.h"
#include "tracelog/serialize.h"

namespace gencache::tracelog {
namespace {

AccessLog
sampleLog()
{
    AccessLog log;
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

/** Write a text journal of @p events (@p count of them) to a file
 *  private to this process and return its path. */
std::string
writeJournal(const std::string &events, std::size_t count)
{
    std::string path = ::testing::TempDir() + "gencache_journal_" +
                       std::to_string(getpid()) + ".gclog";
    std::FILE *file = std::fopen(path.c_str(), "w");
    EXPECT_NE(file, nullptr) << path;
    std::fprintf(file,
                 "gclog 1\nbenchmark journal\nduration_us 10\n"
                 "footprint_bytes 64\nevents %zu\n%s",
                 count, events.c_str());
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
    };
    for (const Case &c : broken) {
        std::string path = writeJournal(c.events, c.count);
        AccessLog log;
        std::string error;
        EXPECT_FALSE(tryLoadLog(path, log, error)) << c.name;
        EXPECT_NE(error.find(c.culprit), std::string::npos)
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

TEST(SerializeV2Death, EveryClipPointDiagnosesCleanly)
{
    // Clipping a valid stream at any byte boundary must produce a
    // clean fatal diagnostic, never a silent partial load or a read
    // past the buffer.
    AccessLog original = sampleLog();
    std::stringstream stream;
    writeBinary(original, stream, 2);
    const std::string bytes = stream.str();
    for (std::size_t cut : {std::size_t{3}, std::size_t{7},
                            bytes.size() / 4, bytes.size() / 2,
                            bytes.size() - 2, bytes.size() - 1}) {
        std::stringstream clipped(bytes.substr(0, cut));
        EXPECT_EXIT(readBinary(clipped), ::testing::ExitedWithCode(1),
                    "gclog|truncated")
            << "clip at " << cut;
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
    std::stringstream stream;
    writeBinary(original, stream, 2);
    const std::string bytes = stream.str();
    // Exit code 0 (benign flip, clean load) and 1 (fatal diagnostic)
    // are both fine; a crash signal is not.
    auto exited_cleanly = [](int status) {
        return WIFEXITED(status) && (WEXITSTATUS(status) == 0 ||
                                     WEXITSTATUS(status) == 1);
    };
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (int bit : {0, 3, 7}) {
            std::string mutated = bytes;
            mutated[i] = static_cast<char>(
                mutated[i] ^ static_cast<char>(1 << bit));
            std::stringstream in(mutated);
            // Run the loader in a child so a fatal() exit does not
            // take the test down.
            EXPECT_EXIT(
                {
                    AccessLog loaded = readBinary(in);
                    (void)loaded;
                    std::exit(0);
                },
                exited_cleanly, "")
                << "byte " << i << " bit " << bit;
        }
    }
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
