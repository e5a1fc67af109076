#include "tracelog/serialize.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "support/format.h"
#include "support/logging.h"

namespace gencache::tracelog {

namespace {

/** Abort parsing: malformed or truncated input. The public entry
 *  points translate this into parseFail() or a tryLoadLog error. */
template <typename... Args>
[[noreturn]] void
parseFail(std::string_view spec, const Args &...args)
{
    throw ParseError(format(spec, args...));
}

constexpr char kTextMagic[] = "gclog";
constexpr std::uint32_t kTextVersion = 1;
constexpr char kBinaryMagic[4] = {'G', 'C', 'L', '1'};
constexpr char kBinaryMagicV2[4] = {'G', 'C', 'L', '2'};

/** Formats with absolute times can go backwards, which
 *  AccessLog::append treats as a bug; reject it as input instead. */
void
checkTimeOrder(const AccessLog &log, const Event &event,
               std::uint64_t index)
{
    if (!log.empty() && event.time < log.events().back().time) {
        parseFail("gclog: event {} at t={} is earlier than the one "
                  "before it (t={})",
                  index, event.time, log.events().back().time);
    }
}

const char *
typeToken(EventType type)
{
    return eventTypeName(type);
}

bool
tokenToType(const std::string &token, EventType &type)
{
    static const EventType all[] = {
        EventType::TraceCreate, EventType::TraceExec,
        EventType::ModuleLoad,  EventType::ModuleUnload,
        EventType::Pin,         EventType::Unpin,
    };
    for (EventType candidate : all) {
        if (token == eventTypeName(candidate)) {
            type = candidate;
            return true;
        }
    }
    return false;
}

template <typename T>
void
writeLe(std::ostream &out, T value)
{
    unsigned char bytes[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        bytes[i] = static_cast<unsigned char>(
            (value >> (8 * i)) & 0xff);
    }
    out.write(reinterpret_cast<const char *>(bytes), sizeof(T));
}

template <typename T>
T
readLe(std::istream &in)
{
    unsigned char bytes[sizeof(T)];
    in.read(reinterpret_cast<char *>(bytes), sizeof(T));
    if (!in) {
        parseFail("truncated binary access log");
    }
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
        value |= static_cast<T>(bytes[i]) << (8 * i);
    }
    return value;
}

/** LEB128: 7 payload bits per byte, high bit = continuation. */
void
writeVarint(std::ostream &out, std::uint64_t value)
{
    unsigned char buf[10];
    std::size_t n = 0;
    do {
        unsigned char byte = value & 0x7f;
        value >>= 7;
        if (value != 0) {
            byte |= 0x80;
        }
        buf[n++] = byte;
    } while (value != 0);
    out.write(reinterpret_cast<const char *>(buf),
              static_cast<std::streamsize>(n));
}

std::uint64_t
readVarint(std::istream &in)
{
    std::uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        int byte = in.get();
        if (byte == std::char_traits<char>::eof()) {
            parseFail("truncated binary access log");
        }
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            return value;
        }
    }
    parseFail("binary gclog: varint longer than 64 bits");
}

/** Decode a +1-biased trace reference: 0 is reserved (it would
 *  underflow to kInvalidTrace), so a corrupt stream fails loudly
 *  instead of producing a sentinel trace id. */
cache::TraceId
readTraceRef(std::istream &in, std::uint64_t event_index)
{
    std::uint64_t raw = readVarint(in);
    if (raw == 0) {
        parseFail("binary gclog: event {} has trace reference 0 "
              "(corrupt stream)", event_index);
    }
    return raw - 1;
}

/** Decode a +1-biased module reference. The writer adds 1 in 32-bit
 *  arithmetic (kNoModule wraps to 0, which is legal), so any varint
 *  wider than 32 bits means the stream is corrupt, not merely
 *  large. */
cache::ModuleId
readModuleRef(std::istream &in, std::uint64_t event_index)
{
    std::uint64_t raw = readVarint(in);
    if (raw > 0xffffffffULL) {
        parseFail("binary gclog: event {} has bad module reference {} "
              "(corrupt stream)", event_index, raw);
    }
    return static_cast<cache::ModuleId>(raw) - 1U;
}

void
writeBinaryV2(const AccessLog &log, std::ostream &out)
{
    out.write(kBinaryMagicV2, sizeof(kBinaryMagicV2));
    writeVarint(out, log.benchmark().size());
    out.write(log.benchmark().data(),
              static_cast<std::streamsize>(log.benchmark().size()));
    writeVarint(out, log.duration());
    writeVarint(out, log.footprintBytes());
    writeVarint(out, log.size());
    TimeUs prev = 0;
    for (const Event &event : log.events()) {
        writeLe<std::uint8_t>(out,
                              static_cast<std::uint8_t>(event.type));
        writeVarint(out, event.time - prev);
        prev = event.time;
        switch (event.type) {
          case EventType::TraceCreate:
            writeVarint(out, event.trace + 1);
            writeVarint(out, event.sizeBytes);
            writeVarint(out, static_cast<std::uint64_t>(
                                 event.module + 1U));
            break;
          case EventType::TraceExec:
          case EventType::Pin:
          case EventType::Unpin:
            writeVarint(out, event.trace + 1);
            break;
          case EventType::ModuleLoad:
          case EventType::ModuleUnload:
            writeVarint(out, static_cast<std::uint64_t>(
                                 event.module + 1U));
            break;
        }
    }
}

AccessLog
readBinaryV2(std::istream &in)
{
    AccessLog log;
    auto name_len = readVarint(in);
    if (name_len > (1U << 20)) {
        parseFail("binary gclog: implausible benchmark name length {}",
              name_len);
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    if (!in) {
        parseFail("truncated binary access log header");
    }
    log.setBenchmark(name);
    log.setDuration(readVarint(in));
    log.setFootprintBytes(readVarint(in));
    auto count = readVarint(in);
    TimeUs prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        Event event;
        auto type = readLe<std::uint8_t>(in);
        if (type > static_cast<std::uint8_t>(EventType::Unpin)) {
            parseFail("binary gclog: bad event type {}", int{type});
        }
        event.type = static_cast<EventType>(type);
        TimeUs delta = readVarint(in);
        if (delta > ~prev) {
            parseFail("binary gclog: event {} time overflows", i);
        }
        event.time = prev + delta;
        prev = event.time;
        switch (event.type) {
          case EventType::TraceCreate: {
            event.trace = readTraceRef(in, i);
            std::uint64_t size_bytes = readVarint(in);
            if (size_bytes > 0xffffffffULL) {
                parseFail("binary gclog: event {} trace size {} exceeds "
                      "32 bits (corrupt stream)", i, size_bytes);
            }
            event.sizeBytes = static_cast<std::uint32_t>(size_bytes);
            event.module = readModuleRef(in, i);
            break;
          }
          case EventType::TraceExec:
          case EventType::Pin:
          case EventType::Unpin:
            event.trace = readTraceRef(in, i);
            break;
          case EventType::ModuleLoad:
          case EventType::ModuleUnload:
            event.module = readModuleRef(in, i);
            break;
        }
        log.append(event);
    }
    return log;
}

} // namespace

namespace {

AccessLog readTextImpl(std::istream &in);
AccessLog readBinaryImpl(std::istream &in);

} // namespace

void
writeText(const AccessLog &log, std::ostream &out)
{
    out << kTextMagic << ' ' << kTextVersion << '\n';
    out << "benchmark " << (log.benchmark().empty() ? "-"
                                                    : log.benchmark())
        << '\n';
    out << "duration_us " << log.duration() << '\n';
    out << "footprint_bytes " << log.footprintBytes() << '\n';
    out << "events " << log.size() << '\n';
    for (const Event &event : log.events()) {
        out << typeToken(event.type) << ' ' << event.time << ' '
            << event.trace << ' ' << event.sizeBytes << ' '
            << event.module << '\n';
    }
}

namespace {

AccessLog
readTextImpl(std::istream &in)
{
    std::string magic;
    std::uint32_t version = 0;
    in >> magic >> version;
    if (magic != kTextMagic || version != kTextVersion) {
        parseFail("not a gclog text file (magic '{}', version {})", magic,
              version);
    }

    AccessLog log;
    std::string key;
    std::string benchmark;
    TimeUs duration = 0;
    std::uint64_t footprint = 0;
    std::uint64_t count = 0;

    in >> key >> benchmark;
    if (key != "benchmark") {
        parseFail("gclog: expected 'benchmark', got '{}'", key);
    }
    in >> key >> duration;
    if (key != "duration_us") {
        parseFail("gclog: expected 'duration_us', got '{}'", key);
    }
    in >> key >> footprint;
    if (key != "footprint_bytes") {
        parseFail("gclog: expected 'footprint_bytes', got '{}'", key);
    }
    in >> key >> count;
    if (key != "events") {
        parseFail("gclog: expected 'events', got '{}'", key);
    }
    if (benchmark != "-") {
        log.setBenchmark(benchmark);
    }
    log.setDuration(duration);
    log.setFootprintBytes(footprint);

    for (std::uint64_t i = 0; i < count; ++i) {
        std::string token;
        Event event;
        in >> token >> event.time >> event.trace >> event.sizeBytes >>
            event.module;
        if (!in) {
            parseFail("gclog: truncated after {} of {} events", i, count);
        }
        if (!tokenToType(token, event.type)) {
            parseFail("gclog: unknown event type '{}'", token);
        }
        checkTimeOrder(log, event, i);
        log.append(event);
    }
    return log;
}

} // namespace

AccessLog
readText(std::istream &in)
{
    try {
        return readTextImpl(in);
    } catch (const ParseError &error) {
        fatal("{}", error.what());
    }
}

void
writeBinary(const AccessLog &log, std::ostream &out, int version)
{
    if (version == 2) {
        writeBinaryV2(log, out);
        return;
    }
    if (version != 1) {
        fatal("unsupported binary gclog version {}", version);
    }
    out.write(kBinaryMagic, sizeof(kBinaryMagic));
    writeLe<std::uint32_t>(
        out, static_cast<std::uint32_t>(log.benchmark().size()));
    out.write(log.benchmark().data(),
              static_cast<std::streamsize>(log.benchmark().size()));
    writeLe<std::uint64_t>(out, log.duration());
    writeLe<std::uint64_t>(out, log.footprintBytes());
    writeLe<std::uint64_t>(out, log.size());
    for (const Event &event : log.events()) {
        writeLe<std::uint8_t>(out,
                              static_cast<std::uint8_t>(event.type));
        writeLe<std::uint64_t>(out, event.time);
        writeLe<std::uint64_t>(out, event.trace);
        writeLe<std::uint32_t>(out, event.sizeBytes);
        writeLe<std::uint32_t>(out, event.module);
    }
}

namespace {

AccessLog
readBinaryImpl(std::istream &in)
{
    char magic[4];
    in.read(magic, sizeof(magic));
    if (!in) {
        parseFail("not a gclog binary file");
    }
    if (std::memcmp(magic, kBinaryMagicV2, sizeof(magic)) == 0) {
        return readBinaryV2(in);
    }
    if (std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
        parseFail("not a gclog binary file");
    }
    AccessLog log;
    auto name_len = readLe<std::uint32_t>(in);
    if (name_len > (1U << 20)) {
        parseFail("binary gclog: implausible benchmark name length {}",
              name_len);
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    if (!in) {
        parseFail("truncated binary access log header");
    }
    log.setBenchmark(name);
    log.setDuration(readLe<std::uint64_t>(in));
    log.setFootprintBytes(readLe<std::uint64_t>(in));
    auto count = readLe<std::uint64_t>(in);
    for (std::uint64_t i = 0; i < count; ++i) {
        Event event;
        auto type = readLe<std::uint8_t>(in);
        if (type > static_cast<std::uint8_t>(EventType::Unpin)) {
            parseFail("binary gclog: bad event type {}", int{type});
        }
        event.type = static_cast<EventType>(type);
        event.time = readLe<std::uint64_t>(in);
        event.trace = readLe<std::uint64_t>(in);
        event.sizeBytes = readLe<std::uint32_t>(in);
        event.module = readLe<std::uint32_t>(in);
        checkTimeOrder(log, event, i);
        log.append(event);
    }
    return log;
}

} // namespace

AccessLog
readBinary(std::istream &in)
{
    try {
        return readBinaryImpl(in);
    } catch (const ParseError &error) {
        fatal("{}", error.what());
    }
}

namespace {

bool
endsWith(const std::string &text, const std::string &suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Read @p path and check the log's rules (AccessLog::
 *  firstViolation): a file is user input, so a journal that breaks
 *  them is rejected here rather than panicking in a replay. */
AccessLog
loadLogImpl(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        parseFail("cannot open '{}' for reading", path);
    }
    AccessLog log = endsWith(path, ".gclogb") ? readBinaryImpl(in)
                                              : readTextImpl(in);
    std::string violation = log.firstViolation();
    if (!violation.empty()) {
        parseFail("'{}': {}", path, violation);
    }
    return log;
}

} // namespace

void
saveLog(const AccessLog &log, const std::string &path,
        int binary_version)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        fatal("cannot open '{}' for writing", path);
    }
    if (endsWith(path, ".gclogb")) {
        writeBinary(log, out, binary_version);
    } else {
        writeText(log, out);
    }
    if (!out) {
        fatal("write to '{}' failed", path);
    }
}

AccessLog
loadLog(const std::string &path)
{
    try {
        return loadLogImpl(path);
    } catch (const ParseError &error) {
        fatal("{}", error.what());
    }
}

bool
tryLoadLog(const std::string &path, AccessLog &out, std::string &error)
{
    try {
        out = loadLogImpl(path);
        return true;
    } catch (const ParseError &parse_error) {
        error = parse_error.what();
        return false;
    }
}

} // namespace gencache::tracelog
