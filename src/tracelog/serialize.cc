#include "tracelog/serialize.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string_view>
#include <system_error>
#include <vector>

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

/** Fewest bytes one event takes: a type byte, a one-byte time delta
 *  and one one-byte field in v2; the fixed-width record in v1. */
constexpr std::size_t kMinEventBytesV2 = 3;
constexpr std::size_t kEventBytesV1 = 25;

/**
 * The binary formats' output side. Encoded bytes fill a fixed block;
 * each full block, and the tail at flush(), goes to the stream in one
 * out.write(), so no field costs a stream call and its sentry. A
 * failed write sets the stream's badbit, as a direct write would.
 */
class BlockWriter
{
  public:
    explicit BlockWriter(std::ostream &out)
        : out_(out),
          block_(std::make_unique_for_overwrite<char[]>(kBlockBytes))
    {
    }

    void byte(std::uint8_t value)
    {
        room(1);
        put(value);
    }

    /** LEB128: 7 payload bits per byte, high bit = continuation. */
    void varint(std::uint64_t value)
    {
        room(kMaxVarintBytes);
        while (value >= 0x80) {
            put(static_cast<std::uint8_t>(value | 0x80));
            value >>= 7;
        }
        put(static_cast<std::uint8_t>(value));
    }

    template <typename T>
    void le(T value)
    {
        room(sizeof(T));
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            put(static_cast<std::uint8_t>(value >> (8 * i)));
        }
    }

    void bytes(std::string_view text)
    {
        room(text.size());
        if (text.size() > kBlockBytes) {
            out_.write(text.data(),
                       static_cast<std::streamsize>(text.size()));
            return;
        }
        std::memcpy(block_.get() + used_, text.data(), text.size());
        used_ += text.size();
    }

    /** Hand the buffered bytes to the stream. */
    void flush()
    {
        out_.write(block_.get(), static_cast<std::streamsize>(used_));
        used_ = 0;
    }

  private:
    static constexpr std::size_t kBlockBytes = 64 * 1024;
    static constexpr std::size_t kMaxVarintBytes = 10;

    /** Flush first unless @p bytes more fit in the block. */
    void room(std::size_t bytes)
    {
        if (kBlockBytes - used_ < bytes) {
            flush();
        }
    }

    void put(std::uint8_t value)
    {
        block_[used_++] = static_cast<char>(value);
    }

    std::ostream &out_;
    std::unique_ptr<char[]> block_;
    std::size_t used_ = 0;
};

/**
 * The binary formats' input side. Bytes come straight from the
 * stream's buffer through the inline sbumpc(), with no sentry per
 * byte, and only the log's own bytes are taken: whatever follows the
 * log is still the stream's next byte. A stream that is not good(),
 * or has no buffer, reads as empty.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::istream &in)
        : buf_(in.good() ? in.rdbuf() : nullptr)
    {
    }

    /** Copy the next @p n bytes to @p out; false if the stream ends
     *  first. */
    bool bytes(char *out, std::size_t n)
    {
        return buf_ != nullptr &&
               buf_->sgetn(out, static_cast<std::streamsize>(n)) ==
                   static_cast<std::streamsize>(n);
    }

    /** The benchmark name, @p length bytes. */
    std::string name(std::size_t length)
    {
        std::string text(length, '\0');
        if (!bytes(text.data(), length)) {
            parseFail("truncated binary access log header");
        }
        return text;
    }

    std::uint8_t byte()
    {
        int value = buf_ == nullptr ? std::char_traits<char>::eof()
                                    : buf_->sbumpc();
        if (value == std::char_traits<char>::eof()) {
            parseFail("truncated binary access log");
        }
        return static_cast<std::uint8_t>(value);
    }

    std::uint64_t varint()
    {
        std::uint64_t value = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            std::uint8_t next = byte();
            value |= static_cast<std::uint64_t>(next & 0x7f) << shift;
            if ((next & 0x80) == 0) {
                return value;
            }
        }
        parseFail("binary gclog: varint longer than 64 bits");
    }

    template <typename T>
    T le()
    {
        T value = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            value |= static_cast<T>(static_cast<T>(byte()) << (8 * i));
        }
        return value;
    }

    EventType type()
    {
        std::uint8_t type = byte();
        if (type > static_cast<std::uint8_t>(EventType::Unpin)) {
            parseFail("binary gclog: bad event type {}", int{type});
        }
        return static_cast<EventType>(type);
    }

    /** Decode a +1-biased trace reference: 0 is reserved (it would
     *  underflow to kInvalidTrace), so a corrupt stream fails loudly
     *  instead of producing a sentinel trace id. */
    cache::TraceId traceRef(std::uint64_t event_index)
    {
        std::uint64_t raw = varint();
        if (raw == 0) {
            parseFail("binary gclog: event {} has trace reference 0 "
                      "(corrupt stream)",
                      event_index);
        }
        return raw - 1;
    }

    /** Decode a +1-biased module reference. The writer adds 1 in
     *  32-bit arithmetic (kNoModule wraps to 0, which is legal), so
     *  any varint wider than 32 bits means the stream is corrupt, not
     *  merely large. */
    cache::ModuleId moduleRef(std::uint64_t event_index)
    {
        std::uint64_t raw = varint();
        if (raw > 0xffffffffULL) {
            parseFail("binary gclog: event {} has bad module reference "
                      "{} (corrupt stream)",
                      event_index, raw);
        }
        return static_cast<cache::ModuleId>(raw) - 1U;
    }

    /** An empty event vector with room for @p count events, but never
     *  for more than bytesLeft() holds at @p min_event_bytes each: the
     *  count is untrusted, so a corrupt one cannot allocate past the
     *  stream. */
    std::vector<Event> reserveEvents(std::uint64_t count,
                                     std::size_t min_event_bytes) const
    {
        std::vector<Event> events;
        events.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
            count, bytesLeft() / min_event_bytes)));
        return events;
    }

  private:
    /** The bytes between the read position and the stream's end. A
     *  buffer that can seek is asked by seeking to its end and back: a
     *  file buffer's in_avail() counts only the block it holds. Any
     *  other buffer reports in_avail(). */
    std::uint64_t bytesLeft() const
    {
        if (buf_ == nullptr) {
            return 0;
        }
        const std::streampos here =
            buf_->pubseekoff(0, std::ios::cur, std::ios::in);
        if (here != std::streampos(-1)) {
            const std::streampos end =
                buf_->pubseekoff(0, std::ios::end, std::ios::in);
            buf_->pubseekpos(here, std::ios::in);
            if (end != std::streampos(-1) && end >= here) {
                return static_cast<std::uint64_t>(end - here);
            }
        }
        const std::streamsize available = buf_->in_avail();
        return available > 0 ? static_cast<std::uint64_t>(available) : 0;
    }

    std::streambuf *buf_;
};

void
writeBinaryV1(const AccessLog &log, BlockWriter &out)
{
    out.bytes({kBinaryMagic, sizeof(kBinaryMagic)});
    out.le<std::uint32_t>(
        static_cast<std::uint32_t>(log.benchmark().size()));
    out.bytes(log.benchmark());
    out.le<std::uint64_t>(log.duration());
    out.le<std::uint64_t>(log.footprintBytes());
    out.le<std::uint64_t>(log.size());
    for (const Event &event : log.events()) {
        out.byte(static_cast<std::uint8_t>(event.type));
        out.le<std::uint64_t>(event.time);
        out.le<std::uint64_t>(event.trace);
        out.le<std::uint32_t>(event.sizeBytes);
        out.le<std::uint32_t>(event.module);
    }
}

void
writeBinaryV2(const AccessLog &log, BlockWriter &out)
{
    out.bytes({kBinaryMagicV2, sizeof(kBinaryMagicV2)});
    out.varint(log.benchmark().size());
    out.bytes(log.benchmark());
    out.varint(log.duration());
    out.varint(log.footprintBytes());
    out.varint(log.size());
    TimeUs prev = 0;
    for (const Event &event : log.events()) {
        out.byte(static_cast<std::uint8_t>(event.type));
        out.varint(event.time - prev);
        prev = event.time;
        switch (event.type) {
          case EventType::TraceCreate:
            out.varint(event.trace + 1);
            out.varint(event.sizeBytes);
            out.varint(static_cast<std::uint64_t>(event.module + 1U));
            break;
          case EventType::TraceExec:
          case EventType::Pin:
          case EventType::Unpin:
            out.varint(event.trace + 1);
            break;
          case EventType::ModuleLoad:
          case EventType::ModuleUnload:
            out.varint(static_cast<std::uint64_t>(event.module + 1U));
            break;
        }
    }
}

AccessLog
readBinaryV1(ByteReader &in)
{
    AccessLog log;
    auto name_len = in.le<std::uint32_t>();
    if (name_len > (1U << 20)) {
        parseFail("binary gclog: implausible benchmark name length {}",
                  name_len);
    }
    log.setBenchmark(in.name(name_len));
    log.setDuration(in.le<std::uint64_t>());
    log.setFootprintBytes(in.le<std::uint64_t>());
    auto count = in.le<std::uint64_t>();
    std::vector<Event> events = in.reserveEvents(count, kEventBytesV1);
    for (std::uint64_t i = 0; i < count; ++i) {
        Event event;
        event.type = in.type();
        event.time = in.le<std::uint64_t>();
        event.trace = in.le<std::uint64_t>();
        event.sizeBytes = in.le<std::uint32_t>();
        event.module = in.le<std::uint32_t>();
        // Absolute times can go backwards, which AccessLog treats as
        // a bug; reject it as input instead.
        if (!events.empty() && event.time < events.back().time) {
            parseFail("gclog: event {} at t={} is earlier than the one "
                      "before it (t={})",
                      i, event.time, events.back().time);
        }
        events.push_back(event);
    }
    log.adoptEvents(std::move(events));
    return log;
}

AccessLog
readBinaryV2(ByteReader &in)
{
    AccessLog log;
    auto name_len = in.varint();
    if (name_len > (1U << 20)) {
        parseFail("binary gclog: implausible benchmark name length {}",
                  name_len);
    }
    log.setBenchmark(in.name(static_cast<std::size_t>(name_len)));
    log.setDuration(in.varint());
    log.setFootprintBytes(in.varint());
    auto count = in.varint();
    std::vector<Event> events = in.reserveEvents(count, kMinEventBytesV2);
    TimeUs prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        Event event;
        event.type = in.type();
        TimeUs delta = in.varint();
        if (delta > ~prev) {
            parseFail("binary gclog: event {} time overflows", i);
        }
        event.time = prev + delta;
        prev = event.time;
        switch (event.type) {
          case EventType::TraceCreate: {
            event.trace = in.traceRef(i);
            std::uint64_t size_bytes = in.varint();
            if (size_bytes > 0xffffffffULL) {
                parseFail("binary gclog: event {} trace size {} exceeds "
                          "32 bits (corrupt stream)",
                          i, size_bytes);
            }
            event.sizeBytes = static_cast<std::uint32_t>(size_bytes);
            event.module = in.moduleRef(i);
            break;
          }
          case EventType::TraceExec:
          case EventType::Pin:
          case EventType::Unpin:
            event.trace = in.traceRef(i);
            break;
          case EventType::ModuleLoad:
          case EventType::ModuleUnload:
            event.module = in.moduleRef(i);
            break;
        }
        events.push_back(event);
    }
    log.adoptEvents(std::move(events));
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

/** @p token as a whole unsigned decimal that fits T: a sign, a blank,
 *  trailing junk or an overflow fails. */
template <typename T>
bool
parseUnsigned(const std::string &token, T &value)
{
    const char *end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, value);
    return error == std::errc() && stop == end;
}

/** Read the header line "<name> <number>" into @p value. */
template <typename T>
void
readHeaderNumber(std::istream &in, const char *name, T &value)
{
    std::string key;
    std::string token;
    in >> key >> token;
    if (key != name) {
        parseFail("gclog: expected '{}', got '{}'", name, key);
    }
    if (!parseUnsigned(token, value)) {
        parseFail("gclog: bad {} '{}' (not an unsigned decimal below "
                  "2^{})",
                  name, token, 8 * sizeof(T));
    }
}

/** Parse @p token, event @p index's @p field, into @p value. */
template <typename T>
void
parseEventNumber(const std::string &token, std::uint64_t index,
                 const char *field, T &value)
{
    if (!parseUnsigned(token, value)) {
        parseFail("gclog: event {} has bad {} '{}' (not an unsigned "
                  "decimal below 2^{})",
                  index, field, token, 8 * sizeof(T));
    }
}

AccessLog
readTextImpl(std::istream &in)
{
    std::string magic;
    std::string token;
    std::uint32_t version = 0;
    in >> magic >> token;
    if (magic != kTextMagic || !parseUnsigned(token, version) ||
        version != kTextVersion) {
        parseFail("not a gclog text file (magic '{}', version {})", magic,
                  token);
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
    readHeaderNumber(in, "duration_us", duration);
    readHeaderNumber(in, "footprint_bytes", footprint);
    readHeaderNumber(in, "events", count);
    if (benchmark != "-") {
        log.setBenchmark(benchmark);
    }
    log.setDuration(duration);
    log.setFootprintBytes(footprint);

    std::string time;
    std::string trace;
    std::string size;
    std::string module;
    for (std::uint64_t i = 0; i < count; ++i) {
        in >> token >> time >> trace >> size >> module;
        if (!in) {
            parseFail("gclog: truncated after {} of {} events", i, count);
        }
        Event event;
        if (!tokenToType(token, event.type)) {
            parseFail("gclog: unknown event type '{}'", token);
        }
        parseEventNumber(time, i, "time", event.time);
        parseEventNumber(trace, i, "trace", event.trace);
        parseEventNumber(size, i, "size", event.sizeBytes);
        parseEventNumber(module, i, "module", event.module);
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
    if (version != 1 && version != 2) {
        fatal("unsupported binary gclog version {}", version);
    }
    BlockWriter writer(out);
    if (version == 2) {
        writeBinaryV2(log, writer);
    } else {
        writeBinaryV1(log, writer);
    }
    writer.flush();
}

namespace {

AccessLog
readBinaryImpl(std::istream &in)
{
    ByteReader reader(in);
    char magic[4];
    if (!reader.bytes(magic, sizeof(magic))) {
        parseFail("not a gclog binary file");
    }
    if (std::memcmp(magic, kBinaryMagicV2, sizeof(magic)) == 0) {
        return readBinaryV2(reader);
    }
    if (std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
        parseFail("not a gclog binary file");
    }
    return readBinaryV1(reader);
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
