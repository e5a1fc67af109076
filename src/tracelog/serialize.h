/**
 * @file
 * Access-log serialization: a line-oriented text format (readable,
 * diffable) and a compact binary format (large logs).
 */

#ifndef GENCACHE_TRACELOG_SERIALIZE_H
#define GENCACHE_TRACELOG_SERIALIZE_H

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "tracelog/event.h"

namespace gencache::tracelog {

/** Thrown by the parsing internals on unreadable or malformed input.
 *  The public readers convert it to fatal() (their documented
 *  contract); tryLoadLog() converts it to an error string so tools
 *  can distinguish "the subject failed to load" from "the subject
 *  loaded and has findings". */
class ParseError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Text format:
 * @code
 * gclog 1
 * benchmark <name>
 * duration_us <n>
 * footprint_bytes <n>
 * events <count>
 * <type> <time> <trace> <size> <module>
 * ...
 * @endcode
 */
void writeText(const AccessLog &log, std::ostream &out);

/** Parse the text format. Calls fatal() on malformed input (these are
 *  user-supplied files). Every number, in the header and in each
 *  event, must be one whole unsigned decimal that fits its field: a
 *  sign, trailing junk or an overflow is malformed, named with its
 *  field, its event index and the token. */
AccessLog readText(std::istream &in);

/**
 * Binary format versions:
 *
 *   v1 — magic "GCL1"; metadata, then fixed-width LE records (25
 *        bytes per event).
 *   v2 — magic "GCL2"; metadata as LEB128 varints, then per-event:
 *        a type byte, the time as a varint *delta* from the previous
 *        event's time, and only the fields the event type carries
 *        (trace id for trace events, module for create/load/unload,
 *        size for create), each as a varint. Trace and module ids are
 *        stored +1, module ids in 32-bit arithmetic, so kNoModule
 *        encodes as a single 0 byte. A trace reference 0, which is
 *        what kInvalidTrace wraps to, is rejected on read. Fields an
 *        event type does not carry decode to their Event defaults.
 *
 * The encoded bytes collect in a fixed 64 KiB block, and each full
 * block, and the tail, reaches @p out in one write(); a failed write
 * sets its badbit as usual.
 *
 * @param version 1 or 2 (default 2); fatal() on anything else.
 */
void writeBinary(const AccessLog &log, std::ostream &out,
                 int version = 2);

/** Parse either binary format; the version is negotiated from the
 *  magic. Calls fatal() on malformed input. Bytes are taken from
 *  @p in's buffer one at a time, and only the log's own: a byte
 *  written after the log is still the stream's next byte. The
 *  header's event count is untrusted, so the event vector is reserved
 *  for no more events than the stream has bytes left at the smallest
 *  event size, 3 bytes in v2 and 25 in v1. The bytes left are found
 *  by seeking to the end and back when @p in's buffer can seek (a
 *  file's buffer holds only one block of it), else from in_avail(). */
AccessLog readBinary(std::istream &in);

/** Convenience file helpers; format chosen by extension ".gclog"
 *  (text) vs ".gclogb" (binary). @p binary_version selects the
 *  binary format version for ".gclogb" paths (text ignores it).
 *  fatal() on I/O failure. loadLog() also checks the loaded events
 *  against the log's rules (AccessLog::firstViolation) and calls
 *  fatal() on the first one broken; readText()/readBinary() check
 *  syntax only. */
void saveLog(const AccessLog &log, const std::string &path,
             int binary_version = 2);
AccessLog loadLog(const std::string &path);

/** Like loadLog(), but reports unreadable, malformed, or rule-breaking
 *  input instead of aborting: @return true and fill @p out on
 *  success, else false with the reason in @p error (gencheck
 *  --journal exits with its distinct load-failure status on this
 *  path). */
bool tryLoadLog(const std::string &path, AccessLog &out,
                std::string &error);

} // namespace gencache::tracelog

#endif // GENCACHE_TRACELOG_SERIALIZE_H
