/**
 * @file
 * Text serialization of kernel traces.
 *
 * One line per phase header and one per access, so traces can be
 * diffed, inspected with standard tools, archived as experiment
 * artifacts, and replayed without re-running the kernel:
 *
 *   P <name> <computeCycles>
 *   A <r|w> <addr-hex> <bytes> <class> <vn-hex> <macGran>
 *
 * The parser is as strict as the writer: every numeric field is plain
 * digits (hex digits where marked), with no sign, no `0x` and no
 * trailing field; an access moves at most 16 GiB (the default
 * protected region), addr + bytes may not wrap, and a MAC granularity
 * is 0 (the scheme's default) or a power of two of at least 64.
 * Anything else is a TraceIoError naming the line.
 *
 * Files are written by TraceFileWriteSink and read by
 * FilePhaseSource, the one writer and the one reader. The file
 * carries an integrity envelope around that payload — a versioned
 * magic header and a running CRC32 footer:
 *
 *   M mgx-trace 2
 *   P ...                        | payload, CRC32-covered
 *   A ...                        | byte for byte
 *   C <crc32-hex> <payloadBytes>
 *
 * Both stream: TraceFileWriteSink is a PhaseSink that serializes
 * phases as a producer emits them (so a kernel stream is archived
 * without materializing), and FilePhaseSource replays a file as a
 * pull-based PhaseSource holding one phase in memory at a time. The
 * reader verifies the envelope when present: a CRC or byte-count
 * mismatch, a missing footer (truncation), or any malformed line
 * raises TraceIoError instead of killing the process, so a caller
 * holding a corrupt or truncated file learns so before trusting a
 * replay of it. Headerless text still parses — traceToString()
 * writes no envelope, so dumps stay diffable and content comparisons
 * format-agnostic — and traceFromString() parses with the same
 * parser as FilePhaseSource, so the two cannot drift.
 *
 * Every filesystem boundary in this file is a named failpoint (see
 * common/failpoint.h, `trace_io.*`), so tests can deterministically
 * inject failed opens, ENOSPC, short writes, torn renames, and
 * corrupt reads.
 */

#ifndef MGX_SIM_TRACE_IO_H
#define MGX_SIM_TRACE_IO_H

#include <memory>
#include <stdexcept>
#include <string>

#include "core/phase.h"
#include "core/phase_stream.h"

namespace mgx::sim {

/** Trace-file format version written by TraceFileWriteSink. */
inline constexpr unsigned kTraceFormatVersion = 2;

/**
 * Any trace I/O failure: open/write/rename errors, malformed lines
 * (with the line number), checksum mismatches, truncation. CLIs let
 * it propagate to a fatal top-level handler.
 */
class TraceIoError : public std::runtime_error
{
  public:
    explicit TraceIoError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Serialize @p trace to a string (payload only, no envelope). */
std::string traceToString(const core::Trace &trace);

/**
 * Parse a serialized trace, verifying its integrity envelope when it
 * has one. Throws TraceIoError on malformed or corrupt input with the
 * offending line number.
 */
core::Trace traceFromString(const std::string &text);

/**
 * Trace-file writer: consumes phases into a process-unique temporary
 * and publishes it at @p path by atomic rename when finish() is
 * called, wrapped in the checksummed v2 envelope, so a concurrent
 * reader never observes a partially written trace. Destroying the
 * sink without finish() discards the temporary (abandoned write).
 * Throws TraceIoError on IO errors; a failed consume() removes the
 * temporary before throwing, so a full disk never publishes (or
 * leaks) anything.
 */
class TraceFileWriteSink final : public core::PhaseSink
{
  public:
    explicit TraceFileWriteSink(const std::string &path);
    ~TraceFileWriteSink() override;

    TraceFileWriteSink(const TraceFileWriteSink &) = delete;
    TraceFileWriteSink &operator=(const TraceFileWriteSink &) = delete;

    void consume(const core::Phase &phase) override;

    /** Flush and atomically publish the file. Call exactly once. */
    void finish();

    u64 phases() const;
    u64 dataBytes() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Pull-based reader of a serialized trace: emits one phase per
 * nextChunk() through a reused scratch buffer, so replaying a
 * trace file needs memory for one phase, not the workload. Throws
 * TraceIoError on open failure and on malformed/corrupt input (with
 * the line number); note the checksum footer is only reached by the
 * *last* nextChunk(), so a corrupt tail surfaces near the end of a
 * replay — the partial run must be discarded.
 */
class FilePhaseSource final : public core::PhaseSource
{
  public:
    explicit FilePhaseSource(const std::string &path);
    ~FilePhaseSource() override;

    bool nextChunk(core::PhaseSink &sink) override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace mgx::sim

#endif // MGX_SIM_TRACE_IO_H
