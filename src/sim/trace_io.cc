#include "trace_io.h"

#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/bitops.h"
#include "common/checksum.h"
#include "common/failpoint.h"
#include "protection/scheme.h"

namespace mgx::sim {
namespace {

// Every filesystem boundary is a failpoint, registered at load so
// `failpoint::all()` sees the complete set before any test arms one.
failpoint::Point &fpReadOpen =
    failpoint::Point::get("trace_io.read.open");
failpoint::Point &fpReadCorrupt =
    failpoint::Point::get("trace_io.read.corrupt");
failpoint::Point &fpWriteOpen =
    failpoint::Point::get("trace_io.write.open");
failpoint::Point &fpWriteEnospc =
    failpoint::Point::get("trace_io.write.enospc");
failpoint::Point &fpWriteShort =
    failpoint::Point::get("trace_io.write.short");
failpoint::Point &fpWriteTorn =
    failpoint::Point::get("trace_io.write.torn");

/** Largest access a trace line may hold: the default protected region.
 *  Every registry access is far smaller. */
constexpr u64 kMaxAccessBytes = protection::ProtectionConfig{}.protectedBytes;

/** Smallest nonzero per-access MAC granularity: one 64-byte line, the
 *  finest any kernel emits. */
constexpr u32 kMinMacGranularity = 64;

[[noreturn]] void
raise(const char *fmt, ...)
{
    char buf[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    throw TraceIoError(buf);
}

/**
 * Field @p token of trace line @p line as an unsigned number in
 * @p base (10 or 16) no larger than @p max: digits only, so no sign,
 * no `0x` and no suffix — the writer emits none of them, and `>>`
 * would read "-1" as 2^64-1. Raises otherwise.
 */
u64
number(const std::string &token, unsigned base, u64 max,
       const char *field, unsigned line)
{
    u64 value = 0;
    bool ok = !token.empty();
    for (char c : token) {
        unsigned digit = base; // not a digit unless set below
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a' + 10);
        else if (base == 16 && c >= 'A' && c <= 'F')
            digit = static_cast<unsigned>(c - 'A' + 10);
        if (digit >= base || digit > max ||
            value > (max - digit) / base) {
            ok = false;
            break;
        }
        value = value * base + digit;
    }
    if (!ok)
        raise("trace line %u: bad %s '%.40s'", line, field,
              token.c_str());
    return value;
}

const char *
classToken(DataClass dc)
{
    return dataClassName(dc); // already unique, hyphenated tokens
}

DataClass
classFromToken(const std::string &token, unsigned line)
{
    static constexpr DataClass kAll[] = {
        DataClass::Feature,     DataClass::Weight,
        DataClass::Gradient,    DataClass::GraphMatrix,
        DataClass::GraphVector, DataClass::GenomeTable,
        DataClass::GenomeQuery, DataClass::VideoFrame,
        DataClass::Generic,
    };
    for (DataClass dc : kAll)
        if (token == dataClassName(dc))
            return dc;
    raise("trace line %u: unknown data class '%s'", line, token.c_str());
}

/** Serialize one phase header line — shared by every writer. */
void
writePhaseHeader(std::ostream &out, std::string_view name,
                 Cycles compute_cycles)
{
    out << "P " << (name.empty() ? std::string_view{"-"} : name) << ' '
        << compute_cycles << '\n';
}

/** Serialize one access line — shared by every writer. */
void
writeAccessLine(std::ostream &out, const core::LogicalAccess &acc)
{
    out << "A " << (acc.type == AccessType::Write ? 'w' : 'r') << ' '
        << std::hex << acc.addr << std::dec << ' ' << acc.bytes << ' '
        << classToken(acc.cls) << ' ' << std::hex << acc.vn << std::dec
        << ' ' << acc.macGranularity << '\n';
}

/**
 * Incremental line-by-line parser shared by traceFromString() and
 * the streaming FilePhaseSource: accumulates the open phase in a
 * reused scratch buffer and reports when a phase completed (the next
 * "P" line arrived, the checksum footer closed the file, or input
 * ended).
 *
 * Understands the v2 integrity envelope: an `M mgx-trace 2` first
 * line arms CRC32 accumulation over every subsequent payload line,
 * and the `C <crc-hex> <payloadBytes>` footer is verified against
 * it. Once a header was seen, a missing footer at end of input is a
 * truncation error.
 */
class TraceParser
{
  public:
    /**
     * Parse one line. Returns true when a phase was completed by
     * this line, in which case it is available via completed() until
     * the next feed()/finish() call. Throws TraceIoError on
     * malformed lines (with the line number).
     */
    bool
    feed(const std::string &line)
    {
        ++lineNo_;
        if (sawFooter_)
            raise("trace line %u: data after checksum footer",
                  lineNo_);
        if (checksummed_ && line.compare(0, 2, "C ") != 0) {
            crc_ = crc32Update(crc_, line.data(), line.size());
            crc_ = crc32Update(crc_, "\n", 1);
            payloadBytes_ += line.size() + 1;
        }
        if (line.empty() || line[0] == '#')
            return false;
        std::istringstream ss(line);
        std::string tag;
        ss >> tag;
        std::string f[6]; // the record's fields after its tag
        const auto fields = [&](int n, const char *record) {
            for (int i = 0; i < n; ++i)
                ss >> f[i];
            std::string extra;
            if (ss.fail() || ss >> extra)
                raise("trace line %u: malformed %s", lineNo_, record);
        };
        if (tag == "M") {
            fields(2, "format header");
            const u64 version =
                number(f[1], 10, ~u64{0}, "format version", lineNo_);
            if (lineNo_ != 1 || f[0] != "mgx-trace")
                raise("trace line %u: malformed format header",
                      lineNo_);
            if (version != kTraceFormatVersion)
                raise("trace line %u: unsupported trace format "
                      "version %llu",
                      lineNo_, static_cast<unsigned long long>(version));
            checksummed_ = true;
            return false;
        }
        if (tag == "P") {
            // The incoming header closes the previous phase: move it
            // to the completed slot and start accumulating the new one.
            bool emitted = false;
            if (open_) {
                std::swap(scratch_, completed_);
                emitted = true;
            }
            scratch_.accesses.clear();
            fields(2, "phase header");
            scratch_.name = f[0] == "-" ? std::string() : f[0];
            scratch_.computeCycles =
                number(f[1], 10, ~u64{0}, "compute cycles", lineNo_);
            open_ = true;
            return emitted;
        }
        if (tag == "A") {
            if (!open_)
                raise("trace line %u: access before any phase",
                      lineNo_);
            fields(6, "access");
            if (f[0] != "r" && f[0] != "w")
                raise("trace line %u: malformed access", lineNo_);
            core::LogicalAccess acc;
            acc.type = f[0] == "w" ? AccessType::Write : AccessType::Read;
            acc.addr = number(f[1], 16, ~u64{0}, "address", lineNo_);
            acc.bytes = number(f[2], 10, kMaxAccessBytes, "byte count",
                               lineNo_);
            if (acc.addr + acc.bytes < acc.addr)
                raise("trace line %u: access runs past the end of the "
                      "address space",
                      lineNo_);
            acc.cls = classFromToken(f[3], lineNo_);
            acc.vn = number(f[4], 16, ~u64{0}, "VN", lineNo_);
            acc.macGranularity = static_cast<u32>(
                number(f[5], 10, ~u32{0}, "MAC granularity", lineNo_));
            // 0 defers to the scheme; the model aligns to anything
            // else, so it must be a power of two of at least a line.
            if (acc.macGranularity != 0 &&
                (acc.macGranularity < kMinMacGranularity ||
                 !isPow2(acc.macGranularity)))
                raise("trace line %u: MAC granularity %u is not 0 or a "
                      "power of two of at least %u",
                      lineNo_, acc.macGranularity, kMinMacGranularity);
            scratch_.accesses.push_back(acc);
            return false;
        }
        if (tag == "C") {
            if (!checksummed_)
                raise("trace line %u: unknown record 'C'", lineNo_);
            fields(2, "checksum footer");
            const u32 expectedCrc = static_cast<u32>(
                number(f[0], 16, ~u32{0}, "checksum", lineNo_));
            const u64 expectedBytes =
                number(f[1], 10, ~u64{0}, "payload size", lineNo_);
            if (fpReadCorrupt.fire() || expectedCrc != crc_ ||
                expectedBytes != payloadBytes_)
                raise("trace checksum mismatch (file corrupt): "
                      "footer %08x/%llu, computed %08x/%llu",
                      expectedCrc,
                      static_cast<unsigned long long>(expectedBytes),
                      crc_,
                      static_cast<unsigned long long>(payloadBytes_));
            sawFooter_ = true;
            // The footer closes the file: deliver the final phase.
            if (open_) {
                std::swap(scratch_, completed_);
                open_ = false;
                return true;
            }
            return false;
        }
        raise("trace line %u: unknown record '%s'", lineNo_,
              tag.c_str());
    }

    /**
     * End of input: returns true if a final phase is available.
     * Throws if a checksummed stream ended without its footer
     * (truncation).
     */
    bool
    finish()
    {
        if (checksummed_ && !sawFooter_)
            raise("truncated trace (missing checksum footer after "
                  "line %u)",
                  lineNo_);
        if (!open_)
            return false;
        std::swap(scratch_, completed_);
        open_ = false;
        return true;
    }

    const core::Phase &completed() const { return completed_; }

  private:
    core::Phase scratch_;   ///< the phase currently being accumulated
    core::Phase completed_; ///< the last fully parsed phase
    bool open_ = false;
    bool checksummed_ = false; ///< saw the v2 header; verifying CRC
    bool sawFooter_ = false;
    u32 crc_ = 0;
    u64 payloadBytes_ = 0;
    unsigned lineNo_ = 0;
};

} // namespace

std::string
traceToString(const core::Trace &trace)
{
    std::ostringstream out;
    for (const auto &phase : trace) {
        writePhaseHeader(out, phase.name, phase.computeCycles);
        for (const auto &acc : phase.accesses)
            writeAccessLine(out, acc);
    }
    return out.str();
}

core::Trace
traceFromString(const std::string &text)
{
    core::Trace trace;
    TraceParser parser;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (parser.feed(line))
            trace.push_back(parser.completed());
    if (parser.finish())
        trace.push_back(parser.completed());
    return trace;
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

struct TraceFileWriteSink::Impl
{
    std::string path;
    std::string tmp;
    std::ofstream out;
    std::ostringstream scratch; ///< per-phase staging for the CRC
    bool finished = false;
    u32 crc = 0;
    u64 payloadBytes = 0;
    u64 phases = 0;
    u64 dataBytes = 0;
};

TraceFileWriteSink::TraceFileWriteSink(const std::string &path)
    : impl_(std::make_unique<Impl>())
{
    // The pid makes the temporary unique across processes writing the
    // same path; rename() at finish() then publishes the complete
    // file atomically, so readers see either nothing or a whole
    // trace.
    impl_->path = path;
    impl_->tmp = path + ".tmp." + std::to_string(::getpid());
    impl_->out.open(impl_->tmp);
    if (fpWriteOpen.fire() && impl_->out) {
        impl_->out.close();
        std::error_code ignored;
        std::filesystem::remove(impl_->tmp, ignored);
        impl_->out.setstate(std::ios::failbit);
    }
    if (!impl_->out)
        raise("cannot write trace file '%s'", impl_->tmp.c_str());
    impl_->out << "M mgx-trace " << kTraceFormatVersion << '\n';
}

TraceFileWriteSink::~TraceFileWriteSink()
{
    if (impl_->finished)
        return;
    // Abandoned (or failed) write: never leave a partial temporary
    // behind.
    impl_->out.close();
    std::error_code ignored;
    std::filesystem::remove(impl_->tmp, ignored);
}

void
TraceFileWriteSink::consume(const core::Phase &phase)
{
    // Stage the phase's lines once so the CRC and the file see the
    // same bytes.
    impl_->scratch.str(std::string());
    impl_->scratch.clear();
    writePhaseHeader(impl_->scratch, phase.name, phase.computeCycles);
    for (const auto &acc : phase.accesses) {
        writeAccessLine(impl_->scratch, acc);
        impl_->dataBytes += acc.bytes;
    }
    const std::string text = impl_->scratch.str();
    impl_->crc = crc32Update(impl_->crc, text.data(), text.size());
    impl_->payloadBytes += text.size();
    impl_->out.write(text.data(),
                     static_cast<std::streamsize>(text.size()));
    if (fpWriteEnospc.fire() || !impl_->out) {
        // Simulated (or real) ENOSPC mid-write: drop the temporary
        // immediately so a full disk holds no half-written debris,
        // and surface the failure to the producer.
        impl_->out.close();
        std::error_code ignored;
        std::filesystem::remove(impl_->tmp, ignored);
        raise("short write to trace file '%s' (disk full?)",
              impl_->tmp.c_str());
    }
    ++impl_->phases;
}

u64
TraceFileWriteSink::phases() const
{
    return impl_->phases;
}

u64
TraceFileWriteSink::dataBytes() const
{
    return impl_->dataBytes;
}

void
TraceFileWriteSink::finish()
{
    const auto failCleanup = [this] {
        std::error_code ignored;
        std::filesystem::remove(impl_->tmp, ignored);
    };
    char footer[64];
    std::snprintf(footer, sizeof footer, "C %08x %llu\n", impl_->crc,
                  static_cast<unsigned long long>(impl_->payloadBytes));
    impl_->out << footer;
    if (fpWriteShort.fire() || !impl_->out.flush()) {
        impl_->out.close();
        failCleanup();
        raise("short write to trace file '%s'", impl_->tmp.c_str());
    }
    impl_->out.close();
    if (fpWriteTorn.fire()) {
        // Simulate a crash between the write and the publish: the
        // temporary stays behind, the destination never appears.
        impl_->finished = true;
        raise("cannot publish trace file '%s': injected torn rename",
              impl_->path.c_str());
    }
    std::error_code ec;
    std::filesystem::rename(impl_->tmp, impl_->path, ec);
    if (ec) {
        failCleanup();
        raise("cannot publish trace file '%s': %s",
              impl_->path.c_str(), ec.message().c_str());
    }
    impl_->finished = true;
}

// ---------------------------------------------------------------------------
// Streaming reader
// ---------------------------------------------------------------------------

struct FilePhaseSource::Impl
{
    std::ifstream in;
    TraceParser parser;
    std::string line;
    bool eof = false;
};

FilePhaseSource::FilePhaseSource(const std::string &path)
    : impl_(std::make_unique<Impl>())
{
    impl_->in.open(path);
    if (fpReadOpen.fire() || !impl_->in)
        raise("cannot read trace file '%s'", path.c_str());
}

FilePhaseSource::~FilePhaseSource() = default;

bool
FilePhaseSource::nextChunk(core::PhaseSink &sink)
{
    if (impl_->eof)
        return false;
    while (std::getline(impl_->in, impl_->line)) {
        if (impl_->parser.feed(impl_->line)) {
            sink.consume(impl_->parser.completed());
            return true;
        }
    }
    impl_->eof = true;
    if (impl_->parser.finish())
        sink.consume(impl_->parser.completed());
    return false;
}

} // namespace mgx::sim
