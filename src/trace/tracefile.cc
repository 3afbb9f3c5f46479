#include "tracefile.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/atomicfile.hh"
#include "common/logging.hh"
#include "trace/packed.hh"

namespace rrs::trace {

namespace {

// Record flags byte.
constexpr std::uint8_t flagTaken = 1u << 0;
constexpr std::uint8_t flagEffAddr = 1u << 1;
constexpr std::uint8_t flagFpImm = 1u << 2;
constexpr std::uint8_t flagTarget = 1u << 3;

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (unsigned b = 0; b < 4; ++b)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
}

/** The optional-field flags of one record. */
std::uint8_t
recordFlags(const DynInst &di)
{
    std::uint64_t fbits;
    std::memcpy(&fbits, &di.si.fimm, sizeof(fbits));
    std::uint8_t flags = 0;
    if (di.taken)
        flags |= flagTaken;
    if (di.effAddr != invalidAddr)
        flags |= flagEffAddr;
    if (fbits != 0)
        flags |= flagFpImm;
    if (di.si.target != invalidAddr)
        flags |= flagTarget;
    return flags;
}

/** True for byte values PackedTrace::unpackRegByte decodes losslessly. */
bool
regByteValid(std::uint8_t b)
{
    if (b & 0x80u)
        return (b & 0x7fu) < numRegClasses;
    return (b & 0x3fu) < isa::numLogRegs;
}

/** Bounds-checked cursor over the file image. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : p(data), end(data + size)
    {
    }

    bool ok() const { return good; }
    std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

    std::uint8_t
    u8()
    {
        if (p >= end) {
            good = false;
            return 0;
        }
        return *p++;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (unsigned b = 0; b < 4; ++b)
            v |= static_cast<std::uint32_t>(u8()) << (8 * b);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (unsigned b = 0; b < 8; ++b)
            v |= static_cast<std::uint64_t>(u8()) << (8 * b);
        return v;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            std::uint8_t byte = u8();
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
        }
        good = false;    // > 10 continuation bytes: corrupt
        return v;
    }

    std::string
    bytes(std::size_t n)
    {
        if (remaining() < n) {
            good = false;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(p), n);
        p += n;
        return s;
    }

  private:
    const std::uint8_t *p;
    const std::uint8_t *end;
    bool good = true;
};

} // namespace

std::string
traceFileName(const std::string &workload, std::uint64_t cap)
{
    return workload + "_" + std::to_string(cap) + ".rrstrace";
}

bool
tryWriteTraceFile(const std::string &path, const RecordedTrace &trace,
                  std::string &error)
{
    // v2 is column-major: one full column at a time, mirroring the
    // PackedTrace structure-of-arrays form so like values compress
    // together and the loader refills columns with tight loops.
    const std::vector<DynInst> &insts = trace.insts();
    const PackedTrace &packed = trace.packed();

    std::vector<std::uint8_t> buf;
    buf.reserve(64 + trace.size() * 12);

    putU32(buf, traceFileMagic);
    putU32(buf, traceFileVersion);
    putVarint(buf, trace.workload().size());
    for (char c : trace.workload())
        buf.push_back(static_cast<std::uint8_t>(c));
    putVarint(buf, trace.cap());
    putU64(buf, trace.sourceHash());
    putVarint(buf, trace.size());

    std::uint64_t prevSeq = 0;
    for (const DynInst &di : insts) {
        putVarint(buf, di.seq - prevSeq);
        prevSeq = di.seq;
    }
    for (const DynInst &di : insts)
        putVarint(buf, di.pc);
    for (const DynInst &di : insts) {
        putVarint(buf, zigzag(static_cast<std::int64_t>(di.nextPc) -
                              static_cast<std::int64_t>(di.pc)));
    }
    for (const DynInst &di : insts)
        buf.push_back(static_cast<std::uint8_t>(di.si.op));
    for (const DynInst &di : insts)
        buf.push_back(recordFlags(di));
    for (const DynInst &di : insts)
        buf.push_back(PackedTrace::packRegByte(di.si.dest));
    for (unsigned s = 0; s < 3; ++s) {
        for (const DynInst &di : insts)
            buf.push_back(PackedTrace::packRegByte(di.si.srcs[s]));
    }
    for (const DynInst &di : insts)
        putVarint(buf, zigzag(di.si.imm));

    // Optional values, one flag group at a time in record order.
    for (const DynInst &di : insts) {
        std::uint64_t fbits;
        std::memcpy(&fbits, &di.si.fimm, sizeof(fbits));
        if (fbits != 0)
            putU64(buf, fbits);
    }
    for (const DynInst &di : insts) {
        if (di.si.target != invalidAddr)
            putVarint(buf, di.si.target);
    }
    for (const DynInst &di : insts) {
        if (di.effAddr != invalidAddr)
            putVarint(buf, di.effAddr);
    }

    putU64(buf, trace.digest());
    putU64(buf, packed.digest());

    // Temp-file + rename keeps concurrent writers of one path atomic
    // (common/atomicfile.hh, shared with the JSON exporters).
    // No parent creation: a missing RRS_TRACE_DIR disables spilling
    // rather than silently materialising directories.
    return tryWriteFileAtomic(
        path,
        std::string_view(reinterpret_cast<const char *>(buf.data()),
                         buf.size()),
        error, /*createParents=*/false);
}

void
writeTraceFile(const std::string &path, const RecordedTrace &trace)
{
    std::string error;
    if (!tryWriteTraceFile(path, trace, error))
        rrs_fatal("cannot write trace file '%s': %s", path.c_str(),
                  error.c_str());
}

TracePtr
tryReadTraceFile(const std::string &path, std::string &error,
                 std::uint32_t *fileVersion)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        error = "cannot open trace file '" + path + "'";
        return nullptr;
    }
    std::vector<std::uint8_t> buf(
        (std::istreambuf_iterator<char>(is)),
        std::istreambuf_iterator<char>());

    // Smallest well-formed file: header with an empty name and zero
    // records plus the digest trailer.
    if (buf.size() < 4 + 4 + 1 + 1 + 8 + 1 + 8) {
        error = "trace file '" + path + "' is too short";
        return nullptr;
    }

    Reader r(buf.data(), buf.size());
    if (r.u32() != traceFileMagic) {
        error = "bad magic in trace file '" + path + "'";
        return nullptr;
    }
    const std::uint32_t version = r.u32();
    if (fileVersion)
        *fileVersion = version;
    if (version != traceFileVersion) {
        error = "unsupported trace version " + std::to_string(version) +
                " in '" + path + "' (this build reads version " +
                std::to_string(traceFileVersion) + " only)";
        return nullptr;
    }

    const std::uint64_t nameLen = r.varint();
    if (!r.ok() || nameLen > r.remaining()) {
        error = "truncated trace file '" + path + "'";
        return nullptr;
    }
    std::string name = r.bytes(static_cast<std::size_t>(nameLen));
    const std::uint64_t cap = r.varint();
    const std::uint64_t sourceHash = r.u64();
    const std::uint64_t count = r.varint();
    if (!r.ok()) {
        error = "truncated trace file '" + path + "'";
        return nullptr;
    }
    // Each record costs at least 9 bytes; reject counts the file
    // cannot possibly hold before reserving memory.
    if (count > r.remaining() / 9 + 1) {
        error = "corrupt record count in trace file '" + path + "'";
        return nullptr;
    }

    // Column-major: refill one column at a time.
    const auto n = static_cast<std::size_t>(count);
    std::vector<DynInst> insts(n);
    std::uint64_t prevSeq = 0;
    for (std::size_t i = 0; i < n; ++i) {
        insts[i].seq = prevSeq + r.varint();
        prevSeq = insts[i].seq;
    }
    for (std::size_t i = 0; i < n; ++i)
        insts[i].pc = r.varint();
    for (std::size_t i = 0; i < n; ++i) {
        insts[i].nextPc = static_cast<Addr>(
            static_cast<std::int64_t>(insts[i].pc) +
            unzigzag(r.varint()));
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t op = r.u8();
        if (r.ok() &&
            op >= static_cast<std::uint8_t>(isa::Opcode::NumOpcodes)) {
            error = "corrupt opcode in trace file '" + path +
                    "' (record " + std::to_string(i) + ")";
            return nullptr;
        }
        insts[i].si.op = static_cast<isa::Opcode>(op);
    }
    std::vector<std::uint8_t> flagsCol(n);
    for (std::size_t i = 0; i < n; ++i)
        flagsCol[i] = r.u8();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t b = r.u8();
        if (r.ok() && !regByteValid(b)) {
            error = "corrupt register id in trace file '" + path +
                    "' (record " + std::to_string(i) + ")";
            return nullptr;
        }
        insts[i].si.dest = PackedTrace::unpackRegByte(b);
    }
    for (unsigned s = 0; s < 3; ++s) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint8_t b = r.u8();
            if (r.ok() && !regByteValid(b)) {
                error = "corrupt register id in trace file '" +
                        path + "' (record " + std::to_string(i) +
                        ")";
                return nullptr;
            }
            insts[i].si.srcs[s] = PackedTrace::unpackRegByte(b);
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        insts[i].si.imm = unzigzag(r.varint());
    if (!r.ok()) {
        error = "truncated trace file '" + path +
                "' (inside record columns)";
        return nullptr;
    }

    // Optional values, one flag group at a time in record order.
    for (std::size_t i = 0; i < n; ++i) {
        insts[i].si.fimm = 0.0;
        if (flagsCol[i] & flagFpImm) {
            std::uint64_t fbits = r.u64();
            std::memcpy(&insts[i].si.fimm, &fbits,
                        sizeof(insts[i].si.fimm));
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        insts[i].si.target =
            (flagsCol[i] & flagTarget) ? r.varint() : invalidAddr;
    }
    for (std::size_t i = 0; i < n; ++i) {
        insts[i].taken = (flagsCol[i] & flagTaken) != 0;
        insts[i].effAddr =
            (flagsCol[i] & flagEffAddr) ? r.varint() : invalidAddr;
    }
    if (!r.ok()) {
        error = "truncated trace file '" + path +
                "' (inside optional columns)";
        return nullptr;
    }

    const std::uint64_t storedDigest = r.u64();
    const std::uint64_t storedPackedDigest = r.u64();
    if (!r.ok()) {
        error = "truncated trace file '" + path + "' (missing digest "
                "trailer)";
        return nullptr;
    }
    auto trace = std::make_shared<RecordedTrace>(
        std::move(name), cap, sourceHash, std::move(insts));
    if (trace->digest() != storedDigest) {
        error = "digest mismatch in trace file '" + path +
                "': stored " + std::to_string(storedDigest) +
                ", computed " + std::to_string(trace->digest());
        return nullptr;
    }
    // Decode-once invariant (DESIGN §4h): the columns are built here,
    // at load, never in the cycle loop, and must match the stored
    // packed digest (i.e. the classifier agrees).
    const PackedTrace &packed = trace->packed();
    if (packed.digest() != storedPackedDigest) {
        error = "packed digest mismatch in trace file '" + path +
                "': stored " + std::to_string(storedPackedDigest) +
                ", computed " + std::to_string(packed.digest());
        return nullptr;
    }
    return trace;
}

TracePtr
readTraceFile(const std::string &path)
{
    std::string error;
    TracePtr trace = tryReadTraceFile(path, error);
    if (!trace)
        rrs_fatal("%s", error.c_str());
    return trace;
}

} // namespace rrs::trace
