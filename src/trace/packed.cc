#include "packed.hh"

#include <bit>
#include <chrono>

#include "common/logging.hh"

namespace rrs::trace {

namespace {

constexpr std::uint64_t fnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

void
foldU8(std::uint64_t &h, std::uint8_t v)
{
    h ^= v;
    h *= fnvPrime;
}

void
foldU64(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b)
        foldU8(h, static_cast<std::uint8_t>(v >> (8 * b)));
}

void
setBit(std::vector<std::uint64_t> &bv, std::size_t i)
{
    bv[i / 64] |= std::uint64_t{1} << (i % 64);
}

} // namespace

bool
PackedTrace::regBytePackable(const isa::RegId &r)
{
    return r.idx == invalidRegIndex || r.idx < isa::numLogRegs;
}

std::uint8_t
PackedTrace::packRegByte(const isa::RegId &r)
{
    const auto cls = static_cast<std::uint8_t>(r.cls);
    if (r.idx == invalidRegIndex)
        return static_cast<std::uint8_t>(0x80u | cls);
    rrs_assert(r.idx < isa::numLogRegs, "register index out of range");
    return static_cast<std::uint8_t>((cls << 6) | r.idx);
}

isa::RegId
PackedTrace::unpackRegByte(std::uint8_t b)
{
    if (b & 0x80u)
        return isa::RegId{static_cast<RegClass>(b & 0x7fu),
                          invalidRegIndex};
    return isa::RegId{static_cast<RegClass>((b >> 6) & 1u),
                      static_cast<LogRegIndex>(b & 0x3fu)};
}

std::uint64_t
PackedTrace::countBits(const std::vector<std::uint64_t> &bv)
{
    std::uint64_t count = 0;
    for (std::uint64_t w : bv)
        count += static_cast<std::uint64_t>(std::popcount(w));
    return count;
}

PackedTrace::PackedTrace(const std::vector<DynInst> &records)
    : rows(records.data())
{
    const auto t0 = std::chrono::steady_clock::now();
    n = records.size();
    metaCol.reserve(n);
    seqCol.reserve(n);
    pcCol.reserve(n);
    nextPcCol.reserve(n);
    effAddrCol.reserve(n);
    destCol.reserve(n);
    srcCol.reserve(n);
    numSrcsCol.reserve(n);
    const std::size_t words = (n + 63) / 64;
    loadBv.assign(words, 0);
    storeBv.assign(words, 0);
    controlBv.assign(words, 0);
    hasDestBv.assign(words, 0);
    takenBv.assign(words, 0);
    writesRegBv.assign(words, 0);

    for (std::size_t i = 0; i < n; ++i) {
        const DynInst &di = records[i];
        // Static per-opcode bits from the one-time classifier, then
        // the per-record facts stamped on top.
        isa::PackedMeta m = isa::packedMeta(di.si.op);
        if (di.taken)
            m.attrs |= isa::instattr::taken;
        const bool writes =
            (m.attrs & isa::instattr::hasDest) &&
            !(di.si.dest.cls == RegClass::Int &&
              di.si.dest.idx == isa::zeroReg);
        if (writes)
            m.attrs |= isa::instattr::writesReg;
        metaCol.push_back(m);
        seqCol.push_back(di.seq);
        pcCol.push_back(di.pc);
        nextPcCol.push_back(di.nextPc);
        effAddrCol.push_back(di.effAddr);
        rrs_assert(regBytePackable(di.si.dest) &&
                       regBytePackable(di.si.srcs[0]) &&
                       regBytePackable(di.si.srcs[1]) &&
                       regBytePackable(di.si.srcs[2]),
                   "register id does not fit the packed byte codec");
        destCol.push_back(packRegByte(di.si.dest));
        srcCol.push_back({packRegByte(di.si.srcs[0]),
                          packRegByte(di.si.srcs[1]),
                          packRegByte(di.si.srcs[2])});
        numSrcsCol.push_back(di.si.numSrcs());

        if (m.isLoad())
            setBit(loadBv, i);
        if (m.isStore())
            setBit(storeBv, i);
        if (m.isControl())
            setBit(controlBv, i);
        if (m.hasDest())
            setBit(hasDestBv, i);
        if (di.taken)
            setBit(takenBv, i);
        if (writes)
            setBit(writesRegBv, i);
    }

    // Digest every column in declaration order.  The meta column
    // includes classifier output, so two builds only agree when both
    // the records *and* the classifier tables agree — exactly the
    // property codec v2 checks on load.
    std::uint64_t h = fnvOffset;
    foldU64(h, n);
    for (const isa::PackedMeta &m : metaCol) {
        foldU8(h, m.attrs);
        foldU8(h, static_cast<std::uint8_t>(m.cls));
        foldU8(h, static_cast<std::uint8_t>(m.branch));
        foldU8(h, m.memBytes);
    }
    for (InstSeqNum v : seqCol)
        foldU64(h, v);
    for (Addr v : pcCol)
        foldU64(h, v);
    for (Addr v : nextPcCol)
        foldU64(h, v);
    for (Addr v : effAddrCol)
        foldU64(h, v);
    for (std::uint8_t v : destCol)
        foldU8(h, v);
    for (const auto &s : srcCol) {
        foldU8(h, s[0]);
        foldU8(h, s[1]);
        foldU8(h, s[2]);
    }
    for (std::uint8_t v : numSrcsCol)
        foldU8(h, v);
    packedDigest = h;

    packSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
}

} // namespace rrs::trace
