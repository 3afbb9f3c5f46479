/**
 * @file
 * PackedTrace: the pre-decoded, structure-of-arrays companion to a
 * RecordedTrace.
 *
 * A RecordedTrace stores an array-of-structures of DynInst records,
 * and every DynInst property question (is this a load? what class?
 * how many sources?) chases through StaticInst::info() — an OpInfo
 * table lookup per question, per pipeline touch, per cycle.  The
 * PackedTrace answers all of those questions once, at capture (or once
 * on trace-file load), and stores the answers in flat columns:
 *
 *  - a 4-byte isa::PackedMeta per record (attribute bits + compact
 *    InstClass / BranchKind bytes + memory access size), so the hot
 *    loop does plain bit tests and byte compares;
 *  - pre-extracted operand register lists (dest + up to 3 sources,
 *    one packed byte each) so rename never walks RegId structs;
 *  - contiguous seq / pc / nextPc / effAddr columns;
 *  - per-attribute bitvectors (load / store / control / hasDest /
 *    taken / writesReg, 64 records per word) for whole-trace
 *    population counts (rrs-tracetool mix) without touching records.
 *
 * The invariant this buys (DESIGN §4h): decode and classification
 * happen once per captured record, never in the cycle loop.  Packing
 * is pure derivation — every column value is a function of the DynInst
 * records — so a packed trace can always be rebuilt from records and
 * carries its own FNV-1a digest so codec v2 can prove the stored
 * columns match.
 */

#ifndef RRS_TRACE_PACKED_HH
#define RRS_TRACE_PACKED_HH

#include <array>
#include <cstdint>
#include <vector>

#include "trace/dyninst.hh"

namespace rrs::trace {

class PackedTrace
{
  public:
    /**
     * Build every column from captured records (single linear pass).
     * `records` must outlive the view: record(i) points into it.
     */
    explicit PackedTrace(const std::vector<DynInst> &records);

    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }

    /** Host seconds spent building the columns (the pack cost). */
    double buildSeconds() const { return packSeconds; }

    /** FNV-1a digest over every column, in declaration order. */
    std::uint64_t digest() const { return packedDigest; }

    /** The full record the columns of row i were built from. */
    const DynInst *record(std::size_t i) const { return rows + i; }

    // --- per-record hot columns --------------------------------------
    const isa::PackedMeta &meta(std::size_t i) const { return metaCol[i]; }
    InstSeqNum seq(std::size_t i) const { return seqCol[i]; }
    Addr pc(std::size_t i) const { return pcCol[i]; }
    Addr nextPc(std::size_t i) const { return nextPcCol[i]; }
    Addr effAddr(std::size_t i) const { return effAddrCol[i]; }
    bool taken(std::size_t i) const
    {
        return metaCol[i].attrs & isa::instattr::taken;
    }

    // --- pre-extracted operand lists ---------------------------------
    std::uint8_t numSrcs(std::size_t i) const { return numSrcsCol[i]; }
    isa::RegId dest(std::size_t i) const
    {
        return unpackRegByte(destCol[i]);
    }
    isa::RegId src(std::size_t i, unsigned s) const
    {
        return unpackRegByte(srcCol[i][s]);
    }

    // --- attribute bitvectors (record i lives in word i/64, bit i%64) -
    const std::vector<std::uint64_t> &loadBits() const { return loadBv; }
    const std::vector<std::uint64_t> &storeBits() const { return storeBv; }
    const std::vector<std::uint64_t> &controlBits() const
    {
        return controlBv;
    }
    const std::vector<std::uint64_t> &hasDestBits() const
    {
        return hasDestBv;
    }
    const std::vector<std::uint64_t> &takenBits() const { return takenBv; }
    const std::vector<std::uint64_t> &writesRegBits() const
    {
        return writesRegBv;
    }

    /** Population count of one attribute bitvector. */
    static std::uint64_t countBits(const std::vector<std::uint64_t> &bv);

    // --- register byte codec (shared with trace codec v2) -------------
    // A logical register fits one byte: bit 6 is the class, bits 0..5
    // the index (< isa::numLogRegs).  An invalid (absent) register is
    // 0x80 | class so absence round-trips with its class preserved.
    static bool regBytePackable(const isa::RegId &r);
    static std::uint8_t packRegByte(const isa::RegId &r);
    static isa::RegId unpackRegByte(std::uint8_t b);

  private:
    const DynInst *rows;
    std::size_t n = 0;
    double packSeconds = 0.0;
    std::uint64_t packedDigest = 0;

    std::vector<isa::PackedMeta> metaCol;
    std::vector<InstSeqNum> seqCol;
    std::vector<Addr> pcCol;
    std::vector<Addr> nextPcCol;
    std::vector<Addr> effAddrCol;
    std::vector<std::uint8_t> destCol;
    std::vector<std::array<std::uint8_t, 3>> srcCol;
    std::vector<std::uint8_t> numSrcsCol;

    std::vector<std::uint64_t> loadBv;
    std::vector<std::uint64_t> storeBv;
    std::vector<std::uint64_t> controlBv;
    std::vector<std::uint64_t> hasDestBv;
    std::vector<std::uint64_t> takenBv;
    std::vector<std::uint64_t> writesRegBv;
};

} // namespace rrs::trace

#endif // RRS_TRACE_PACKED_HH
