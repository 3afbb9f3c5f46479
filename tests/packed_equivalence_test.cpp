// Property test for the pre-decoded trace columns (trace/packed.hh):
// for every workload, every PackedTrace column and attribute bit must
// agree field-by-field with the DynInst records it was derived from —
// the packed view is a pure re-encoding, never a reinterpretation.
// The same columns must survive a codec v2 round trip (the stored
// packed digest proves the load-side rebuild matches) and must be the
// view ReplayStream hands the core, stable across reset() and
// re-construction.

#include <gtest/gtest.h>

#include <vector>

#include "trace/packed.hh"
#include "trace/recorded.hh"
#include "trace/tracefile.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using trace::DynInst;
using trace::PackedTrace;

constexpr std::uint64_t kCap = 20'000;

bool
bit(const std::vector<std::uint64_t> &bv, std::size_t i)
{
    return (bv[i / 64] >> (i % 64)) & 1;
}

// The rename-allocation predicate, restated independently of the
// packer: an instruction allocates a physical register iff it has a
// dest and that dest is not the hardwired integer zero register.
bool
refWritesReg(const DynInst &di)
{
    return di.si.info().hasDest &&
           !(di.si.dest.cls == RegClass::Int &&
             di.si.dest.idx == isa::zeroReg);
}

// Every packed column and attribute bit vs the DynInst records, one
// record at a time, against the OpInfo table (the packer's input).
void
expectPackedMatchesRecords(const PackedTrace &p,
                           const std::vector<DynInst> &records)
{
    ASSERT_EQ(p.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const DynInst &di = records[i];
        const isa::OpInfo &info = di.si.info();
        const isa::PackedMeta &m = p.meta(i);

        // Compact classifier bytes vs the authoritative OpInfo.
        EXPECT_EQ(m.cls, info.cls) << i;
        EXPECT_EQ(m.branch, info.branch) << i;
        EXPECT_EQ(m.memBytes, info.memBytes) << i;

        // Static attribute bits.
        EXPECT_EQ(m.isLoad(), di.si.load()) << i;
        EXPECT_EQ(m.isStore(), di.si.store()) << i;
        EXPECT_EQ(m.isControl(), di.si.control()) << i;
        EXPECT_EQ(m.hasDest(), info.hasDest) << i;

        // Per-record bits stamped on top of the static ones.
        EXPECT_EQ(p.taken(i), di.taken) << i;
        EXPECT_EQ((m.attrs & isa::instattr::writesReg) != 0,
                  refWritesReg(di))
            << i;

        // Plain columns.
        EXPECT_EQ(p.seq(i), di.seq) << i;
        EXPECT_EQ(p.pc(i), di.pc) << i;
        EXPECT_EQ(p.nextPc(i), di.nextPc) << i;
        EXPECT_EQ(p.effAddr(i), di.effAddr) << i;

        // Operand lists round-trip through the register byte codec.
        EXPECT_EQ(p.dest(i), di.si.dest) << i;
        for (unsigned s = 0; s < 3; ++s)
            EXPECT_EQ(p.src(i, s), di.si.srcs[s]) << i << " src " << s;
        EXPECT_EQ(p.numSrcs(i), di.si.numSrcs()) << i;

        // Bitvector bits agree with the per-record attribute bits.
        EXPECT_EQ(bit(p.loadBits(), i), m.isLoad()) << i;
        EXPECT_EQ(bit(p.storeBits(), i), m.isStore()) << i;
        EXPECT_EQ(bit(p.controlBits(), i), m.isControl()) << i;
        EXPECT_EQ(bit(p.hasDestBits(), i), m.hasDest()) << i;
        EXPECT_EQ(bit(p.takenBits(), i), di.taken) << i;
        EXPECT_EQ(bit(p.writesRegBits(), i), refWritesReg(di)) << i;
    }

    // Population counts close the loop on the bitvector encoding.
    std::uint64_t loads = 0, stores = 0, branches = 0, taken = 0;
    for (const DynInst &di : records) {
        loads += di.si.load();
        stores += di.si.store();
        branches += di.si.control();
        taken += di.taken;
    }
    EXPECT_EQ(PackedTrace::countBits(p.loadBits()), loads);
    EXPECT_EQ(PackedTrace::countBits(p.storeBits()), stores);
    EXPECT_EQ(PackedTrace::countBits(p.controlBits()), branches);
    EXPECT_EQ(PackedTrace::countBits(p.takenBits()), taken);
}

class EveryWorkloadPacked : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EveryWorkloadPacked, ColumnsMatchRecords)
{
    const auto &w = workloads::workload(GetParam());
    trace::TracePtr t = workloads::captureTrace(w, kCap);
    ASSERT_FALSE(t->empty());

    const PackedTrace &p = t->packed();
    expectPackedMatchesRecords(p, t->insts());

    // packed() is built once and memoised: same object every call.
    EXPECT_EQ(&t->packed(), &p);

    // Packing is a pure function of the records: a fresh build from
    // the same records digests identically.
    PackedTrace rebuilt(t->insts());
    EXPECT_EQ(rebuilt.digest(), p.digest());
}

TEST_P(EveryWorkloadPacked, SurvivesCodecRoundTrip)
{
    const auto &w = workloads::workload(GetParam());
    trace::TracePtr t = workloads::captureTrace(w, kCap);

    const std::string path = ::testing::TempDir() + "packed_rt_" +
                             w.name + ".rrstrace";
    trace::writeTraceFile(path, *t);
    trace::TracePtr back = trace::readTraceFile(path);
    ASSERT_TRUE(back);

    // The reader verified the stored packed digest itself; check the
    // rebuilt columns against the original anyway, field by field.
    EXPECT_EQ(back->packed().digest(), t->packed().digest());
    expectPackedMatchesRecords(back->packed(), t->insts());
}

TEST_P(EveryWorkloadPacked, ReplayStreamServesPackedView)
{
    const auto &w = workloads::workload(GetParam());
    trace::TracePtr t = workloads::captureTrace(w, kCap);

    // The stream's packed view is the trace's own packed columns, and
    // cursor() indexes them in lockstep with next().
    trace::ReplayStream stream(t);
    ASSERT_NE(stream.packedView(), nullptr);
    EXPECT_EQ(stream.packedView(), &t->packed());
    std::size_t i = 0;
    while (true) {
        EXPECT_EQ(stream.cursor(), i);
        auto di = stream.next();
        if (!di)
            break;
        EXPECT_EQ(di->seq, stream.packedView()->seq(i)) << i;
        ++i;
    }
    EXPECT_EQ(i, t->size());

    // reset() rewinds the cursor but never invalidates the view...
    stream.reset();
    EXPECT_EQ(stream.cursor(), 0u);
    EXPECT_EQ(stream.packedView(), &t->packed());

    // ...and a re-constructed stream shares the same columns (the
    // pack happened once, at capture).
    trace::ReplayStream rebuilt(t);
    EXPECT_EQ(rebuilt.packedView(), &t->packed());
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryWorkloadPacked,
    ::testing::Values("int_sort", "int_hash", "int_crc", "int_sieve",
                      "int_match", "int_graph", "int_lz", "fp_matmul",
                      "fp_fir", "fp_jacobi", "fp_nbody", "fp_horner",
                      "fp_chain", "fp_blur", "media_adpcm", "media_dct",
                      "media_sobel", "media_g711", "cog_gmm", "cog_dnn",
                      "cog_knn"));

TEST_P(EveryWorkloadPacked, RecordIsTheTraceRow)
{
    // The core's in-flight entries point at records through the packed
    // view; record(i) must be the trace's own row i, not a copy.
    const auto &w = workloads::workload(GetParam());
    trace::TracePtr t = workloads::captureTrace(w, kCap);
    const PackedTrace &p = t->packed();
    for (std::size_t i = 0; i < t->size(); ++i)
        ASSERT_EQ(p.record(i), &(*t)[i]) << i;
}

TEST(PackedTrace, EmulatorStreamsFallBackToNullView)
{
    // A live emulator has no packed columns: it reports the documented
    // nullptr, and the core rejects it until it is recorded.
    const auto &w = workloads::workload("int_crc");
    auto e = workloads::makeEmulator(w, 1'000);
    EXPECT_EQ(e->packedView(), nullptr);
}

TEST(PackedTrace, EmptyTracePacksToEmptyColumns)
{
    PackedTrace p(std::vector<DynInst>{});
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.size(), 0u);
    EXPECT_EQ(PackedTrace::countBits(p.loadBits()), 0u);
}

} // namespace
