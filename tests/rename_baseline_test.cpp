// Unit tests for the baseline (release-on-commit) renamer.

#include <gtest/gtest.h>

#include <deque>

#include "rename/baseline.hh"

namespace {

using namespace rrs;
using namespace rrs::rename;

trace::DynInst
makeInst(isa::Opcode op, isa::RegId dest, isa::RegId s0 = {},
         isa::RegId s1 = {}, Addr pc = 0x1000)
{
    trace::DynInst di;
    di.si.op = op;
    di.si.dest = dest;
    di.si.srcs[0] = s0;
    di.si.srcs[1] = s1;
    di.pc = pc;
    return di;
}

trace::DynInst
addInst(int d, int a, int b)
{
    return makeInst(isa::Opcode::Add, isa::intReg(static_cast<LogRegIndex>(d)),
                    isa::intReg(static_cast<LogRegIndex>(a)),
                    isa::intReg(static_cast<LogRegIndex>(b)));
}

TEST(BaselineRenamer, FreshAllocationPerDest)
{
    BaselineRenamer rn(BaselineParams{40, 40});
    EXPECT_EQ(rn.freeRegs(RegClass::Int), 8u);

    auto r1 = rn.rename(addInst(1, 2, 3));
    ASSERT_TRUE(r1.success);
    EXPECT_TRUE(r1.hasDest);
    EXPECT_EQ(rn.freeRegs(RegClass::Int), 7u);

    auto r2 = rn.rename(addInst(1, 1, 3));
    ASSERT_TRUE(r2.success);
    // The consumer sees the previous producer's register.
    EXPECT_EQ(r2.srcTags[0], r1.destTag);
    EXPECT_NE(r2.destTag, r1.destTag);
    EXPECT_FALSE(r2.reused);
}

TEST(BaselineRenamer, SourceMappingThroughMapTable)
{
    BaselineRenamer rn(BaselineParams{64, 64});
    // Before any renames, logical register i maps to physical i.
    auto r = rn.rename(addInst(5, 6, 7));
    EXPECT_EQ(r.srcTags[0].reg, 6);
    EXPECT_EQ(r.srcTags[1].reg, 7);
    EXPECT_EQ(r.srcTags[0].version, 0);
}

TEST(BaselineRenamer, ZeroRegisterNeverRenames)
{
    BaselineRenamer rn(BaselineParams{40, 40});
    auto free0 = rn.freeRegs(RegClass::Int);
    auto r = rn.rename(makeInst(isa::Opcode::Add,
                                isa::intReg(isa::zeroReg),
                                isa::intReg(isa::zeroReg),
                                isa::intReg(2)));
    EXPECT_TRUE(r.success);
    EXPECT_FALSE(r.hasDest);
    EXPECT_FALSE(r.srcTags[0].valid());
    EXPECT_TRUE(r.srcTags[1].valid());
    EXPECT_EQ(rn.freeRegs(RegClass::Int), free0);
}

TEST(BaselineRenamer, StallWhenFreeListEmptyWithoutSideEffects)
{
    BaselineRenamer rn(BaselineParams{34, 34});
    auto r1 = rn.rename(addInst(1, 2, 3));
    auto r2 = rn.rename(addInst(2, 2, 3));
    ASSERT_TRUE(r1.success);
    ASSERT_TRUE(r2.success);
    EXPECT_EQ(rn.freeRegs(RegClass::Int), 0u);

    auto before = rn.mapping(RegClass::Int, 3);
    auto r3 = rn.rename(addInst(3, 1, 2));
    EXPECT_FALSE(r3.success);
    EXPECT_EQ(rn.mapping(RegClass::Int, 3), before);
    EXPECT_EQ(rn.historyPosition(), r2.endToken);
}

TEST(BaselineRenamer, CommitReleasesPreviousMapping)
{
    BaselineRenamer rn(BaselineParams{40, 40});
    auto r1 = rn.rename(addInst(1, 2, 3));
    EXPECT_EQ(rn.freeRegs(RegClass::Int), 7u);
    rn.commit(r1);
    // The old physical register for x1 (identity: P1) is now free.
    EXPECT_EQ(rn.freeRegs(RegClass::Int), 8u);
}

TEST(BaselineRenamer, SquashRestoresMapAndFreeList)
{
    BaselineRenamer rn(BaselineParams{40, 40});
    auto before_map = rn.mapping(RegClass::Int, 1);
    auto before_free = rn.freeRegs(RegClass::Int);
    auto token = rn.historyPosition();

    auto r1 = rn.rename(addInst(1, 2, 3));
    auto r2 = rn.rename(addInst(1, 1, 3));
    ASSERT_TRUE(r1.success && r2.success);
    EXPECT_EQ(rn.freeRegs(RegClass::Int), before_free - 2);

    EXPECT_EQ(rn.squashTo(token), 0u);
    EXPECT_EQ(rn.mapping(RegClass::Int, 1), before_map);
    EXPECT_EQ(rn.freeRegs(RegClass::Int), before_free);
}

TEST(BaselineRenamer, PartialSquashKeepsOlder)
{
    BaselineRenamer rn(BaselineParams{40, 40});
    auto r1 = rn.rename(addInst(1, 2, 3));
    auto mid = rn.historyPosition();
    auto r2 = rn.rename(addInst(1, 1, 3));
    ASSERT_TRUE(r2.success);

    rn.squashTo(mid);
    EXPECT_EQ(rn.mapping(RegClass::Int, 1), r1.destTag);
}

TEST(BaselineRenamer, FpAndIntFilesAreDecoupled)
{
    BaselineRenamer rn(BaselineParams{34, 40});
    rn.rename(addInst(1, 2, 3));
    rn.rename(addInst(2, 2, 3));
    EXPECT_EQ(rn.freeRegs(RegClass::Int), 0u);
    // FP still renames fine.
    auto rf = rn.rename(makeInst(isa::Opcode::Fadd, isa::fpReg(1),
                                 isa::fpReg(2), isa::fpReg(3)));
    EXPECT_TRUE(rf.success);
    EXPECT_EQ(rf.destTag.cls, RegClass::Float);
    // An int dest stalls.
    EXPECT_FALSE(rn.rename(addInst(3, 1, 2)).success);
}

TEST(BaselineRenamer, LongRenameCommitStream)
{
    BaselineRenamer rn(BaselineParams{48, 48});
    std::deque<RenameResult> rob;
    std::uint64_t renamed = 0, committed = 0;
    for (int i = 0; i < 10000; ++i) {
        auto r = rn.rename(addInst(1 + (i % 8), 2, 3));
        if (r.success) {
            rob.push_back(r);
            ++renamed;
        }
        if (rob.size() > 12 || !r.success) {
            if (!rob.empty()) {
                rn.commit(rob.front());
                rob.pop_front();
                ++committed;
            }
        }
    }
    EXPECT_GT(renamed, 9000u);
    EXPECT_GE(renamed, committed);
    // Free list must be consistent: total = free + in-flight + mapped.
    EXPECT_EQ(rn.freeRegs(RegClass::Int) + rob.size() + 32 +
                  (renamed - committed - rob.size()),
              48u + (renamed - committed - rob.size()));
}

TEST(BaselineRenamer, MaxVersionsIsOne)
{
    BaselineRenamer rn(BaselineParams{40, 40});
    EXPECT_EQ(rn.maxVersions(), 1u);
    auto idx = rn.tagIndexer();
    EXPECT_EQ(idx.size(), 2u * 40u * 1u);
}

} // namespace
