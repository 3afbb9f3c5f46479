// Tests for the rename history ring (rename/history.hh): token-indexed
// slots across the wrap point, doubling while wrapped, popBack across
// the wrap, peak tracking, both renamers squashing a history longer
// than the ring's initial capacity back to their fresh state, and the
// core keeping live history within its ROB bound.

#include <gtest/gtest.h>

#include <tuple>
#include <type_traits>

#include "common/random.hh"
#include "harness/experiment.hh"
#include "rename/audit.hh"
#include "rename/baseline.hh"
#include "rename/history.hh"
#include "rename/reuse.hh"

namespace rrs::rename {

/** Whole-state comparison of two renamers (friend of both). */
struct RenameStateAccess
{
    static void
    expectSameState(const BaselineRenamer &a, const BaselineRenamer &b)
    {
        for (int c = 0; c < numRegClasses; ++c) {
            EXPECT_EQ(a.classes[c].map, b.classes[c].map) << "class " << c;
            EXPECT_EQ(a.classes[c].freeList, b.classes[c].freeList)
                << "class " << c;
        }
    }

    static void
    expectSameState(const ReuseRenamer &a, const ReuseRenamer &b)
    {
        // multiUse is left out: a squashed SrcRead does not restore it
        // (its history entry records no previous value), a known fault
        // listed in ROADMAP; every other PRT field must match.
        auto prt = [](const ReuseRenamer::PrtEntry &e) {
            return std::tie(e.readBit, e.counter, e.bank, e.predIndex,
                            e.usesCurVersion, e.reuseImpossible,
                            e.totalUses, e.specRefs, e.retRefs,
                            e.allocated);
        };
        for (int c = 0; c < numRegClasses; ++c) {
            const auto &x = a.classes[c];
            const auto &y = b.classes[c];
            ASSERT_EQ(x.specMap.size(), y.specMap.size());
            for (std::size_t r = 0; r < x.specMap.size(); ++r) {
                EXPECT_EQ(x.specMap[r].tag, y.specMap[r].tag)
                    << "class " << c << " r" << r;
                EXPECT_EQ(x.specMap[r].stale, y.specMap[r].stale)
                    << "class " << c << " r" << r;
            }
            EXPECT_EQ(x.retMap, y.retMap) << "class " << c;
            EXPECT_EQ(x.freeLists, y.freeLists) << "class " << c;
            ASSERT_EQ(x.prt.size(), y.prt.size());
            for (std::size_t p = 0; p < x.prt.size(); ++p)
                EXPECT_TRUE(prt(x.prt[p]) == prt(y.prt[p]))
                    << "PRT, class " << c << " P" << p;
        }
    }
};

namespace {

using Ring = HistoryRing<std::uint64_t>;
constexpr std::size_t initialSlots = Ring::initialCapacity;

/** Push tokens as their own payload, so every slot names its token. */
void
pushTokens(Ring &ring, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        ring.pushBack(ring.endToken());
}

void
expectTokensInOrder(const Ring &ring)
{
    for (HistoryToken t = ring.baseToken(); t < ring.endToken(); ++t)
        ASSERT_EQ(ring.at(t), t);
}

TEST(HistoryRing, WrapsAroundInPlace)
{
    Ring ring;
    const HistoryToken start = initialSlots - 24;
    pushTokens(ring, start);
    ring.popFrontTo(start);
    EXPECT_EQ(ring.size(), 0u);
    // The next tokens fill the last 24 slots, then wrap to slot 0.
    pushTokens(ring, initialSlots - 4);
    EXPECT_EQ(ring.capacity(), initialSlots);
    EXPECT_EQ(ring.size(), initialSlots - 4);
    EXPECT_EQ(ring.at(ring.baseToken()), start);
    EXPECT_EQ(ring.back(), start + initialSlots - 5);
    expectTokensInOrder(ring);
    for (HistoryToken t = start; t < start + initialSlots - 4; ++t) {
        EXPECT_EQ(ring.at(ring.baseToken()), t);
        ring.popFrontTo(t + 1);
    }
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.baseToken(), start + initialSlots - 4);
}

TEST(HistoryRing, GrowsWhileWrapped)
{
    Ring ring;
    pushTokens(ring, 50);
    ring.popFrontTo(50);
    // Fill every slot with the live span wrapped (tokens 50 onwards).
    pushTokens(ring, initialSlots);
    EXPECT_EQ(ring.capacity(), initialSlots);
    expectTokensInOrder(ring);
    // One more doubles the ring; the live entries keep token order.
    pushTokens(ring, 1);
    EXPECT_EQ(ring.capacity(), 2 * initialSlots);
    EXPECT_EQ(ring.size(), initialSlots + 1);
    expectTokensInOrder(ring);
    pushTokens(ring, 3 * initialSlots - 1);
    EXPECT_EQ(ring.capacity(), 4 * initialSlots);
    expectTokensInOrder(ring);
}

TEST(HistoryRing, PopBackAcrossTheWrapPoint)
{
    Ring ring;
    const HistoryToken start = initialSlots - 4;
    pushTokens(ring, start);
    ring.popFrontTo(start);
    pushTokens(ring, 10);   // the last 4 slots, then slots 0..5
    for (HistoryToken t = start + 9; t >= start; --t) {
        EXPECT_EQ(ring.back(), t);
        ring.popBack();
    }
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.endToken(), start);
    // Re-pushing after the undo reuses the same tokens and slots.
    pushTokens(ring, 8);
    EXPECT_EQ(ring.back(), start + 7);
    expectTokensInOrder(ring);
}

TEST(HistoryRing, PeakCountsTheLargestLiveSpan)
{
    Ring ring;
    EXPECT_EQ(ring.peak(), 0u);
    EXPECT_TRUE(ring.pushBack(0));
    EXPECT_TRUE(ring.pushBack(1));
    ring.popBack();
    EXPECT_FALSE(ring.pushBack(1));   // back to 2: not a new peak
    EXPECT_EQ(ring.peak(), 2u);
    ring.popFrontTo(2);
    pushTokens(ring, 2);
    EXPECT_EQ(ring.peak(), 2u);       // two live again, same peak
    EXPECT_TRUE(ring.pushBack(4));
    EXPECT_EQ(ring.peak(), 3u);
    ring.popFrontTo(ring.endToken());
    EXPECT_EQ(ring.peak(), 3u);       // draining keeps the lifetime peak
}

#if GTEST_HAS_DEATH_TEST
TEST(HistoryRingDeathTest, UnderflowPanics)
{
    Ring ring;
    pushTokens(ring, 2);
    EXPECT_DEATH(
        {
            ring.popBack();
            ring.popBack();
            ring.popBack();
        },
        "assertion failed: end != base");
    EXPECT_DEATH(ring.popFrontTo(3), "assertion failed: t >= base");
}
#endif

/** Random instructions: stores (history without a register), fp and
 * int writers, redefinitions (reuse chains) and plain adds. */
trace::DynInst
randomInst(Random &rng)
{
    trace::DynInst di;
    auto intReg = [&] {
        return isa::intReg(static_cast<LogRegIndex>(rng.below(10)));
    };
    auto fpReg = [&] {
        return isa::fpReg(static_cast<LogRegIndex>(rng.below(10)));
    };
    switch (rng.below(5)) {
      case 0:
        di.si.op = isa::Opcode::Str;
        di.si.srcs[0] = intReg();
        di.si.srcs[1] = intReg();
        break;
      case 1:
        di.si.op = isa::Opcode::Fmadd;
        di.si.dest = fpReg();
        di.si.srcs[0] = fpReg();
        di.si.srcs[1] = fpReg();
        di.si.srcs[2] = fpReg();
        break;
      case 2:
        di.si.op = isa::Opcode::Addi;
        di.si.dest = intReg();
        di.si.srcs[0] = di.si.dest;
        break;
      default:
        di.si.op = isa::Opcode::Add;
        di.si.dest = intReg();
        di.si.srcs[0] = intReg();
        di.si.srcs[1] = intReg();
        break;
    }
    di.pc = 0x1000 + 4 * rng.below(64);
    return di;
}

/**
 * Rename with no commit until the history is twice the ring's initial
 * capacity (one doubling, then a full ring), auditing every 16th rename,
 * then squash everything: the renamer must equal a fresh one.
 */
template <typename R, typename Params>
void
squashLongHistoryToFresh(const Params &params)
{
    R rn(params);
    if constexpr (std::is_same_v<R, ReuseRenamer>) {
        // Confident predictor entries: non-redefining reuse, so later
        // reads of the stale source take the repair path too.
        for (Addr pc = 0x1000; pc < 0x1100; pc += 4) {
            auto &tp = rn.predictor();
            tp.trainOnShadowExhausted(tp.indexFor(pc));
        }
    }
    RenameAuditor auditor;
    Random rng(0xb0b);
    for (int renamed = 1; rn.historyPosition() < 2 * initialSlots;
         ++renamed) {
        RenameResult res = rn.rename(randomInst(rng));
        ASSERT_TRUE(res.success) << "register file too small for the test";
        if (renamed % 16 == 0)
            auditor.check(rn, "rename");
    }
    auditor.check(rn, "rename");
    EXPECT_EQ(rn.historyPeakEntries(), rn.historyPosition());

    if constexpr (std::is_same_v<R, ReuseRenamer>) {
        EXPECT_GT(rn.reuseCount(), 0.0);
        EXPECT_GT(rn.repairCount(), 0.0);
    }

    // Nothing executed, so no squashed version needs a recover command.
    EXPECT_EQ(rn.squashTo(0, [](const PhysRegTag &) { return false; }),
              0u);
    auditor.check(rn, "squash");
    EXPECT_EQ(rn.historyPosition(), 0u);
    R fresh(params);
    RenameStateAccess::expectSameState(rn, fresh);
}

TEST(RenameHistory, BaselineSquashesLongHistoryToFreshState)
{
    // About 3/4 of the history entries are int writes, 1/4 fp.
    squashLongHistoryToFresh<BaselineRenamer>(BaselineParams{3500, 1500});
}

TEST(RenameHistory, ReuseSquashesLongHistoryToFreshState)
{
    ReuseRenamerParams p;
    p.intBanks = {1024, 128, 128, 128};
    p.fpBanks = {1024, 128, 128, 128};
    squashLongHistoryToFresh<ReuseRenamer>(p);
}

/**
 * DESIGN §4f: in the core, live history belongs to ROB entries, at most
 * 11 per reuse-scheme instruction and 1 per baseline instruction, so
 * the ring stops growing at 2048 slots.  int_hash keeps the ROB full.
 */
TEST(RenameHistory, CoreKeepsLiveHistoryWithinTheRobBound)
{
    const auto &w = workloads::workload("int_hash");
    for (const auto &[scheme, perInst] :
         {std::pair{"baseline", 1u}, std::pair{"reuse", 11u}}) {
        harness::RunConfig cfg = harness::schemeConfig(scheme, 56);
        cfg.maxInsts = 20'000;
        const auto out = harness::runOn(w, cfg);
        EXPECT_GT(out.historyPeak, 0.0) << scheme;
        EXPECT_LE(out.historyPeak, perInst * cfg.core.robEntries) << scheme;
    }
}

} // namespace
} // namespace rrs::rename
