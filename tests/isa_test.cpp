// Unit tests for the ISA definition: opcode table consistency,
// register naming, and instruction formatting.

#include <gtest/gtest.h>

#include "isa/isa.hh"

namespace {

using namespace rrs;
using namespace rrs::isa;

TEST(OpInfoTable, EveryOpcodeHasAName)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Opcode::NumOpcodes); ++i) {
        auto op = static_cast<Opcode>(i);
        const OpInfo &inf = opInfo(op);
        ASSERT_NE(inf.name, nullptr);
        EXPECT_GT(std::string(inf.name).size(), 0u);
        // Round trip through the name lookup.
        auto back = opcodeFromName(inf.name);
        ASSERT_TRUE(back.has_value()) << inf.name;
        EXPECT_EQ(*back, op);
    }
}

TEST(OpInfoTable, MemoryOpsHaveSizes)
{
    EXPECT_EQ(opInfo(Opcode::Ldr).memBytes, 8);
    EXPECT_EQ(opInfo(Opcode::Ldrw).memBytes, 4);
    EXPECT_EQ(opInfo(Opcode::Ldrb).memBytes, 1);
    EXPECT_EQ(opInfo(Opcode::Str).memBytes, 8);
    EXPECT_EQ(opInfo(Opcode::Fldr).memBytes, 8);
    EXPECT_EQ(opInfo(Opcode::Add).memBytes, 0);
    EXPECT_TRUE(isLoad(Opcode::Fldr));
    EXPECT_TRUE(isStore(Opcode::Fstr));
    EXPECT_FALSE(isLoad(Opcode::Str));
}

TEST(OpInfoTable, BranchKinds)
{
    EXPECT_EQ(opInfo(Opcode::Beq).branch, BranchKind::Cond);
    EXPECT_EQ(opInfo(Opcode::B).branch, BranchKind::Uncond);
    EXPECT_EQ(opInfo(Opcode::Bl).branch, BranchKind::Call);
    EXPECT_EQ(opInfo(Opcode::Ret).branch, BranchKind::Return);
    EXPECT_EQ(opInfo(Opcode::Br).branch, BranchKind::Indirect);
    EXPECT_TRUE(isControl(Opcode::Bl));
    EXPECT_FALSE(isControl(Opcode::Add));
}

TEST(OpInfoTable, DestAndSourceClasses)
{
    // fcvt: int -> fp.
    EXPECT_TRUE(opInfo(Opcode::Fcvt).hasDest);
    EXPECT_EQ(opInfo(Opcode::Fcvt).destCls, RegClass::Float);
    EXPECT_EQ(opInfo(Opcode::Fcvt).srcCls[0], RegClass::Int);
    // fcvti: fp -> int.
    EXPECT_EQ(opInfo(Opcode::Fcvti).destCls, RegClass::Int);
    EXPECT_EQ(opInfo(Opcode::Fcvti).srcCls[0], RegClass::Float);
    // fp compare produces an int.
    EXPECT_EQ(opInfo(Opcode::Flt).destCls, RegClass::Int);
    // Stores and branches have no destination.
    EXPECT_FALSE(opInfo(Opcode::Str).hasDest);
    EXPECT_FALSE(opInfo(Opcode::Beq).hasDest);
    // Calls write the link register.
    EXPECT_TRUE(opInfo(Opcode::Bl).hasDest);
    // fmadd reads three fp sources.
    EXPECT_EQ(opInfo(Opcode::Fmadd).numSrcs, 3);
}

TEST(RegNames, Formatting)
{
    EXPECT_EQ(regName(intReg(0)), "x0");
    EXPECT_EQ(regName(intReg(zeroReg)), "xzr");
    EXPECT_EQ(regName(fpReg(5)), "f5");
    EXPECT_EQ(regName(RegId{}), "-");
}

TEST(StaticInstFormat, AluAndMem)
{
    StaticInst add;
    add.op = Opcode::Add;
    add.dest = intReg(1);
    add.srcs[0] = intReg(2);
    add.srcs[1] = intReg(3);
    EXPECT_EQ(add.toString(), "add x1, x2, x3");

    StaticInst ldr;
    ldr.op = Opcode::Ldr;
    ldr.dest = intReg(4);
    ldr.srcs[0] = intReg(5);
    ldr.imm = 16;
    EXPECT_EQ(ldr.toString(), "ldr x4, [x5, #16]");

    StaticInst str;
    str.op = Opcode::Str;
    str.srcs[0] = intReg(1);
    str.srcs[1] = intReg(2);
    str.imm = 0;
    EXPECT_EQ(str.toString(), "str x1, [x2, #0]");
}

TEST(StaticInstHelpers, Classes)
{
    StaticInst si;
    si.op = Opcode::Fmadd;
    EXPECT_EQ(si.cls(), InstClass::FpMult);
    EXPECT_EQ(si.numSrcs(), 3);
    EXPECT_TRUE(si.hasDest());
    si.op = Opcode::Halt;
    EXPECT_FALSE(si.hasDest());
}

#if GTEST_HAS_DEATH_TEST
TEST(OpInfoTableDeathTest, OutOfRangeOpcodePanics)
{
    const auto past = static_cast<Opcode>(
        static_cast<unsigned>(Opcode::NumOpcodes) + 7);
    EXPECT_DEATH(opInfo(past), "bad opcode");
    StaticInst si;
    si.op = Opcode::NumOpcodes;
    EXPECT_DEATH(si.numSrcs(), "bad opcode");
}
#endif

} // namespace
