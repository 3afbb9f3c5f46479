#include "isa.hh"

#include <map>
#include <sstream>

#include "common/logging.hh"

namespace rrs::isa {

namespace {

constexpr RegClass I = RegClass::Int;
constexpr RegClass F = RegClass::Float;

/** Compact row constructor for the opcode table. */
constexpr OpInfo
row(const char *name, InstClass cls, std::uint8_t nsrc, bool dest,
    RegClass dcls, RegClass s0, RegClass s1, RegClass s2, bool imm,
    bool fimm, BranchKind br, std::uint8_t mem)
{
    return OpInfo{name, cls, nsrc, dest, dcls, {s0, s1, s2},
                  imm, fimm, br, mem};
}

constexpr BranchKind BN = BranchKind::None;

} // namespace

// to_array sizes the table from its rows, so a row count that differs
// from Opcode::NumOpcodes does not compile.
const std::array<OpInfo, static_cast<std::size_t>(Opcode::NumOpcodes)>
    detail::opTable = std::to_array<OpInfo>({
    // name     class              src dst dcls s0 s1 s2 imm  fimm branch          mem
    row("add",  InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("sub",  InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("mul",  InstClass::IntMult, 2, true,  I, I, I, I, false, false, BN, 0),
    row("div",  InstClass::IntDiv,  2, true,  I, I, I, I, false, false, BN, 0),
    row("rem",  InstClass::IntDiv,  2, true,  I, I, I, I, false, false, BN, 0),
    row("and",  InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("orr",  InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("eor",  InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("lsl",  InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("lsr",  InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("asr",  InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("slt",  InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("sltu", InstClass::IntAlu,  2, true,  I, I, I, I, false, false, BN, 0),
    row("addi", InstClass::IntAlu,  1, true,  I, I, I, I, true,  false, BN, 0),
    row("subi", InstClass::IntAlu,  1, true,  I, I, I, I, true,  false, BN, 0),
    row("muli", InstClass::IntMult, 1, true,  I, I, I, I, true,  false, BN, 0),
    row("andi", InstClass::IntAlu,  1, true,  I, I, I, I, true,  false, BN, 0),
    row("orri", InstClass::IntAlu,  1, true,  I, I, I, I, true,  false, BN, 0),
    row("eori", InstClass::IntAlu,  1, true,  I, I, I, I, true,  false, BN, 0),
    row("lsli", InstClass::IntAlu,  1, true,  I, I, I, I, true,  false, BN, 0),
    row("lsri", InstClass::IntAlu,  1, true,  I, I, I, I, true,  false, BN, 0),
    row("asri", InstClass::IntAlu,  1, true,  I, I, I, I, true,  false, BN, 0),
    row("slti", InstClass::IntAlu,  1, true,  I, I, I, I, true,  false, BN, 0),
    row("mov",  InstClass::IntAlu,  1, true,  I, I, I, I, false, false, BN, 0),
    row("movz", InstClass::IntAlu,  0, true,  I, I, I, I, true,  false, BN, 0),
    row("ldr",  InstClass::Load,    1, true,  I, I, I, I, true,  false, BN, 8),
    row("ldrw", InstClass::Load,    1, true,  I, I, I, I, true,  false, BN, 4),
    row("ldrb", InstClass::Load,    1, true,  I, I, I, I, true,  false, BN, 1),
    row("str",  InstClass::Store,   2, false, I, I, I, I, true,  false, BN, 8),
    row("strw", InstClass::Store,   2, false, I, I, I, I, true,  false, BN, 4),
    row("strb", InstClass::Store,   2, false, I, I, I, I, true,  false, BN, 1),
    row("fldr", InstClass::Load,    1, true,  F, I, I, I, true,  false, BN, 8),
    row("fstr", InstClass::Store,   2, false, I, F, I, I, true,  false, BN, 8),
    row("beq",  InstClass::Branch,  2, false, I, I, I, I, false, false,
        BranchKind::Cond, 0),
    row("bne",  InstClass::Branch,  2, false, I, I, I, I, false, false,
        BranchKind::Cond, 0),
    row("blt",  InstClass::Branch,  2, false, I, I, I, I, false, false,
        BranchKind::Cond, 0),
    row("bge",  InstClass::Branch,  2, false, I, I, I, I, false, false,
        BranchKind::Cond, 0),
    row("bltu", InstClass::Branch,  2, false, I, I, I, I, false, false,
        BranchKind::Cond, 0),
    row("bgeu", InstClass::Branch,  2, false, I, I, I, I, false, false,
        BranchKind::Cond, 0),
    row("b",    InstClass::Branch,  0, false, I, I, I, I, false, false,
        BranchKind::Uncond, 0),
    row("bl",   InstClass::Branch,  0, true,  I, I, I, I, false, false,
        BranchKind::Call, 0),
    row("ret",  InstClass::Branch,  1, false, I, I, I, I, false, false,
        BranchKind::Return, 0),
    row("br",   InstClass::Branch,  1, false, I, I, I, I, false, false,
        BranchKind::Indirect, 0),
    row("fadd", InstClass::FpAlu,   2, true,  F, F, F, F, false, false, BN, 0),
    row("fsub", InstClass::FpAlu,   2, true,  F, F, F, F, false, false, BN, 0),
    row("fmul", InstClass::FpMult,  2, true,  F, F, F, F, false, false, BN, 0),
    row("fdiv", InstClass::FpDiv,   2, true,  F, F, F, F, false, false, BN, 0),
    row("fsqrt",InstClass::FpDiv,   1, true,  F, F, F, F, false, false, BN, 0),
    row("fmin", InstClass::FpAlu,   2, true,  F, F, F, F, false, false, BN, 0),
    row("fmax", InstClass::FpAlu,   2, true,  F, F, F, F, false, false, BN, 0),
    row("fneg", InstClass::FpAlu,   1, true,  F, F, F, F, false, false, BN, 0),
    row("fabs", InstClass::FpAlu,   1, true,  F, F, F, F, false, false, BN, 0),
    row("fmadd",InstClass::FpMult,  3, true,  F, F, F, F, false, false, BN, 0),
    row("fmov", InstClass::FpAlu,   1, true,  F, F, F, F, false, false, BN, 0),
    row("fmovi",InstClass::FpAlu,   0, true,  F, F, F, F, false, true,  BN, 0),
    row("fcvt", InstClass::FpAlu,   1, true,  F, I, I, I, false, false, BN, 0),
    row("fcvti",InstClass::FpAlu,   1, true,  I, F, F, F, false, false, BN, 0),
    row("feq",  InstClass::FpAlu,   2, true,  I, F, F, F, false, false, BN, 0),
    row("flt",  InstClass::FpAlu,   2, true,  I, F, F, F, false, false, BN, 0),
    row("fle",  InstClass::FpAlu,   2, true,  I, F, F, F, false, false, BN, 0),
    row("nop",  InstClass::Nop,     0, false, I, I, I, I, false, false, BN, 0),
    row("halt", InstClass::Nop,     0, false, I, I, I, I, false, false, BN, 0),
});

void
detail::badOpcode(Opcode op)
{
    rrs_panic("bad opcode %u (the table has %zu)",
              static_cast<unsigned>(op),
              static_cast<std::size_t>(Opcode::NumOpcodes));
}

const PackedMeta &
packedMeta(Opcode op)
{
    // Built once from the OpInfo table (thread-safe static init);
    // after that the classifier is a single indexed load.
    static const std::array<PackedMeta,
                            static_cast<std::size_t>(Opcode::NumOpcodes)>
        table = [] {
            std::array<PackedMeta,
                       static_cast<std::size_t>(Opcode::NumOpcodes)>
                t{};
            for (std::size_t i = 0;
                 i < static_cast<std::size_t>(Opcode::NumOpcodes); ++i) {
                const OpInfo &info = detail::opTable[i];
                PackedMeta m;
                if (info.cls == InstClass::Load)
                    m.attrs |= instattr::load;
                if (info.cls == InstClass::Store)
                    m.attrs |= instattr::store;
                if (info.branch != BranchKind::None)
                    m.attrs |= instattr::control;
                if (info.hasDest)
                    m.attrs |= instattr::hasDest;
                m.cls = info.cls;
                m.branch = info.branch;
                m.memBytes = info.memBytes;
                t[i] = m;
            }
            return t;
        }();
    auto idx = static_cast<std::size_t>(op);
    rrs_assert(idx < static_cast<std::size_t>(Opcode::NumOpcodes),
               "bad opcode");
    return table[idx];
}

std::optional<Opcode>
opcodeFromName(std::string_view name)
{
    static const std::map<std::string_view, Opcode> lookup = [] {
        std::map<std::string_view, Opcode> m;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(Opcode::NumOpcodes); ++i) {
            m.emplace(detail::opTable[i].name, static_cast<Opcode>(i));
        }
        return m;
    }();
    auto it = lookup.find(name);
    if (it == lookup.end())
        return std::nullopt;
    return it->second;
}

std::string
regName(RegId reg)
{
    if (!reg.valid())
        return "-";
    if (reg.cls == RegClass::Int && reg.idx == zeroReg)
        return "xzr";
    std::string name(1, reg.cls == RegClass::Int ? 'x' : 'f');
    name += std::to_string(reg.idx);
    return name;
}

std::string
StaticInst::toString() const
{
    const OpInfo &inf = info();
    std::ostringstream oss;
    oss << inf.name;
    bool first = true;
    auto sep = [&]() -> std::ostream & {
        oss << (first ? " " : ", ");
        first = false;
        return oss;
    };
    if (inf.hasDest)
        sep() << regName(dest);
    if (inf.memBytes > 0) {
        // Memory format: op value/dest, [base, #offset]
        if (inf.cls == InstClass::Store)
            sep() << regName(srcs[0]);
        sep() << "[" << regName(srcs[inf.cls == InstClass::Store ? 1 : 0])
              << ", #" << imm << "]";
    } else {
        for (int s = 0; s < inf.numSrcs; ++s)
            sep() << regName(srcs[static_cast<std::size_t>(s)]);
        if (inf.hasImm)
            sep() << "#" << imm;
        if (inf.hasFpImm)
            sep() << "#" << fimm;
    }
    if (inf.branch != BranchKind::None && target != invalidAddr)
        sep() << "0x" << std::hex << target;
    return oss.str();
}

} // namespace rrs::isa
