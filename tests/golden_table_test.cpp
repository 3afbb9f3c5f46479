// Golden-table regression lock: the deterministic text blocks of the
// paper artifacts — the Figure 11 geomean-IPC table and the Table III
// equal-area table — must reproduce the committed goldens under
// tests/goldens/ byte-for-byte, at every thread count.  A refactor
// that changes one digit (a seed, a sweep order, a solver tweak) or
// one space (a renderer or TextTable change) fails here instead of
// silently republishing a different result.
//
// Regenerating after an *intended* change: build the benches, then
//   ./bench_fig11_ipc --cap 2000   (table through "Shape checks" line)
//   ./bench_table3_equal_area
// and paste the corresponding block over the golden file, preserving
// the trailing newline.  The blocks are exactly what renderFig11 /
// renderTable3 return, so the bench output is the golden.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "harness/figures.hh"

namespace {

using namespace rrs;

std::string
golden(const std::string &name)
{
    const std::string path = std::string(RRS_GOLDEN_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

class GoldenTables : public ::testing::TestWithParam<unsigned>
{
};

// The fig11 bench's sweep at --cap 2000: the full workload suite over
// the paper's seven sizes, audit off so the Debug/RRS_AUDIT=1 CI lane
// compares the same numbers the Release bench prints.
TEST_P(GoldenTables, Fig11MatchesGolden)
{
    const auto m = harness::parseSweepMatrix(R"({
        "schemes": ["baseline", "reuse"],
        "rf_sizes": [48, 56, 64, 72, 80, 96, 112],
        "cap": 2000,
        "audit": false
    })");
    harness::SweepRunner runner(GetParam());
    auto grid = harness::outcomePairGrid(
        runner, workloads::allWorkloads(), m, 0);
    EXPECT_EQ(harness::renderFig11(m.rfSizes, grid),
              golden("fig11_cap2000.txt"))
        << "fig11 block diverged from tests/goldens/fig11_cap2000.txt "
           "(threads=" << GetParam() << ")";
}

TEST_P(GoldenTables, Table3MatchesGolden)
{
    const area::AreaModel model;
    const std::vector<std::uint32_t> sizes = {48, 56, 64, 72,
                                              80, 96, 112};
    EXPECT_EQ(harness::renderTable3(model, sizes, GetParam()),
              golden("table3.txt"))
        << "table3 block diverged from tests/goldens/table3.txt "
           "(threads=" << GetParam() << ")";
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenTables,
                         ::testing::Values(1u, 2u, 4u),
                         [](const auto &info) {
                             std::string name = "t";
                             name += std::to_string(info.param);
                             return name;
                         });

} // namespace
