/**
 * @file
 * Benchmark driver for the fig11 register-file sweep (see run.py for
 * the command line the benchmark is run with).
 *
 * One invocation runs one workload — a slice of the fig11 grid
 * (schemes baseline/reuse x register-file sizes 48..112, 150k
 * committed instructions per run) — and prints its metrics as one
 * JSON object on the last line of stdout:
 *
 *  - untraced (--trace 0): the end-to-end metrics.  Set-up is the cold
 *    trace-cache fill, repeated and reported as a median; the timed
 *    sweep then runs whole passes over the grid for --seconds, each
 *    cell through harness::SweepRunner on one lane.  Throughput is
 *    taken at each cell's median latency over its visits, latency
 *    percentiles over all visits.  Every time is CPU time scaled to a
 *    nominal host speed (CalibratedClock), not wall time.
 *  - traced (--trace 1): one untraced pass (the reference for the
 *    trace overhead), then one pass of a rig assembled here from the
 *    library's public parts with timing wrappers around the two
 *    interfaces the core takes by reference (rename::Renamer and
 *    trace::InstStream), plus replay passes that time MemSystem and
 *    BranchPredictor calls directly.  Prints the per-layer metrics.
 *
 * Every run is checked: covered instructions equal the cap, the stall
 * causes sum to the cycles, repeated visits of a grid cell agree, and
 * on the default seed the exact results equal the values recorded in
 * expected.tsv (written by --record).  The traced rig must reproduce
 * the untraced Outcome field by field.  A failed check counts the run
 * as failed; it never aborts the benchmark.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bpred/bpred.hh"
#include "common/logging.hh"
#include "core/o3core.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/sampling.hh"
#include "harness/sweep.hh"
#include "harness/sweepmatrix.hh"
#include "harness/tracecache.hh"
#include "mem/memsystem.hh"
#include "obs/jsonlite.hh"
#include "rename/renamer.hh"
#include "rename/scheme.hh"
#include "trace/recorded.hh"
#include "workloads/workloads.hh"

using namespace rrs;

namespace {

using Clock = std::chrono::steady_clock;

/**
 * CPU seconds used by every thread of this process.  On a shared host
 * the wall clock also counts the time the process waits for a CPU —
 * behind other processes, or, in a virtual machine, while the
 * hypervisor runs other guests (steal time, which the kernel keeps out
 * of CPU time) — and that wait made wall-clock figures of the same
 * code differ by 2-3x from one run to the next.
 */
double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- host-speed calibration ------------------------------------------------

/*
 * CPU time alone still moves with the host: a core whose sibling
 * hyperthread, cache and memory bus other guests share retires fewer
 * instructions per second, and on a 4-vCPU Xeon VM that made CPU-time
 * figures of the same code differ by 20-35% between runs minutes apart.
 * So every timed interval is bracketed by a fixed calibration loop,
 * whose CPU time tracks how fast the host runs at that moment, and is
 * reported at a nominal host speed: its CPU time divided by the host's
 * slowdown, (mean of the two loops' CPU times / kCalibNominal) raised
 * to kHostElasticity.  The loop mixes the kinds of work the simulator
 * does — random read-modify-writes over a buffer larger than L2,
 * indirect calls over a code footprint larger than L1i, and
 * data-dependent branches — so that contention for any of them slows
 * it as it slows the simulator.  The loop's code is fixed here, so a
 * change to the simulator moves the scaled figures exactly as it moves
 * the CPU time.
 */

/**
 * Nominal CPU time of one calibration loop: about its time between two
 * simulator runs on a quiet host (the 4-vCPU Xeon VM it was tuned on),
 * so that scaled figures read close to CPU time there.
 */
constexpr double kCalibNominal = 2.0e-3;

/**
 * How much more the simulator slows than the calibration loop: across
 * runs minutes apart on the tuning host, log simulator CPU time moved
 * 1.2-1.75 times as far as log loop time (correlation 0.9-0.99), the
 * most on fig11-shallow.  With 1.5 the run-to-run spread of every
 * workload stayed within 2-8% where unscaled CPU time spread 8-37%.
 */
constexpr double kHostElasticity = 1.5;

constexpr std::size_t kCalibFns = 1024;     //!< distinct step functions
constexpr std::size_t kCalibWords = 1 << 21;   //!< 8 MiB buffer
constexpr int kCalibSteps = 40'000;

template <int N>
__attribute__((noinline)) std::uint64_t
calibStep(std::uint64_t x, std::uint32_t *table)
{
    x = x * (0x9e3779b97f4a7c15ULL + 2 * N) + N;
    if ((x >> (N % 29)) & 1)
        table[(x >> 20) & 1023] += static_cast<std::uint32_t>(x);
    else
        x ^= table[(x >> 30) & 1023];
    switch ((x >> 40) & 3) {
      case 0: x += N * 3; break;
      case 1: x ^= x >> (N % 13 + 1); break;
      case 2: x -= table[N & 1023]; break;
      default: x = (x << 7) | (x >> 57); break;
    }
    return x;
}

template <std::size_t... I>
constexpr auto
calibStepTable(std::index_sequence<I...>)
{
    return std::array<std::uint64_t (*)(std::uint64_t, std::uint32_t *),
                      sizeof...(I)>{&calibStep<static_cast<int>(I)>...};
}

/** CPU seconds of one run of the calibration loop. */
double
calibrationSeconds()
{
    static constexpr auto steps =
        calibStepTable(std::make_index_sequence<kCalibFns>{});
    static std::vector<std::uint32_t> buf(kCalibWords);
    static std::uint32_t table[1024];
    static std::uint64_t rng = 0x2545f4914f6cdd1dULL, x = 1;
    const double c0 = cpuSeconds();
    for (int k = 0; k < kCalibSteps; ++k) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        buf[(rng >> 9) & (kCalibWords - 1)] += static_cast<std::uint32_t>(x);
        x = steps[rng & (kCalibFns - 1)](x ^ rng, table);
    }
    table[0] += static_cast<std::uint32_t>(x);
    return cpuSeconds() - c0;
}

/**
 * Times a sequence of intervals in CPU seconds at the nominal host
 * speed.  Each interval is followed by a calibration loop, which is
 * also the loop before the next interval.
 */
class CalibratedClock
{
  public:
    CalibratedClock() : before(calibrationSeconds()) {}

    /** Run f; return its scaled CPU seconds. */
    template <class F>
    double
    time(F &&f)
    {
        const double c0 = cpuSeconds();
        f();
        const double cpu = cpuSeconds() - c0;
        const double after = calibrationSeconds();
        const double slowdown = std::pow(
            0.5 * (before + after) / kCalibNominal, kHostElasticity);
        before = after;
        cpuTotal += cpu;
        scaledTotal += cpu / slowdown;
        return cpu / slowdown;
    }

    double cpuTotal = 0;      //!< unscaled CPU seconds of every interval
    double scaledTotal = 0;   //!< their scaled sum

  private:
    double before;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** fig11's own run length (bench/common.hh timingInsts). */
constexpr std::uint64_t kCap = 150'000;

/** CoreParams' default seed: the seed fig11 runs with. */
constexpr std::uint64_t kDefaultSeed = 12345;

/**
 * Cold trace-cache fills per run, reported as their median: at least
 * kSetupMinReps, and more while they add up to under kSetupMinSeconds
 * (a one-kernel fill takes tens of milliseconds).
 */
constexpr std::size_t kSetupMinReps = 3;
constexpr std::size_t kSetupMaxReps = 40;
constexpr double kSetupMinSeconds = 2.5;

/**
 * Timed passes over the grid: at least this many, so that every cell's
 * latency is a median over several visits.  The speed of a shared host
 * changes from one second to the next; one visit per cell does not
 * give a steady figure.
 */
constexpr std::size_t kMinPasses = 3;

/**
 * ROB entry-cycles per committed instruction separating deep kernels
 * (56-157 measured on int_hash and the deep fp kernels) from shallow
 * ones (3.4-9.1 on int_sieve, int_crc, int_sort, int_match, media_g711
 * and media_sobel).
 */
constexpr double kDeepShallowSplit = 20.0;

const char *kMatrix = R"({
  "schemes": ["baseline", "reuse"],
  "rf_sizes": [48, 56, 64, 72, 80, 96, 112],
  "audit": false
})";

struct WorkloadDef
{
    std::string name;
    std::vector<std::string> kernels;   //!< empty: all 21
    bool sampled = false;
    int selClass = 0;                   //!< +1 deep, -1 shallow, 0 none
};

/**
 * The workloads, each a slice of the fig11 grid chosen to stress a
 * different part of the simulator (BENCHMARK.json records why):
 *  - fig11-deep: a kernel that keeps the ROB full, so the core's
 *    per-cycle polling of the window dominates host time;
 *  - fig11-shallow: kernels whose window drains quickly, so the
 *    per-instruction cost of fetch, the renamer and commit dominates;
 *  - fig11-sampled: SMARTS sampling over every kernel, so most
 *    instructions are functionally warmed through MemSystem and
 *    BranchPredictor, and set-up (capture and pack) weighs most.
 * The exact workloads are kept to one and three kernels so that a run
 * can visit every cell several times.  Every workload runs on one
 * lane: on a host of a few shared cores, a second lane measures the
 * scheduler more than the simulator.
 */
const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"fig11-deep", {"int_hash"}, false, +1},
        {"fig11-shallow", {"int_sieve", "int_crc", "media_sobel"}, false, -1},
        {"fig11-sampled", {}, true, 0},
    };
    return defs;
}

/** One cell of the grid: a fig11 run, with its fig11 seed index. */
struct Cell
{
    harness::SweepItem item;
    std::string kernel;
    std::string scheme;
    std::uint32_t regs = 0;
};

harness::SweepMatrix
fig11Matrix(bool sampled)
{
    harness::SweepMatrix m = harness::parseSweepMatrix(kMatrix);
    if (sampled) {
        // bench --sample defaults (bench/common.hh): 12.5% detailed.
        m.sampling.warm = 2048;
        m.sampling.detailed = 1024;
        m.sampling.period = 8192;
    }
    return m;
}

/**
 * The workload's cells in fig11 submission order.  Each keeps the seed
 * index it has in the full 21-kernel fig11 expansion, so a cell
 * reproduces the fig11 bench's run of the same kernel bit for bit.
 */
std::vector<Cell>
buildCells(const WorkloadDef &def, std::uint64_t seed)
{
    const harness::SweepMatrix m = fig11Matrix(def.sampled);
    const auto &all = workloads::allWorkloads();
    const std::vector<harness::SweepItem> items =
        harness::expandSweepMatrix(m, all, kCap);
    const std::size_t perKernel = m.rfSizes.size() * m.schemes.size();
    std::vector<Cell> cells;
    auto wanted = [&](const std::string &k) {
        return def.kernels.empty() ||
               std::find(def.kernels.begin(), def.kernels.end(), k) !=
                   def.kernels.end();
    };
    // Kernel order follows the workload definition.
    std::vector<std::string> order = def.kernels;
    if (order.empty()) {
        for (const auto &w : all)
            order.push_back(w.name);
    }
    for (const std::string &k : order) {
        for (std::size_t i = 0; i < items.size(); ++i) {
            const std::string &name = items[i].workload->name;
            if (name != k || !wanted(name))
                continue;
            Cell c;
            c.item = items[i];
            c.item.seedIndex = i;
            c.item.config.core.seed = seed;
            c.kernel = name;
            c.scheme = items[i].config.scheme;
            c.regs = m.rfSizes[(i % perKernel) / m.schemes.size()];
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

// --- exact results ---------------------------------------------------

/** The exact results a run is checked on. */
struct Exact
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    std::uint64_t stalls[obs::numCycleCauses] = {};
    std::uint64_t reuses = 0;
    std::uint64_t repairs = 0;
    std::uint64_t meanIpcBits = 0;   //!< sampled mean IPC, 0 when exact
};

Exact
exactOf(const harness::Outcome &o)
{
    Exact e;
    e.insts = o.sim.committedInsts;
    e.cycles = o.sim.cycles;
    for (int i = 0; i < obs::numCycleCauses; ++i)
        e.stalls[i] = o.stalls.counts[i];
    e.reuses = static_cast<std::uint64_t>(o.reuses);
    e.repairs = static_cast<std::uint64_t>(o.repairs);
    if (o.sampled.enabled)
        std::memcpy(&e.meanIpcBits, &o.sampled.meanIpc, sizeof(double));
    return e;
}

std::string
cellKey(bool sampled, const Cell &c)
{
    return std::string(sampled ? "sampled" : "exact") + " " + c.kernel +
           " " + c.scheme + " " + std::to_string(c.regs);
}

std::string
formatExact(const Exact &e)
{
    std::ostringstream os;
    os << e.insts << ' ' << e.cycles;
    for (std::uint64_t s : e.stalls)
        os << ' ' << s;
    char bits[24];
    std::snprintf(bits, sizeof(bits), "%016" PRIx64, e.meanIpcBits);
    os << ' ' << e.reuses << ' ' << e.repairs << ' ' << bits;
    return os.str();
}

/** expected.tsv: "<mode> <kernel> <scheme> <regs>\t<exact fields>". */
std::map<std::string, std::string>
loadExpected(const std::string &path)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::size_t tab = line.find('\t');
        if (tab != std::string::npos)
            out[line.substr(0, tab)] = line.substr(tab + 1);
    }
    return out;
}

std::uint64_t
coveredInsts(const harness::Outcome &o)
{
    return o.sampled.enabled ? o.sampled.detailedInsts +
                                   o.sampled.warmInsts +
                                   o.sampled.skippedInsts
                             : o.sim.committedInsts;
}

/** Counts failed runs and reports the first few reasons on stderr. */
struct Checker
{
    bool sampled = false;
    bool exactChecks = false;   //!< default seed: compare to expected
    std::map<std::string, std::string> expected;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(const std::string &what)
    {
        ++failed;
        if (failed <= 10)
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }

    /** Invariants and (on the default seed) the recorded values. */
    void
    check(const Cell &c, const harness::Outcome &o)
    {
        ++attempted;
        const std::string key = cellKey(sampled, c);
        if (coveredInsts(o) != kCap) {
            fail(key + ": covered " + std::to_string(coveredInsts(o)) +
                 " instructions, cap " + std::to_string(kCap));
        } else if (o.stalls.sum() != o.sim.cycles) {
            fail(key + ": stall causes sum to " +
                 std::to_string(o.stalls.sum()) + ", cycles " +
                 std::to_string(o.sim.cycles));
        } else if (exactChecks) {
            auto it = expected.find(key);
            const std::string got = formatExact(exactOf(o));
            if (it == expected.end())
                fail(key + ": no recorded result");
            else if (it->second != got)
                fail(key + ": got " + got + ", recorded " + it->second);
        }
    }

    /** A repeat run of a cell, which must equal its first run. */
    void
    checkRepeat(const Cell &c, const harness::Outcome &first,
                const harness::Outcome &again)
    {
        ++attempted;
        const std::string a = formatExact(exactOf(first));
        const std::string b = formatExact(exactOf(again));
        if (a != b)
            fail(cellKey(sampled, c) + ": repeat run gave " + b +
                 ", first run " + a);
    }
};

// --- statistics helpers ------------------------------------------------

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

double
peakRssMib()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

/** One printed metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

// --- spans -----------------------------------------------------------

/**
 * A traced interval, kept in memory and written once at exit.  Per-call
 * layers (rename, trace.next) add their call count and time to the
 * span of the run they happened in instead of emitting spans.
 */
struct Span
{
    std::string name;
    std::string id;
    std::string parent;
    double start = 0;   //!< seconds since the traced section began
    double dur = 0;
    std::vector<std::pair<std::string, double>> counts;
};

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char buf[128];
        std::snprintf(buf, sizeof(buf), "\"start_s\": %.9f, \"dur_s\": %.9f",
                      s.start, s.dur);
        out << "  {\"name\": \"" << s.name << "\", \"id\": \"" << s.id
            << "\", \"parent\": \"" << s.parent << "\", " << buf;
        for (const auto &[k, v] : s.counts) {
            char num[64];
            std::snprintf(num, sizeof(num), "%.17g", v);
            out << ", \"" << k << "\": " << num;
        }
        out << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out)
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

// --- timing wrappers around the core's two interfaces ------------------

/**
 * Count and time of one layer's calls.  Every call is counted; about
 * one call in eight, picked by a xorshift stream so that no periodic
 * call pattern aliases with the choice, is timed, and the time is
 * scaled up to all calls.  Timing every call would read the clock
 * twice per instruction and more than double the overhead.
 */
struct CallClock
{
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    double timedSeconds = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;

    bool
    pick()
    {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return (rng & 7) == 0;
    }

    double
    seconds() const
    {
        return timed ? timedSeconds * static_cast<double>(calls) /
                           static_cast<double>(timed)
                     : 0.0;
    }
};

/**
 * Mean length of an empty timed interval: the clock's own cost that
 * each timed call includes, subtracted from it.
 */
double
timerBias()
{
    static const double bias = [] {
        constexpr int n = 1'000'000;
        double sum = 0;
        for (int i = 0; i < n; ++i) {
            const auto t0 = Clock::now();
            sum += secondsSince(t0);
        }
        return sum / n;
    }();
    return bias;
}

/** Counts one call into a CallClock and times it when picked. */
class CallTimer
{
  public:
    explicit CallTimer(CallClock &c) : clock(c), on(c.pick())
    {
        ++clock.calls;
        if (on)
            t0 = Clock::now();
    }
    ~CallTimer()
    {
        if (on) {
            clock.timedSeconds += secondsSince(t0) - timerBias();
            ++clock.timed;
        }
    }
    CallTimer(const CallTimer &) = delete;
    CallTimer &operator=(const CallTimer &) = delete;

  private:
    CallClock &clock;
    bool on;
    Clock::time_point t0;
};

/** Times rename/commit/squashTo; forwards everything else. */
class TimedRenamer : public rename::Renamer
{
  public:
    explicit TimedRenamer(rename::Renamer &inner)
        : rename::Renamer("timed_renamer", nullptr), inner(inner)
    {
    }

    rename::RenameResult
    rename(const trace::DynInst &di,
           const std::function<bool(const rename::PhysRegTag &)>
               &producerExecuted) override
    {
        CallTimer timer(clock);
        return inner.rename(di, producerExecuted);
    }

    void
    commit(const rename::RenameResult &result) override
    {
        CallTimer timer(clock);
        inner.commit(result);
    }

    std::uint32_t
    squashTo(rename::HistoryToken token,
             const std::function<bool(const rename::PhysRegTag &)>
                 &produced) override
    {
        CallTimer timer(clock);
        return inner.squashTo(token, produced);
    }

    rename::HistoryToken historyPosition() const override
    {
        return inner.historyPosition();
    }
    rename::PhysRegTag mapping(RegClass cls, LogRegIndex reg) const override
    {
        return inner.mapping(cls, reg);
    }
    std::uint32_t freeRegs(RegClass cls) const override
    {
        return inner.freeRegs(cls);
    }
    std::uint32_t totalRegs(RegClass cls) const override
    {
        return inner.totalRegs(cls);
    }
    std::uint32_t sharedRegs(RegClass cls) const override
    {
        return inner.sharedRegs(cls);
    }
    std::uint32_t sharedAtLeast(RegClass cls, std::uint8_t k) const override
    {
        return inner.sharedAtLeast(cls, k);
    }
    std::uint32_t maxVersions() const override
    {
        return inner.maxVersions();
    }
    std::uint32_t committedShadowValues() const override
    {
        return inner.committedShadowValues();
    }

    CallClock clock;

  private:
    rename::Renamer &inner;
};

/** Times next(); forwards the packed view and cursor. */
class TimedStream : public trace::InstStream
{
  public:
    explicit TimedStream(trace::InstStream &inner) : inner(inner) {}

    std::optional<trace::DynInst>
    next() override
    {
        CallTimer timer(clock);
        return inner.next();
    }
    void reset() override { inner.reset(); }
    const std::string &name() const override { return inner.name(); }
    const trace::PackedTrace *packedView() const override
    {
        return inner.packedView();
    }
    std::size_t cursor() const override { return inner.cursor(); }

    CallClock clock;

  private:
    trace::InstStream &inner;
};

// --- stats read back through Group::dumpJson -----------------------------

obs::json::Value
statsOf(const stats::Group &g)
{
    std::ostringstream os;
    g.dumpJson(os);
    obs::json::Value v;
    std::string error;
    if (!obs::json::parse(os.str(), v, &error))
        rrs_fatal("perfbench: stats dump of '%s' does not parse: %s",
                  g.name().c_str(), error.c_str());
    return v;
}

/** A scalar's value, or an average's mean * samples (its sum). */
double
statValue(const obs::json::Value &group, const std::string &path)
{
    const obs::json::Value *v = &group;
    std::size_t from = 0;
    while (true) {
        const std::size_t dot = path.find('.', from);
        v = &v->at(path.substr(from, dot - from));
        if (dot == std::string::npos)
            break;
        from = dot + 1;
    }
    if (const obs::json::Value *val = v->find("value"))
        return val->num;
    return v->at("mean").num * v->at("samples").num;
}

/**
 * The stats each traced run reads back, as "<group>.<stat path>": the
 * core's, the memory system's and the branch predictor's own counters.
 */
const std::pair<const char *, std::vector<const char *>> kStatPaths[] = {
    {"core",
     {"cycles", "committed", "squashedInsts", "robOccupancy",
      "iqOccupancy"}},
    {"mem",
     {"l1i.hits", "l1i.misses", "l1d.hits", "l1d.misses", "l2.hits",
      "l2.misses", "dram.reads", "dram.rowHits", "tlb.lookups",
      "tlb.misses"}},
    {"bpred", {"condLookups", "btbMisses"}},
};

/** Everything the traced rig measures for one run. */
struct TracedRun
{
    harness::Outcome out;
    double start = 0;   //!< seconds since the traced section began
    double wall = 0;
    double simulate = 0;
    CallClock rename;
    CallClock next;
    std::map<std::string, double> stats;   //!< kStatPaths values
};

/** runOn's rig, with the renamer and the stream behind timing wrappers. */
TracedRun
tracedRun(const Cell &c, Clock::time_point epoch)
{
    TracedRun tr;
    const auto t0 = Clock::now();
    tr.start = std::chrono::duration<double>(t0 - epoch).count();
    const workloads::Workload &w = *c.item.workload;
    harness::RunConfig cfg = c.item.config;
    cfg.core.seed = harness::sweepSeed(cfg.core.seed, c.item.seedIndex);

    trace::ReplayStream stream(harness::traceCache().get(w, cfg.maxInsts));
    TimedStream timedStream(stream);
    mem::MemSystem mem(cfg.mem);
    bpred::BranchPredictor bp(cfg.bpred);
    const rename::RenameScheme &scheme = rename::renameScheme(cfg.scheme);
    std::unique_ptr<rename::Renamer> renamer =
        scheme.makeRenamer(cfg.rename);
    TimedRenamer timedRenamer(*renamer);
    core::O3Core core(cfg.core, timedRenamer, mem, bp, timedStream);

    const auto s0 = Clock::now();
    if (cfg.sampling.enabled()) {
        harness::SamplingController sampler(cfg.sampling, core, stream,
                                            mem, bp);
        tr.out.sampled = sampler.run(tr.out.sim);
    } else {
        tr.out.sim = core.run();
    }
    tr.simulate = secondsSince(s0);

    tr.out.stalls = core.stallBreakdown();
    tr.out.condAccuracy = bp.condAccuracy();
    tr.out.mispredicts = core.mispredictCount();
    tr.out.exceptions = core.exceptionCount();
    const rename::SchemeCounters counters = scheme.counters(*renamer);
    tr.out.allocations = counters.allocations;
    tr.out.reuses = counters.reuses;
    tr.out.repairs = counters.repairs;
    tr.out.renameStalls = counters.renameStalls;
    tr.out.historyPeak = counters.historyPeak;
    tr.out.fig12 = counters.fig12;
    tr.rename = timedRenamer.clock;
    tr.next = timedStream.clock;

    const std::map<std::string, const stats::Group *> groups = {
        {"core", &core}, {"mem", &mem}, {"bpred", &bp}};
    for (const auto &[group, paths] : kStatPaths) {
        const obs::json::Value dump = statsOf(*groups.at(group));
        for (const char *path : paths)
            tr.stats[std::string(group) + "." + path] =
                statValue(dump, path);
    }
    tr.wall = secondsSince(t0);
    return tr;
}

/** Outcome fields the traced rig must reproduce; "" when all match. */
std::string
outcomeMismatch(const harness::Outcome &a, const harness::Outcome &b)
{
    auto bitsEq = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof(double)) == 0;
    };
    if (a.sim.cycles != b.sim.cycles)
        return "cycles";
    if (a.sim.committedInsts != b.sim.committedInsts)
        return "insts";
    if (a.sim.committedOps != b.sim.committedOps)
        return "ops";
    for (int i = 0; i < obs::numCycleCauses; ++i) {
        if (a.stalls.counts[i] != b.stalls.counts[i])
            return std::string("stall.") +
                   obs::cycleCauseName(static_cast<obs::CycleCause>(i));
    }
    const std::pair<const char *, std::pair<double, double>> nums[] = {
        {"condAccuracy", {a.condAccuracy, b.condAccuracy}},
        {"mispredicts", {a.mispredicts, b.mispredicts}},
        {"exceptions", {a.exceptions, b.exceptions}},
        {"allocations", {a.allocations, b.allocations}},
        {"reuses", {a.reuses, b.reuses}},
        {"repairs", {a.repairs, b.repairs}},
        {"renameStalls", {a.renameStalls, b.renameStalls}},
        {"historyPeak", {a.historyPeak, b.historyPeak}},
        {"fig12.reuseCorrect", {a.fig12.reuseCorrect, b.fig12.reuseCorrect}},
        {"fig12.reuseWrong", {a.fig12.reuseWrong, b.fig12.reuseWrong}},
        {"fig12.noReuseCorrect",
         {a.fig12.noReuseCorrect, b.fig12.noReuseCorrect}},
        {"fig12.noReuseWrong", {a.fig12.noReuseWrong, b.fig12.noReuseWrong}},
        {"sampled.meanIpc", {a.sampled.meanIpc, b.sampled.meanIpc}},
        {"sampled.stddevIpc", {a.sampled.stddevIpc, b.sampled.stddevIpc}},
        {"sampled.ci95Ipc", {a.sampled.ci95Ipc, b.sampled.ci95Ipc}},
        {"sampled.medianIpc", {a.sampled.medianIpc, b.sampled.medianIpc}},
    };
    for (const auto &[name, v] : nums) {
        if (!bitsEq(v.first, v.second))
            return name;
    }
    const std::pair<const char *, std::pair<std::uint64_t, std::uint64_t>>
        counts[] = {
            {"sampled.windows", {a.sampled.windows, b.sampled.windows}},
            {"sampled.detailedInsts",
             {a.sampled.detailedInsts, b.sampled.detailedInsts}},
            {"sampled.detailedCycles",
             {a.sampled.detailedCycles, b.sampled.detailedCycles}},
            {"sampled.warmInsts", {a.sampled.warmInsts, b.sampled.warmInsts}},
            {"sampled.skippedInsts",
             {a.sampled.skippedInsts, b.sampled.skippedInsts}},
        };
    for (const auto &[name, v] : counts) {
        if (v.first != v.second)
            return name;
    }
    if (a.sampled.enabled != b.sampled.enabled)
        return "sampled.enabled";
    return "";
}

// --- the benchmark ------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string expectedPath;
    std::string spansPath;
    std::string recordPath;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: rrs_perfbench --workload "
                 "<fig11-deep|fig11-shallow|fig11-sampled> --seed <n> "
                 "--seconds <s> --trace <0|1> --expected <file> "
                 "[--spans <file>]\n       rrs_perfbench --record <file>\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--expected") {
            o.expectedPath = v;
        } else if (a == "--spans") {
            o.spansPath = v;
        } else if (a == "--record") {
            o.recordPath = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    return o;
}

const WorkloadDef &
findDef(const std::string &name)
{
    for (const auto &d : workloadDefs()) {
        if (d.name == name)
            return d;
    }
    usage(("unknown workload '" + name + "'").c_str());
}

std::vector<const workloads::Workload *>
kernelsOf(const std::vector<Cell> &cells)
{
    std::vector<const workloads::Workload *> ks;
    for (const Cell &c : cells) {
        if (ks.empty() || ks.back() != c.item.workload)
            ks.push_back(c.item.workload);
    }
    return ks;
}

/** Record the default-seed exact results of every workload's grid. */
int
record(const std::string &path)
{
    std::ofstream out(path);
    out << "# Exact results of every benchmark run at the default seed ("
        << kDefaultSeed << "), written by rrs_perfbench --record.\n"
        << "# <mode> <kernel> <scheme> <regs>\\tinsts cycles <8 stall "
           "causes> reuses repairs sampled-mean-IPC-bits\n";
    for (const WorkloadDef &def : workloadDefs()) {
        const std::vector<Cell> cells = buildCells(def, kDefaultSeed);
        std::vector<harness::SweepItem> items;
        for (const Cell &c : cells)
            items.push_back(c.item);
        harness::SweepRunner runner(1);
        const auto results = runner.run(items);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            out << cellKey(def.sampled, cells[i]) << '\t'
                << formatExact(exactOf(results[i].outcome)) << '\n';
        }
    }
    return out ? 0 : 1;
}

/** Paper comparison and geomeans over the grid's first-visit results. */
struct Fig11Summary
{
    double speedupGeomeanPct = 0;
    double ipcGeomean = 0;
    std::string crossover;
};

Fig11Summary
summariseFig11(const std::vector<Cell> &cells,
               const std::vector<harness::Outcome> &first)
{
    const harness::SweepMatrix m = fig11Matrix(false);
    std::map<std::string, std::vector<harness::OutcomePair>> byKernel;
    std::vector<std::string> order;
    std::vector<double> speedups, ipcs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        auto &row = byKernel[cells[i].kernel];
        if (row.empty()) {
            order.push_back(cells[i].kernel);
            row.resize(m.rfSizes.size());
        }
        const std::size_t si =
            std::find(m.rfSizes.begin(), m.rfSizes.end(), cells[i].regs) -
            m.rfSizes.begin();
        (cells[i].scheme == "reuse" ? row[si].prop : row[si].base) =
            first[i];
        ipcs.push_back(first[i].reportedIpc());
    }
    std::vector<std::vector<harness::OutcomePair>> grid;
    for (const std::string &k : order) {
        grid.push_back(byKernel[k]);
        for (const harness::OutcomePair &p : byKernel[k])
            speedups.push_back(p.prop.reportedIpc() / p.base.reportedIpc());
    }
    Fig11Summary s;
    s.speedupGeomeanPct = 100.0 * (harness::geomean(speedups) - 1.0);
    s.ipcGeomean = harness::geomean(ipcs);
    std::istringstream text(harness::renderFig11(m.rfSizes, grid));
    std::string line;
    while (std::getline(text, line)) {
        if (line.rfind("Crossover:", 0) == 0)
            s.crossover = line;
    }
    if (s.crossover.empty())
        s.crossover = "Crossover: none within the sweep";
    return s;
}

void
printJsonResult(const Checker &chk, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                chk.failed == 0 && chk.attempted > 0 ? "true" : "false",
                chk.attempted, chk.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/**
 * Median of kSetupMinReps or more cold trace-cache fills, in CPU
 * seconds at the nominal host speed.
 */
double
setupSeconds(const std::vector<const workloads::Workload *> &kernels)
{
    CalibratedClock clock;
    std::vector<double> samples;
    while (samples.size() < kSetupMinReps ||
           (clock.cpuTotal < kSetupMinSeconds &&
            samples.size() < kSetupMaxReps)) {
        harness::traceCache().clear();
        samples.push_back(clock.time([&] {
            for (const workloads::Workload *w : kernels)
                harness::traceCache().get(*w, kCap);
        }));
    }
    return median(samples);
}

/** What the untraced sweep measured. */
struct UntracedSweep
{
    std::vector<harness::Outcome> first;   //!< each cell's first run
    std::vector<double> visitMs;           //!< every visit's latency
    std::size_t passes = 0;
    double wall = 0;          //!< the timed passes, wall seconds
    double cpu = 0;           //!< their runs, CPU seconds
    double scaled = 0;        //!< their runs, at the nominal host speed
    double minstPerS = 0;
    double overhead = 0;      //!< median wall of a pass spent outside runs
    double detailedPct = 0;   //!< instructions simulated in detail
};

/**
 * Whole passes over the grid: at least kMinPasses, and another while it
 * should end within `seconds` of wall time.  Each cell is one
 * SweepRunner call on one lane, timed by a CalibratedClock; its pinned
 * seed index makes it the same run as in a whole-grid sweep.  Every
 * run is checked.
 */
UntracedSweep
untracedSweep(const std::vector<Cell> &cells, double seconds, Checker &chk)
{
    harness::SweepRunner runner(1);
    std::vector<std::vector<double>> visitsMs(cells.size());
    std::vector<double> passWalls, passOverheads;
    std::vector<std::optional<harness::Outcome>> first(cells.size());
    double covered = 0, detailed = 0;

    CalibratedClock clock;
    const auto start = Clock::now();
    while (passWalls.size() < kMinPasses ||
           secondsSince(start) + median(passWalls) <= seconds) {
        const auto t0 = Clock::now();
        double overhead = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::vector<harness::SweepResult> r;
            visitsMs[i].push_back(1e3 * clock.time([&] {
                const auto w0 = Clock::now();
                r = runner.run({cells[i].item});
                overhead += secondsSince(w0) - r[0].wallSeconds;
            }));
            const harness::Outcome &o = r[0].outcome;
            covered += static_cast<double>(coveredInsts(o));
            detailed += static_cast<double>(
                o.sampled.enabled ? o.sampled.detailedInsts
                                  : o.sim.committedInsts);
            if (!first[i]) {
                chk.check(cells[i], o);
                first[i] = o;
            } else {
                chk.checkRepeat(cells[i], *first[i], o);
            }
        }
        passWalls.push_back(secondsSince(t0));
        passOverheads.push_back(overhead);
    }

    // One pass at each cell's median latency: its instructions over its
    // seconds give the throughput.  Medians over visits keep host-speed
    // bursts out of it.
    UntracedSweep u;
    u.passes = passWalls.size();
    u.wall = secondsSince(start);
    u.cpu = clock.cpuTotal;
    u.scaled = clock.scaledTotal;
    double passInsts = 0, passSeconds = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        u.first.push_back(*first[i]);
        passInsts += static_cast<double>(coveredInsts(*first[i]));
        passSeconds += median(visitsMs[i]) / 1e3;
        u.visitMs.insert(u.visitMs.end(), visitsMs[i].begin(),
                         visitsMs[i].end());
    }
    u.minstPerS = passInsts / passSeconds / 1e6;
    u.overhead = median(passOverheads);
    u.detailedPct = 100.0 * detailed / covered;
    return u;
}

double
pct(double part, double whole)
{
    return whole > 0 ? 100.0 * part / whole : 0.0;
}

/**
 * The traced run: a traced capture of every kernel, one pass of the
 * wrapped rig checked against the untraced first runs, and replay
 * passes over MemSystem and BranchPredictor.  Returns the per-layer
 * metrics and writes the spans to `spansPath`.
 */
std::vector<Metric>
tracedMetrics(const WorkloadDef &def, const std::vector<Cell> &cells,
              const std::vector<const workloads::Workload *> &kernels,
              const UntracedSweep &untraced, const Fig11Summary &fig,
              Checker &chk, const std::string &spansPath)
{
    std::vector<Span> spans;
    const auto epoch = Clock::now();

    // Traced set-up: capture (emulator incl. warm-up) and pack.
    double captureS = 0, packS = 0, emulated = 0, traceBytes = 0;
    for (const workloads::Workload *w : kernels) {
        const auto t0 = Clock::now();
        const trace::TracePtr t = workloads::captureTrace(*w, kCap);
        const double wall = secondsSince(t0);
        const trace::PackedTrace &pk = t->packed();
        const double start =
            std::chrono::duration<double>(t0 - epoch).count();
        spans.push_back({"capture", "capture:" + w->name, "setup", start,
                         wall - pk.buildSeconds(), {}});
        spans.push_back({"pack", "pack:" + w->name, "setup",
                         start + wall - pk.buildSeconds(), pk.buildSeconds(),
                         {}});
        captureS += wall - pk.buildSeconds();
        packS += pk.buildSeconds();
        // Warm-up instructions the capture emulated before recording.
        emulated += static_cast<double>(
            workloads::makeEmulator(*w, kCap)->instCount() + t->size());
        // Records plus the packed columns (trace/packed.hh layout).
        const double perRecord = sizeof(trace::DynInst) +
                                 sizeof(isa::PackedMeta) +
                                 sizeof(InstSeqNum) + 3 * sizeof(Addr) + 5;
        traceBytes += perRecord * static_cast<double>(t->size()) +
                      6.0 * 8.0 * static_cast<double>(pk.loadBits().size());
        if (t->digest() != harness::traceCache().get(*w, kCap)->digest())
            chk.fail(w->name + ": traced capture differs from the cached "
                               "trace");
    }
    spans.push_back({"setup", "setup", "", 0, secondsSince(epoch), {}});

    // One traced pass over the grid.
    std::printf("timer bias %.1f ns per timed call, subtracted\n",
                1e9 * timerBias());
    // Timed like the untraced runs, for trace_overhead_pct.
    std::vector<TracedRun> traced;
    CalibratedClock clock;
    for (const Cell &c : cells)
        clock.time([&] { traced.push_back(tracedRun(c, epoch)); });

    std::map<std::string, double> sum;
    obs::StallBreakdown stalls;
    double coveredSum = 0, simulateS = 0;
    double renameCalls = 0, renameS = 0, nextCalls = 0, nextS = 0;
    double mispredicts = 0, repairs = 0, reuses = 0, reuseAllocs = 0;
    struct KernelSum
    {
        double robEntryCycles = 0, insts = 0, renameS = 0, simulateS = 0;
    };
    std::map<std::string, KernelSum> byKernel;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const TracedRun &t = traced[i];
        ++chk.attempted;
        const std::string mismatch = outcomeMismatch(untraced.first[i], t.out);
        if (!mismatch.empty())
            chk.fail(cellKey(def.sampled, cells[i]) +
                     ": traced rig differs from runOn in " + mismatch);
        const std::string id = "run:" + std::to_string(i);
        spans.push_back({"run", id, "", t.start, t.wall,
                         {{"seed_index",
                           static_cast<double>(cells[i].item.seedIndex)}}});
        spans.push_back({"simulate", "simulate:" + std::to_string(i), id,
                         t.start, t.simulate,
                         {{"rename.calls", static_cast<double>(t.rename.calls)},
                          {"rename.s", t.rename.seconds()},
                          {"trace.next_calls", static_cast<double>(t.next.calls)},
                          {"trace.next_s", t.next.seconds()},
                          {"cycles", t.stats.at("core.cycles")},
                          {"insts", t.stats.at("core.committed")}}});
        for (const auto &[k, v] : t.stats)
            sum[k] += v;
        for (int k = 0; k < obs::numCycleCauses; ++k)
            stalls.counts[k] += t.out.stalls.counts[k];
        coveredSum += static_cast<double>(coveredInsts(t.out));
        simulateS += t.simulate;
        renameCalls += static_cast<double>(t.rename.calls);
        renameS += t.rename.seconds();
        nextCalls += static_cast<double>(t.next.calls);
        nextS += t.next.seconds();
        mispredicts += t.out.mispredicts;
        repairs += t.out.repairs;
        if (cells[i].scheme == "reuse") {
            reuses += t.out.reuses;
            reuseAllocs += t.out.allocations;
        }
        KernelSum &ks = byKernel[cells[i].kernel];
        ks.robEntryCycles += t.stats.at("core.robOccupancy");
        ks.insts += t.stats.at("core.committed");
        ks.renameS += t.rename.seconds();
        ks.simulateS += t.simulate;
    }

    // Selection property: ROB entry-cycles per instruction per kernel.
    for (const auto &[k, ks] : byKernel) {
        const double perInst = ks.robEntryCycles / ks.insts;
        std::printf("kernel %-12s core.rob_entry_cycles_per_inst %7.2f  "
                    "rename.share_pct %5.1f\n",
                    k.c_str(), perInst, pct(ks.renameS, ks.simulateS));
        if ((def.selClass > 0 && perInst < kDeepShallowSplit) ||
            (def.selClass < 0 && perInst >= kDeepShallowSplit)) {
            std::fprintf(stderr,
                         "perfbench: warning: kernel %s has %.2f ROB "
                         "entry-cycles per instruction, which puts it in "
                         "the %s class, not in %s\n",
                         k.c_str(), perInst,
                         perInst >= kDeepShallowSplit ? "deep" : "shallow",
                         def.name.c_str());
        }
    }

    // Replay passes: MemSystem and BranchPredictor called directly, in
    // the call pattern of sampling's functional warming.  The predictor
    // pass also gives the conditional-branch accuracy on the correct
    // path; the rig's own counters mix in warming lookups whose outcome
    // is never recorded.
    double memS = 0, memCalls = 0, bpS = 0, bpCalls = 0;
    double condCalls = 0, condHits = 0;
    const harness::RunConfig &cfg = cells.front().item.config;
    for (const workloads::Workload *w : kernels) {
        const trace::TracePtr t = harness::traceCache().get(*w, kCap);
        const trace::PackedTrace &pk = t->packed();
        mem::MemSystem mem(cfg.mem);
        auto t0 = Clock::now();
        Addr lastLine = invalidAddr;
        for (std::size_t i = 0; i < pk.size(); ++i) {
            const Tick tick = i + 1;
            const Addr pc = pk.pc(i);
            if (pc / 64 != lastLine) {
                mem.fetchAccess(pc, tick);
                lastLine = pc / 64;
                ++memCalls;
            }
            const isa::PackedMeta &m = pk.meta(i);
            if (m.isLoad() || m.isStore()) {
                mem.dataAccess(pc, pk.effAddr(i), m.isStore(), tick);
                ++memCalls;
            }
        }
        memS += secondsSince(t0);

        bpred::BranchPredictor bp(cfg.bpred);
        t0 = Clock::now();
        for (std::size_t i = 0; i < pk.size(); ++i) {
            const isa::PackedMeta &m = pk.meta(i);
            if (!m.isControl())
                continue;
            const Addr pc = pk.pc(i);
            const bpred::Prediction p = bp.predict(pc, m.branch);
            const bool taken = pk.taken(i);
            if (m.branch == isa::BranchKind::Cond) {
                ++condCalls;
                if (p.taken == taken)
                    ++condHits;
                else
                    bp.correctHistory(p, taken);
            }
            bp.update(pc, m.branch, taken, taken ? pk.nextPc(i) : invalidAddr,
                      p.historySnapshot);
            ++bpCalls;
        }
        bpS += secondsSince(t0);
    }
    writeSpans(spansPath, spans);

    const double cycles = sum["core.cycles"];
    const double insts = sum["core.committed"];
    auto missPct = [&](const std::string &level) {
        const double miss = sum["mem." + level + ".misses"];
        return pct(miss, miss + sum["mem." + level + ".hits"]);
    };
    const double tracedMinst = coveredSum / clock.scaledTotal / 1e6;
    std::vector<Metric> m = {
        {"core.simulate_s", simulateS, "s"},
        {"core.self_s", simulateS - renameS - nextS, "s"},
        {"core.ns_per_cycle", 1e9 * simulateS / cycles, "ns"},
        {"core.cycles", cycles, "count"},
        {"core.insts", insts, "count"},
        {"core.rob_entry_cycles_per_inst", sum["core.robOccupancy"] / insts,
         "entries"},
        {"core.iq_entry_cycles_per_inst", sum["core.iqOccupancy"] / insts,
         "entries"},
        {"core.useful_fetch_pct",
         pct(insts, insts + sum["core.squashedInsts"]), "%"},
        {"core.mispredicts", mispredicts, "count"},
    };
    const char *stallNames[obs::numCycleCauses] = {
        "commit", "drain", "rename_noreg", "rename_rob",
        "rename_iq", "rename_lsq", "frontend", "backend_exec"};
    for (int k = 0; k < obs::numCycleCauses; ++k) {
        m.push_back({std::string("core.stall.") + stallNames[k] + "_pct",
                     pct(static_cast<double>(stalls.counts[k]), cycles),
                     "%"});
    }
    const std::vector<Metric> more = {
        {"core.ipc_geomean", fig.ipcGeomean, "inst/cycle"},
        {"rename.calls", renameCalls, "count"},
        {"rename.s", renameS, "s"},
        {"rename.ns_per_call", 1e9 * renameS / renameCalls, "ns"},
        {"rename.share_pct", pct(renameS, simulateS), "%"},
        {"rename.reuse_pct", pct(reuses, reuseAllocs), "%"},
        {"rename.repairs", repairs, "count"},
        {"rename.speedup_geomean_pct", fig.speedupGeomeanPct, "%"},
        {"mem.l1i_miss_pct", missPct("l1i"), "%"},
        {"mem.l1d_accesses", sum["mem.l1d.hits"] + sum["mem.l1d.misses"],
         "count"},
        {"mem.l1d_miss_pct", missPct("l1d"), "%"},
        {"mem.l2_miss_pct", missPct("l2"), "%"},
        {"mem.dram_reads", sum["mem.dram.reads"], "count"},
        {"mem.dram_row_hit_pct",
         pct(sum["mem.dram.rowHits"], sum["mem.dram.reads"]), "%"},
        {"mem.tlb_miss_pct",
         pct(sum["mem.tlb.misses"], sum["mem.tlb.lookups"]), "%"},
        {"mem.ns_per_access", 1e9 * memS / memCalls, "ns"},
        {"bpred.lookups", sum["bpred.condLookups"], "count"},
        {"bpred.cond_accuracy_pct", pct(condHits, condCalls), "%"},
        {"bpred.btb_misses", sum["bpred.btbMisses"], "count"},
        {"bpred.ns_per_lookup", 1e9 * bpS / bpCalls, "ns"},
        {"emu.capture_s", captureS, "s"},
        {"emu.minst_per_s", emulated / captureS / 1e6, "Minst/s"},
        {"trace.pack_s", packS, "s"},
        {"trace.bytes", traceBytes, "bytes"},
        {"trace.next_calls", nextCalls, "count"},
        {"trace.next_s", nextS, "s"},
        {"harness.overhead_s", untraced.overhead, "s"},
        {"harness.sampled_detailed_pct", untraced.detailedPct, "%"},
        {"trace_overhead_pct",
         100.0 * (untraced.minstPerS / tracedMinst - 1.0), "%"},
    };
    m.insert(m.end(), more.begin(), more.end());
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (!opt.recordPath.empty())
        return record(opt.recordPath);
    if (opt.workload.empty())
        usage("--workload is required");
    const WorkloadDef &def = findDef(opt.workload);

    Checker chk;
    chk.sampled = def.sampled;
    chk.exactChecks = opt.seed == kDefaultSeed;
    if (chk.exactChecks) {
        chk.expected = loadExpected(opt.expectedPath);
        if (chk.expected.empty())
            std::fprintf(stderr, "perfbench: no recorded results in '%s'\n",
                         opt.expectedPath.c_str());
    }

    const std::vector<Cell> cells = buildCells(def, opt.seed);
    const std::vector<const workloads::Workload *> kernels =
        kernelsOf(cells);
    const double setupS = setupSeconds(kernels);
    // A traced run makes only kMinPasses: the untraced reference.
    const UntracedSweep sweep =
        untracedSweep(cells, opt.trace ? 0.0 : opt.seconds, chk);

    const Fig11Summary fig = summariseFig11(cells, sweep.first);
    std::printf("%s: %zu cells x %zu timed passes, seed %" PRIu64 "%s\n",
                def.name.c_str(), cells.size(), sweep.passes, opt.seed,
                chk.exactChecks ? " (default: exact results checked)"
                                : " (invariant checks only)");
    // Wall well above CPU time means the host kept the process waiting;
    // CPU time above its scaled value, that the host ran it slowly.
    std::printf("timed passes: %.2f s wall; runs %.2f s CPU, %.2f s at "
                "the nominal host speed\n",
                sweep.wall, sweep.cpu, sweep.scaled);
    std::printf("rename.speedup_geomean_pct %.2f %% (paper: 6%% speedup)\n",
                fig.speedupGeomeanPct);
    std::printf("%s (paper: 10.5%% register-file reduction)\n",
                fig.crossover.c_str());
    std::printf("model unvalidated: the repository holds no hardware "
                "reference, so no error figure is given\n");

    std::vector<Metric> metrics;
    if (opt.trace) {
        metrics = tracedMetrics(def, cells, kernels, sweep, fig, chk,
                                opt.spansPath);
    } else {
        metrics = {
            {"minst_per_s", sweep.minstPerS, "Minst/s"},
            {"setup_s", setupS, "s"},
            {"run_ms_p50", percentile(sweep.visitMs, 50), "ms"},
            {"run_ms_p85", percentile(sweep.visitMs, 85), "ms"},
            {"peak_rss_mib", peakRssMib(), "MiB"},
        };
    }
    for (const Metric &m : metrics)
        std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("runs attempted %" PRIu64 ", failed %" PRIu64 "\n",
                chk.attempted, chk.failed);
    printJsonResult(chk, metrics);
    return 0;
}
