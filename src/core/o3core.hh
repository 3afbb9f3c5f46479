/**
 * @file
 * The out-of-order core timing model.
 *
 * A trace-driven (execute-at-fetch) O3 model in the style the paper's
 * gem5 setup provides: 3-wide front end feeding a rename stage
 * (pluggable: baseline or physical-register-sharing), a unified issue
 * queue with versioned-tag wakeup, a ROB, split load/store queues with
 * store-to-load forwarding, a functional-unit pool, and in-order
 * commit.
 *
 * Speculation: branches are predicted at fetch; a mispredicted branch
 * switches fetch to a *synthetic wrong path* (statistically matched to
 * recent code) whose instructions allocate registers, occupy queue
 * entries and execute, and are squashed when the branch resolves —
 * preserving the wrong-path register pressure the paper's mechanism
 * interacts with.  Squashes roll the renamer back through its history
 * buffer; shadow-cell recover commands are charged as extra redirect
 * cycles.  Page-fault injection and timer interrupts exercise the
 * precise-exception recovery path (commit-time flush + shadow
 * recovery).
 */

#ifndef RRS_CORE_O3CORE_HH
#define RRS_CORE_O3CORE_HH

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "bpred/bpred.hh"
#include "common/random.hh"
#include "core/params.hh"
#include "mem/memsystem.hh"
#include "obs/stallcause.hh"
#include "rename/renamer.hh"
#include "stats/stats.hh"
#include "trace/dyninst.hh"
#include "trace/wrongpath.hh"

namespace rrs::obs {
class PipeTracer;
class FlightRecorder;
enum class FlightEventKind : std::uint8_t;
}

namespace rrs::rename {
class RenameAuditor;
}

namespace rrs::core {

/** The core. */
class O3Core : public stats::Group
{
  public:
    /**
     * @param params   pipeline configuration
     * @param renamer  baseline or reuse renamer (owned by the caller)
     * @param mem      memory hierarchy (owned by the caller)
     * @param bp       branch predictor (owned by the caller)
     * @param stream   correct-path dynamic instruction source
     */
    O3Core(const CoreParams &params, rename::Renamer &renamer,
           mem::MemSystem &mem, bpred::BranchPredictor &bp,
           trace::InstStream &stream, stats::Group *parent = nullptr);

    /** Run the stream to completion; returns timing results. */
    SimResult run();

    // --- windowed-mode hooks (harness/sampling.hh) ------------------
    //
    // A SamplingController alternates functional-warm spans with
    // detailed windows on one long-lived core, so predictor and cache
    // state carry across windows.  Exact mode never calls any of
    // these; run() alone is bit-identical to the pre-sampling core.

    /** The current cycle (absolute across windowed runs). */
    Tick nowTick() const { return now; }

    /**
     * Run until `insts` more instructions commit (or the stream
     * drains).  Unlike run(), the returned cycles field is the
     * *delta* spent in this window, not the absolute clock.
     */
    SimResult runWindow(std::uint64_t insts);

    /**
     * Throw away everything in flight (ROB, IQ, fetch queue, stream
     * lookahead) without refetching it, leaving the renamer rolled
     * back and the core ready to fetch from wherever the stream cursor
     * is moved next.  The caller must re-seek the stream to the commit
     * point: in-flight instructions were consumed but never committed.
     */
    void discardInFlight();

    /**
     * Jump the clock forward to `to` (a functional-warm span elapsed).
     * Keeps the interrupt schedule and deadlock watchdog in sync so a
     * jump is never mistaken for a stall.
     */
    void advanceClock(Tick to);

    /**
     * Install a periodic sampler (e.g. register bank occupancy for
     * Fig. 9); called every `interval` cycles with the current tick.
     */
    void
    setSampler(std::function<void(Tick)> fn, Cycles interval)
    {
        sampler = std::move(fn);
        samplerInterval = interval;
    }

    /**
     * Attach a pipeline event tracer (obs/pipetrace.hh).  The core
     * keeps only this cached pointer; with no tracer attached every
     * hook site is a single never-taken branch, so the disabled path
     * stays off the profile.  Call before run().
     */
    void setTracer(obs::PipeTracer *t) { tracer = t; }

    /**
     * Attach a rename invariant auditor (rename/audit.hh).  Like the
     * tracer, the core keeps one cached pointer and every hook site is
     * a single never-taken branch when no auditor is attached.
     *
     * Trigger points: after every squash and after every exception /
     * interrupt flush (always, whenever an auditor is attached), after
     * each committed instruction when `everyCommit` is set, and every
     * `interval` cycles when interval > 0.  Call before run().
     */
    void
    setAuditor(rename::RenameAuditor *a, Cycles interval,
               bool everyCommit)
    {
        auditor = a;
        auditInterval = interval;
        auditEveryCommit = everyCommit;
    }

    /**
     * Attach a crash-time flight recorder (obs/flightrec.hh).  Same
     * cached-pointer pattern as the tracer and auditor: the core
     * records an event per rename allocation, commit, squash and
     * flush — cycle, destination tag and free-list depths — and pays
     * one never-taken branch per hook site when detached.  Call
     * before run().
     */
    void setFlightRecorder(obs::FlightRecorder *fr) { flightRec = fr; }

    /** Committed-IPC of the finished run. */
    const SimResult &result() const { return simResult; }

    /** Per-cause cycle accounting of the finished run (obs layer). */
    obs::StallBreakdown stallBreakdown() const
    {
        return cycleCauses.breakdown();
    }

    // --- structural occupancies, for the interval sampler hook ---
    std::uint32_t robSize() const
    {
        return static_cast<std::uint32_t>(renamed - head);
    }
    std::uint32_t iqSize() const
    {
        return static_cast<std::uint32_t>(iq.size());
    }
    std::uint32_t lsqSize() const
    {
        return loadsInFlight + static_cast<std::uint32_t>(robStores.size());
    }

    /** Aggregate counters for reports. */
    double mispredictCount() const { return branchMispredicts.value(); }
    double exceptionCount() const { return exceptionsTaken.value(); }
    double interruptCount() const { return interruptsTaken.value(); }
    double recoveryCycleCount() const { return recoveryCycles.value(); }
    double renameStallNoRegCount() const
    {
        return renameStallNoReg.value();
    }

  private:
    /**
     * One in-flight instruction (fetch-queue or ROB entry), built field
     * by field in its ring slot.  The scheduler's fields come first, so
     * the issue and writeback walks touch only its first 64 bytes.
     * `di` points at the instruction instead of holding a copy: its row
     * of the stream's packed trace (correct path) or the entry's own
     * wrong-path side-table slot.
     */
    struct InFlight
    {
        std::uint64_t fetchSeq = 0;  //!< dense core-local sequence
        Tick readyAt = 0;            //!< completion (writeback) tick
        isa::PackedMeta meta;        //!< pre-decoded attribute bits
        bool issued = false;
        bool completed = false;
        bool storeExecuted = false;  //!< address computed (stores)
        bool mispredicted = false;   //!< resolves with a redirect
        bool wrongPath = false;
        bool faulting = false;       //!< raises an exception at commit
        bool hasPred = false;
        std::uint8_t numSrcIdx = 0;  //!< valid entries of srcIdx
        /** Scoreboard index of each valid source tag, set at rename. */
        std::array<std::uint32_t, 3> srcIdx{};
        const trace::DynInst *di = nullptr;

        rename::RenameResult rr;
        bpred::Prediction pred;
    };
    static_assert(offsetof(InFlight, rr) <= 64,
                  "the scheduler's fields must fit the entry's first "
                  "64 bytes");

    /**
     * A scheduler-list entry: a ROB slot and its sequence number.  The
     * ring is allocated once and never moves, so the pointer stays
     * valid until its entry commits or is squashed; a list drops its
     * younger slots before squashAfter truncates the ring, and the
     * sequence number orders the list without touching the entry.
     */
    struct Slot
    {
        std::uint64_t fetchSeq;
        InFlight *inst;
    };

    // --- pipeline stages, called once per cycle ---
    void commitStage();
    void writebackStage();
    void issueStage();
    void renameStage();
    void fetchStage();

    // --- helpers ---
    void accountCycle();
    bool srcsReady(const InFlight &inst) const;
    bool loadMayIssue(const InFlight &inst, Tick *forwardReady) const;
    void scheduleCompletion(InFlight &inst);
    void resolveBranch(InFlight &inst);
    void squashFrom(std::uint64_t firstSeq, rename::HistoryToken token,
                    std::uint32_t *recoveries);
    void dropUnrenamed(std::uint64_t queued);
    void flushAll(Cycles extraPenalty);
    void recordFlight(obs::FlightEventKind kind, std::uint64_t seq,
                      const rename::PhysRegTag *tag);
    void audit(const char *where);
    void checkScheduler(const char *where) const;

    std::uint32_t
    tagIndex(const rename::PhysRegTag &tag) const { return indexer(tag); }

    CoreParams params;
    rename::Renamer &renamer;
    mem::MemSystem &memSys;
    bpred::BranchPredictor &bpred;
    trace::InstStream &stream;
    trace::WrongPathGenerator wrongPath;
    Random rng;

    Tick now = 0;

    // The fetch queue and the ROB share one fixed ring of in-flight
    // instructions, addressed by three monotonic indices: the ROB is
    // [head, renamed) and the fetch queue [renamed, tail).  Fetch
    // builds each entry in its slot, rename advances `renamed`, commit
    // advances `head`, and a squash moves `renamed` back over the
    // squashed ROB entries and `tail` down to it, dropping the fetch
    // queue; no entry is allocated or copied after the constructor.
    // The capacity is a power of two >= robEntries + fetchQueueEntries.
    std::vector<InFlight> ring;
    std::uint64_t ringMask;
    std::uint64_t head = 0;
    std::uint64_t renamed = 0;
    std::uint64_t tail = 0;

    InFlight &at(std::uint64_t i) { return ring[i & ringMask]; }
    const InFlight &at(std::uint64_t i) const { return ring[i & ringMask]; }

    // Wrong-path instructions, one slot per ring slot: the entry at
    // ring index i points at wrongPathRows[i & ringMask].
    std::vector<trace::DynInst> wrongPathRows;

    // Fetch state.
    Tick fetchBlockedUntil = 0;
    bool onWrongPath = false;
    Addr wrongPathPc = 0;

    // The stream's packed trace; correct-path entries point at its rows.
    const trace::PackedTrace *packedSrc;
    // Rows taken from the stream but not yet in the ring: normally none
    // or the one an i-cache miss held back.  The ring's correct-path
    // entries hold the rows just before pendingFrom, so a flush
    // rewinds it to the oldest one it squashes (DESIGN §4k).
    std::size_t pendingFrom = 0;
    std::size_t pendingTo = 0;
    bool streamDone = false;
    bool finished = false;
    std::uint64_t nextFetchSeq = 0;
    Addr lastFetchLine = invalidAddr;

    // Backend state.  Each scheduler list is a seq-ordered subsequence
    // of the ROB, so every stage touches only the entries it can act
    // on: issue walks the IQ, writeback the executing list and load
    // disambiguation the older stores.
    std::vector<Slot> iq;          //!< renamed, not yet issued
    std::vector<Slot> executing;   //!< issued, not yet completed
    std::deque<Slot> robStores;    //!< every store in the ROB
    std::uint32_t loadsInFlight = 0;

    // Scoreboard: ready tick per versioned tag.
    rename::TagIndexer indexer;
    std::vector<Tick> regReadyAt;
    // "Has this tag's value been produced?" for the renamer: built once
    // here rather than wrapped anew on every rename and squash.
    std::function<bool(const rename::PhysRegTag &)> tagProduced;

    // Functional units: busy-until per pool.
    std::vector<Tick> fuIntAlu, fuIntMulDiv, fuFpAlu, fuFpMulDiv, fuMem;

    Tick nextInterrupt = 0;
    Tick lastCommitTick = 0;

    std::function<void(Tick)> sampler;
    Cycles samplerInterval = 0;

    // Observability: cached tracer pointer (null = tracing disabled)
    // and the per-cycle attribution state consumed by accountCycle().
    obs::PipeTracer *tracer = nullptr;
    obs::FlightRecorder *flightRec = nullptr;
    rename::RenameAuditor *auditor = nullptr;
    Cycles auditInterval = 0;
    bool auditEveryCommit = false;
    std::uint32_t committedThisCycle = 0;
    enum class RenameBlock : std::uint8_t { None, NoReg, Rob, Iq, Lsq };
    RenameBlock renameBlock = RenameBlock::None;

    SimResult simResult;

    // Statistics.
    stats::Scalar cycles;
    stats::Scalar committed;
    stats::Scalar committedWrongPathNever;
    stats::Scalar renameStallNoReg;
    stats::Scalar renameStallRob;
    stats::Scalar renameStallIq;
    stats::Scalar renameStallLsq;
    stats::Scalar fetchStallCycles;
    stats::Scalar branchMispredicts;
    stats::Scalar squashedInsts;
    stats::Scalar recoveryCycles;
    stats::Scalar exceptionsTaken;
    stats::Scalar interruptsTaken;
    stats::Scalar wrongPathFetched;
    stats::Average robOccupancy;
    stats::Average iqOccupancy;
    obs::CycleAccounting cycleCauses;
};

} // namespace rrs::core

#endif // RRS_CORE_O3CORE_HH
