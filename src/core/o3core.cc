#include "o3core.hh"

#include <algorithm>
#include <bit>
#include <new>

#include "common/logging.hh"
#include "obs/flightrec.hh"
#include "obs/pipetrace.hh"
#include "rename/audit.hh"
#include "trace/packed.hh"

namespace rrs::core {

using isa::BranchKind;
using isa::InstClass;

O3Core::O3Core(const CoreParams &params, rename::Renamer &renamer,
               mem::MemSystem &mem, bpred::BranchPredictor &bp,
               trace::InstStream &stream, stats::Group *parent)
    : stats::Group("core", parent), params(params), renamer(renamer),
      memSys(mem), bpred(bp), stream(stream),
      wrongPath(params.seed ^ 0xabcdef, 256), rng(params.seed),
      ring(std::bit_ceil(std::max<std::uint64_t>(
          1, std::uint64_t{params.robEntries} + params.fetchQueueEntries))),
      ringMask(ring.size() - 1), wrongPathRows(ring.size()),
      packedSrc(stream.packedView()),
      indexer(renamer.tagIndexer()),
      regReadyAt(indexer.size(), 0),
      tagProduced([this](const rename::PhysRegTag &tag) {
          return regReadyAt[tagIndex(tag)] <= now;
      }),
      fuIntAlu(params.fu.intAlu, 0), fuIntMulDiv(params.fu.intMulDiv, 0),
      fuFpAlu(params.fu.fpAlu, 0), fuFpMulDiv(params.fu.fpMulDiv, 0),
      fuMem(params.fu.memPorts, 0),
      cycles(this, "cycles", "total simulated cycles"),
      committed(this, "committed", "committed instructions"),
      committedWrongPathNever(this, "wrongPathCommitted",
                              "wrong-path commits (must stay zero)"),
      renameStallNoReg(this, "renameStallNoReg",
                       "rename stalls: no free physical register"),
      renameStallRob(this, "renameStallRob", "rename stalls: ROB full"),
      renameStallIq(this, "renameStallIq", "rename stalls: IQ full"),
      renameStallLsq(this, "renameStallLsq", "rename stalls: LSQ full"),
      fetchStallCycles(this, "fetchStallCycles",
                       "cycles with fetch blocked"),
      branchMispredicts(this, "branchMispredicts",
                        "resolved mispredicted control instructions"),
      squashedInsts(this, "squashedInsts", "instructions squashed"),
      recoveryCycles(this, "recoveryCycles",
                     "extra cycles for shadow-cell recover commands"),
      exceptionsTaken(this, "exceptions", "page-fault exceptions taken"),
      interruptsTaken(this, "interrupts", "timer interrupts taken"),
      wrongPathFetched(this, "wrongPathFetched",
                       "synthetic wrong-path instructions fetched"),
      robOccupancy(this, "robOccupancy", "ROB occupancy per cycle"),
      iqOccupancy(this, "iqOccupancy", "IQ occupancy per cycle"),
      cycleCauses(this)
{
    if (!packedSrc) {
        rrs_fatal("core: stream '%s' has no packed view; record it first "
                  "with trace::recordStream",
                  stream.name().c_str());
    }
    if (params.interruptInterval > 0)
        nextInterrupt = params.interruptInterval;
}

namespace {

/** Drop the slots from `seq` on from a seq-ordered list. */
template <typename Slots>
void
dropFrom(Slots &slots, std::uint64_t seq)
{
    while (!slots.empty() && slots.back().fetchSeq >= seq)
        slots.pop_back();
}

} // namespace

bool
O3Core::srcsReady(const InFlight &inst) const
{
    for (std::uint8_t k = 0; k < inst.numSrcIdx; ++k) {
        if (regReadyAt[inst.srcIdx[k]] > now)
            return false;
    }
    return true;
}

bool
O3Core::loadMayIssue(const InFlight &inst, Tick *forwardReady) const
{
    *forwardReady = 0;
    // Scan older stores: unknown addresses block; overlapping known
    // addresses forward.
    const Addr lo = inst.di->effAddr;
    const Addr hi = lo + inst.meta.memBytes;
    bool forward = false;
    for (const Slot &slot : robStores) {
        if (slot.fetchSeq >= inst.fetchSeq)
            break;
        const InFlight &other = *slot.inst;
        if (!other.storeExecuted)
            return false;   // conservative: address unknown
        if (other.wrongPath)
            continue;       // synthetic store, no real data
        Addr olo = other.di->effAddr;
        Addr ohi = olo + other.meta.memBytes;
        if (lo < ohi && olo < hi) {
            forward = true;
            *forwardReady = std::max(*forwardReady, other.readyAt);
        }
    }
    if (forward && *forwardReady == 0)
        *forwardReady = now;
    if (!forward)
        *forwardReady = 0;
    return true;
}

void
O3Core::scheduleCompletion(InFlight &inst)
{
    const FuParams &fu = params.fu;
    auto grab = [&](std::vector<Tick> &pool, Cycles occupy,
                    Cycles latency) -> bool {
        for (auto &busy : pool) {
            if (busy <= now) {
                busy = now + occupy;
                inst.readyAt = now + latency;
                return true;
            }
        }
        return false;
    };

    bool ok = false;
    switch (inst.meta.cls) {
      case InstClass::IntAlu:
      case InstClass::Branch:
        ok = grab(fuIntAlu, 1, fu.intAluLat);
        break;
      case InstClass::IntMult:
        ok = grab(fuIntMulDiv, 1, fu.intMultLat);
        break;
      case InstClass::IntDiv:
        ok = grab(fuIntMulDiv, fu.intDivLat, fu.intDivLat);
        break;
      case InstClass::FpAlu:
        ok = grab(fuFpAlu, 1, fu.fpAluLat);
        break;
      case InstClass::FpMult:
        ok = grab(fuFpMulDiv, 1, fu.fpMultLat);
        break;
      case InstClass::FpDiv:
        ok = grab(fuFpMulDiv, fu.fpDivLat, fu.fpDivLat);
        break;
      case InstClass::Load: {
        if (inst.wrongPath) {
            ok = grab(fuMem, 1, fu.wrongPathLoadLat);
            break;
        }
        Tick fwd = 0;
        if (!loadMayIssue(inst, &fwd)) {
            ok = false;
            break;
        }
        for (auto &busy : fuMem) {
            if (busy <= now) {
                busy = now + 1;
                if (fwd) {
                    inst.readyAt = std::max(now, fwd) + fu.forwardLat;
                } else {
                    inst.readyAt = memSys.dataAccess(
                        inst.di->pc, inst.di->effAddr, false, now);
                }
                ok = true;
                break;
            }
        }
        break;
      }
      case InstClass::Store:
        ok = grab(fuMem, 1, fu.storeLat);
        break;
      case InstClass::Nop:
        inst.readyAt = now;
        ok = true;
        break;
    }
    inst.issued = ok;
}

void
O3Core::recordFlight(obs::FlightEventKind kind, std::uint64_t seq,
                     const rename::PhysRegTag *tag)
{
    obs::FlightEvent e;
    e.cycle = now;
    e.seq = seq;
    e.kind = kind;
    if (tag && tag->valid()) {
        e.cls = tag->cls == RegClass::Float ? 1 : 0;
        e.reg = static_cast<std::uint16_t>(tag->reg);
        e.version = tag->version;
    }
    e.freeInt =
        static_cast<std::int32_t>(renamer.freeRegs(RegClass::Int));
    e.freeFp =
        static_cast<std::int32_t>(renamer.freeRegs(RegClass::Float));
    flightRec->record(e);
}

void
O3Core::audit(const char *where)
{
    auditor->check(renamer, where);
    checkScheduler(where);
}

void
O3Core::checkScheduler(const char *where) const
{
    auto seqNum = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    // The ring: ROB [head, renamed) then fetch queue [renamed, tail),
    // each within its bound, in strictly increasing fetch order.
    if (head > renamed || renamed > tail) {
        rrs_panic("ring audit failed at %s: head <= renamed <= tail does "
                  "not hold (head %llu, renamed %llu, tail %llu)",
                  where, seqNum(head), seqNum(renamed), seqNum(tail));
    }
    if (tail - head > ring.size()) {
        rrs_panic("ring audit failed at %s: tail - head = %llu exceeds "
                  "the capacity %zu", where, seqNum(tail - head),
                  ring.size());
    }
    if (renamed - head > params.robEntries) {
        rrs_panic("ring audit failed at %s: ROB size %llu exceeds "
                  "robEntries %u", where, seqNum(renamed - head),
                  params.robEntries);
    }
    if (tail - renamed > params.fetchQueueEntries) {
        rrs_panic("ring audit failed at %s: fetch-queue size %llu exceeds "
                  "fetchQueueEntries %u", where, seqNum(tail - renamed),
                  params.fetchQueueEntries);
    }
    for (std::uint64_t i = head + 1; i < tail; ++i) {
        if (at(i).fetchSeq <= at(i - 1).fetchSeq) {
            rrs_panic("ring audit failed at %s: fetchSeq not strictly "
                      "increasing (seq %llu follows seq %llu at index "
                      "%llu)", where, seqNum(at(i).fetchSeq),
                      seqNum(at(i - 1).fetchSeq), seqNum(i));
        }
    }

    // Each entry points at its own instruction: a wrong-path entry at
    // its side-table slot, a correct-path one at its trace row.  The
    // correct-path entries hold consecutive rows ending just before
    // the pending range, so walking youngest first names each row.
    std::size_t row = pendingFrom;
    for (std::uint64_t i = tail; i-- != head;) {
        const InFlight &e = at(i);
        const trace::DynInst *own =
            e.wrongPath ? &wrongPathRows[i & ringMask]
            : row > 0   ? packedSrc->record(--row)
                        : nullptr;
        if (e.di != own) {
            rrs_panic("ring audit failed at %s: entry seq %llu does not "
                      "point at its own %s", where, seqNum(e.fetchSeq),
                      e.wrongPath ? "wrong-path side-table slot"
                                  : "trace row");
        }
    }

    // Each list must be exactly the seq-ordered subsequence of the ROB
    // entries in its state; one ROB walk checks all three.
    std::size_t inIq = 0, inExec = 0, inStores = 0;
    auto expect = [&](const auto &slots, std::size_t &pos,
                      const InFlight &e, const char *list) {
        if (pos >= slots.size() || slots[pos].inst != &e ||
            slots[pos].fetchSeq != e.fetchSeq) {
            rrs_panic("scheduler audit failed at %s: %s slot %zu does "
                      "not hold ROB entry seq %llu",
                      where, list, pos, seqNum(e.fetchSeq));
        }
        ++pos;
    };
    for (std::uint64_t i = head; i < renamed; ++i) {
        const InFlight &e = at(i);
        // The cached source indices are the valid source tags', in
        // operand order.
        std::uint8_t k = 0;
        bool stale = false;
        for (std::uint8_t s = 0; s < e.rr.numSrcTags; ++s) {
            const rename::PhysRegTag &tag = e.rr.srcTags[s];
            if (tag.valid())
                stale |= k == e.numSrcIdx || e.srcIdx[k++] != tagIndex(tag);
        }
        if (stale || k != e.numSrcIdx) {
            rrs_panic("scheduler audit failed at %s: ROB entry seq %llu "
                      "caches stale source scoreboard indices", where,
                      seqNum(e.fetchSeq));
        }
        if (!e.issued)
            expect(iq, inIq, e, "IQ");
        else if (!e.completed)
            expect(executing, inExec, e, "executing list");
        if (e.meta.isStore())
            expect(robStores, inStores, e, "store list");
    }
    if (inIq != iq.size() || inExec != executing.size() ||
        inStores != robStores.size()) {
        rrs_panic("scheduler audit failed at %s: stale slots (IQ %zu/%zu, "
                  "executing %zu/%zu, stores %zu/%zu matched)",
                  where, inIq, iq.size(), inExec, executing.size(),
                  inStores, robStores.size());
    }
}

void
O3Core::squashFrom(std::uint64_t firstSeq, rename::HistoryToken token,
                   std::uint32_t *recoveries)
{
    // Discard the ROB entries from `firstSeq` on, youngest first, and
    // the whole fetch queue (all younger than the ROB).  The scheduler
    // lists go first: their slots point at the ROB entries dropped
    // below.
    dropFrom(iq, firstSeq);
    dropFrom(executing, firstSeq);
    dropFrom(robStores, firstSeq);
    const std::uint64_t queued = renamed;
    while (renamed != head && at(renamed - 1).fetchSeq >= firstSeq) {
        const InFlight &victim = at(--renamed);
        if (victim.meta.isLoad())
            --loadsInFlight;
        ++squashedInsts;
        if (tracer)
            tracer->squash(victim.fetchSeq);
    }
    dropUnrenamed(queued);

    std::uint32_t rec = renamer.squashTo(token, tagProduced);
    if (recoveries)
        *recoveries = rec;
    if (flightRec) {
        recordFlight(obs::FlightEventKind::Squash,
                     firstSeq > 0 ? firstSeq - 1 : 0, nullptr);
    }
    if (auditor)
        audit("post-squash");
    lastFetchLine = invalidAddr;
}

void
O3Core::dropUnrenamed(std::uint64_t queued)
{
    // Drop [renamed, tail): what a squash just moved `renamed` back
    // over (already traced), then the fetch queue from `queued` on.
    // Correct-path rows (only a flush drops any) go back to the front
    // of the pending range.  No slot is overwritten before the next
    // fetch, so the dropped slots can still be read here.
    if (tracer) {
        for (std::uint64_t i = queued; i != tail; ++i)
            tracer->squash(at(i).fetchSeq);
    }
    for (std::uint64_t i = renamed; i != tail; ++i) {
        if (!at(i).wrongPath) {
            pendingFrom =
                static_cast<std::size_t>(at(i).di - packedSrc->record(0));
            break;
        }
    }
    tail = renamed;
}

void
O3Core::resolveBranch(InFlight &inst)
{
    const BranchKind kind = inst.meta.branch;
    bpred.recordResolution(kind, !inst.mispredicted);
    if (!inst.mispredicted)
        return;

    ++branchMispredicts;
    std::uint32_t rec = 0;
    squashFrom(inst.fetchSeq + 1, inst.rr.endToken, &rec);

    // Repair the speculative predictor state.
    if (kind == BranchKind::Cond) {
        bpred.correctHistory(inst.pred, inst.di->taken);
    } else {
        bpred.squash(inst.pred);
        // Redo the RAS effect of the resolved instruction itself.
        auto redo = bpred.predict(inst.di->pc, kind);
        (void)redo;
    }

    onWrongPath = false;
    Cycles rec_cycles = rec * params.recoverCmdCycles;
    recoveryCycles += static_cast<double>(rec_cycles);
    // Redirect: any previous fetch block (icache miss on the wrong
    // path, or the no-wrong-path stall sentinel) is void.
    fetchBlockedUntil = now + params.mispredictPenalty + rec_cycles;
}

void
O3Core::flushAll(Cycles extraPenalty)
{
    if (head == tail)
        return;

    // Rewind the branch predictor to the oldest squashed prediction.
    for (std::uint64_t i = head; i != tail; ++i) {
        if (at(i).hasPred) {
            bpred.squash(at(i).pred);
            break;
        }
    }

    // Everything goes, head included; the correct-path rows are
    // fetched again.
    std::uint32_t rec = 0;
    if (head != renamed)
        squashFrom(at(head).fetchSeq, at(head).rr.token, &rec);
    else
        dropUnrenamed(renamed);

    if (flightRec)
        recordFlight(obs::FlightEventKind::Flush, 0, nullptr);
    if (auditor)
        audit("post-flush");

    // Recover committed values that live in shadow cells.
    std::uint32_t committed_rec = renamer.committedShadowValues();
    Cycles rec_cycles =
        (rec + committed_rec) * params.recoverCmdCycles + extraPenalty;
    recoveryCycles +=
        static_cast<double>((rec + committed_rec) *
                            params.recoverCmdCycles);
    // Assignment, not max: the flush redirects fetch, voiding any
    // earlier block (including the no-wrong-path stall sentinel of a
    // mispredicted branch this flush just squashed).
    fetchBlockedUntil = now + rec_cycles;

    onWrongPath = false;
    lastFetchLine = invalidAddr;
}

void
O3Core::commitStage()
{
    committedThisCycle = 0;
    if (params.interruptInterval > 0 && now >= nextInterrupt) {
        nextInterrupt += params.interruptInterval;
        if (head != tail) {
            ++interruptsTaken;
            flushAll(params.exceptionPenalty +
                     params.interruptServiceCycles);
            return;
        }
    }

    std::uint32_t n = 0;
    while (n < params.commitWidth && head != renamed) {
        const InFlight &inst = at(head);
        if (!inst.completed)
            break;
        rrs_assert(!inst.wrongPath,
                   "wrong-path instruction reached commit");

        const bool faulted = inst.faulting;
        if (faulted)
            ++exceptionsTaken;

        renamer.commit(inst.rr);
        if (flightRec) {
            recordFlight(obs::FlightEventKind::Commit, inst.fetchSeq,
                         inst.rr.hasDest ? &inst.rr.destTag : nullptr);
        }
        if (auditor && auditEveryCommit)
            audit("post-commit");
        if (inst.meta.isStore())
            memSys.dataAccess(inst.di->pc, inst.di->effAddr, true, now);
        if (inst.meta.isControl()) {
            Addr target = inst.di->taken ? inst.di->nextPc : invalidAddr;
            bpred.update(inst.di->pc, inst.meta.branch,
                         inst.di->taken, target,
                         inst.pred.historySnapshot);
        }
        if (inst.meta.isLoad())
            --loadsInFlight;
        if (inst.meta.isStore())
            robStores.pop_front();

        ++committed;
        ++committedThisCycle;
        simResult.committedInsts += 1;
        simResult.committedOps += 1 + inst.rr.repairUops;
        lastCommitTick = now;
        ++n;
        if (tracer)
            tracer->retire(inst.fetchSeq, now);
        ++head;

        if (faulted) {
            // Precise exception: everything younger is flushed and the
            // committed register state (possibly in shadow cells) is
            // recovered before the handler runs.
            flushAll(params.exceptionPenalty);
            break;
        }
        if (params.maxInsts > 0 &&
            simResult.committedInsts >= params.maxInsts) {
            finished = true;
            break;
        }
    }
}

void
O3Core::writebackStage()
{
    // Oldest first: age decides which finished entries get the
    // writeback ports this cycle.  The slots that stay executing are
    // compacted towards the front as the walk goes.
    std::uint32_t n = 0;
    std::size_t keep = 0, i = 0;
    for (; i < executing.size() && n < params.wbWidth; ++i) {
        InFlight &inst = *executing[i].inst;
        if (inst.readyAt > now) {
            executing[keep++] = executing[i];
            continue;
        }
        inst.completed = true;
        ++n;
        if (tracer)
            tracer->complete(inst.fetchSeq, now);
        if (inst.meta.isStore())
            inst.storeExecuted = true;
        if (inst.rr.hasDest)
            regReadyAt[tagIndex(inst.rr.destTag)] = now;
        if (inst.meta.isControl()) {
            if (inst.mispredicted) {
                // Every slot after this one is younger than the branch
                // and about to be squashed.
                executing.erase(executing.begin() +
                                    static_cast<std::ptrdiff_t>(keep),
                                executing.end());
                resolveBranch(inst);
                return;
            }
            resolveBranch(inst);
        }
    }
    executing.erase(executing.begin() + static_cast<std::ptrdiff_t>(keep),
                    executing.begin() + static_cast<std::ptrdiff_t>(i));
}

void
O3Core::issueStage()
{
    // Oldest ready first; the slots left waiting are compacted towards
    // the front as the walk goes.
    std::uint32_t budget = params.issueWidth;
    std::size_t keep = 0, i = 0;
    for (; i < iq.size() && budget > 0; ++i) {
        const Slot slot = iq[i];
        InFlight &inst = *slot.inst;
        if (srcsReady(inst)) {
            scheduleCompletion(inst);
            if (inst.issued) {
                --budget;
                if (tracer)
                    tracer->issue(slot.fetchSeq, now);
                executing.insert(
                    std::upper_bound(executing.begin(), executing.end(),
                                     slot.fetchSeq,
                                     [](std::uint64_t s, const Slot &e) {
                                         return s < e.fetchSeq;
                                     }),
                    slot);
                continue;
            }
        }
        iq[keep++] = slot;
    }
    iq.erase(iq.begin() + static_cast<std::ptrdiff_t>(keep),
             iq.begin() + static_cast<std::ptrdiff_t>(i));
}

void
O3Core::renameStage()
{
    renameBlock = RenameBlock::None;
    std::uint32_t width = params.renameWidth;
    while (width > 0 && renamed != tail) {
        InFlight &inst = at(renamed);
        if (renamed - head >= params.robEntries) {
            ++renameStallRob;
            renameBlock = RenameBlock::Rob;
            break;
        }
        bool needs_iq = inst.meta.cls != InstClass::Nop;
        if (needs_iq && iq.size() >= params.iqEntries) {
            ++renameStallIq;
            renameBlock = RenameBlock::Iq;
            break;
        }
        if (inst.meta.isLoad() &&
            loadsInFlight >= params.loadQueueEntries) {
            ++renameStallLsq;
            renameBlock = RenameBlock::Lsq;
            break;
        }
        if (inst.meta.isStore() &&
            robStores.size() >= params.storeQueueEntries) {
            ++renameStallLsq;
            renameBlock = RenameBlock::Lsq;
            break;
        }

        // Renamed in place: the result is built straight in the slot
        // (a prvalue initialises it, so nothing is copied), and the
        // entry joins the ROB by advancing `renamed` below, so a failed
        // attempt leaves only a stale rr that the retry overwrites.
        ::new (static_cast<void *>(&inst.rr))
            rename::RenameResult(renamer.rename(*inst.di, tagProduced));
        const rename::RenameResult &rr = inst.rr;
        if (!rr.success) {
            ++renameStallNoReg;
            renameBlock = RenameBlock::NoReg;
            break;
        }
        inst.numSrcIdx = 0;
        for (std::uint8_t s = 0; s < rr.numSrcTags; ++s) {
            if (rr.srcTags[s].valid())
                inst.srcIdx[inst.numSrcIdx++] = tagIndex(rr.srcTags[s]);
        }
        if (flightRec) {
            recordFlight(obs::FlightEventKind::Alloc, inst.fetchSeq,
                         rr.hasDest ? &rr.destTag : nullptr);
        }

        // Repair micro-ops consume rename bandwidth and produce their
        // destination a few cycles after the stale value is available.
        for (int r = 0; r < rr.numRepairs; ++r) {
            const auto &rep = rr.repairList[static_cast<std::size_t>(r)];
            Tick src_ready = regReadyAt[tagIndex(rep.fromTag)];
            if (src_ready == ~Tick{0})
                src_ready = now;   // producer squashed: value archival
            regReadyAt[tagIndex(rep.toTag)] =
                std::max(now, src_ready) + rep.uops;
        }
        if (rr.repairUops >= width)
            width = 1;   // at least finish this instruction
        else
            width -= rr.repairUops;

        ++renamed;
        const Slot slot{inst.fetchSeq, &inst};
        if (rr.hasDest)
            regReadyAt[tagIndex(rr.destTag)] = ~Tick{0};   // pending

        if (inst.meta.isLoad())
            ++loadsInFlight;
        if (inst.meta.isStore())
            robStores.push_back(slot);

        if (tracer) {
            tracer->rename(inst.fetchSeq, now);
            tracer->dispatch(inst.fetchSeq, now);
        }
        if (needs_iq) {
            iq.push_back(slot);
        } else {
            inst.issued = true;
            inst.completed = true;
            inst.readyAt = now;
            if (tracer) {
                tracer->issue(inst.fetchSeq, now);
                tracer->complete(inst.fetchSeq, now);
            }
        }
        --width;
    }
}

void
O3Core::fetchStage()
{
    if (now < fetchBlockedUntil) {
        ++fetchStallCycles;
        return;
    }

    std::uint32_t fetched = 0;
    while (fetched < params.fetchWidth &&
           tail - renamed < params.fetchQueueEntries) {
        // Pick the next instruction: wrong path, else the next
        // pending row, else the next stream row.  Either way it is
        // read where it lives, never copied.
        const trace::DynInst *di;
        isa::PackedMeta meta;
        if (onWrongPath) {
            trace::DynInst &row = wrongPathRows[tail & ringMask];
            wrongPath.generate(row, wrongPathPc, nextFetchSeq);
            di = &row;
            meta = isa::packedMeta(row.si.op);
            wrongPathPc = row.nextPc;
            ++wrongPathFetched;
        } else {
            if (pendingFrom == pendingTo && !streamDone) {
                const std::size_t next = stream.cursor();
                if (stream.advance()) {
                    pendingFrom = next;
                    pendingTo = next + 1;
                } else {
                    streamDone = true;
                }
            }
            if (pendingFrom == pendingTo)
                break;
            di = packedSrc->record(pendingFrom);
            meta = packedSrc->meta(pendingFrom);
        }

        // Instruction cache: one access per new line.
        Addr line = di->pc / 64;
        if (line != lastFetchLine) {
            Tick done = memSys.fetchAccess(di->pc, now);
            lastFetchLine = line;
            if (done > now + 1) {
                fetchBlockedUntil = done;
                break;   // line arrives later; retry then
            }
        }

        // Accept the instruction, built in its ring slot, which is
        // free: the fetch queue and the ROB are both below their
        // bounds.
        if (!onWrongPath)
            ++pendingFrom;
        InFlight &inst = at(tail);
        inst.fetchSeq = nextFetchSeq++;
        inst.readyAt = 0;
        inst.meta = meta;
        inst.issued = inst.completed = inst.storeExecuted = false;
        inst.mispredicted = inst.faulting = inst.hasPred = false;
        inst.wrongPath = onWrongPath;
        inst.di = di;

        bool group_ends = false;
        if (meta.isControl()) {
            const bpred::Prediction &p = inst.pred =
                bpred.predict(di->pc, meta.branch);
            inst.hasPred = true;
            if (!inst.wrongPath) {
                Addr pred_next =
                    p.taken && p.target != invalidAddr
                        ? p.target
                        : di->pc + isa::instBytes;
                // Direct unconditional branches and calls resolve their
                // target at decode; a BTB miss there is not a
                // misprediction.
                const BranchKind kind = meta.branch;
                if ((kind == BranchKind::Uncond ||
                     kind == BranchKind::Call) && !p.btbHit) {
                    pred_next = di->nextPc;
                }
                if (pred_next != di->nextPc) {
                    inst.mispredicted = true;
                    if (params.modelWrongPath) {
                        onWrongPath = true;
                        wrongPathPc = pred_next;
                    } else {
                        // No wrong-path modelling: stall fetch until
                        // resolution (handled via the redirect penalty).
                        fetchBlockedUntil = ~Tick{0} - (1u << 20);
                    }
                    group_ends = true;
                } else if (di->taken) {
                    group_ends = true;   // taken branches end the group
                }
            } else if (p.taken && p.target != invalidAddr) {
                wrongPathPc = p.target;
            }
        }

        // Page-fault injection on correct-path loads.
        if (!inst.wrongPath && meta.isLoad() &&
            params.loadFaultProbability > 0 &&
            rng.chance(params.loadFaultProbability)) {
            inst.faulting = true;
        }

        if (!inst.wrongPath)
            wrongPath.observe(*di);

        if (tracer)
            tracer->fetch(inst.fetchSeq, *di, now);
        ++tail;
        ++fetched;
        if (group_ends)
            break;
    }
}

void
O3Core::accountCycle()
{
    using obs::CycleCause;
    CycleCause cause;
    if (committedThisCycle > 0) {
        cause = CycleCause::Commit;
    } else if (streamDone && pendingFrom == pendingTo && !onWrongPath &&
               renamed == tail) {
        // Nothing left to fetch, ever: the backend is draining the
        // tail of the run.
        cause = CycleCause::Drain;
    } else if (renameBlock == RenameBlock::NoReg) {
        cause = CycleCause::RenameNoReg;
    } else if (renameBlock == RenameBlock::Rob) {
        cause = CycleCause::RenameRob;
    } else if (renameBlock == RenameBlock::Iq) {
        cause = CycleCause::RenameIq;
    } else if (renameBlock == RenameBlock::Lsq) {
        cause = CycleCause::RenameLsq;
    } else if (head == renamed) {
        cause = CycleCause::Frontend;
    } else {
        cause = CycleCause::BackendExec;
    }
    cycleCauses.attribute(cause);
}

SimResult
O3Core::run()
{
    simResult = SimResult{};
    finished = false;
    // From `now`, not 0: windowed mode re-enters run() with the clock
    // already advanced, and an absolute-zero watermark would trip the
    // deadlock panic spuriously.  First call: now == 0, identical.
    lastCommitTick = now;

    while (!finished) {
        commitStage();
        if (finished)
            break;
        writebackStage();
        issueStage();
        renameStage();
        fetchStage();

        robOccupancy.sample(static_cast<double>(renamed - head));
        iqOccupancy.sample(static_cast<double>(iq.size()));
        if (sampler && samplerInterval > 0 &&
            now % samplerInterval == 0) {
            sampler(now);
        }
        accountCycle();
        if (auditor && auditInterval > 0 && now % auditInterval == 0)
            audit("periodic");

        ++now;
        ++cycles;
        simResult.cycles = now;

        if (streamDone && head == tail && pendingFrom == pendingTo)
            finished = true;
        if (head != renamed &&
            now - lastCommitTick > params.deadlockThreshold) {
            rrs_panic("core deadlock: no commit for %llu cycles; head %s",
                      static_cast<unsigned long long>(
                          now - lastCommitTick),
                      at(head).di->si.toString().c_str());
        }
    }
    // Every simulated cycle must have been attributed to exactly one
    // cause; a leak here means a new stall path bypassed accounting.
    cycleCauses.verify(static_cast<std::uint64_t>(cycles.value()));
    if (tracer)
        tracer->finishRun();
    return simResult;
}

SimResult
O3Core::runWindow(std::uint64_t insts)
{
    const std::uint64_t savedMax = params.maxInsts;
    params.maxInsts = insts;
    const Tick start = now;
    SimResult r = run();   // commit counts are per-run() already
    params.maxInsts = savedMax;
    r.cycles = now - start;
    return r;
}

void
O3Core::discardInFlight()
{
    // flushAll squashes wrong-path work, rolls the renamer back
    // through its history and recovers shadow cells — exactly the
    // abandon-the-window semantics needed — but it also rewinds the
    // pending rows for refetch; windowed mode re-seeks the stream to
    // the commit point instead, so drop them.
    flushAll(0);
    pendingFrom = pendingTo;
    onWrongPath = false;
    streamDone = false;
    finished = false;
    lastFetchLine = invalidAddr;
    fetchBlockedUntil = now;
}

void
O3Core::advanceClock(Tick to)
{
    if (to <= now)
        return;
    now = to;
    // Resync the timer-interrupt schedule: without this a long warm
    // jump would deliver one pending interrupt per window cycle until
    // the schedule caught up.
    if (params.interruptInterval > 0) {
        while (nextInterrupt <= now)
            nextInterrupt += params.interruptInterval;
    }
    lastCommitTick = now;
}

} // namespace rrs::core
