/**
 * @file
 * DynInst: one dynamic instruction as seen by the timing model — the
 * static instruction plus its dynamic outcome (next PC, branch
 * direction, effective address).  Produced by the functional emulator
 * or by the synthetic trace generator, consumed by the O3 core and by
 * the trace-analysis passes.
 */

#ifndef RRS_TRACE_DYNINST_HH
#define RRS_TRACE_DYNINST_HH

#include <optional>

#include "isa/isa.hh"

namespace rrs::trace {

class PackedTrace;

/** A dynamic instruction record. */
struct DynInst
{
    InstSeqNum seq = 0;            //!< position in the dynamic stream
    Addr pc = 0;                   //!< fetch PC
    isa::StaticInst si;            //!< decoded static instruction
    Addr nextPc = 0;               //!< PC of the next dynamic instruction
    bool taken = false;            //!< branch outcome (control only)
    Addr effAddr = invalidAddr;    //!< effective address (memory only)

    bool isLoad() const { return si.load(); }
    bool isStore() const { return si.store(); }
    bool isControl() const { return si.control(); }
    bool hasDest() const { return si.hasDest(); }
};

/**
 * A source of dynamic instructions.  next() returns instructions in
 * program (commit) order; nullopt signals end of stream.  Streams must
 * be restartable via reset() so that sweeps can replay the same
 * workload under many configurations.
 */
class InstStream
{
  public:
    virtual ~InstStream() = default;

    /** Next correct-path instruction, or nullopt at end of stream. */
    virtual std::optional<DynInst> next() = 0;

    /**
     * Step over the next instruction without copying it out; false at
     * end of stream.  Consumers with a packed view read the record at
     * the pre-call cursor() instead.  The default calls next(), so a
     * wrapper that only overrides next() still sees every step.
     */
    virtual bool advance() { return next().has_value(); }

    /** Rewind to the beginning of the stream. */
    virtual void reset() = 0;

    /** Short label for reports (workload name). */
    virtual const std::string &name() const = 0;

    /**
     * The pre-decoded structure-of-arrays view of this stream, or
     * nullptr when the stream has no packed backing (live emulator,
     * synthetic generator).  The timing core needs a view: record an
     * unpacked stream first (trace::recordStream).
     */
    virtual const PackedTrace *packedView() const { return nullptr; }

    /**
     * Column index of the record the next call to next() or advance()
     * will step over.  Meaningful only when packedView() is non-null.
     */
    virtual std::size_t cursor() const { return 0; }
};

} // namespace rrs::trace

#endif // RRS_TRACE_DYNINST_HH
