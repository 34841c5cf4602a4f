/**
 * @file
 * Bounded-window out-of-order timing model (the ZSim substitute).
 *
 * The model approximates a 4-wide, 256-entry-ROB core (Table I): the
 * front end retires `width` instructions per cycle; each memory access
 * occupies the machine from its issue cycle until its latency elapses;
 * overlap is limited by (a) a maximum number of memory accesses in
 * flight (MSHR-like), (b) the ROB window -- an access cannot issue until
 * the access `robWindow` accesses ago has completed -- and (c) explicit
 * dependence: an access flagged dependsOnPrev cannot issue before its
 * predecessor's data returns (pointer chasing).  Total time is the
 * maximum of front-end time and the last completion.
 *
 * This captures exactly the effect the paper's Fig. 3 isolates: an
 * out-of-order window hides many L1 TLB misses, but serialized accesses
 * on the critical path expose them.
 */

#ifndef TPS_SIM_CYCLE_MODEL_HH
#define TPS_SIM_CYCLE_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace tps::sim {

/** Timing-model knobs. */
struct CycleModelConfig
{
    unsigned width = 4;        //!< retire width (instructions/cycle)
    unsigned robSize = 256;    //!< reorder-buffer entries
    unsigned maxInflight = 16; //!< memory accesses in flight (MSHRs)
    unsigned instsPerAccess = 3; //!< mean non-memory insts per access
};

/** The model. */
class CycleModel
{
  public:
    explicit CycleModel(const CycleModelConfig &cfg = CycleModelConfig{});

    /**
     * Account one memory access.
     *
     * @param translation_cycles  Added translation latency (TLB/walk).
     * @param mem_cycles          Data-access latency from the caches.
     * @param depends_on_prev     Serialized against the previous access.
     */
    void
    onAccess(unsigned translation_cycles, unsigned mem_cycles,
             bool depends_on_prev)
    {
        instructions_ += cfg_.instsPerAccess + 1; // the access + filler

        // Nominal issue time set by the front end.
        uint64_t issue = instructions_ / cfg_.width;

        // Structural limits: MSHRs and the ROB window.
        issue = std::max(issue, inflightRing_[inflightIdx_]);
        issue = std::max(issue, robRing_[robIdx_]);
        if (depends_on_prev)
            issue = std::max(issue, prevCompletion_);

        uint64_t completion = issue + translation_cycles + mem_cycles;
        inflightRing_[inflightIdx_] = completion;
        robRing_[robIdx_] = completion;
        prevCompletion_ = completion;
        lastCompletion_ = std::max(lastCompletion_, completion);
        if (++inflightIdx_ == cfg_.maxInflight)
            inflightIdx_ = 0;
        if (++robIdx_ == robWindowOps_)
            robIdx_ = 0;
    }

    /** Total execution cycles so far. */
    uint64_t cycles() const;

    /** Instructions retired so far. */
    uint64_t instructions() const { return instructions_; }

    /** Reset to an empty pipeline. */
    void reset();


  private:
    CycleModelConfig cfg_;
    unsigned robWindowOps_;    //!< accesses resident in the ROB window
    uint64_t instructions_ = 0;
    unsigned inflightIdx_ = 0; //!< rolling cursor into inflightRing_
    unsigned robIdx_ = 0;      //!< rolling cursor into robRing_
    uint64_t prevCompletion_ = 0;
    uint64_t lastCompletion_ = 0;
    std::vector<uint64_t> inflightRing_;
    std::vector<uint64_t> robRing_;
};

} // namespace tps::sim

#endif // TPS_SIM_CYCLE_MODEL_HH
