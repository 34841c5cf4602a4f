/**
 * @file
 * Simulator self-profiling: wall-clock phase timers for the simulator
 * itself (not the simulated machine).  A ProfileRegistry accumulates
 * per-phase call counts and nanoseconds; ScopedTimer is the RAII
 * collection point the engine and MMU wrap around their phases.
 *
 * Profiling is host-side and therefore non-deterministic; its numbers
 * are reported separately (--profile) and never enter SimStats or run
 * manifests, which stay byte-stable.
 */

#ifndef TPS_OBS_PROFILE_HH
#define TPS_OBS_PROFILE_HH

#include <array>
#include <chrono>
#include <cstdint>

#include "obs/json.hh"

namespace tps::obs {

/**
 * The simulator phases the engine/MMU time.  The engine times whole
 * chunks, never single accesses, so profiling runs the same loop as an
 * unprofiled cell.
 */
enum class ProfPhase : unsigned
{
    Setup,        //!< workload setup (mmap + initialization planning)
    WorkloadNext, //!< generating one chunk of accesses
    Translate,    //!< translating one chunk: MMU, memsys, cycle model
    Walk,         //!< hardware page walks inside Translate
    OsFault,      //!< OS fault handling (allocator) inside Translate
};

constexpr unsigned kProfPhaseCount = 5;

/** Printable phase name ("setup", "workload-next", ...). */
const char *profPhaseName(ProfPhase p);

/** Per-phase accumulator; one per cell, merged for sweep totals. */
class ProfileRegistry
{
  public:
    struct Entry
    {
        uint64_t calls = 0;  //!< times the phase ran
        uint64_t ns = 0;     //!< host nanoseconds spent in the phase
    };

    void
    add(ProfPhase p, uint64_t ns)
    {
        Entry &e = entries_[static_cast<unsigned>(p)];
        ++e.calls;
        e.ns += ns;
    }

    const Entry &
    entry(ProfPhase p) const
    {
        return entries_[static_cast<unsigned>(p)];
    }

    /** Accumulate @p other into this (sweep-wide totals). */
    void merge(const ProfileRegistry &other);


    /** {"<phase>": {"calls": n, "ns": n}, ...} for --profile output. */
    Json toJson() const;

  private:
    std::array<Entry, kProfPhaseCount> entries_{};
};

/**
 * Times one scope into @p reg; a nullptr registry reduces it to two
 * branches, so call sites stay unconditionally instrumented.
 */
class ScopedTimer
{
  public:
    ScopedTimer(ProfileRegistry *reg, ProfPhase phase)
        : reg_(reg), phase_(phase)
    {
        if (reg_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer()
    {
        if (reg_) {
            auto ns = std::chrono::duration_cast<
                          std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
            reg_->add(phase_, static_cast<uint64_t>(ns));
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    ProfileRegistry *reg_;
    ProfPhase phase_;
    std::chrono::steady_clock::time_point start_;
};

} // namespace tps::obs

#endif // TPS_OBS_PROFILE_HH
