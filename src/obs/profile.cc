#include "obs/profile.hh"

namespace tps::obs {

const char *
profPhaseName(ProfPhase p)
{
    switch (p) {
      case ProfPhase::Setup:
        return "setup";
      case ProfPhase::WorkloadNext:
        return "workload-next";
      case ProfPhase::Translate:
        return "translate";
      case ProfPhase::Walk:
        return "walk";
      case ProfPhase::OsFault:
        return "os-fault";
    }
    return "?";
}

void
ProfileRegistry::merge(const ProfileRegistry &other)
{
    for (unsigned i = 0; i < kProfPhaseCount; ++i) {
        entries_[i].calls += other.entries_[i].calls;
        entries_[i].ns += other.entries_[i].ns;
    }
}

Json
ProfileRegistry::toJson() const
{
    Json j = Json::object();
    for (unsigned i = 0; i < kProfPhaseCount; ++i) {
        Json &e = j[profPhaseName(static_cast<ProfPhase>(i))];
        e["calls"] = entries_[i].calls;
        e["ns"] = entries_[i].ns;
    }
    return j;
}

} // namespace tps::obs
