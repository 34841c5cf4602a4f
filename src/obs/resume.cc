#include "obs/resume.hh"

#include "obs/shard.hh"
#include "obs/stats_bindings.hh"
#include "util/sim_error.hh"

namespace tps::obs {

bool
ResumeLog::load(const std::string &path)
{
    cells_.clear();
    error_.clear();
    MergeResult merged;
    try {
        merged = mergeManifests({readJsonFile(path)}, {path});
    } catch (const SimError &e) {
        error_ = e.what();
        return false;
    }
    const Json &cells = merged.manifest.at("cells");
    for (size_t i = 0; i < cells.size(); ++i) {
        if (!merged.cellKeys[i].ok)
            continue;
        const Json &cell = cells.at(i);
        try {
            cells_.emplace(merged.cellKeys[i].id,
                           ResumedCell{cell, cellStats(cell)});
        } catch (const SimError &e) {
            cells_.clear();
            error_ = core::cellLabel(cell.at("options")) + ": " + e.what();
            return false;
        }
    }
    return true;
}

const ResumedCell *
ResumeLog::find(const core::RunOptions &opts) const
{
    auto it = cells_.find(identityHash(cellIdentity(opts)));
    return it == cells_.end() ? nullptr : &it->second;
}

} // namespace tps::obs
