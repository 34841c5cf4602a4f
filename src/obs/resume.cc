#include "obs/resume.hh"

#include "obs/shard.hh"
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
        if (merged.cellKeys[i].ok)
            cells_.emplace(merged.cellKeys[i].id, cells.at(i));
    }
    return true;
}

const Json *
ResumeLog::find(const core::RunOptions &opts) const
{
    auto it = cells_.find(identityHash(cellIdentity(opts)));
    return it == cells_.end() ? nullptr : &it->second;
}

} // namespace tps::obs
