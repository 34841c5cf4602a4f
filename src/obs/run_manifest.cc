#include "obs/run_manifest.hh"

#include <type_traits>

#include "workloads/registry.hh"

namespace tps::obs {

namespace {

const char *
tlbDesignName(tlb::TlbDesign d)
{
    switch (d) {
      case tlb::TlbDesign::Baseline:
        return "baseline";
      case tlb::TlbDesign::Tps:
        return "tps";
      case tlb::TlbDesign::Rmm:
        return "rmm";
      case tlb::TlbDesign::Colt:
        return "colt";
    }
    return "?";
}

/** One run option's manifest value: enums by name, numbers and flags
 *  as they are. */
template <typename T>
Json
optionJson(const T &v)
{
    if constexpr (std::is_same_v<T, core::Design>)
        return core::designName(v);
    else if constexpr (std::is_same_v<T, sim::TlbTimingMode>)
        return core::timingName(v);
    else if constexpr (std::is_same_v<T, vm::AliasMode>)
        return core::aliasModeName(v);
    else if constexpr (std::is_same_v<T, vm::SizeEncoding>)
        return core::encodingName(v);
    else
        return Json(v);
}

Json
optionJson(const os::FragmenterConfig &f)
{
    Json j = Json::object();
    j["targetFreeFraction"] = f.targetFreeFraction;
    j["churnOps"] = f.churnOps;
    j["maxBlockOrder"] = f.maxBlockOrder;
    j["smallBias"] = f.smallBias;
    j["seed"] = f.seed;
    return j;
}

} // namespace

Json
runOptionsJson(const core::RunOptions &opts)
{
    static const core::RunOptions defaults;
    Json j = Json::object();
    core::forEachRunOption([&](const auto &row) {
        const auto &value = opts.*row.member;
        if (row.emit == core::OptionEmit::Never ||
            (row.emit == core::OptionEmit::WhenSet &&
             value == defaults.*row.member)) {
            return;
        }
        j[row.key] = optionJson(value);
    });
    return j;
}

Json
engineConfigJson(const sim::EngineConfig &cfg)
{
    Json j = Json::object();

    Json &tlb = j["mmu"]["tlb"];
    tlb["design"] = std::string(tlbDesignName(cfg.mmu.tlb.design));
    tlb["l1SmallEntries"] = cfg.mmu.tlb.l1SmallEntries;
    tlb["l1SmallWays"] = cfg.mmu.tlb.l1SmallWays;
    tlb["l1LargeEntries"] = cfg.mmu.tlb.l1LargeEntries;
    tlb["l1HugeEntries"] = cfg.mmu.tlb.l1HugeEntries;
    tlb["tpsTlbEntries"] = cfg.mmu.tlb.tpsTlbEntries;
    tlb["tpsTlbSkewed"] = cfg.mmu.tlb.tpsTlbSkewed;
    tlb["tpsTlbSkewWays"] = cfg.mmu.tlb.tpsTlbSkewWays;
    tlb["stlbEntries"] = cfg.mmu.tlb.stlbEntries;
    tlb["stlbWays"] = cfg.mmu.tlb.stlbWays;
    tlb["stlbHugeEntries"] = cfg.mmu.tlb.stlbHugeEntries;
    tlb["rangeTlbEntries"] = cfg.mmu.tlb.rangeTlbEntries;
    tlb["coltWays"] = cfg.mmu.tlb.coltWays;

    Json &mc = j["mmu"]["mmuCache"];
    mc["pml4Entries"] = cfg.mmu.mmuCache.pml4Entries;
    mc["pdpteEntries"] = cfg.mmu.mmuCache.pdpteEntries;
    mc["pdeEntries"] = cfg.mmu.mmuCache.pdeEntries;

    Json &walker = j["mmu"]["walker"];
    walker["fiveLevel"] = cfg.mmu.walker.fiveLevel;
    walker["virtualized"] = cfg.mmu.walker.virtualized;
    walker["nestedTlbEntries"] = cfg.mmu.walker.nestedTlbEntries;
    walker["nestedWalkAccesses"] = cfg.mmu.walker.nestedWalkAccesses;

    j["mmu"]["stlbHitPenalty"] = cfg.mmu.stlbHitPenalty;
    j["mmu"]["adBitVector"] = cfg.mmu.adBitVector;
    j["mmu"]["adVectorBits"] = cfg.mmu.adVectorBits;

    Json &mem = j["memsys"];
    mem["lineBytes"] = cfg.memsys.lineBytes;
    mem["l1Bytes"] = cfg.memsys.l1Bytes;
    mem["l1Ways"] = cfg.memsys.l1Ways;
    mem["l1LatencyCycles"] = cfg.memsys.l1LatencyCycles;
    mem["llcBytes"] = cfg.memsys.llcBytes;
    mem["llcWays"] = cfg.memsys.llcWays;
    mem["llcLatencyCycles"] = cfg.memsys.llcLatencyCycles;
    mem["dramLatencyCycles"] = cfg.memsys.dramLatencyCycles;

    Json &cycle = j["cycle"];
    cycle["width"] = cfg.cycle.width;
    cycle["robSize"] = cfg.cycle.robSize;
    cycle["maxInflight"] = cfg.cycle.maxInflight;
    cycle["instsPerAccess"] = cfg.cycle.instsPerAccess;

    Json &as = j["addressSpace"];
    as["encoding"] =
        std::string(core::encodingName(cfg.addressSpace.encoding));
    as["aliasMode"] =
        std::string(core::aliasModeName(cfg.addressSpace.aliasMode));
    as["mmapBase"] = cfg.addressSpace.mmapBase;

    j["timing"] = std::string(core::timingName(cfg.timing));
    j["maxAccesses"] = cfg.maxAccesses;
    j["epochAccesses"] = cfg.epochAccesses;
    j["checkEveryAccesses"] = cfg.checkEveryAccesses;
    j["timeoutSeconds"] = cfg.timeoutSeconds;
    return j;
}

Json
cellJson(const CellArtifact &cell, bool includeHost)
{
    if (!cell.restored.isNull()) {
        // A cell --resume carried over: re-emit the prior manifest's
        // pure cell JSON verbatim so a resumed sweep's manifest is
        // byte-identical to an uninterrupted one.
        Json j = cell.restored;
        if (includeHost) {
            j["wallSeconds"] = cell.wallSeconds;
            j["resumed"] = true;
            j["attempts"] = uint64_t(cell.attempts);
        }
        return j;
    }

    const core::RunOptions &opts = cell.options;
    Json j = Json::object();

    auto workload =
        workloads::makeWorkload(opts.workload, opts.scale,
                                core::runSeed(opts),
                                opts.footprintBytes);
    Json &w = j["workload"];
    w["name"] = workload->info().name;
    w["description"] = workload->info().description;
    w["footprintBytes"] = workload->info().footprintBytes;
    w["defaultAccesses"] = workload->info().defaultAccesses;
    w["instsPerAccess"] = workload->info().instsPerAccess;

    j["design"] = std::string(core::designName(opts.design));
    j["seed"] = core::runSeed(opts);
    j["options"] = runOptionsJson(opts);
    j["engineConfig"] = engineConfigJson(core::makeEngineConfig(opts));
    j["status"] = std::string(core::cellStatusName(cell.status));
    if (cell.status != core::CellStatus::Ok) {
        j["error"] = cell.error;
        j["errorKind"] = cell.errorKind;
    }
    j["stats"] = cell.stats.toJson();
    if (includeHost) {
        j["wallSeconds"] = cell.wallSeconds;
        j["attempts"] = uint64_t(cell.attempts);
    }
    return j;
}

Json
manifestJson(const ManifestInfo &info,
             const std::vector<CellArtifact> &cells)
{
    Json j = Json::object();
    j["format"] = std::string("tps-run-manifest");
    j["version"] = uint64_t(2);
    j["bench"] = info.bench;
    if (info.includeHost) {
        Json &host = j["host"];
        host["jobs"] = info.jobs;
        host["wallSeconds"] = info.wallSeconds;
        if (!info.shard.isNull())
            host["shard"] = info.shard;
    }
    Json cellsJson = Json::array();
    for (const CellArtifact &cell : cells)
        cellsJson.push(cellJson(cell, info.includeHost));
    j["cells"] = std::move(cellsJson);
    return j;
}

void
writeManifest(const std::string &path, const ManifestInfo &info,
              const std::vector<CellArtifact> &cells)
{
    writeJsonFile(path, manifestJson(info, cells));
}

} // namespace tps::obs
