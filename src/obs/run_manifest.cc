#include "obs/run_manifest.hh"

#include "workloads/registry.hh"

namespace tps::obs {

namespace {

const char *
timingName(sim::TlbTimingMode m)
{
    switch (m) {
      case sim::TlbTimingMode::Real:
        return "real";
      case sim::TlbTimingMode::PerfectL1:
        return "perfect-l1";
      case sim::TlbTimingMode::PerfectL2:
        return "perfect-l2";
    }
    return "?";
}

const char *
aliasModeName(vm::AliasMode m)
{
    switch (m) {
      case vm::AliasMode::Pointer:
        return "pointer";
      case vm::AliasMode::FullCopy:
        return "full-copy";
    }
    return "?";
}

const char *
encodingName(vm::SizeEncoding e)
{
    switch (e) {
      case vm::SizeEncoding::Napot:
        return "napot";
      case vm::SizeEncoding::SizeField:
        return "size-field";
    }
    return "?";
}

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

} // namespace

Json
runOptionsJson(const core::RunOptions &opts)
{
    Json j = Json::object();
    j["workload"] = opts.workload;
    j["design"] = std::string(core::designName(opts.design));
    j["scale"] = opts.scale;
    j["physBytes"] = opts.physBytes;
    j["tpsThreshold"] = opts.tpsThreshold;
    j["smt"] = opts.smt;
    j["virtualized"] = opts.virtualized;
    j["fiveLevel"] = opts.fiveLevel;
    j["noMmuCache"] = opts.noMmuCache;
    j["tpsTlbSkewed"] = opts.tpsTlbSkewed;
    j["fragmented"] = opts.fragmented;
    Json &frag = j["fragmenter"];
    frag["targetFreeFraction"] = opts.fragmenter.targetFreeFraction;
    frag["churnOps"] = opts.fragmenter.churnOps;
    frag["maxBlockOrder"] = opts.fragmenter.maxBlockOrder;
    frag["smallBias"] = opts.fragmenter.smallBias;
    frag["seed"] = opts.fragmenter.seed;
    j["timing"] = std::string(timingName(opts.timing));
    j["aliasMode"] = std::string(aliasModeName(opts.aliasMode));
    j["encoding"] = std::string(encodingName(opts.encoding));
    j["maxAccesses"] = opts.maxAccesses;
    j["epochAccesses"] = opts.epochAccesses;
    j["paranoid"] = opts.paranoid;
    j["checkEvery"] = opts.checkEvery;
    j["cellTimeoutSeconds"] = opts.cellTimeoutSeconds;
    // Emitted only when set: telemetry changes the recorded stat tree
    // (a "mem" section appears), so it is part of cell identity -- but
    // a telemetry-off manifest stays byte-identical to one written
    // before the option existed.
    if (opts.memTelemetry)
        j["memTelemetry"] = true;
    // Likewise footprintBytes: a nonzero override changes the workload
    // (so it must be recorded), while footprint-off manifests stay
    // byte-identical to pre-option ones.
    if (opts.footprintBytes != 0)
        j["footprintBytes"] = opts.footprintBytes;
    if (opts.tpsTlbEntries != core::RunOptions{}.tpsTlbEntries)
        j["tpsTlbEntries"] = opts.tpsTlbEntries;
    // referencePath and chunkAccesses are deliberately absent: they
    // select the chunk size and translate kernel of the one engine
    // loop, never what it computes (the differential suite proves
    // this), and leaving them out keeps manifests from the batched
    // kernel and the per-access oracle byte-identical.  The same
    // goes for denseState: sparse and dense are alternate host
    // representations of identical simulated state (the sparse golden
    // suite proves bit-identical stats), so it is never serialized.
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
    as["encoding"] = std::string(encodingName(cfg.addressSpace.encoding));
    as["aliasMode"] =
        std::string(aliasModeName(cfg.addressSpace.aliasMode));
    as["mmapBase"] = cfg.addressSpace.mmapBase;

    j["timing"] = std::string(timingName(cfg.timing));
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
