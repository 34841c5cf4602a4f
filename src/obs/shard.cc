#include "obs/shard.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>

#include "obs/run_manifest.hh"
#include "util/parse.hh"
#include "util/rng.hh"
#include "util/sim_error.hh"

namespace tps::obs {

const char *
toolVersion()
{
    // Bumped when manifest, provenance or merge semantics change.
    return "tps-tools 1.0";
}

// ---------------------------------------------------------------------
// Cell identity.
// ---------------------------------------------------------------------

namespace {

/** 16-hex-digit rendering of a 64-bit hash. */
std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::string
cellIdentityFromJson(const Json &options, uint64_t seed)
{
    // Reset the Canonical options to their defaults.  Older (v1)
    // manifests lack the keys entirely; operator[] appends them in the
    // order runOptionsJson() emits, so the canonical dumps still line up.
    static const Json defaults = runOptionsJson(core::RunOptions{});
    Json canonical = options;
    core::forEachRunOption([&](const auto &row) {
        if (row.identity == core::OptionIdentity::Canonical)
            canonical[row.key] = defaults.at(row.key);
    });
    return canonical.dump() + "#" + std::to_string(seed);
}

std::string
cellIdentity(const core::RunOptions &opts)
{
    return cellIdentityFromJson(runOptionsJson(opts),
                                core::runSeed(opts));
}

uint64_t
identityHash(const std::string &identity)
{
    return tps::stableHash64(identity);
}

bool
isHostOnlyCellKey(const std::string &key)
{
    return key == "wallSeconds" || key == "resumed" || key == "attempts";
}

Json
pureCellJson(const Json &cell)
{
    Json pure = Json::object();
    for (const auto &[name, value] : cell.members()) {
        if (!isHostOnlyCellKey(name))
            pure[name] = value;
    }
    return pure;
}

// ---------------------------------------------------------------------
// Shard specification and planning.
// ---------------------------------------------------------------------

bool
parseShardSpec(const std::string &text, ShardSpec *out)
{
    size_t slash = text.find('/');
    if (slash == std::string::npos ||
        text.find('/', slash + 1) != std::string::npos) {
        return false;
    }
    uint64_t index = 0, count = 0;
    if (!parseU64(text.substr(0, slash).c_str(), &index) ||
        !parseU64(text.substr(slash + 1).c_str(), &count)) {
        return false;
    }
    if (count == 0 || count > kMaxShards || index >= count)
        return false;
    out->index = static_cast<unsigned>(index);
    out->count = static_cast<unsigned>(count);
    return true;
}

bool
ShardPlan::planCell(const core::RunOptions &opts)
{
    Json options = runOptionsJson(opts);
    PlannedUnit unit;
    unit.label = core::cellLabel(options);
    unit.seed = core::runSeed(opts);
    unit.id = identityHash(cellIdentityFromJson(options, unit.seed));
    unit.shard = static_cast<unsigned>(unit.id % spec_.count);
    bool owned = unit.shard == spec_.index;
    if (owned)
        ++owned_;
    grid_.push_back(std::move(unit));
    return owned;
}

std::string
ShardPlan::gridFingerprint() const
{
    // Hash over the ordered unit ids: equal exactly when two plans
    // registered the same cells in the same order.  The 'c' after each
    // id keeps fingerprints equal to those of older plans, which
    // tagged cell and pipeline units apart.
    std::string bytes;
    bytes.reserve(grid_.size() * 17);
    for (const PlannedUnit &unit : grid_) {
        bytes += hex64(unit.id);
        bytes += 'c';
    }
    return hex64(tps::stableHash64(bytes));
}

Json
ShardPlan::provenanceJson() const
{
    Json j = Json::object();
    j["index"] = spec_.index;
    j["count"] = spec_.count;
    j["gridFingerprint"] = gridFingerprint();
    j["toolVersion"] = std::string(toolVersion());
    Json grid = Json::array();
    for (const PlannedUnit &unit : grid_) {
        Json u = Json::object();
        u["label"] = unit.label;
        u["seed"] = unit.seed;
        u["id"] = unit.id;
        u["shard"] = unit.shard;
        grid.push(std::move(u));
    }
    j["grid"] = std::move(grid);
    return j;
}

// ---------------------------------------------------------------------
// Merging partial manifests.
// ---------------------------------------------------------------------

namespace {

/** Shard provenance extracted from one input manifest. */
struct InputProv
{
    bool has = false;
    unsigned index = 0;
    unsigned count = 1;
    std::string fingerprint;
    const Json *grid = nullptr;
};

/** One occurrence of a cell across the input manifests. */
struct CellCopy
{
    Json pure;
    std::string status;
    uint64_t seed = 0;
    uint64_t id = 0;
    std::string label;
    size_t source = 0;
};

InputProv
provOf(const Json &manifest, const std::string &source)
{
    InputProv prov;
    const Json *host = manifest.find("host");
    const Json *shard = host ? host->find("shard") : nullptr;
    if (!shard)
        return prov;
    using K = Json::Kind;
    auto is = [](const Json *v, K kind) { return v && v->kind() == kind; };
    const Json *index = shard->find("index");
    const Json *count = shard->find("count");
    const Json *fp = shard->find("gridFingerprint");
    const Json *grid = shard->find("grid");
    bool ok = is(index, K::UInt) && is(count, K::UInt) &&
              is(fp, K::String) && is(grid, K::Array);
    for (size_t u = 0; ok && u < grid->size(); ++u) {
        const Json &unit = grid->at(u);
        ok = is(unit.find("label"), K::String) &&
             is(unit.find("seed"), K::UInt) &&
             is(unit.find("id"), K::UInt) && is(unit.find("shard"), K::UInt);
    }
    if (!ok) {
        throwSimError(ErrorKind::InvalidArgument,
                      "%s has a malformed host.shard section",
                      source.c_str());
    }
    prov.has = true;
    prov.index = static_cast<unsigned>(index->asUInt());
    prov.count = static_cast<unsigned>(count->asUInt());
    prov.fingerprint = fp->asString();
    prov.grid = grid;
    if (prov.count == 0 || prov.index >= prov.count) {
        throwSimError(ErrorKind::InvalidArgument,
                      "%s claims shard %u of %u, which is not a valid "
                      "shard", source.c_str(), prov.index, prov.count);
    }
    return prov;
}

/**
 * Pick the copy the merged manifest keeps: the first "ok" occurrence
 * in input order, else the first occurrence.  Two ok copies with
 * different pure bytes mean the same cell produced different results
 * in different runs -- a determinism violation, rejected hard unless
 * @p conflicts collects them (the first ok copy is kept).
 */
const CellCopy &
chooseCopy(const std::vector<const CellCopy *> &copies,
           const std::vector<std::string> &sources,
           std::vector<std::string> *conflicts)
{
    const CellCopy *best = nullptr;
    for (const CellCopy *copy : copies) {
        if (copy->status != "ok")
            continue;
        if (!best) {
            best = copy;
        } else if (best->pure.dump() != copy->pure.dump()) {
            if (conflicts) {
                conflicts->push_back(copy->label);
                continue;
            }
            throwSimError(
                ErrorKind::InvalidArgument,
                "cell %s (seed %llu) differs between %s and %s -- "
                "nondeterministic run or mismatched configs",
                copy->label.c_str(),
                static_cast<unsigned long long>(copy->seed),
                sources[best->source].c_str(),
                sources[copy->source].c_str());
        }
    }
    return best ? *best : *copies.front();
}

} // namespace

MergeResult
mergeManifests(const std::vector<Json> &manifests,
               const std::vector<std::string> &sources, bool keepFirstOk)
{
    if (manifests.empty()) {
        throwSimError(ErrorKind::InvalidArgument,
                      "no manifests to merge");
    }

    MergeResult res;
    std::vector<InputProv> provs(manifests.size());
    size_t shardedInputs = 0;
    for (size_t i = 0; i < manifests.size(); ++i) {
        const Json &m = manifests[i];
        const Json *format = m.find("format");
        const Json *bench = m.find("bench");
        if (!format || format->kind() != Json::Kind::String ||
            format->asString() != "tps-run-manifest" ||
            (bench && bench->kind() != Json::Kind::String)) {
            throwSimError(ErrorKind::InvalidArgument,
                          "%s is not a tps-run-manifest file",
                          sources[i].c_str());
        }
        std::string name = bench ? bench->asString() : "";
        if (i == 0) {
            res.bench = name;
        } else if (res.bench != name) {
            throwSimError(ErrorKind::InvalidArgument,
                          "bench mismatch: %s is '%s' but %s is '%s'",
                          sources[0].c_str(), res.bench.c_str(),
                          sources[i].c_str(), name.c_str());
        }
        provs[i] = provOf(m, sources[i]);
        if (provs[i].has)
            ++shardedInputs;
    }
    if (shardedInputs != 0 && shardedInputs != manifests.size()) {
        throwSimError(ErrorKind::InvalidArgument,
                      "cannot mix sharded and unsharded manifests "
                      "(%zu of %zu inputs carry shard provenance)",
                      shardedInputs, manifests.size());
    }
    bool sharded = shardedInputs != 0;

    // Sharded inputs must all describe the same partition of the same
    // grid; the first input's provenance is the reference.
    const Json *refGrid = nullptr;
    if (sharded) {
        res.shardCount = provs[0].count;
        res.gridFingerprint = provs[0].fingerprint;
        refGrid = provs[0].grid;
        std::string refGridDump = refGrid->dump();
        std::set<unsigned> present;
        for (size_t i = 0; i < provs.size(); ++i) {
            if (provs[i].count != res.shardCount) {
                throwSimError(ErrorKind::InvalidArgument,
                              "shard count mismatch: %s says %u shards "
                              "but %s says %u",
                              sources[0].c_str(), res.shardCount,
                              sources[i].c_str(), provs[i].count);
            }
            if (provs[i].fingerprint != res.gridFingerprint) {
                throwSimError(
                    ErrorKind::InvalidArgument,
                    "grid fingerprint mismatch: %s (%s) and %s (%s) "
                    "come from different sweeps -- foreign partial",
                    sources[0].c_str(), res.gridFingerprint.c_str(),
                    sources[i].c_str(), provs[i].fingerprint.c_str());
            }
            if (i != 0 && provs[i].grid->dump() != refGridDump) {
                throwSimError(ErrorKind::InvalidArgument,
                              "planned grid mismatch between %s and %s "
                              "despite equal fingerprints",
                              sources[0].c_str(), sources[i].c_str());
            }
            present.insert(provs[i].index);
        }
        res.shardsPresent.assign(present.begin(), present.end());
        for (unsigned s = 0; s < res.shardCount; ++s) {
            if (!present.count(s))
                res.shardsMissing.push_back(s);
        }
    }

    // Index the reference grid: unit id -> owning shard.
    std::vector<PlannedUnit> grid;
    std::map<uint64_t, unsigned> owners;
    if (refGrid) {
        for (size_t i = 0; i < refGrid->size(); ++i) {
            const Json &u = refGrid->at(i);
            PlannedUnit unit;
            unit.label = u.at("label").asString();
            unit.seed = u.at("seed").asUInt();
            unit.id = u.at("id").asUInt();
            unit.shard = static_cast<unsigned>(u.at("shard").asUInt());
            owners.emplace(unit.id, unit.shard);
            grid.push_back(std::move(unit));
        }
    }

    // Gather every cell occurrence, verifying shard ownership as we go.
    // A cell without a seed (a hand-written manifest) joins as seed 0.
    std::vector<CellCopy> all;  // every occurrence, in input order
    std::map<uint64_t, std::vector<const CellCopy *>> pool;
    std::vector<uint64_t> appearance;  // first-appearance order (unsharded)
    for (size_t i = 0; i < manifests.size(); ++i) {
        const Json *cells = manifests[i].find("cells");
        if (!cells || cells->kind() != Json::Kind::Array) {
            throwSimError(ErrorKind::InvalidArgument,
                          "%s has no cells array", sources[i].c_str());
        }
        for (size_t c = 0; c < cells->size(); ++c) {
            const Json &cell = cells->at(c);
            const Json *options = cell.find("options");
            const Json *seed = cell.find("seed");
            const Json *status = cell.find("status");
            if (!options || (seed && seed->kind() != Json::Kind::UInt) ||
                (status && status->kind() != Json::Kind::String)) {
                throwSimError(ErrorKind::InvalidArgument,
                              "cell %zu in %s has no options, or a bad "
                              "seed or status", c, sources[i].c_str());
            }
            CellCopy copy;
            copy.pure = pureCellJson(cell);
            copy.status = status ? status->asString() : "ok";
            copy.seed = seed ? seed->asUInt() : 0;
            copy.label = core::cellLabel(*options);
            copy.source = i;
            copy.id =
                identityHash(cellIdentityFromJson(*options, copy.seed));

            if (sharded) {
                // Every recorded cell must be a planned unit owned by
                // the shard that wrote it.
                auto owner_it = owners.find(copy.id);
                if (owner_it == owners.end()) {
                    throwSimError(
                        ErrorKind::InvalidArgument,
                        "cell %s (seed %llu) in %s is not part of the "
                        "sharded grid -- foreign cell",
                        copy.label.c_str(),
                        static_cast<unsigned long long>(copy.seed),
                        sources[i].c_str());
                }
                unsigned owner = owner_it->second;
                if (owner != provs[i].index) {
                    throwSimError(
                        ErrorKind::InvalidArgument,
                        "cell %s (seed %llu) belongs to shard %u/%u "
                        "but appears in %s (shard %u) -- overlapping "
                        "partials",
                        copy.label.c_str(),
                        static_cast<unsigned long long>(copy.seed),
                        owner, res.shardCount, sources[i].c_str(),
                        provs[i].index);
                }
            }
            all.push_back(std::move(copy));
        }
    }
    for (const CellCopy &copy : all) {
        if (!pool.count(copy.id))
            appearance.push_back(copy.id);
        pool[copy.id].push_back(&copy);
    }

    // Emit the merged cells in canonical order and account for holes.
    Json merged = Json::object();
    merged["format"] = std::string("tps-run-manifest");
    merged["version"] = uint64_t(2);
    merged["bench"] = res.bench;
    Json out = Json::array();

    auto emit = [&](const CellCopy &copy, int ownerShard) {
        ++res.cells;
        res.cellKeys.push_back({copy.id, copy.status == "ok"});
        if (copy.status == "ok") {
            ++res.okCells;
        } else {
            res.holes.push_back({copy.label, copy.seed, copy.status,
                                 ownerShard, sources[copy.source]});
        }
        out.push(copy.pure);
    };
    auto emitChosen = [&](const std::vector<const CellCopy *> &copies,
                          int ownerShard) {
        res.duplicates += copies.size() - 1;
        emit(chooseCopy(copies, sources,
                        keepFirstOk ? &res.conflicts : nullptr),
             ownerShard);
    };

    if (sharded) {
        for (const PlannedUnit &unit : grid) {
            auto it = pool.find(unit.id);
            if (it == pool.end()) {
                res.holes.push_back({unit.label, unit.seed, "missing",
                                     int(unit.shard), ""});
                continue;
            }
            emitChosen(it->second, int(unit.shard));
        }
    } else if (manifests.size() == 1) {
        // Canonicalization of one manifest: purify every cell in
        // place, preserving order and duplicates exactly.
        for (const CellCopy &copy : all)
            emit(copy, -1);
    } else {
        // Plain join of unsharded manifests: dedup by identity in
        // first-appearance order, first ok occurrence wins.
        for (uint64_t id : appearance)
            emitChosen(pool.at(id), -1);
    }
    merged["cells"] = std::move(out);
    res.manifest = std::move(merged);
    return res;
}

// ---------------------------------------------------------------------
// Cross-shard run health.
// ---------------------------------------------------------------------

namespace {

std::string
fmtShort(double s)
{
    char buf[32];
    if (s < 60.0)
        std::snprintf(buf, sizeof(buf), "%.1fs", s);
    else
        std::snprintf(buf, sizeof(buf), "%dm%02ds", int(s) / 60,
                      int(s) % 60);
    return buf;
}

std::string
fmtRss(uint64_t bytes)
{
    char buf[32];
    if (bytes >= (1ull << 30)) {
        std::snprintf(buf, sizeof(buf), "%.1fG",
                      double(bytes) / double(1ull << 30));
    } else {
        std::snprintf(buf, sizeof(buf), "%.0fM",
                      double(bytes) / double(1ull << 20));
    }
    return buf;
}

} // namespace

HealthView
buildHealthView(const std::vector<Json> &beats,
                const std::vector<std::string> &sources,
                uint64_t nowUnixMs)
{
    HealthView view;
    std::map<unsigned, std::pair<ShardHealth, uint64_t>> byIndex;
    for (size_t i = 0; i < beats.size(); ++i) {
        const Json &b = beats[i];
        const Json *format = b.find("format");
        if (!format || format->kind() != Json::Kind::String ||
            format->asString() != "tps-heartbeat") {
            continue;
        }
        auto u64 = [&](const char *key) -> uint64_t {
            const Json *v = b.find(key);
            return v && v->kind() == Json::Kind::UInt ? v->asUInt() : 0;
        };
        auto f64 = [&](const char *key, double dflt) {
            const Json *v = b.find(key);
            return v && v->kind() != Json::Kind::Null ? v->asDouble()
                                                      : dflt;
        };
        ShardHealth h;
        if (const Json *shard = b.find("shard")) {
            h.index = static_cast<unsigned>(shard->at("index").asUInt());
            h.count = static_cast<unsigned>(shard->at("count").asUInt());
            if (const Json *fp = shard->find("gridFingerprint"))
                h.gridFingerprint = fp->asString();
        }
        if (const Json *bench = b.find("bench"))
            h.bench = bench->asString();
        if (const Json *last = b.find("lastCell"))
            h.lastCell = last->asString();
        h.source = i < sources.size() ? sources[i] : "";
        h.planned = u64("planned");
        h.done = u64("done");
        h.failed = u64("failed");
        h.retried = u64("retried");
        h.elapsedSeconds = f64("elapsedSeconds", 0.0);
        h.cellsPerSec = f64("cellsPerSec", 0.0);
        h.etaSeconds = f64("etaSeconds", 0.0);
        h.rssPeakBytes = u64("rssPeakBytes");
        const Json *fin = b.find("finished");
        h.finished = fin && fin->kind() == Json::Kind::Bool &&
                     fin->asBool();
        double interval = f64("intervalSeconds", 5.0);
        uint64_t updated = u64("updatedUnixMs");
        h.ageSeconds = updated && nowUnixMs > updated
                           ? double(nowUnixMs - updated) / 1e3
                           : 0.0;
        if (h.finished) {
            h.state = "done";
        } else if (h.ageSeconds >
                   std::max(10.0 * interval, 30.0)) {
            h.state = "dead";
        } else if (h.ageSeconds > std::max(3.0 * interval, 10.0)) {
            h.state = "stalled";
        } else {
            h.state = "running";
        }

        auto [it, inserted] =
            byIndex.emplace(h.index, std::make_pair(h, updated));
        // The freshest heartbeat wins when two files claim one shard.
        if (!inserted && updated > it->second.second)
            it->second = {h, updated};
    }

    std::set<std::string> fingerprints;
    for (auto &[index, entry] : byIndex) {
        ShardHealth &h = entry.first;
        view.shardCount = std::max(view.shardCount, h.count);
        view.planned += h.planned;
        view.done += h.done;
        view.failed += h.failed;
        if (h.state == "stalled" || h.state == "dead")
            view.anyStalled = true;
        if (!h.gridFingerprint.empty())
            fingerprints.insert(h.gridFingerprint);
        view.shards.push_back(h);
    }
    view.fingerprintMismatch = fingerprints.size() > 1;
    for (unsigned s = 0; s < view.shardCount; ++s) {
        if (!byIndex.count(s))
            view.missingShards.push_back(s);
    }
    view.allFinished = view.missingShards.empty() && !view.shards.empty();
    for (const ShardHealth &h : view.shards)
        view.allFinished = view.allFinished && h.finished;
    return view;
}

std::string
HealthView::render() const
{
    std::string out;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-8s %-8s %13s %7s %8s %8s %8s %7s %6s  %s\n",
                  "shard", "state", "done/planned", "failed", "retried",
                  "cells/s", "eta", "rss", "age", "last cell");
    out += line;
    for (const ShardHealth &h : shards) {
        char progress[32];
        std::snprintf(progress, sizeof(progress), "%llu/%llu",
                      static_cast<unsigned long long>(h.done),
                      static_cast<unsigned long long>(h.planned));
        std::snprintf(line, sizeof(line),
                      "%-8s %-8s %13s %7llu %8llu %8.2f %8s %7s %6s  %s\n",
                      (std::to_string(h.index) + "/" +
                       std::to_string(h.count))
                          .c_str(),
                      h.state.c_str(), progress,
                      static_cast<unsigned long long>(h.failed),
                      static_cast<unsigned long long>(h.retried),
                      h.cellsPerSec,
                      h.finished ? "-" : fmtShort(h.etaSeconds).c_str(),
                      fmtRss(h.rssPeakBytes).c_str(),
                      fmtShort(h.ageSeconds).c_str(),
                      h.lastCell.c_str());
        out += line;
    }
    double pct = planned
                     ? 100.0 * double(done) / double(planned)
                     : 0.0;
    std::snprintf(line, sizeof(line),
                  "total: %llu/%llu cells (%.1f%%), %llu failed; "
                  "%zu/%u shards reporting",
                  static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(planned), pct,
                  static_cast<unsigned long long>(failed),
                  shards.size(), shardCount);
    out += line;
    if (!missingShards.empty()) {
        out += "; no heartbeat from shard";
        for (unsigned s : missingShards)
            out += " " + std::to_string(s);
    }
    if (fingerprintMismatch)
        out += "; WARNING: shards disagree on the grid fingerprint";
    if (anyStalled)
        out += "; WARNING: stalled or dead shards";
    out += "\n";
    return out;
}

Json
HealthView::toJson() const
{
    Json j = Json::object();
    j["format"] = std::string("tps-health");
    j["shardCount"] = shardCount;
    j["planned"] = planned;
    j["done"] = done;
    j["failed"] = failed;
    j["allFinished"] = allFinished;
    j["anyStalled"] = anyStalled;
    j["fingerprintMismatch"] = fingerprintMismatch;
    Json missing = Json::array();
    for (unsigned s : missingShards)
        missing.push(uint64_t(s));
    j["missingShards"] = std::move(missing);
    Json arr = Json::array();
    for (const ShardHealth &h : shards) {
        Json s = Json::object();
        s["index"] = h.index;
        s["count"] = h.count;
        s["bench"] = h.bench;
        s["state"] = h.state;
        s["planned"] = h.planned;
        s["done"] = h.done;
        s["failed"] = h.failed;
        s["retried"] = h.retried;
        s["elapsedSeconds"] = h.elapsedSeconds;
        s["cellsPerSec"] = h.cellsPerSec;
        s["etaSeconds"] = h.etaSeconds;
        s["rssPeakBytes"] = h.rssPeakBytes;
        s["ageSeconds"] = h.ageSeconds;
        s["finished"] = h.finished;
        s["lastCell"] = h.lastCell;
        s["gridFingerprint"] = h.gridFingerprint;
        s["source"] = h.source;
        arr.push(std::move(s));
    }
    j["shards"] = std::move(arr);
    return j;
}

} // namespace tps::obs
