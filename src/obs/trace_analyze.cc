#include "obs/trace_analyze.hh"

#include <algorithm>

#include "core/tps_system.hh"
#include "obs/stats_bindings.hh"
#include "util/sim_error.hh"

namespace tps::obs {

namespace {

constexpr uint64_t kRegionMask = ~uint64_t{0xfff};  // 4 KB regions

/** Index of the first measured-phase event (after the last Mark). */
size_t
measuredStart(const std::vector<Event> &events)
{
    for (size_t i = events.size(); i > 0; --i) {
        if (events[i - 1].type == EventType::Mark)
            return i;
    }
    return 0;
}

} // namespace

CellAnalysis
analyzeCell(const TraceCell &cell)
{
    CellAnalysis a;
    a.label = cell.label;
    a.seed = cell.seed;

    // Walk latencies rarely exceed a few hundred cycles; anything past
    // 1M cycles is bogus enough to quarantine in the overflow bucket.
    a.walkLatency.setLimits(0, 1u << 20);

    const std::vector<Event> &events = cell.events;
    if (!events.empty())
        a.accesses = events.back().time;

    // VMA geometry comes from the whole stream: most OsMap events are
    // setup-time (time 0) and the measured loop below must be able to
    // attribute misses to them.
    std::map<uint64_t, VmaBreakdown> vmas;
    for (const Event &e : events) {
        switch (e.type) {
          case EventType::OsMap: {
            ++a.osMaps;
            VmaBreakdown &v = vmas[e.b];
            v.vmaId = e.b;
            v.base = e.va;
            v.bytes = e.a;
            break;
          }
          case EventType::OsUnmap:
            ++a.osUnmaps;
            break;
          case EventType::OsFault:
            ++a.osFaults;
            break;
          case EventType::OsReserve:
            ++a.osReserves;
            break;
          case EventType::OsPromote:
            ++a.osPromotes;
            break;
          case EventType::OsCompactMove:
            ++a.osCompactMoves;
            break;
          case EventType::TlbShootdown:
            ++a.tlbShootdowns;
            break;
          case EventType::TlbFlush:
            ++a.tlbFlushes;
            break;
          default:
            break;
        }
    }

    size_t start = measuredStart(events);
    // The first measured miss's interarrival counts from the warmup
    // boundary (the Mark's timestamp), not from time 0.
    uint64_t prev_miss_time = start > 0 ? events[start - 1].time : 0;

    std::map<uint64_t, PageSizeBreakdown> sizes;
    std::map<uint64_t, HotRegion> regions;

    for (size_t i = start; i < events.size(); ++i) {
        const Event &e = events[i];
        switch (e.type) {
          case EventType::TlbMiss: {
            ++a.tlbMisses;
            bool walked = e.a != 0;
            if (walked)
                ++a.walks;
            else
                ++a.l2Hits;

            PageSizeBreakdown &ps = sizes[e.b];
            ps.pageBits = e.b;
            ++ps.misses;

            VmaBreakdown &v = vmas[e.c];
            v.vmaId = e.c;
            ++v.misses;
            if (walked)
                ++v.walks;

            HotRegion &r = regions[e.va & kRegionMask];
            r.base = e.va & kRegionMask;
            ++r.misses;
            if (walked) {
                ++r.walks;
                a.walkLatency.add(e.d);
            }

            a.missInterarrival.add(e.time - prev_miss_time);
            prev_miss_time = e.time;
            break;
          }
          case EventType::Walk: {
            ++a.walkEvents;
            a.walkMemRefs += e.a;
            a.walkHitDepth.add(e.b);
            if (e.c)
                ++a.walkFaults;
            PageSizeBreakdown &ps = sizes[e.d];
            ps.pageBits = e.d;
            ++ps.walks;
            ps.walkMemRefs += e.a;
            break;
          }
          default:
            break;
        }
    }

    a.perPageSize.reserve(sizes.size());
    for (auto &[bits, ps] : sizes)
        a.perPageSize.push_back(ps);

    a.perVma.reserve(vmas.size());
    for (auto &[id, v] : vmas)
        a.perVma.push_back(v);

    a.hotRegions.reserve(regions.size());
    for (auto &[base, r] : regions)
        a.hotRegions.push_back(r);
    std::sort(a.hotRegions.begin(), a.hotRegions.end(),
              [](const HotRegion &x, const HotRegion &y) {
                  if (x.misses != y.misses)
                      return x.misses > y.misses;
                  return x.base < y.base;
              });
    return a;
}

const Json *
findManifestCell(const Json &manifest, const std::string &label,
                 uint64_t seed)
{
    const Json *cells = manifest.find("cells");
    if (!cells)
        return nullptr;
    for (size_t i = 0; i < cells->size(); ++i) {
        const Json &cell = cells->at(i);
        if (cell.at("seed").asUInt() == seed &&
            core::cellLabel(cell.at("options")) == label) {
            return &cell;
        }
    }
    return nullptr;
}

std::vector<ResidualRow>
residualMisses(const CellAnalysis &a, const Json *manifestCell)
{
    if (manifestCell) {
        uint64_t counted = cellStats(*manifestCell).mmu.l1Misses;
        if (counted != a.tlbMisses) {
            throwSimError(
                ErrorKind::CorruptState,
                "trace/manifest mismatch for %s seed %llu: trace has "
                "%llu measured TLB-miss events, manifest counted %llu",
                a.label.c_str(), (unsigned long long)a.seed,
                (unsigned long long)a.tlbMisses,
                (unsigned long long)counted);
        }
    }

    std::vector<ResidualRow> rows;
    rows.reserve(a.perPageSize.size());
    for (const PageSizeBreakdown &ps : a.perPageSize) {
        if (ps.misses == 0)
            continue;
        ResidualRow row;
        row.pageBits = ps.pageBits;
        row.misses = ps.misses;
        row.shareOfMisses = ratio(ps.misses, a.tlbMisses);
        row.walkRefShare = ratio(ps.walkMemRefs, a.walkMemRefs);
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const ResidualRow &x, const ResidualRow &y) {
                  if (x.misses != y.misses)
                      return x.misses > y.misses;
                  return x.pageBits < y.pageBits;
              });
    return rows;
}

namespace {

Json
histogramJson(const Histogram &h)
{
    Json j = Json::object();
    j["total"] = h.total();
    if (h.total() > 0) {
        j["p50"] = h.p50();
        j["p95"] = h.p95();
        j["p99"] = h.p99();
    }
    if (h.underflow() || h.overflow()) {
        j["underflow"] = h.underflow();
        j["overflow"] = h.overflow();
    }
    Json buckets = Json::object();
    for (const auto &[key, count] : h.buckets())
        buckets[std::to_string(key)] = count;
    j["buckets"] = std::move(buckets);
    return j;
}

} // namespace

Json
analysisToJson(const CellAnalysis &a, size_t topRegions)
{
    Json j = Json::object();
    j["label"] = a.label;
    j["seed"] = a.seed;
    j["accesses"] = a.accesses;
    j["tlbMisses"] = a.tlbMisses;
    j["l2Hits"] = a.l2Hits;
    j["walks"] = a.walks;
    j["walkEvents"] = a.walkEvents;
    j["walkMemRefs"] = a.walkMemRefs;
    j["walkFaults"] = a.walkFaults;

    Json &os = j["os"];
    os["maps"] = a.osMaps;
    os["unmaps"] = a.osUnmaps;
    os["faults"] = a.osFaults;
    os["reserves"] = a.osReserves;
    os["promotes"] = a.osPromotes;
    os["compactMoves"] = a.osCompactMoves;
    os["tlbShootdowns"] = a.tlbShootdowns;
    os["tlbFlushes"] = a.tlbFlushes;

    Json sizes = Json::array();
    for (const PageSizeBreakdown &ps : a.perPageSize) {
        Json row = Json::object();
        row["pageBits"] = ps.pageBits;
        row["misses"] = ps.misses;
        row["walks"] = ps.walks;
        row["walkMemRefs"] = ps.walkMemRefs;
        sizes.push(std::move(row));
    }
    j["perPageSize"] = std::move(sizes);

    Json vmas = Json::array();
    for (const VmaBreakdown &v : a.perVma) {
        Json row = Json::object();
        row["vmaId"] = v.vmaId;
        row["base"] = v.base;
        row["bytes"] = v.bytes;
        row["misses"] = v.misses;
        row["walks"] = v.walks;
        vmas.push(std::move(row));
    }
    j["perVma"] = std::move(vmas);

    Json hot = Json::array();
    size_t n = std::min(topRegions, a.hotRegions.size());
    for (size_t i = 0; i < n; ++i) {
        const HotRegion &r = a.hotRegions[i];
        Json row = Json::object();
        row["base"] = r.base;
        row["misses"] = r.misses;
        row["walks"] = r.walks;
        hot.push(std::move(row));
    }
    j["hotRegions"] = std::move(hot);

    j["walkLatency"] = histogramJson(a.walkLatency);
    j["missInterarrival"] = histogramJson(a.missInterarrival);
    j["walkHitDepth"] = histogramJson(a.walkHitDepth);
    return j;
}

} // namespace tps::obs
