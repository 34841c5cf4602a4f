#include "obs/report.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "core/tps_system.hh"
#include "obs/mem_telemetry.hh"
#include "obs/shard.hh"
#include "obs/stats_bindings.hh"
#include "util/stats.hh"

namespace tps::obs {

namespace {

/**
 * A cell label's table slot: the row is the workload plus its
 * variants, the column the design[/timing] (see core::cellLabel()).
 */
struct Slot
{
    std::string row;
    std::string column;
};

Slot
slotOf(const std::string &label)
{
    size_t slash = label.find('/');
    size_t plus = label.find('+', slash);
    std::string variants =
        plus == std::string::npos ? "" : label.substr(plus);
    return {label.substr(0, slash) + variants,
            label.substr(slash + 1, plus - slash - 1)};
}

/** The cell label of table slot (@p row, @p column). */
std::string
labelOf(const std::string &row, const std::string &column)
{
    size_t plus = row.find('+');
    std::string variants =
        plus == std::string::npos ? "" : row.substr(plus);
    return row.substr(0, plus) + "/" + column + variants;
}

/** Shortest-round-trip double text, identical to Json serialization. */
std::string
num(double v)
{
    return Json(v).dump();
}

std::string
fixed(double v, int places)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", places, v);
    return buf;
}

/** "p50/p95/p99" over a rebuilt histogram, or "-" when empty. */
std::string
quantiles(const Histogram &h)
{
    if (h.total() == 0)
        return "-";
    return std::to_string(h.p50()) + "/" + std::to_string(h.p95()) +
           "/" + std::to_string(h.p99());
}

void
csvRow(std::string &csv, const std::string &section,
       const std::string &workload, const std::string &design,
       const std::string &metric, const std::string &index,
       const std::string &value)
{
    csv += section;
    csv += ',';
    csv += workload;
    csv += ',';
    csv += design;
    csv += ',';
    csv += metric;
    csv += ',';
    csv += index;
    csv += ',';
    csv += value;
    csv += '\n';
}

} // namespace

Report
buildReport(const std::vector<Json> &manifests,
            const std::vector<std::string> &sources,
            const ReportOptions &opts)
{
    // ---- Join through mergeManifests: identity dedup, first ok
    // copy wins, holes attributed.  Each ok cell's restored stats fill
    // its table slot.
    MergeResult merged = mergeManifests(manifests, sources, true);
    std::map<std::pair<std::string, std::string>, sim::SimStats> cells;
    std::set<std::string> workloads;
    std::set<std::string> designSet;
    const Json &list = merged.manifest.at("cells");
    for (size_t i = 0; i < list.size(); ++i) {
        const Json &cell = list.at(i);
        Slot slot = slotOf(core::cellLabel(cell.at("options")));
        workloads.insert(slot.row);
        designSet.insert(slot.column);
        const Json *stats = cell.find("stats");
        const Json *status = cell.find("status");
        if (stats && (!status || status->asString() == "ok"))
            cells.emplace(std::make_pair(slot.row, slot.column),
                          simStatsFromJson(*stats));
    }
    for (const MergeHole &hole : merged.holes) {
        Slot slot = slotOf(hole.label);
        workloads.insert(slot.row);
        designSet.insert(slot.column);
    }

    // Display order: baseline design first, the rest lexicographic.
    std::vector<std::string> designs(designSet.begin(), designSet.end());
    std::string baseline = opts.baselineDesign;
    if (!designSet.count(baseline) && !designs.empty())
        baseline = designs.front();
    auto base_it = std::find(designs.begin(), designs.end(), baseline);
    if (base_it != designs.end())
        std::rotate(designs.begin(), base_it, base_it + 1);

    auto okStats = [&](const std::string &wl,
                       const std::string &dn) -> const sim::SimStats * {
        auto it = cells.find({wl, dn});
        return it == cells.end() ? nullptr : &it->second;
    };

    Report rep;
    std::string &csv = rep.csv;
    csv = "section,workload,design,metric,index,value\n";
    std::string &md = rep.markdown;
    md = "# TPS cross-design report\n\n";
    md += "Sources:";
    for (const std::string &src : sources)
        md += " `" + src + "`";
    md += "\n";

    // ---- Summary: MPKI and speedup tables. ----
    auto table = [&](const char *title,
                     auto &&cellText) {
        md += "\n## ";
        md += title;
        md += "\n\n| workload |";
        for (const std::string &dn : designs)
            md += " " + dn + " |";
        md += "\n|---|";
        for (size_t i = 0; i < designs.size(); ++i)
            md += "---:|";
        md += "\n";
        for (const std::string &wl : workloads) {
            md += "| " + wl + " |";
            for (const std::string &dn : designs)
                md += " " + cellText(wl, dn) + " |";
            md += "\n";
        }
    };

    for (const std::string &wl : workloads) {
        const sim::SimStats *base = okStats(wl, baseline);
        for (const std::string &dn : designs) {
            const sim::SimStats *stats = okStats(wl, dn);
            if (!stats)
                continue;
            csvRow(csv, "summary", wl, dn, "accesses", "",
                   std::to_string(stats->accesses));
            csvRow(csv, "summary", wl, dn, "instructions", "",
                   std::to_string(stats->instructions));
            csvRow(csv, "summary", wl, dn, "cycles", "",
                   std::to_string(stats->cycles));
            csvRow(csv, "summary", wl, dn, "l1TlbMisses", "",
                   std::to_string(stats->l1TlbMisses));
            csvRow(csv, "summary", wl, dn, "walks", "",
                   std::to_string(stats->tlbMisses));
            csvRow(csv, "summary", wl, dn, "mpki", "",
                   num(stats->mpki()));
            if (base && stats->cycles > 0) {
                double speedup = static_cast<double>(base->cycles) /
                                 static_cast<double>(stats->cycles);
                csvRow(csv, "summary", wl, dn, "speedup", "",
                       num(speedup));
            }
        }
    }

    table("MPKI (L1 DTLB misses per kilo-instruction)",
          [&](const std::string &wl, const std::string &dn) {
              const sim::SimStats *stats = okStats(wl, dn);
              return stats ? fixed(stats->mpki(), 3) : std::string("-");
          });
    table(("Speedup vs " + baseline + " (cycle ratio)").c_str(),
          [&](const std::string &wl, const std::string &dn) {
              const sim::SimStats *stats = okStats(wl, dn);
              const sim::SimStats *base = okStats(wl, baseline);
              if (!stats || !base || stats->cycles == 0)
                  return std::string("-");
              return fixed(static_cast<double>(base->cycles) /
                               static_cast<double>(stats->cycles),
                           3);
          });

    // ---- Memory telemetry: series, census, lifecycle, yield. ----
    // The headline fragmentation index is the 2 MB class (order 9).
    constexpr unsigned kHeadlineOrder = 9;
    bool any_mem = false;
    for (const std::string &wl : workloads) {
        for (const std::string &dn : designs) {
            const sim::SimStats *stats = okStats(wl, dn);
            if (!stats || !stats->mem.enabled)
                continue;
            any_mem = true;
            const MemTelemetryData &data = stats->mem;
            for (size_t i = 0; i < data.samples.size(); ++i) {
                const MemEpochSample &s = data.samples[i];
                std::string idx = std::to_string(i);
                csvRow(csv, "memSeries", wl, dn, "accesses", idx,
                       std::to_string(s.accesses));
                csvRow(csv, "memSeries", wl, dn, "freeFrames", idx,
                       std::to_string(s.freeFrames));
                csvRow(csv, "memSeries", wl, dn, "contiguity", idx,
                       num(s.contiguity));
                if (s.extFrag.size() > kHeadlineOrder) {
                    csvRow(csv, "memSeries", wl, dn, "extFrag2M", idx,
                           num(s.extFrag[kHeadlineOrder]));
                }
                csvRow(csv, "memSeries", wl, dn, "reservations", idx,
                       std::to_string(s.reservations));
            }
            if (!data.samples.empty()) {
                for (const auto &[bits, pages] :
                     data.samples.back().census) {
                    csvRow(csv, "census", wl, dn, "pages",
                           std::to_string(bits),
                           std::to_string(pages));
                }
            }
            const MemLifecycle &life = data.lifecycle;
            csvRow(csv, "lifecycle", wl, dn, "created", "",
                   std::to_string(life.created));
            csvRow(csv, "lifecycle", wl, dn, "promoted", "",
                   std::to_string(life.promoted));
            csvRow(csv, "lifecycle", wl, dn, "broken", "",
                   std::to_string(life.broken));
            for (const auto &[bucket, count] :
                 life.ageAtPromotion.buckets()) {
                csvRow(csv, "lifecycle", wl, dn, "ageAtPromotion",
                       std::to_string(bucket), std::to_string(count));
            }
            for (const auto &[bucket, count] :
                 life.ageAtBreak.buckets()) {
                csvRow(csv, "lifecycle", wl, dn, "ageAtBreak",
                       std::to_string(bucket), std::to_string(count));
            }
            for (const auto &[bucket, count] :
                 life.fillAtPromotion.buckets()) {
                csvRow(csv, "lifecycle", wl, dn, "fillAtPromotion",
                       std::to_string(bucket), std::to_string(count));
            }
            const MemCompactionYield &cy = data.compaction;
            csvRow(csv, "compaction", wl, dn, "passes", "",
                   std::to_string(cy.passes));
            csvRow(csv, "compaction", wl, dn, "movedFrames", "",
                   std::to_string(cy.movedFrames));
            csvRow(csv, "compaction", wl, dn, "mergedPages", "",
                   std::to_string(cy.mergedPages));
            csvRow(csv, "compaction", wl, dn, "contiguityRecovered",
                   "", num(cy.contiguityRecovered));
        }
    }

    if (any_mem) {
        md += "\n## Memory telemetry (final sample)\n\n"
              "| workload | design | samples | free frames | "
              "contiguity | extfrag@2M | reservations | "
              "largest page |\n"
              "|---|---|---:|---:|---:|---:|---:|---:|\n";
        for (const std::string &wl : workloads) {
            for (const std::string &dn : designs) {
                const sim::SimStats *stats = okStats(wl, dn);
                if (!stats || !stats->mem.enabled)
                    continue;
                const MemTelemetryData &data = stats->mem;
                if (data.samples.empty())
                    continue;
                const MemEpochSample &s = data.samples.back();
                unsigned largest = 0;
                for (const auto &[bits, pages] : s.census) {
                    if (pages > 0 && bits > largest)
                        largest = bits;
                }
                md += "| " + wl + " | " + dn + " | " +
                      std::to_string(data.samples.size()) + " | " +
                      std::to_string(s.freeFrames) + " | " +
                      fixed(s.contiguity, 3) + " | " +
                      (s.extFrag.size() > kHeadlineOrder
                           ? fixed(s.extFrag[kHeadlineOrder], 3)
                           : std::string("-")) +
                      " | " + std::to_string(s.reservations) + " | " +
                      (largest ? "2^" + std::to_string(largest)
                               : std::string("-")) +
                      " |\n";
            }
        }

        md += "\n## Reservation lifecycle "
              "(ages in log2 fault-clock buckets)\n\n"
              "| workload | design | created | promoted | broken | "
              "age@promotion p50/p95/p99 | fill% p50/p95/p99 |\n"
              "|---|---|---:|---:|---:|---:|---:|\n";
        for (const std::string &wl : workloads) {
            for (const std::string &dn : designs) {
                const sim::SimStats *stats = okStats(wl, dn);
                if (!stats || !stats->mem.enabled)
                    continue;
                const MemLifecycle &life = stats->mem.lifecycle;
                md += "| " + wl + " | " + dn + " | " +
                      std::to_string(life.created) + " | " +
                      std::to_string(life.promoted) + " | " +
                      std::to_string(life.broken) + " | " +
                      quantiles(life.ageAtPromotion) + " | " +
                      quantiles(life.fillAtPromotion) + " |\n";
            }
        }
    }

    // ---- Holes: the merge's holes plus every empty table slot. ----
    std::vector<MergeHole> holes = merged.holes;
    std::set<std::string> holeLabels;
    for (const MergeHole &hole : holes)
        holeLabels.insert(hole.label);
    for (const std::string &wl : workloads) {
        for (const std::string &dn : designs) {
            std::string label = labelOf(wl, dn);
            if (!okStats(wl, dn) && !holeLabels.count(label))
                holes.push_back({label, 0, "missing", -1, ""});
        }
    }
    rep.cells = merged.okCells;
    rep.holes = holes.size();
    md += "\n## Holes\n\n";
    if (holes.empty()) {
        md += "None: the workload x design grid is complete.\n";
    } else {
        for (const MergeHole &hole : holes) {
            Slot slot = slotOf(hole.label);
            csvRow(csv, "hole", slot.row, slot.column, "status", "",
                   hole.status);
            md += "- `" + hole.label + "`: " + hole.status;
            if (hole.shard >= 0)
                md += " (shard " + std::to_string(hole.shard) + ")";
            md += "\n";
        }
    }
    if (!merged.conflicts.empty()) {
        md += "\n## Conflicts\n\nA later ok copy of these cells "
              "differs from the first, which is kept:\n\n";
        for (const std::string &label : merged.conflicts)
            md += "- `" + label + "`\n";
    }
    return rep;
}

} // namespace tps::obs
