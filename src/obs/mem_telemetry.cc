#include "obs/mem_telemetry.hh"

#include <algorithm>
#include <bit>

#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/phys_memory.hh"
#include "util/sim_error.hh"

namespace tps::obs {

double
extFragIndex(const std::vector<uint64_t> &freeByOrder, unsigned order)
{
    uint64_t free_frames = 0;
    uint64_t total_blocks = 0;
    uint64_t suitable = 0;
    for (unsigned o = 0; o < freeByOrder.size(); ++o) {
        free_frames += freeByOrder[o] << o;
        total_blocks += freeByOrder[o];
        if (o >= order)
            suitable += freeByOrder[o];
    }
    // A request of this order would succeed: fragmentation is moot.
    if (suitable > 0)
        return 0.0;
    // Nothing free at all: failure is shortage, not fragmentation.
    if (total_blocks == 0)
        return 0.0;
    double requested = static_cast<double>(uint64_t(1) << order);
    double idx = 1.0 - (1.0 + static_cast<double>(free_frames) /
                                  requested) /
                           static_cast<double>(total_blocks);
    return std::clamp(idx, 0.0, 1.0);
}

double
contiguityScore(const std::vector<uint64_t> &freeByOrder)
{
    uint64_t free_frames = 0;
    double weighted = 0.0;
    for (unsigned o = 0; o < freeByOrder.size(); ++o) {
        uint64_t frames = freeByOrder[o] << o;
        free_frames += frames;
        weighted += static_cast<double>(frames) * o;
    }
    if (free_frames == 0)
        return 0.0;
    return weighted / (static_cast<double>(free_frames) *
                       os::BuddyAllocator::kMaxOrder);
}

unsigned
ageBucket(uint64_t age)
{
    return static_cast<unsigned>(std::bit_width(age));
}

namespace {

Json
histogramJson(const Histogram &h)
{
    Json arr = Json::array();
    for (const auto &[key, count] : h.buckets()) {
        Json pair = Json::array();
        pair.push(key);
        pair.push(count);
        arr.push(std::move(pair));
    }
    return arr;
}

// The stats.mem readers: a member that is missing or of the wrong kind
// is a SimError (a malformed manifest), never a panic.

[[noreturn]] void
badMember(const char *key)
{
    throwSimError(ErrorKind::InvalidArgument,
                  "stats.mem member '%s' is missing or malformed", key);
}

const Json &
memberAt(const Json &j, const char *key)
{
    const Json *v = j.find(key);
    if (!v)
        badMember(key);
    return *v;
}

uint64_t
uintOf(const Json &v, const char *key)
{
    if (v.kind() != Json::Kind::UInt &&
        !(v.kind() == Json::Kind::Int && v.asInt() >= 0)) {
        badMember(key);
    }
    return v.asUInt();
}

double
doubleOf(const Json &v, const char *key)
{
    if (v.kind() != Json::Kind::UInt && v.kind() != Json::Kind::Int &&
        v.kind() != Json::Kind::Double) {
        badMember(key);
    }
    return v.asDouble();
}

const Json &
arrayOf(const Json &v, const char *key)
{
    if (v.kind() != Json::Kind::Array)
        badMember(key);
    return v;
}

uint64_t
uintAt(const Json &j, const char *key)
{
    return uintOf(memberAt(j, key), key);
}

/** Element @p i of the array @p arr, itself a [uint, uint] pair. */
std::pair<uint64_t, uint64_t>
pairAt(const Json &arr, size_t i, const char *key)
{
    const Json &pair = arrayOf(arr.at(i), key);
    if (pair.size() != 2)
        badMember(key);
    return {uintOf(pair.at(size_t(0)), key), uintOf(pair.at(1), key)};
}

Histogram
histogramAt(const Json &j, const char *key)
{
    const Json &arr = arrayOf(memberAt(j, key), key);
    Histogram h;
    for (size_t i = 0; i < arr.size(); ++i) {
        auto [bucket, count] = pairAt(arr, i, key);
        h.add(bucket, count);
    }
    return h;
}

} // namespace

Json
MemEpochSample::toJson() const
{
    Json j = Json::object();
    j["accesses"] = accesses;
    j["totalFrames"] = totalFrames;
    j["freeFrames"] = freeFrames;
    j["tableFrames"] = tableFrames;
    j["appFrames"] = appFrames;
    j["reservedFrames"] = reservedFrames;
    Json orders = Json::array();
    for (uint64_t n : freeByOrder)
        orders.push(n);
    j["freeByOrder"] = std::move(orders);
    Json frag = Json::array();
    for (double f : extFrag)
        frag.push(f);
    j["extFrag"] = std::move(frag);
    j["contiguity"] = contiguity;
    Json cens = Json::array();
    for (const auto &[bits, pages] : census) {
        Json pair = Json::array();
        pair.push(uint64_t(bits));
        pair.push(pages);
        cens.push(std::move(pair));
    }
    j["census"] = std::move(cens);
    j["reservations"] = reservations;
    return j;
}

MemEpochSample
MemEpochSample::fromJson(const Json &j)
{
    MemEpochSample s;
    s.accesses = uintAt(j, "accesses");
    s.totalFrames = uintAt(j, "totalFrames");
    s.freeFrames = uintAt(j, "freeFrames");
    s.tableFrames = uintAt(j, "tableFrames");
    s.appFrames = uintAt(j, "appFrames");
    s.reservedFrames = uintAt(j, "reservedFrames");
    const Json &orders = arrayOf(memberAt(j, "freeByOrder"), "freeByOrder");
    for (size_t i = 0; i < orders.size(); ++i)
        s.freeByOrder.push_back(uintOf(orders.at(i), "freeByOrder"));
    const Json &frag = arrayOf(memberAt(j, "extFrag"), "extFrag");
    for (size_t i = 0; i < frag.size(); ++i)
        s.extFrag.push_back(doubleOf(frag.at(i), "extFrag"));
    s.contiguity = doubleOf(memberAt(j, "contiguity"), "contiguity");
    const Json &cens = arrayOf(memberAt(j, "census"), "census");
    for (size_t i = 0; i < cens.size(); ++i) {
        auto [bits, pages] = pairAt(cens, i, "census");
        s.census.emplace_back(static_cast<unsigned>(bits), pages);
    }
    s.reservations = uintAt(j, "reservations");
    return s;
}

Json
MemLifecycle::toJson() const
{
    Json j = Json::object();
    j["created"] = created;
    j["promoted"] = promoted;
    j["broken"] = broken;
    j["ageAtPromotion"] = histogramJson(ageAtPromotion);
    j["ageAtBreak"] = histogramJson(ageAtBreak);
    j["fillAtPromotion"] = histogramJson(fillAtPromotion);
    return j;
}

MemLifecycle
MemLifecycle::fromJson(const Json &j)
{
    MemLifecycle l;
    l.created = uintAt(j, "created");
    l.promoted = uintAt(j, "promoted");
    l.broken = uintAt(j, "broken");
    l.ageAtPromotion = histogramAt(j, "ageAtPromotion");
    l.ageAtBreak = histogramAt(j, "ageAtBreak");
    l.fillAtPromotion = histogramAt(j, "fillAtPromotion");
    return l;
}

Json
MemCompactionYield::toJson() const
{
    Json j = Json::object();
    j["passes"] = passes;
    j["movedFrames"] = movedFrames;
    j["mergedPages"] = mergedPages;
    j["contiguityRecovered"] = contiguityRecovered;
    return j;
}

MemCompactionYield
MemCompactionYield::fromJson(const Json &j)
{
    MemCompactionYield c;
    c.passes = uintAt(j, "passes");
    c.movedFrames = uintAt(j, "movedFrames");
    c.mergedPages = uintAt(j, "mergedPages");
    c.contiguityRecovered =
        doubleOf(memberAt(j, "contiguityRecovered"), "contiguityRecovered");
    return c;
}

Json
MemTelemetryData::toJson() const
{
    Json j = Json::object();
    Json arr = Json::array();
    for (const MemEpochSample &s : samples)
        arr.push(s.toJson());
    j["samples"] = std::move(arr);
    j["lifecycle"] = lifecycle.toJson();
    j["compaction"] = compaction.toJson();
    return j;
}

MemTelemetryData
MemTelemetryData::fromJson(const Json &j)
{
    MemTelemetryData d;
    d.enabled = true;
    const Json &arr = arrayOf(memberAt(j, "samples"), "samples");
    for (size_t i = 0; i < arr.size(); ++i)
        d.samples.push_back(MemEpochSample::fromJson(arr.at(i)));
    d.lifecycle = MemLifecycle::fromJson(memberAt(j, "lifecycle"));
    d.compaction = MemCompactionYield::fromJson(memberAt(j, "compaction"));
    return d;
}

void
MemTelemetry::sample(const os::AddressSpace &as, uint64_t accesses)
{
    MemEpochSample s;
    s.accesses = accesses;
    const os::BuddyAllocator &buddy = as.phys().buddy();
    s.freeByOrder = buddy.freeListCounts();
    s.totalFrames = buddy.totalFrames();
    s.freeFrames = buddy.freeFrames();
    const os::PhysMemoryStats &pm = as.phys().stats();
    s.tableFrames = pm.tableFrames;
    s.appFrames = pm.appFrames;
    s.reservedFrames = pm.reservedFrames;
    s.extFrag.reserve(os::BuddyAllocator::kMaxOrder + 1);
    for (unsigned o = 0; o <= os::BuddyAllocator::kMaxOrder; ++o)
        s.extFrag.push_back(extFragIndex(s.freeByOrder, o));
    s.contiguity = contiguityScore(s.freeByOrder);
    Histogram census = as.pageSizeCensus();
    for (const auto &[bits, pages] : census.buckets())
        s.census.emplace_back(static_cast<unsigned>(bits), pages);
    s.reservations = as.reservations().size();
    data_.samples.push_back(std::move(s));
}

void
MemTelemetry::sampleIfNew(const os::AddressSpace &as, uint64_t accesses)
{
    if (!data_.samples.empty() &&
        data_.samples.back().accesses == accesses) {
        return;
    }
    sample(as, accesses);
}

void
MemTelemetry::onReservationCreated(uint64_t vaBase, uint64_t now)
{
    ++data_.lifecycle.created;
    birth_[vaBase] = now;
}

void
MemTelemetry::onPromotion(uint64_t vaBase, uint64_t filledPages,
                          uint64_t regionPages, uint64_t now)
{
    ++data_.lifecycle.promoted;
    auto it = birth_.find(vaBase);
    uint64_t born = it != birth_.end() ? it->second : now;
    data_.lifecycle.ageAtPromotion.add(ageBucket(now - born));
    uint64_t percent =
        regionPages > 0 ? (100 * filledPages) / regionPages : 0;
    data_.lifecycle.fillAtPromotion.add(percent);
}

void
MemTelemetry::onReservationReleased(uint64_t vaBase, uint64_t now)
{
    ++data_.lifecycle.broken;
    auto it = birth_.find(vaBase);
    uint64_t born = it != birth_.end() ? it->second : now;
    data_.lifecycle.ageAtBreak.add(ageBucket(now - born));
    if (it != birth_.end())
        birth_.erase(it);
}

void
MemTelemetry::onCompactionPass(uint64_t movedFrames,
                               uint64_t mergedPages, double before,
                               double after)
{
    ++data_.compaction.passes;
    data_.compaction.movedFrames += movedFrames;
    data_.compaction.mergedPages += mergedPages;
    data_.compaction.contiguityRecovered += after - before;
}

void
MemTelemetry::clear()
{
    data_ = MemTelemetryData{};
    data_.enabled = true;
    birth_.clear();
}

} // namespace tps::obs
