#include "obs/stats_bindings.hh"

#include <string_view>

#include "util/sim_error.hh"

namespace tps::obs {

namespace {

/** The member of @p root at dotted @p path, creating objects on the way. */
Json &
leafAt(Json &root, std::string_view path)
{
    Json *node = &root;
    for (size_t dot; (dot = path.find('.')) != std::string_view::npos;
         path.remove_prefix(dot + 1)) {
        node = &(*node)[std::string(path.substr(0, dot))];
    }
    return (*node)[std::string(path)];
}

/**
 * The counter at dotted @p path below @p j.  An absent one is 0 for an
 * Or0 row and a SimError otherwise.
 */
uint64_t
counterAt(const Json &j, const char *path, sim::StatRestore restore)
{
    const Json *node = &j;
    for (std::string_view rest = path; node;) {
        size_t dot = rest.find('.');
        node = node->find(std::string(rest.substr(0, dot)));
        if (dot == std::string_view::npos)
            break;
        rest.remove_prefix(dot + 1);
    }
    if (!node) {
        if (restore == sim::StatRestore::Or0)
            return 0;
        throwSimError(ErrorKind::InvalidArgument,
                      "stats tree is missing counter '%s'", path);
    }
    if (node->kind() != Json::Kind::UInt &&
        !(node->kind() == Json::Kind::Int && node->asInt() >= 0)) {
        throwSimError(ErrorKind::InvalidArgument,
                      "stats counter '%s' is not an unsigned integer",
                      path);
    }
    return node->asUInt();
}

} // namespace

Json
epochsJson(const sim::SimStats &s)
{
    if (s.epochInterval == 0)
        return Json();
    Json series = Json::array();
    for (const sim::EpochSample &e : s.epochs) {
        Json rec = Json::object();
        sim::forEachEpochStat(
            [&](const char *key, uint64_t value) { rec[key] = Json(value); },
            e);
        rec["mpki"] = Json(e.mpki());
        rec["walkCycleFraction"] = Json(e.walkCycleFraction());
        series.push(std::move(rec));
    }
    Json j = Json::object();
    j["interval"] = Json(s.epochInterval);
    j["samples"] = std::move(series);
    return j;
}

sim::SimStats
simStatsFromJson(const Json &j)
{
    sim::SimStats s;
    sim::forEachSimStat(s, [&](const char *path, auto &&value,
                               sim::StatRestore restore) {
        if (restore != sim::StatRestore::Derived)
            value = counterAt(j, path, restore);
    });

    if (const Json *epochs = j.find("epochs");
        epochs && !epochs->isNull()) {
        s.epochInterval =
            counterAt(*epochs, "interval", sim::StatRestore::Required);
        const Json *samples = epochs->find("samples");
        if (samples && samples->kind() != Json::Kind::Array) {
            throwSimError(ErrorKind::InvalidArgument,
                          "stats epoch samples are not an array");
        }
        for (size_t i = 0; samples && i < samples->size(); ++i) {
            sim::EpochSample e;
            sim::forEachEpochStat(
                [&](const char *key, uint64_t &field) {
                    field = counterAt(samples->at(i), key,
                                      sim::StatRestore::Required);
                },
                e);
            s.epochs.push_back(e);
        }
    }

    if (const Json *mem = j.find("mem"); mem && !mem->isNull())
        s.mem = MemTelemetryData::fromJson(*mem);
    return s;
}

sim::SimStats
cellStats(const Json &cell)
{
    const Json *stats = cell.find("stats");
    if (!stats) {
        throwSimError(ErrorKind::InvalidArgument,
                      "cell has no stats tree");
    }
    return simStatsFromJson(*stats);
}

} // namespace tps::obs

namespace tps::sim {

obs::Json
SimStats::toJson() const
{
    obs::Json j = obs::Json::object();
    forEachSimStat(*this, [&](const char *path, const auto &value,
                              StatRestore) {
        obs::leafAt(j, path) = obs::Json(value);
    });
    if (epochInterval)
        j["epochs"] = obs::epochsJson(*this);
    if (mem.enabled)
        j["mem"] = mem.toJson();
    return j;
}

} // namespace tps::sim
