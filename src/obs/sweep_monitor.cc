#include "obs/sweep_monitor.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>

#include "util/logging.hh"

namespace tps::obs {

namespace {

/** "3.2s" / "2m06s" rendering for progress lines. */
std::string
fmtSeconds(double s)
{
    char buf[32];
    if (s < 60.0) {
        std::snprintf(buf, sizeof(buf), "%.1fs", s);
    } else {
        std::snprintf(buf, sizeof(buf), "%dm%02ds", int(s) / 60,
                      int(s) % 60);
    }
    return buf;
}

/** Peak RSS of this process: VmHWM, with getrusage as fallback. */
uint64_t
peakRssBytes()
{
    if (FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof(line), f)) {
            unsigned long long kb = 0;
            if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
                std::fclose(f);
                return uint64_t(kb) * 1024;
            }
        }
        std::fclose(f);
    }
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        return uint64_t(ru.ru_maxrss) * 1024;
    return 0;
}

/** Wall-clock milliseconds since the Unix epoch. */
uint64_t
unixMillis()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/**
 * Tolerant atomic file write for heartbeats: tmp + rename so readers
 * never see a torn file, and warn-once instead of tps_fatal so an
 * unwritable heartbeat path can never kill a running sweep.
 */
void
writeFileTolerant(const std::string &path, const std::string &bytes)
{
    std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        tps_warn_once("cannot write heartbeat file %s: %s",
                      tmp.c_str(), std::strerror(errno));
        return;
    }
    bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    ok = (std::fclose(f) == 0) && ok;
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        tps_warn_once("cannot update heartbeat file %s", path.c_str());
    }
}

} // namespace

SweepMonitor::SweepMonitor() : SweepMonitor(Config{}) {}

SweepMonitor::SweepMonitor(Config cfg)
    : cfg_(std::move(cfg)), start_(std::chrono::steady_clock::now())
{
    if (cfg_.heartbeatPath.empty())
        return;
    beat_ = std::jthread([this](std::stop_token st) {
        writeHeartbeat(false);
        std::mutex m;
        std::condition_variable_any cv;
        auto interval = std::chrono::duration<double>(
            cfg_.heartbeatIntervalSeconds > 0.0
                ? cfg_.heartbeatIntervalSeconds
                : 5.0);
        std::unique_lock<std::mutex> lock(m);
        while (true) {
            cv.wait_for(lock, st, interval, [] { return false; });
            if (st.stop_requested())
                return;
            writeHeartbeat(false);
        }
    });
}

SweepMonitor::~SweepMonitor()
{
    if (beat_.joinable()) {
        beat_.request_stop();
        beat_.join();
        // Final write: the file on disk ends saying finished = true.
        writeHeartbeat(true);
    }
}

void
SweepMonitor::addPlanned(size_t cells)
{
    std::lock_guard<std::mutex> lock(mu_);
    planned_ += cells;
}

void
SweepMonitor::cellDone(const std::string &label, unsigned attempts,
                       bool failed)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    if (attempts > 1)
        retried_ += attempts - 1;
    if (failed)
        ++failed_;
    lastLabel_ = label;
    if (cfg_.progress)
        printProgress();
}

SweepMonitor::Rates
SweepMonitor::rates() const
{
    // Called with mu_ held.  Throughput-based ETA: cells finish
    // concurrently, so per-cell means would be pessimistic by the
    // pool width.
    Rates r;
    r.elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    r.total = planned_ > done_ ? planned_ : done_;
    r.cellsPerSec = r.elapsed > 0.0 ? double(done_) / r.elapsed : 0.0;
    r.eta = r.cellsPerSec > 0.0 ? double(r.total - done_) / r.cellsPerSec
                                : 0.0;
    return r;
}

void
SweepMonitor::printProgress() const
{
    // Called with mu_ held.
    Rates r = rates();
    bool tty = isatty(fileno(stderr));
    std::fprintf(stderr, "%s[%s] %zu/%zu cells  elapsed %s  eta %s  "
                         "(last: %s)%s",
                 tty ? "\r\033[K" : "", cfg_.bench.c_str(), done_,
                 r.total, fmtSeconds(r.elapsed).c_str(),
                 fmtSeconds(r.eta).c_str(), lastLabel_.c_str(),
                 tty ? (done_ >= r.total ? "\n" : "") : "\n");
    std::fflush(stderr);
}

Json
SweepMonitor::heartbeatJson(bool finished) const
{
    std::lock_guard<std::mutex> lock(mu_);
    Rates r = rates();
    Json j = Json::object();
    j["format"] = std::string("tps-heartbeat");
    j["version"] = uint64_t(1);
    j["bench"] = cfg_.bench;
    j["pid"] = uint64_t(getpid());
    Json &shard = j["shard"];
    shard["index"] = cfg_.shard.index;
    shard["count"] = cfg_.shard.count;
    shard["gridFingerprint"] = cfg_.gridFingerprint;
    j["intervalSeconds"] = cfg_.heartbeatIntervalSeconds;
    j["updatedUnixMs"] = unixMillis();
    j["elapsedSeconds"] = r.elapsed;
    j["planned"] = uint64_t(planned_);
    j["done"] = uint64_t(done_);
    j["failed"] = uint64_t(failed_);
    j["retried"] = uint64_t(retried_);
    j["cellsPerSec"] = r.cellsPerSec;
    j["etaSeconds"] = finished ? 0.0 : r.eta;
    j["rssPeakBytes"] = peakRssBytes();
    j["lastCell"] = lastLabel_;
    j["finished"] = finished;
    return j;
}

void
SweepMonitor::writeHeartbeat(bool finished) const
{
    // heartbeatJson() takes mu_ itself; the file write happens
    // lock-free.
    writeFileTolerant(cfg_.heartbeatPath,
                      heartbeatJson(finished).dump(2) + "\n");
}

} // namespace tps::obs
