/**
 * @file
 * Event-trace tests: varint edge values, per-type round-trips,
 * container determinism across --jobs, and the exact-count invariant
 * (one TlbMiss event per mmu.l1.misses tick) that `tps analyze`'s
 * manifest reconciliation rests on.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/experiment_runner.hh"
#include "core/tps_system.hh"
#include "obs/event_trace.hh"
#include "obs/trace_analyze.hh"
#include "util/sim_error.hh"

namespace tps::obs {
namespace {

TEST(Varint, RoundTripEdgeValues)
{
    const uint64_t values[] = {
        0,
        1,
        127,                // 1-byte max
        128,                // first 2-byte value
        16383,              // 2-byte max
        16384,
        0xffffffffull,      // 32-bit boundary
        0x100000000ull,
        (1ull << 56) - 1,   // 8-byte max
        1ull << 56,         // first 9-byte value
        (1ull << 63) - 1,
        1ull << 63,         // needs the 10th byte
        std::numeric_limits<uint64_t>::max(),
    };
    for (uint64_t v : values) {
        std::string buf;
        appendVarint(buf, v);
        size_t pos = 0;
        uint64_t out = 0;
        ASSERT_TRUE(readVarint(buf, pos, out)) << v;
        EXPECT_EQ(out, v);
        EXPECT_EQ(pos, buf.size()) << v;
    }
}

TEST(Varint, EncodedLengths)
{
    auto len = [](uint64_t v) {
        std::string buf;
        appendVarint(buf, v);
        return buf.size();
    };
    EXPECT_EQ(len(0), 1u);
    EXPECT_EQ(len(127), 1u);
    EXPECT_EQ(len(128), 2u);
    EXPECT_EQ(len(16383), 2u);
    EXPECT_EQ(len(16384), 3u);
    EXPECT_EQ(len(std::numeric_limits<uint64_t>::max()), 10u);
}

TEST(Varint, RejectsTruncation)
{
    std::string buf;
    appendVarint(buf, 1ull << 40);
    for (size_t cut = 0; cut < buf.size(); ++cut) {
        size_t pos = 0;
        uint64_t out = 0;
        EXPECT_FALSE(
            readVarint(std::string_view(buf.data(), cut), pos, out))
            << "cut at " << cut;
    }
}

TEST(Varint, RejectsOverlongEncoding)
{
    // Eleven continuation bytes can never be a valid uint64.
    std::string buf(11, char(0x80));
    size_t pos = 0;
    uint64_t out = 0;
    EXPECT_FALSE(readVarint(buf, pos, out));

    // A 10th byte contributing more than bit 63 overflows.
    std::string high(9, char(0x80));
    high.push_back(char(0x02));
    pos = 0;
    EXPECT_FALSE(readVarint(high, pos, out));
}

/** One representative event per type, with awkward operand values. */
std::vector<Event>
sampleEvents()
{
    uint64_t big = std::numeric_limits<uint64_t>::max();
    std::vector<Event> events;
    events.push_back({EventType::OsMap, 0, 0x10000000000ull, 1 << 20, 1});
    events.push_back({EventType::Mark, 5, kMarkWarmupEnd});
    events.push_back({EventType::TlbMiss, 6, 0x10000004000ull, 1, 12, 1, 200});
    events.push_back({EventType::TlbMiss, 6, big, 0, 21, big, 0});
    events.push_back({EventType::Walk, 7, 0x10000008000ull, 4, 0, 0, 12});
    events.push_back({EventType::Walk, 8, 0, big, 3, 1, 0});
    events.push_back({EventType::OsFault, 8, 0x10000008000ull, 1});
    events.push_back({EventType::OsReserve, 9, 0x10000000000ull, 21});
    events.push_back({EventType::OsPromote, 10, 0x10000000000ull, 21});
    events.push_back({EventType::OsCompactMove, 11, 42, 4242, 512});
    events.push_back({EventType::TlbShootdown, 12, 0x10000004000ull});
    events.push_back({EventType::TlbFlush, 13});
    events.push_back({EventType::OsUnmap, big, 0x10000000000ull, 1});
    return events;
}

TEST(EventCodec, RoundTripsEveryEventType)
{
    std::vector<Event> events = sampleEvents();

    // The sample must cover the whole enum.
    std::vector<bool> seen(kMaxEventType + 1, false);
    for (const Event &e : events)
        seen[static_cast<uint8_t>(e.type)] = true;
    for (uint8_t t = 1; t <= kMaxEventType; ++t)
        EXPECT_TRUE(seen[t]) << "type " << unsigned(t) << " not sampled";

    std::string blob = encodeEvents(events);
    std::vector<Event> out;
    ASSERT_TRUE(decodeEvents(blob, out));
    ASSERT_EQ(out.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i)
        EXPECT_TRUE(out[i] == events[i]) << "event " << i;
}

TEST(EventCodec, RejectsUnknownTypeTagAndGarbage)
{
    std::string zero_tag;
    appendVarint(zero_tag, 0);
    std::vector<Event> out;
    EXPECT_FALSE(decodeEvents(zero_tag, out));

    std::string big_tag;
    appendVarint(big_tag, kMaxEventType + 1);
    appendVarint(big_tag, 0);
    EXPECT_FALSE(decodeEvents(big_tag, out));

    // Truncated mid-event.
    std::string blob = encodeEvents(sampleEvents());
    EXPECT_FALSE(
        decodeEvents(std::string_view(blob.data(), blob.size() - 1), out));
}

TEST(EventTrace, ClockIsMonotonicAndClearResets)
{
    EventTrace trace;
    trace.setTime(5);
    EXPECT_EQ(trace.time(), 5u);
    trace.setTime(3);  // earlier values are clamped
    EXPECT_EQ(trace.time(), 5u);
    trace.tlbMiss(0x1000, 1, 12, 1, 10);
    EXPECT_EQ(trace.events().back().time, 5u);
    trace.clear();
    EXPECT_EQ(trace.time(), 0u);
    EXPECT_EQ(trace.size(), 0u);
}

TEST(TraceFile, RoundTripSortsCellsAndFinds)
{
    std::vector<TraceCell> cells;
    cells.push_back({"z/last", 3, sampleEvents()});
    cells.push_back({"a/first", 2, sampleEvents()});
    cells.push_back({"a/first", 1, {}});

    std::string data = encodeTraceFile(cells);
    TraceFile file = decodeTraceFile(data);
    ASSERT_EQ(file.cells.size(), 3u);
    EXPECT_EQ(file.cells[0].label, "a/first");
    EXPECT_EQ(file.cells[0].seed, 1u);
    EXPECT_EQ(file.cells[1].seed, 2u);
    EXPECT_EQ(file.cells[2].label, "z/last");

    const TraceCell *cell = file.find("a/first", 2);
    ASSERT_NE(cell, nullptr);
    ASSERT_EQ(cell->events.size(), sampleEvents().size());
    EXPECT_TRUE(cell->events[2] == sampleEvents()[2]);
    EXPECT_EQ(file.find("a/first", 99), nullptr);
    EXPECT_EQ(file.find("missing", 1), nullptr);

    // Encoding is insensitive to input order.
    std::vector<TraceCell> shuffled = {cells[2], cells[0], cells[1]};
    EXPECT_EQ(encodeTraceFile(shuffled), data);
}

TEST(TraceFile, RejectsDamage)
{
    std::string data = encodeTraceFile({{"cell", 1, sampleEvents()}});
    EXPECT_THROW(decodeTraceFile("XXVEVT junk"), SimError);
    EXPECT_THROW(decodeTraceFile(std::string_view(data.data(),
                                                  data.size() - 1)),
                 SimError);
    EXPECT_THROW(decodeTraceFile(data + "x"), SimError);
}

core::RunOptions
tinyCell(const std::string &wl, core::Design design)
{
    core::RunOptions run;
    run.workload = wl;
    run.design = design;
    run.scale = 0.01;
    return run;
}

TEST(TraceGolden, ByteIdenticalAcrossJobCounts)
{
    std::vector<core::RunOptions> cells = {
        tinyCell("gups", core::Design::Thp),
        tinyCell("gups", core::Design::Tps),
        tinyCell("gups", core::Design::Colt),
    };
    core::SweepPolicy policy;
    policy.eventTrace = true;

    auto traceBytes = [&](unsigned jobs) {
        core::ExperimentRunner runner(jobs);
        std::vector<core::CellOutcome> outcomes =
            runner.runGuarded(cells, policy);
        std::vector<TraceCell> tcells;
        for (size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_TRUE(outcomes[i].trace != nullptr);
            tcells.push_back({core::cellLabel(cells[i]),
                              core::runSeed(cells[i]),
                              outcomes[i].trace->takeEvents()});
        }
        return encodeTraceFile(std::move(tcells));
    };

    std::string serial = traceBytes(1);
    std::string parallel = traceBytes(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(TraceGolden, TracingDoesNotChangeStats)
{
    core::RunOptions run = tinyCell("gups", core::Design::Tps);
    sim::SimStats plain = core::runExperiment(run);

    EventTrace trace;
    core::RunHooks hooks;
    hooks.trace = &trace;
    sim::SimStats traced = core::runExperiment(run, hooks);

    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.l1TlbMisses, traced.l1TlbMisses);
    EXPECT_EQ(plain.walkMemRefs, traced.walkMemRefs);
    EXPECT_EQ(plain.mmu.l1Misses, traced.mmu.l1Misses);
    EXPECT_EQ(plain.faults, traced.faults);
    EXPECT_GT(trace.size(), 0u);
}

/**
 * With tracing ON, the batched translate kernel takes its slower traced
 * instantiation -- and must still emit the exact byte sequence the
 * per-access oracle emits: same events, same operands, same
 * trace-clock times, across every design.
 */
TEST(TraceGolden, FastPathTraceByteIdenticalToReference)
{
    std::vector<core::RunOptions> cells = {
        tinyCell("gups", core::Design::Base4k),
        tinyCell("gups", core::Design::Thp),
        tinyCell("gups", core::Design::Tps),
        tinyCell("gups", core::Design::TpsEager),
        tinyCell("gups", core::Design::Rmm),
        tinyCell("gups", core::Design::Colt),
        tinyCell("xsbench", core::Design::Tps),
        tinyCell("mcf", core::Design::Thp),
    };
    core::SweepPolicy policy;
    policy.eventTrace = true;

    auto traceBytes = [&](bool reference_path) {
        std::vector<core::RunOptions> runs = cells;
        for (core::RunOptions &run : runs)
            run.referencePath = reference_path;
        core::ExperimentRunner runner(2);
        std::vector<core::CellOutcome> outcomes =
            runner.runGuarded(runs, policy);
        std::vector<TraceCell> tcells;
        for (size_t i = 0; i < outcomes.size(); ++i) {
            EXPECT_TRUE(outcomes[i].trace != nullptr);
            tcells.push_back({core::cellLabel(cells[i]),
                              core::runSeed(cells[i]),
                              outcomes[i].trace->takeEvents()});
        }
        return encodeTraceFile(std::move(tcells));
    };

    std::string fast = traceBytes(false);
    EXPECT_FALSE(fast.empty());
    EXPECT_EQ(fast, traceBytes(true));
}

/**
 * The invariant `tps analyze`'s manifest reconciliation rests on: the
 * measured phase of the trace carries exactly one TlbMiss event per
 * MmuStats::l1Misses tick, and the Walk events match walker.walks.
 */
TEST(TraceGolden, MeasuredEventsMatchCounters)
{
    for (core::Design design :
         {core::Design::Thp, core::Design::Tps, core::Design::Base4k,
          core::Design::Colt, core::Design::Rmm}) {
        core::RunOptions run = tinyCell("gups", design);
        EventTrace trace;
        core::RunHooks hooks;
        hooks.trace = &trace;
        sim::SimStats stats = core::runExperiment(run, hooks);

        CellAnalysis a = analyzeCell(
            {core::cellLabel(run), core::runSeed(run), trace.events()});
        EXPECT_EQ(a.tlbMisses, stats.mmu.l1Misses)
            << core::designName(design);
        EXPECT_EQ(a.walkEvents, stats.walker.walks)
            << core::designName(design);
        EXPECT_EQ(a.walkMemRefs, stats.walker.accesses)
            << core::designName(design);
    }
}

} // namespace
} // namespace tps::obs
