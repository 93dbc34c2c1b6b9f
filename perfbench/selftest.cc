/**
 * @file
 * perfbench_selftest: shows that each of the benchmark's correctness
 * checks has teeth. Every check must pass on the real output of a
 * small simulation and fail once that output is doctored.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <iostream>
#include <string>
#include <vector>

#include "checks.hh"
#include "coding/dbi.hh"
#include "coding/three_lwc.hh"
#include "sim/experiment.hh"

using namespace perfbench;
using mil::obs::Event;
using mil::obs::EventKind;

namespace
{

int failures = 0;

void
expectPass(const std::string &what, const std::string &error)
{
    if (!error.empty()) {
        ++failures;
        std::cerr << "FAIL " << what << ": clean input rejected: " << error
                  << "\n";
    } else {
        std::cout << "ok   " << what << " passes clean input\n";
    }
}

void
expectFail(const std::string &what, const std::string &error)
{
    if (error.empty()) {
        ++failures;
        std::cerr << "FAIL " << what << ": doctored input accepted\n";
    } else {
        std::cout << "ok   " << what << " rejects: " << error << "\n";
    }
}

/** A small real MiL run with every event recorded. */
struct TracedRun
{
    mil::SimResult result;
    std::vector<Event> events;
    std::uint64_t expectedOps = 0;
};

TracedRun
tracedRun(const std::string &policy)
{
    mil::RunSpec spec;
    spec.system = "ddr4";
    spec.workload = "GUPS";
    spec.policy = policy;
    spec.opsPerThread = 400;
    spec.scale = 0.05;
    spec.seed = 7;
    mil::obs::MemoryTraceSink sink;
    mil::RunObservers observers;
    observers.sink = &sink;
    TracedRun run;
    run.result = mil::runSpecFresh(spec, observers);
    run.events = sink.events();
    const mil::SystemConfig config = mil::makeSystemConfig(spec.system);
    run.expectedOps = spec.opsPerThread * config.cores * config.core.threads;
    return run;
}

Event *
firstBurst(std::vector<Event> &events, const std::string &scheme)
{
    for (Event &e : events)
        if ((e.kind == EventKind::Read || e.kind == EventKind::Write) &&
            e.scheme == scheme)
            return &e;
    return nullptr;
}

void
testTracedRun()
{
    const TracedRun run = tracedRun("MiL");
    expectPass("retired ops", checkRetired(run.result, run.expectedOps));
    expectPass("disjoint bursts", checkBurstsDisjoint(run.events));
    expectPass("burst weights", checkBurstWeights(run.events));
    expectPass("traced totals", checkEventTotals(run.events, run.result));
    expectPass("same result", checkSameResult(run.result, run.result));

    // A run that lost an op.
    mil::SimResult lost = run.result;
    --lost.totalOps;
    expectFail("retired ops (one op lost)",
               checkRetired(lost, run.expectedOps));
    expectFail("same result (one op lost)",
               checkSameResult(run.result, lost));

    // Two overlapping bursts on one channel.
    std::vector<Event> overlap = run.events;
    Event *burst = firstBurst(overlap, "MiLC");
    if (burst == nullptr)
        burst = firstBurst(overlap, "3-LWC");
    if (burst == nullptr) {
        ++failures;
        std::cerr << "FAIL the run drove no MiL bursts\n";
        return;
    }
    Event late = *burst;
    late.dataStart = burst->dataEnd - 1;
    late.dataEnd = late.dataStart + (burst->dataEnd - burst->dataStart);
    late.bits = 0;
    late.zeros = 0;
    overlap.push_back(late);
    expectFail("disjoint bursts (overlap)", checkBurstsDisjoint(overlap));
    // The same window on two channels is legal.
    Event a;
    a.kind = EventKind::Read;
    a.dataStart = 100;
    a.dataEnd = 105;
    Event b = a;
    b.kind = EventKind::Write;
    b.channel = 1;
    expectPass("disjoint bursts (same window, two channels)",
               checkBurstsDisjoint({a, b}));
    b.channel = 0;
    expectFail("disjoint bursts (same window, one channel)",
               checkBurstsDisjoint({a, b}));

    // A 3-LWC burst over its weight bound, and a DBI one.
    std::vector<Event> heavy = run.events;
    Event *lwc = firstBurst(heavy, "3-LWC");
    if (lwc == nullptr) {
        ++failures;
        std::cerr << "FAIL the run drove no 3-LWC bursts\n";
        return;
    }
    lwc->zeros = 3 * (lwc->bits / 17) + 1;
    expectFail("burst weights (3-LWC)", checkBurstWeights(heavy));
    expectFail("traced totals (extra zeros)",
               checkEventTotals(heavy, run.result));

    const TracedRun dbi = tracedRun("DBI");
    expectPass("burst weights (DBI run)", checkBurstWeights(dbi.events));
    std::vector<Event> heavy_dbi = dbi.events;
    Event *dbi_burst = firstBurst(heavy_dbi, "DBI");
    dbi_burst->zeros = 4 * (dbi_burst->bits / 9) + 1;
    expectFail("burst weights (DBI)", checkBurstWeights(heavy_dbi));
}

void
testCodecFrames()
{
    mil::Line line{};
    for (std::size_t i = 0; i < line.size(); ++i)
        line[i] = static_cast<std::uint8_t>(i * 29 + 3);
    const mil::ThreeLwcCode lwc;
    const mil::BusFrame frame = lwc.encode(line);
    const mil::Line decoded = lwc.decode(frame);
    expectPass("round trip (3-LWC)",
               checkRoundTrip(lwc, line, frame, decoded));

    mil::Line wrong = decoded;
    wrong[5] ^= 1;
    expectFail("round trip (decoded line differs)",
               checkRoundTrip(lwc, line, frame, wrong));

    // Four zeros in the first 17-bit symbol.
    mil::BusFrame heavy = frame;
    heavy.setLinearField(0, 17, 0x1FFFFu & ~0xFu);
    expectFail("round trip (3-LWC symbol weight)",
               checkRoundTrip(lwc, line, heavy, decoded));

    const mil::DbiCode dbi;
    const mil::BusFrame dbi_frame = dbi.encode(line);
    expectPass("round trip (DBI)",
               checkRoundTrip(dbi, line, dbi_frame, dbi.decode(dbi_frame)));
    mil::BusFrame dbi_heavy = dbi_frame;
    dbi_heavy.setLaneField(0, 0, 8, 0x00);
    expectFail("round trip (DBI byte weight)",
               checkRoundTrip(dbi, line, dbi_heavy, dbi.decode(dbi_frame)));
}

mil::SimResult
fakeResult(std::uint64_t zeros, mil::Cycle cycles, double dram_mj)
{
    mil::SimResult r;
    r.bus.zerosTransferred = zeros;
    r.cycles = cycles;
    r.dramEnergy.ioMj = dram_mj;
    r.systemEnergy.dram = r.dramEnergy;
    r.systemEnergy.processorMj = 10;
    return r;
}

void
testPaperShape()
{
    const std::vector<PolicyPair> good = {
        {"ddr4", "A", fakeResult(100, 1000, 10), fakeResult(50, 1010, 9)},
        {"lpddr3", "A", fakeResult(100, 1000, 10), fakeResult(50, 1020, 8)},
    };
    expectPass("paper shape", checkPaperShape(good));

    // A MiL cell with more zeros than its DBI pair.
    std::vector<PolicyPair> more_zeros = good;
    more_zeros[1].mil.bus.zerosTransferred = 101;
    expectFail("fewer zeros (MiL above DBI)", checkFewerZeros(more_zeros));
    expectFail("paper shape (MiL above DBI)", checkPaperShape(more_zeros));

    std::vector<PolicyPair> slow = good;
    slow[0].mil.cycles = 1030;
    expectFail("paper shape (DDR4 slowdown)", checkPaperShape(slow));

    std::vector<PolicyPair> saving = good;
    saving[1].mil.dramEnergy.ioMj = 9.5;
    expectFail("paper shape (LPDDR3 saving)", checkPaperShape(saving));
}

void
testWarmPass()
{
    const std::string csv = "system,workload\nddr4,GUPS\n";
    expectPass("warm pass", checkWarmPass(csv, csv, 0));
    expectFail("warm pass (CSV differs)",
               checkWarmPass(csv, "system,workload\nddr4,GUPs\n", 0));
    expectFail("warm pass (simulated a cell)", checkWarmPass(csv, csv, 1));
}

void
testVerifyData()
{
    mil::SystemConfig config = mil::makeSystemConfig("ddr4");
    expectPass("verifyData", checkVerifyData(config));
    config.controller.verifyData = false;
    expectFail("verifyData (off)", checkVerifyData(config));
}

} // anonymous namespace

int
main()
{
    testTracedRun();
    testCodecFrames();
    testPaperShape();
    testWarmPass();
    testVerifyData();
    if (failures != 0) {
        std::cerr << failures << " self-test(s) failed\n";
        return 1;
    }
    std::cout << "all checks have teeth\n";
    return 0;
}
