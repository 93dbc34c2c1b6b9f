#include "checks.hh"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/bitops.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

namespace perfbench
{

namespace
{

using mil::obs::Event;
using mil::obs::EventKind;

bool
isBurst(const Event &e)
{
    return e.kind == EventKind::Read || e.kind == EventKind::Write;
}

template <typename... Args>
std::string
describe(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // anonymous namespace

std::string
checkRetired(const mil::SimResult &result, std::uint64_t expected)
{
    if (result.totalOps == expected)
        return {};
    return describe("retired ", result.totalOps, " memory ops, expected ",
                    expected);
}

std::string
checkVerifyData(const mil::SystemConfig &config)
{
    if (config.controller.verifyData)
        return {};
    return describe("system ", config.name,
                    ": ControllerConfig::verifyData is off");
}

std::string
checkBurstsDisjoint(const std::vector<Event> &events)
{
    std::map<std::uint32_t, std::vector<std::pair<mil::Cycle, mil::Cycle>>>
        windows;
    for (const Event &e : events)
        if (isBurst(e))
            windows[e.channel].emplace_back(e.dataStart, e.dataEnd);
    for (auto &[channel, list] : windows) {
        std::sort(list.begin(), list.end());
        for (std::size_t i = 1; i < list.size(); ++i) {
            if (list[i].first < list[i - 1].second)
                return describe("channel ", channel, ": burst [",
                                list[i].first, ", ", list[i].second,
                                ") overlaps [", list[i - 1].first, ", ",
                                list[i - 1].second, ")");
        }
    }
    return {};
}

std::string
checkBurstWeights(const std::vector<Event> &events)
{
    for (const Event &e : events) {
        if (!isBurst(e))
            continue;
        // (symbol bits, zero bound per symbol) of the bounded codes.
        unsigned width = 0;
        unsigned bound = 0;
        if (e.scheme == "3-LWC") {
            width = 17;
            bound = 3;
        } else if (e.scheme == "DBI") {
            width = 9;
            bound = 4;
        } else {
            continue;
        }
        if (e.bits % width != 0 || e.zeros > bound * (e.bits / width))
            return describe(e.scheme, " burst at cycle ", e.dataStart,
                            " on channel ", e.channel, ": ", e.zeros,
                            " zeros in ", e.bits, " bits exceeds ", bound,
                            " per ", width, "-bit symbol");
    }
    return {};
}

std::string
checkEventTotals(const std::vector<Event> &events,
                 const mil::SimResult &result)
{
    std::uint64_t bits = 0;
    std::uint64_t zeros = 0;
    for (const Event &e : events) {
        if (isBurst(e) || e.kind == EventKind::CrcRetry) {
            bits += e.bits;
            zeros += e.zeros;
        }
    }
    if (bits == result.bus.bitsTransferred &&
        zeros == result.bus.zerosTransferred)
        return {};
    return describe("traced bursts carry ", bits, " bits / ", zeros,
                    " zeros; the bus counters say ",
                    result.bus.bitsTransferred, " / ",
                    result.bus.zerosTransferred);
}

std::string
checkRoundTrip(const mil::Code &code, mil::LineView line,
               const mil::BusFrame &frame, const mil::Line &decoded)
{
    if (!std::equal(line.begin(), line.end(), decoded.begin()))
        return describe(code.name(), ": decode(encode(line)) differs");
    const std::string name = code.name();
    if (name == "3-LWC") {
        for (std::uint64_t k = 0; k + 17 <= frame.totalBits(); k += 17) {
            if (mil::zeroCount(frame.linearField(k, 17), 17) > 3)
                return describe("3-LWC: symbol at bit ", k,
                                " has more than 3 zeros");
        }
    } else if (name == "DBI") {
        for (unsigned beat = 0; beat < frame.beats(); ++beat) {
            for (unsigned c = 0; c < 8; ++c) {
                const unsigned zeros =
                    mil::zeroCount(frame.laneField(beat, c * 8, 8), 8) +
                    (frame.bitAt(beat, 64 + c) ? 0 : 1);
                if (zeros > 4)
                    return describe("DBI: byte ", c, " of beat ", beat,
                                    " has ", zeros, " zeros");
            }
        }
    }
    return {};
}

std::string
checkSameResult(const mil::SimResult &a, const mil::SimResult &b)
{
    const auto &x = a.bus;
    const auto &y = b.bus;
    const bool same = a.cycles == b.cycles && a.totalOps == b.totalOps &&
        x.reads == y.reads && x.writes == y.writes &&
        x.activates == y.activates && x.precharges == y.precharges &&
        x.refreshes == y.refreshes &&
        x.bitsTransferred == y.bitsTransferred &&
        x.zerosTransferred == y.zerosTransferred &&
        x.wireTransitions == y.wireTransitions &&
        x.busBusyCycles == y.busBusyCycles &&
        x.idlePendingCycles == y.idlePendingCycles &&
        a.l1.hits == b.l1.hits && a.l1.misses == b.l1.misses &&
        a.l2.hits == b.l2.hits && a.l2.misses == b.l2.misses &&
        a.l2.blockedAccesses == b.l2.blockedAccesses &&
        a.prefetcher.prefetchesIssued == b.prefetcher.prefetchesIssued &&
        a.prefetcher.streamAllocations == b.prefetcher.streamAllocations &&
        a.dramEnergy.totalMj() == b.dramEnergy.totalMj() &&
        a.systemEnergy.totalMj() == b.systemEnergy.totalMj() &&
        mil::CsvReporter::metricsFragment(a) ==
            mil::CsvReporter::metricsFragment(b);
    if (same)
        return {};
    return describe("results differ: ", a.totalOps, " vs ", b.totalOps,
                    " ops, ", a.cycles, " vs ", b.cycles, " cycles, ",
                    x.zerosTransferred, " vs ", y.zerosTransferred,
                    " zeros");
}

std::string
checkWarmPass(const std::string &cold_csv, const std::string &warm_csv,
              std::size_t warm_simulated)
{
    if (warm_simulated != 0)
        return describe("warm pass simulated ", warm_simulated,
                        " cells, expected 0");
    if (cold_csv != warm_csv)
        return "warm pass CSV differs from the cold pass";
    return {};
}

PairRatios
pairRatios(const std::vector<PolicyPair> &pairs)
{
    std::vector<double> zeros, dram, sys, slow;
    for (const auto &p : pairs) {
        zeros.push_back(static_cast<double>(p.mil.bus.zerosTransferred) /
                        static_cast<double>(p.dbi.bus.zerosTransferred));
        dram.push_back(p.mil.dramEnergy.totalMj() /
                       p.dbi.dramEnergy.totalMj());
        sys.push_back(p.mil.systemEnergy.totalMj() /
                      p.dbi.systemEnergy.totalMj());
        slow.push_back(static_cast<double>(p.mil.cycles) /
                       static_cast<double>(p.dbi.cycles));
    }
    return {mil::geomean(zeros), mil::geomean(dram), mil::geomean(sys),
            mil::geomean(slow)};
}

std::string
checkFewerZeros(const std::vector<PolicyPair> &pairs)
{
    for (const auto &p : pairs) {
        if (p.mil.bus.zerosTransferred >= p.dbi.bus.zerosTransferred)
            return describe(p.system, "/", p.workload, ": MiL moved ",
                            p.mil.bus.zerosTransferred,
                            " zeros, DBI only ",
                            p.dbi.bus.zerosTransferred);
    }
    return {};
}

std::string
checkPaperShape(const std::vector<PolicyPair> &pairs)
{
    if (std::string error = checkFewerZeros(pairs); !error.empty())
        return error;
    std::map<std::string, std::vector<PolicyPair>> by_system;
    for (const auto &p : pairs)
        by_system[p.system].push_back(p);
    const std::map<std::string, double> slowdown_bound = {
        {"ddr4", 1.02}, {"lpddr3", 1.04}};
    for (const auto &[system, bound] : slowdown_bound) {
        const auto it = by_system.find(system);
        if (it == by_system.end())
            return describe("the grid has no ", system, " pairs");
        const double slowdown = pairRatios(it->second).slowdown;
        if (slowdown > bound)
            return describe(system, ": geomean slowdown ", slowdown,
                            " exceeds ", bound);
    }
    const double ddr4 = pairRatios(by_system["ddr4"]).dramEnergy;
    const double lpddr3 = pairRatios(by_system["lpddr3"]).dramEnergy;
    if (!(1.0 - lpddr3 > 1.0 - ddr4))
        return describe("LPDDR3 DRAM-energy saving ", 1.0 - lpddr3,
                        " does not exceed DDR4's ", 1.0 - ddr4);
    return {};
}

} // namespace perfbench
