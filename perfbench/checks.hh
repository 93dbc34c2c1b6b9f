/**
 * @file
 * The benchmark's correctness checks.
 *
 * Each check compares an output against a property the method must
 * have, or against the same quantity reached by an independent path;
 * none compares against a stored copy of an earlier output. A check
 * returns an empty string when it passes and a one-line diagnosis
 * when it fails, so perfbench_selftest can feed each one a doctored
 * input and see it fail.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coding/code.hh"
#include "obs/event.hh"
#include "sim/system.hh"

namespace perfbench
{

/** Every run retires exactly @p expected memory ops. */
std::string checkRetired(const mil::SimResult &result,
                         std::uint64_t expected);

/** The controller's decode-every-frame self-check is on. */
std::string checkVerifyData(const mil::SystemConfig &config);

/** No two data bursts on one channel overlap in [dataStart, dataEnd). */
std::string checkBurstsDisjoint(const std::vector<mil::obs::Event> &events);

/**
 * Every traced 3-LWC burst carries at most 3 zeros per 17-bit symbol
 * and every DBI burst at most 4 zeros per 9 bits.
 */
std::string checkBurstWeights(const std::vector<mil::obs::Event> &events);

/** The traced bursts' bit and zero totals equal the bus counters. */
std::string checkEventTotals(const std::vector<mil::obs::Event> &events,
                             const mil::SimResult &result);

/**
 * decode(encode(line)) returns @p line, and the frame obeys the code's
 * per-symbol weight bound (3-LWC: 3 zeros per 17-bit symbol; DBI: 4
 * zeros per data byte plus its DBI pin).
 */
std::string checkRoundTrip(const mil::Code &code, mil::LineView line,
                           const mil::BusFrame &frame,
                           const mil::Line &decoded);

/** Two runs of one input produced the same result. */
std::string checkSameResult(const mil::SimResult &a,
                            const mil::SimResult &b);

/** The warm pass simulated nothing and wrote the cold pass's bytes. */
std::string checkWarmPass(const std::string &cold_csv,
                          const std::string &warm_csv,
                          std::size_t warm_simulated);

/** One (system, workload) pair of the paper grid. */
struct PolicyPair
{
    std::string system;
    std::string workload;
    mil::SimResult dbi;
    mil::SimResult mil;
};

/** The four MiL-vs-DBI geomean ratios over a set of pairs. */
struct PairRatios
{
    double zeros = 0;        ///< MiL zeros / DBI zeros.
    double dramEnergy = 0;   ///< MiL / DBI DRAM energy.
    double systemEnergy = 0; ///< MiL / DBI system energy.
    double slowdown = 0;     ///< MiL cycles / DBI cycles.
};

PairRatios pairRatios(const std::vector<PolicyPair> &pairs);

/** MiL transfers fewer zeros than DBI in every pair. */
std::string checkFewerZeros(const std::vector<PolicyPair> &pairs);

/**
 * The paper grid's shape: MiL moves fewer zeros in every pair, the
 * geomean slowdown is at most 1.02 on DDR4 and 1.04 on LPDDR3, and
 * LPDDR3's DRAM-energy saving exceeds DDR4's.
 */
std::string checkPaperShape(const std::vector<PolicyPair> &pairs);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
