/**
 * @file
 * perfbench: the simulator's benchmark program.
 *
 *   perfbench --workload paper_grid|bus_saturated|latency_bound
 *             --seed N [--seconds S] [--trace 0|1] [--out-dir DIR]
 *
 * Builds the workload's inputs from the seed, times calls into the
 * simulator's public functions for --seconds, checks the outputs, and
 * prints one JSON object as the last line of standard output: the
 * end-to-end metrics with --trace 0, the per-layer metrics of a
 * separate traced run with --trace 1. See README.md for the workloads,
 * the metrics and the layer each metric belongs to.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hh"
#include "coding/dbi.hh"
#include "coding/milc.hh"
#include "coding/three_lwc.hh"
#include "common/random.hh"
#include "common/sim_error.hh"
#include "common/thread_pool.hh"
#include "mem/prefetcher.hh"
#include "probes.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/sweep_runner.hh"
#include "store/result_store.hh"
#include "workloads/trace_workload.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

/// Taken during static initialization, before main: set-up time is
/// measured from here.
const Clock::time_point kProcessStart = Clock::now();

// --- workload sizes (see README.md) --------------------------------
constexpr std::uint64_t kGridOps = 3000;
constexpr double kGridScale = 0.25;
constexpr std::uint64_t kSaturatedOps = 8000;
constexpr double kSaturatedScale = 0.25;
/// Ops in the generated latency-bound trace; each hardware thread
/// replays all of them once.
constexpr std::size_t kTraceOps = 12000;
/// The oracle runs retire this share of a run's ops per thread.
constexpr std::uint64_t kOracleDivisor = 8;
/// Ops per thread of the paper grid's two oracle cells.
constexpr std::uint64_t kGridOracleOps = 500;
/// Lines per pass and passes of the standalone codec timing.
constexpr std::size_t kCodecLines = 1024;
constexpr int kCodecPasses = 5;
/// Line addresses fed to the standalone prefetcher.
constexpr std::size_t kPrefetchMisses = 20000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    bool haveSeed = false;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".perfbench_out";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload "
                 "paper_grid|bus_saturated|latency_bound --seed N "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR]\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos ||
        text.size() > 19)
        usage(flag + " needs a whole number, got '" + text + "'");
    return std::strtoull(text.c_str(), nullptr, 10);
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parseUnsigned(flag, value);
            opt.haveSeed = true;
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(parseUnsigned(flag, value));
            if (opt.seconds < 1 || opt.seconds > 600)
                usage("--seconds must be in [1, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            opt.trace = value == "1";
        } else if (flag == "--out-dir") {
            opt.outDir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!opt.haveSeed)
        usage("--seed is required");
    return opt;
}

// --- reporting -----------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one benchmark process prints. */
struct Report
{
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// The traced run's aggregated calls, written beside the spans.
    std::map<std::string, CallStats> calls;

    /** Record a failed check (an empty @p error means it passed). */
    void
    expect(const std::string &what, const std::string &error)
    {
        if (!error.empty())
            failures.push_back(what + ": " + error);
    }

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** CPUs this process may run on (what nproc prints). */
unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return mil::ThreadPool::hardwareConcurrency();
}

// --- host speed ----------------------------------------------------

/// What calibrate() takes on the reference host, a 4-CPU Xeon KVM
/// guest (see README.md): host-time end-to-end metrics are given in
/// seconds of that host.
constexpr double kReferenceCalibrationS = 0.2;

/// Keeps the calibration kernel's result alive.
volatile std::uint32_t calibrationSink = 0;

/**
 * Host seconds of a fixed kernel that owes nothing to the simulator: a
 * dependent walk around a 4 MiB random cycle and four sorts of 2^18
 * random words, a mix of cache-missing loads and branches. Timed right
 * after a timed pass, it says how fast the host ran any program just
 * then. On a shared host that speed drifts by tenths over minutes; a
 * pass's time scaled by kReferenceCalibrationS / calibrate() drifts
 * less (see README.md).
 */
double
calibrate()
{
    constexpr std::uint32_t kCycleWords = 1u << 20;
    constexpr std::size_t kSortWords = std::size_t{1} << 18;
    static thread_local std::vector<std::uint32_t> cycle, words;
    std::mt19937 rng(1);
    if (cycle.empty()) {
        // Sattolo's shuffle: a single cycle through every slot.
        cycle.resize(kCycleWords);
        std::iota(cycle.begin(), cycle.end(), 0u);
        for (std::uint32_t i = kCycleWords - 1; i > 0; --i)
            std::swap(cycle[i], cycle[rng() % i]);
        words.resize(kSortWords);
    }
    const Clock::time_point start = Clock::now();
    std::uint32_t at = 0;
    for (std::uint32_t i = 0; i < 2 * kCycleWords; ++i)
        at = cycle[at];
    for (int pass = 0; pass < 4; ++pass) {
        for (std::uint32_t &word : words)
            word = static_cast<std::uint32_t>(rng());
        std::sort(words.begin(), words.end());
        at ^= words[at % kSortWords];
    }
    const double seconds = secondsSince(start);
    calibrationSink = at;
    return seconds;
}

/**
 * calibrate() on @p threads threads at once, as a timed pass just ran
 * its simulations; returns the median.
 */
double
calibrateAll(unsigned threads)
{
    std::vector<double> seconds(threads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t)
        workers.emplace_back([&seconds, t] { seconds[t] = calibrate(); });
    for (std::thread &worker : workers)
        worker.join();
    return median(seconds);
}

/** @p seconds on the host, in seconds of the reference host. */
double
referenceSeconds(double seconds, double calibration_s)
{
    return ratio(seconds * kReferenceCalibrationS, calibration_s);
}

// --- inputs and simulations ----------------------------------------

/** One simulation's input: a spec plus, for a replay, its trace. */
struct Input
{
    mil::RunSpec spec;
    std::shared_ptr<const std::vector<mil::TraceOp>> trace;
};

/**
 * The latency-bound replay: blocking loads and a share of stores (each
 * storing its op index, a small counter), spread over 256 MiB, each
 * after a long compute gap, so the bus idles for most cycles and the
 * run's host time goes to skipping them.
 */
std::vector<mil::TraceOp>
makeLatencyTrace(std::uint64_t seed)
{
    constexpr mil::Addr base = 0x4000'0000;
    constexpr std::uint64_t lines = std::uint64_t{1} << 22;
    mil::Rng rng(seed);
    std::vector<mil::TraceOp> ops(kTraceOps);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        mil::TraceOp &op = ops[i];
        op.addr = base + rng.below(lines) * mil::lineBytes +
            rng.below(8) * 8;
        op.gap = static_cast<std::uint32_t>(rng.range(1500, 4500));
        op.isWrite = rng.chance(0.25);
        op.blocking = !op.isWrite;
        if (op.isWrite)
            op.value = i;
    }
    return ops;
}

mil::WorkloadPtr
makeInputWorkload(const Input &in)
{
    mil::WorkloadConfig config;
    config.scale = in.spec.scale;
    if (in.spec.seed != 0)
        config.seed = in.spec.seed;
    if (in.trace)
        return std::make_unique<mil::TraceWorkload>(config, *in.trace);
    return mil::makeWorkload(in.spec.workload, config);
}

/** Host seconds of one simulation's phases. */
struct SimTimes
{
    double initS = 0;  ///< Workload construction.
    double setupS = 0; ///< System construction.
    double runS = 0;   ///< System::run.
};

/**
 * One constructed simulation, run once. Built the way runSpecFresh
 * builds it, so the paper grid's traced cells can be compared with
 * the SweepRunner's; with @p probes, the policy, codes, op streams and
 * trace sink are the timed wrappers.
 */
class Simulation
{
  public:
    Simulation(const Input &in, Probes *probes, SimTimes &times)
        : config_(mil::makeSystemConfig(in.spec.system))
    {
        config_.tickMode = in.spec.tickMode;
        const Clock::time_point init = Clock::now();
        workload_ = makeInputWorkload(in);
        times.initS = secondsSince(init);

        const Clock::time_point setup = Clock::now();
        policy_ = mil::makePolicy(in.spec.policy, in.spec.lookahead);
        const mil::Workload *workload = workload_.get();
        mil::CodingPolicy *policy = policy_.get();
        if (probes != nullptr) {
            timedWorkload_ =
                std::make_unique<TimedWorkload>(*workload_, *probes);
            timedPolicy_ = std::make_unique<TimedPolicy>(*policy_, *probes);
            sink_ = std::make_unique<TimedSink>(*probes);
            workload = timedWorkload_.get();
            policy = timedPolicy_.get();
        }
        system_ = std::make_unique<mil::System>(config_, *workload, policy,
                                                in.spec.opsPerThread);
        if (sink_)
            system_->setTraceSink(sink_.get());
        times.setupS = secondsSince(setup);

        std::uint64_t per_thread = in.spec.opsPerThread;
        if (in.trace)
            per_thread = std::min<std::uint64_t>(per_thread,
                                                 in.trace->size());
        expectedOps_ = per_thread * config_.cores * config_.core.threads;
    }

    mil::SimResult
    run(SimTimes &times)
    {
        const Clock::time_point start = Clock::now();
        mil::SimResult result = system_->run();
        times.runS = secondsSince(start);
        return result;
    }

    const mil::SystemConfig &config() const { return config_; }
    std::uint64_t expectedOps() const { return expectedOps_; }
    TimedSink *sink() { return sink_.get(); }

    /** TickMode::Auto phase switches of the finished run. */
    std::uint64_t
    autoSwitches() const
    {
        return system_->autoSwitchesToCycle() +
            system_->autoSwitchesToEvent();
    }

  private:
    mil::SystemConfig config_;
    mil::WorkloadPtr workload_;
    std::unique_ptr<mil::CodingPolicy> policy_;
    std::unique_ptr<TimedWorkload> timedWorkload_;
    std::unique_ptr<TimedPolicy> timedPolicy_;
    std::unique_ptr<TimedSink> sink_;
    std::uint64_t expectedOps_ = 0;
    std::unique_ptr<mil::System> system_; // Last: destroyed first.
};

/** The checks a traced simulation must pass: the first failure, or "". */
std::string
checkTraced(Simulation &sim, const mil::SimResult &result)
{
    const auto &events = sim.sink()->events();
    for (std::string error :
         {checkRetired(result, sim.expectedOps()), checkBurstsDisjoint(events),
          checkBurstWeights(events), checkEventTotals(events, result)}) {
        if (!error.empty())
            return error;
    }
    return {};
}

/** The three codes MiL and its DBI baseline drive. */
const std::vector<const mil::Code *> &
busCodes()
{
    static const mil::DbiCode dbi;
    static const mil::MilcCode milc;
    static const mil::ThreeLwcCode lwc;
    static const std::vector<const mil::Code *> codes = {&dbi, &milc, &lwc};
    return codes;
}

/** Build the codes' lazy tables before anything is timed. */
void
warmCodecTables()
{
    mil::Line line{};
    for (std::size_t i = 0; i < line.size(); ++i)
        line[i] = static_cast<std::uint8_t>(i * 37);
    for (const mil::Code *code : busCodes()) {
        if (code->decode(code->encode(line)) != line)
            throw mil::SimError(code->name() + " round trip failed");
    }
}

// --- standalone layer timings (traced run) -------------------------

/** Line addresses and line images an input's op streams touch. */
struct StreamSample
{
    std::vector<mil::Addr> lineAddrs;
    std::vector<mil::Line> lines;
};

/**
 * Draw @p naddrs ops round-robin over every hardware thread's stream
 * and keep their line addresses, plus the images (initial contents
 * with the sampled stores applied) of the first @p nlines lines they
 * touch.
 */
StreamSample
sampleStreams(const Input &in, std::size_t naddrs, std::size_t nlines)
{
    const mil::SystemConfig config = mil::makeSystemConfig(in.spec.system);
    const mil::WorkloadPtr workload = makeInputWorkload(in);
    mil::FunctionalMemory mem;
    workload->registerRegions(mem);
    const unsigned nthreads = config.cores * config.core.threads;
    std::vector<mil::ThreadStreamPtr> streams;
    for (unsigned t = 0; t < nthreads; ++t)
        streams.push_back(workload->makeStream(t, nthreads));

    StreamSample sample;
    std::map<mil::Addr, mil::Line> images;
    bool more = true;
    while (sample.lineAddrs.size() < naddrs && more) {
        more = false;
        for (auto &stream : streams) {
            mil::CoreMemOp op;
            if (sample.lineAddrs.size() >= naddrs || !stream->next(op))
                continue;
            more = true;
            const mil::Addr line_addr = op.addr & ~mil::Addr{63};
            sample.lineAddrs.push_back(line_addr);
            auto it = images.find(line_addr);
            if (it == images.end() && images.size() < nlines)
                it = images.emplace(line_addr, mem.read(line_addr)).first;
            if (it != images.end() && op.isWrite) {
                const std::size_t at = op.addr & 56;
                for (unsigned b = 0; b < 8; ++b)
                    it->second[at + b] = static_cast<std::uint8_t>(
                        op.storeValue >> (8 * b));
            }
        }
    }
    for (const auto &[addr, line] : images)
        sample.lines.push_back(line);
    return sample;
}

struct CodecTiming
{
    double encodeNs = 0;
    double decodeNs = 0;
};

/**
 * Per-line encode and decode host ns of the three codes MiL and its
 * baseline use, median over passes; every round trip is checked.
 */
std::map<std::string, CodecTiming>
timeCodecs(Report &report, const std::vector<mil::Line> &lines)
{
    std::map<std::string, CodecTiming> timings;
    for (const mil::Code *code : busCodes()) {
        std::vector<double> enc_ns, dec_ns;
        std::vector<mil::BusFrame> frames(lines.size());
        std::vector<mil::Line> decoded(lines.size());
        for (int pass = 0; pass < kCodecPasses; ++pass) {
            const std::uint64_t t0 = nowNs();
            for (std::size_t i = 0; i < lines.size(); ++i)
                frames[i] = code->encode(lines[i]);
            const std::uint64_t t1 = nowNs();
            for (std::size_t i = 0; i < lines.size(); ++i)
                decoded[i] = code->decode(frames[i]);
            const std::uint64_t t2 = nowNs();
            enc_ns.push_back(static_cast<double>(t1 - t0));
            dec_ns.push_back(static_cast<double>(t2 - t1));
        }
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::string error =
                checkRoundTrip(*code, lines[i], frames[i], decoded[i]);
            if (!error.empty()) {
                report.expect("codec round trip", error);
                break;
            }
        }
        const double n = static_cast<double>(std::max<std::size_t>(
            lines.size(), 1));
        timings[code->name()] = {median(enc_ns) / n, median(dec_ns) / n};
    }
    return timings;
}

/**
 * Host ns per observeMiss of a standalone Prefetcher sized as System
 * sizes it (the Table-2 stream table times the hardware threads).
 */
double
timePrefetcher(const std::string &system,
               const std::vector<mil::Addr> &line_addrs)
{
    const mil::SystemConfig config = mil::makeSystemConfig(system);
    mil::PrefetcherParams params = config.prefetcher;
    params.nstreams *= config.cores * config.core.threads;
    mil::Prefetcher prefetcher(params);
    std::vector<mil::Addr> drained;
    const std::uint64_t start = nowNs();
    mil::Cycle now = 0;
    for (mil::Addr addr : line_addrs) {
        prefetcher.observeMiss(addr, now++);
        prefetcher.drainPending(drained);
        drained.clear();
    }
    return ratio(static_cast<double>(nowNs() - start),
                 static_cast<double>(line_addrs.size()));
}

// --- metrics shared by the workloads --------------------------------

/** Layer counters summed over the simulations a workload ran. */
struct LayerTotals
{
    Probes probes;
    double runS = 0;
    double setupS = 0;
    double initS = 0;
    std::vector<double> cellS;
    double passS = 0;
    unsigned jobs = 1;
    std::uint64_t cycles = 0;
    std::uint64_t ops = 0;
    mil::CacheStats l1;
    mil::CacheStats l2;
    mil::PrefetcherStats prefetcher;
    mil::ChannelStats bus;
    std::uint64_t milBursts = 0;
    std::uint64_t milLongBursts = 0;
    double ioMj = 0;
    double backgroundMj = 0;

    void
    addResult(const mil::SimResult &r, const std::string &policy)
    {
        cycles += r.cycles;
        ops += r.totalOps;
        l1.hits += r.l1.hits;
        l1.misses += r.l1.misses;
        l2.hits += r.l2.hits;
        l2.misses += r.l2.misses;
        l2.blockedAccesses += r.l2.blockedAccesses;
        prefetcher.prefetchesIssued += r.prefetcher.prefetchesIssued;
        prefetcher.streamAllocations += r.prefetcher.streamAllocations;
        bus.merge(r.bus);
        if (policy == "MiL") {
            for (const auto &[name, usage] : r.bus.schemes) {
                milBursts += usage.bursts;
                if (name == "3-LWC")
                    milLongBursts += usage.bursts;
            }
        }
        ioMj += r.dramEnergy.ioMj;
        backgroundMj += r.dramEnergy.backgroundMj;
    }
};

/** Everything --trace 1 prints beyond LayerTotals. */
struct LayerExtras
{
    double autoS = 0;
    double cycleS = 0;
    std::uint64_t autoSwitches = 0;
    double warmPassS = 0;
    std::uint64_t storeBytes = 0;
    double untracedS = 0;
    double tracedS = 0;
    std::uint64_t events = 0;
    std::map<std::string, CodecTiming> codecs;
    double prefetcherNs = 0;
    double calibrationS = 0; ///< Median calibrate() of the timed phase.
};

void
addLayerMetrics(Report &report, const LayerTotals &t, const LayerExtras &x)
{
    const Probes &p = t.probes;
    report.calls["CodingPolicy::choose"] = p.choose;
    for (const auto &[scheme, stats] : p.encode)
        report.calls["Code::encode " + scheme] = stats;
    for (const auto &[scheme, stats] : p.decode)
        report.calls["Code::decode " + scheme] = stats;
    report.calls["ThreadStream::next"] = p.next;
    report.calls["TraceSink::record"] = p.record;
    const double cycles = static_cast<double>(t.cycles);
    report.add("sim.run_s", t.runS, "s");
    report.add("sim.host_ns_per_cycle", ratio(t.runS * 1e9, cycles), "ns");
    // Sink time is the tracing's own cost, not the engine's.
    report.add("sim.engine_self_s",
               t.runS -
                   static_cast<double>(p.wrappedNs() + p.record.ns) * 1e-9,
               "s");
    report.add("sim.auto_vs_cycle", ratio(x.cycleS, x.autoS), "ratio");
    report.add("sim.auto_switches", static_cast<double>(x.autoSwitches),
               "count");
    report.add("sim.setup_s", t.setupS, "s");
    report.add("workloads.init_s", t.initS, "s");

    double cell_sum = 0;
    for (double s : t.cellS)
        cell_sum += s;
    report.add("sweep.cell_s_median", median(t.cellS), "s");
    report.add("sweep.cell_s_max",
               t.cellS.empty()
                   ? 0
                   : *std::max_element(t.cellS.begin(), t.cellS.end()),
               "s");
    report.add("sweep.worker_busy_share",
               ratio(cell_sum, t.jobs * t.passS), "ratio");
    report.add("store.warm_pass_s", x.warmPassS, "s");
    report.add("store.file_bytes", static_cast<double>(x.storeBytes),
               "bytes");

    for (const char *scheme : {"DBI", "MiLC", "3-LWC"}) {
        const auto it = x.codecs.find(scheme);
        const CodecTiming timing =
            it == x.codecs.end() ? CodecTiming{} : it->second;
        report.add(std::string("coding.") + scheme + ".encode_ns",
                   timing.encodeNs, "ns");
        report.add(std::string("coding.") + scheme + ".decode_ns",
                   timing.decodeNs, "ns");
    }
    const CallStats codec = p.codec();
    report.add("coding.calls", static_cast<double>(codec.calls), "count");
    report.add("coding.share",
               ratio(static_cast<double>(codec.ns) * 1e-9, t.runS),
               "ratio");
    report.add("mil.choose_ns",
               ratio(static_cast<double>(p.choose.ns),
                     static_cast<double>(p.choose.calls)),
               "ns");
    report.add("mil.choose_calls", static_cast<double>(p.choose.calls),
               "count");
    report.add("mil.long_code_share",
               ratio(static_cast<double>(t.milLongBursts),
                     static_cast<double>(t.milBursts)),
               "ratio");
    report.add("workloads.next_ns",
               ratio(static_cast<double>(p.next.ns),
                     static_cast<double>(p.next.calls)),
               "ns");
    report.add("workloads.ops", static_cast<double>(t.ops), "count");
    report.add("mem.prefetcher_ns_per_miss", x.prefetcherNs, "ns");
    report.add("mem.stream_allocations",
               static_cast<double>(t.prefetcher.streamAllocations), "count");
    report.add("mem.prefetches_issued",
               static_cast<double>(t.prefetcher.prefetchesIssued), "count");
    report.add("mem.l1_miss_rate", t.l1.missRate(), "ratio");
    report.add("mem.l2_miss_rate", t.l2.missRate(), "ratio");
    report.add("mem.blocked_accesses",
               static_cast<double>(t.l2.blockedAccesses), "count");

    const double columns = static_cast<double>(t.bus.reads + t.bus.writes);
    report.add("dram.bus_utilization", t.bus.utilization(), "ratio");
    report.add("dram.idle_pending_share",
               ratio(static_cast<double>(t.bus.idlePendingCycles),
                     static_cast<double>(t.bus.totalCycles)),
               "ratio");
    report.add("dram.acts_per_column",
               ratio(static_cast<double>(t.bus.activates), columns),
               "ratio");
    report.add("dram.bursts", columns, "count");
    report.add("power.io_mj", t.ioMj, "mJ");
    report.add("power.background_mj", t.backgroundMj, "mJ");
    report.add("obs.events", static_cast<double>(x.events), "count");
    report.add("obs.trace_overhead", ratio(x.tracedS, x.untracedS),
               "ratio");
    report.add("host.calibration_s", x.calibrationS, "s");
}

/** End-to-end metrics, in BENCHMARK.json order. */
struct EndToEnd
{
    double setupS = 0;
    double memOpsPerS = 0;
    double simCyclesPerS = 0;
    double cellsPerS = 0;
    double simCycles = 0;
    double dramEnergyMj = 0;
    PairRatios ratios;
};

void
addEndToEndMetrics(Report &report, const EndToEnd &e)
{
    report.add("setup_s", e.setupS, "s");
    report.add("mem_ops_per_s", e.memOpsPerS, "ops/s");
    report.add("sim_cycles_per_s", e.simCyclesPerS, "cycles/s");
    report.add("cells_per_s", e.cellsPerS, "cells/s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("sim_cycles", e.simCycles, "cycles");
    report.add("dram_energy_mj", e.dramEnergyMj, "mJ");
    report.add("mil_zeros_vs_dbi", e.ratios.zeros, "ratio");
    report.add("mil_dram_energy_vs_dbi", e.ratios.dramEnergy, "ratio");
    report.add("mil_system_energy_vs_dbi", e.ratios.systemEnergy, "ratio");
    report.add("mil_slowdown_vs_dbi", e.ratios.slowdown, "ratio");
}

/**
 * Short Auto and Cycle runs of each input must agree; adds the host
 * seconds of each mode to @p x.
 */
void
runOracle(Report &report, const std::vector<Input> &inputs, LayerExtras &x)
{
    for (const Input &in : inputs) {
        mil::SimResult results[2];
        double seconds[2] = {0, 0};
        bool ok = true;
        for (int m = 0; m < 2; ++m) {
            Input run = in;
            run.spec.tickMode =
                m == 0 ? mil::TickMode::Auto : mil::TickMode::Cycle;
            SimTimes times;
            ++report.attempted;
            try {
                Simulation sim(run, nullptr, times);
                results[m] = sim.run(times);
                report.expect("oracle retired ops",
                              checkRetired(results[m], sim.expectedOps()));
            } catch (const std::exception &e) {
                ++report.failed;
                ok = false;
                std::cerr << "perfbench: oracle run failed: " << e.what()
                          << "\n";
            }
            seconds[m] = times.runS;
        }
        if (ok)
            report.expect("Cycle oracle vs Auto",
                          checkSameResult(results[0], results[1]));
        x.autoS += seconds[0];
        x.cycleS += seconds[1];
    }
}

/**
 * Persist @p cells into a fresh store at @p dir, reopen it and read
 * every record back, as a warm sweep would; the fragments must match.
 */
void
storeRoundTrip(Report &report, const std::string &dir,
               const std::vector<std::pair<mil::RunSpec, mil::SimResult>>
                   &cells,
               LayerExtras &x)
{
    fs::remove_all(dir);
    {
        mil::store::ResultStore store(dir, mil::sweepStoreVersion());
        for (const auto &[spec, result] : cells)
            store.put({mil::storeKeyFor(spec), "ok", "",
                       mil::CsvReporter::metricsFragment(result)});
    }
    const Clock::time_point start = Clock::now();
    mil::store::ResultStore store(dir, mil::sweepStoreVersion());
    std::string error;
    for (const auto &[spec, result] : cells) {
        const auto rec = store.find(mil::storeKeyFor(spec));
        if (!rec || rec->csv != mil::CsvReporter::metricsFragment(result))
            error = "stored record of " + spec.key() + " differs";
    }
    x.warmPassS = secondsSince(start);
    x.storeBytes = fs::file_size(fs::path(dir) /
                                 mil::store::ResultStore::fileName());
    report.expect("store round trip", error);
}

// --- the single-simulation workloads --------------------------------

/** What one copy of a single-simulation workload's timed loop saw. */
struct CopyRounds
{
    mil::SimResult first;
    bool haveFirst = false;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< Failed checks.
    std::vector<std::string> errors;   ///< Rounds that threw.
};

/**
 * bus_saturated and latency_bound: one serial simulation of @p input,
 * repeated for the run's seconds, plus its DBI twin and the oracle.
 * Each timed round runs one independent copy of the simulation per CPU
 * at once, so the medians pool rounds from every CPU rather than from
 * the one a single copy happens to share with other work.
 */
void
runSingle(const Options &opt, Report &report, const Input &input,
          double init_s, SpanLog &spans)
{
    warmCodecTables();

    // Round 0 of copy 0 is constructed inside set-up.
    SimTimes times0;
    auto sim0 = std::make_unique<Simulation>(input, nullptr, times0);
    report.expect("verifyData", checkVerifyData(sim0->config()));
    const std::uint64_t expected = sim0->expectedOps();
    EndToEnd e2e;
    e2e.setupS = secondsSince(kProcessStart);

    const unsigned n_copies = hostCpus();
    std::vector<CopyRounds> copies(n_copies);
    std::vector<double> run_s, cal_s, run_ref_s, round_ref_s;
    const Clock::time_point phase = Clock::now();
    {
        SpanLog::Scope span(spans, "timed_phase");
        for (int round = 0; round == 0 || secondsSince(phase) < opt.seconds;
             ++round) {
            SpanLog::Scope round_span(spans, "round", span.id());
            std::vector<SimTimes> times(n_copies, times0);
            std::vector<char> ran(n_copies, 0);
            std::vector<std::thread> workers;
            for (unsigned c = 0; c < n_copies; ++c) {
                workers.emplace_back([&, c] {
                    CopyRounds &copy = copies[c];
                    try {
                        std::unique_ptr<Simulation> sim;
                        if (c == 0)
                            sim = std::move(sim0);
                        if (!sim)
                            sim = std::make_unique<Simulation>(input, nullptr,
                                                               times[c]);
                        const mil::SimResult result = sim->run(times[c]);
                        ran[c] = 1;
                        const std::string retired =
                            checkRetired(result, expected);
                        if (!retired.empty())
                            copy.failures.push_back("retired ops: " +
                                                    retired);
                        if (!copy.haveFirst) {
                            copy.first = result;
                            copy.haveFirst = true;
                        } else {
                            const std::string same =
                                checkSameResult(copy.first, result);
                            if (!same.empty())
                                copy.failures.push_back("repeat run: " +
                                                        same);
                        }
                    } catch (const std::exception &e) {
                        ++copy.failed;
                        copy.errors.push_back(e.what());
                    }
                });
            }
            for (std::thread &worker : workers)
                worker.join();
            report.attempted += n_copies;
            cal_s.push_back(calibrateAll(n_copies));
            for (unsigned c = 0; c < n_copies; ++c) {
                if (!ran[c])
                    continue;
                const SimTimes &t = times[c];
                run_s.push_back(t.runS);
                run_ref_s.push_back(referenceSeconds(t.runS, cal_s.back()));
                round_ref_s.push_back(referenceSeconds(
                    t.setupS + t.initS + t.runS, cal_s.back()));
            }
        }
    }

    mil::SimResult first;
    bool have_first = false;
    for (const CopyRounds &copy : copies) {
        report.failed += copy.failed;
        for (const std::string &failure : copy.failures)
            report.expect("timed rounds", failure);
        for (const std::string &error : copy.errors)
            std::cerr << "perfbench: run failed: " << error << "\n";
        if (!copy.haveFirst)
            continue;
        if (!have_first) {
            first = copy.first;
            have_first = true;
        } else {
            report.expect("repeat run", checkSameResult(first, copy.first));
        }
    }

    // The DBI twin of the same input gives the MiL-vs-DBI ratios.
    Input twin = input;
    twin.spec.policy = "DBI";
    mil::SimResult dbi;
    bool twin_ok = false;
    ++report.attempted;
    try {
        SimTimes times;
        Simulation sim(twin, nullptr, times);
        dbi = sim.run(times);
        report.expect("DBI twin retired ops",
                      checkRetired(dbi, sim.expectedOps()));
        twin_ok = true;
    } catch (const std::exception &e) {
        ++report.failed;
        std::cerr << "perfbench: DBI twin failed: " << e.what() << "\n";
    }
    if (have_first && twin_ok) {
        const std::vector<PolicyPair> pair = {
            {input.spec.system, input.spec.workload, dbi, first}};
        report.expect("MiL vs DBI zeros", checkFewerZeros(pair));
        e2e.ratios = pairRatios(pair);
    }

    // The per-cycle oracle on a shortened copy of the input.
    Input oracle = input;
    oracle.spec.opsPerThread = std::max<std::uint64_t>(
        1, (input.trace ? input.trace->size() : input.spec.opsPerThread) /
               kOracleDivisor);
    LayerExtras extras;
    extras.calibrationS = median(cal_s);
    runOracle(report, {oracle}, extras);

    if (have_first) {
        const double run = median(run_ref_s);
        e2e.memOpsPerS = ratio(static_cast<double>(first.totalOps), run);
        e2e.simCyclesPerS = ratio(static_cast<double>(first.cycles), run);
        e2e.cellsPerS = ratio(1.0, median(round_ref_s));
        std::cerr << "perfbench: unscaled mem_ops_per_s = "
                  << ratio(static_cast<double>(first.totalOps),
                           median(run_s))
                  << "\n";
        e2e.simCycles = static_cast<double>(first.cycles);
        e2e.dramEnergyMj = first.dramEnergy.totalMj();
    }
    if (!opt.trace) {
        addEndToEndMetrics(report, e2e);
        return;
    }

    // --- the traced run --------------------------------------------
    LayerTotals totals;
    SimTimes traced_times;
    mil::SimResult traced;
    const Clock::time_point traced_start = Clock::now();
    {
        SpanLog::Scope span(spans, "traced System::run");
        ++report.attempted;
        try {
            Simulation sim(input, &totals.probes, traced_times);
            traced = sim.run(traced_times);
            extras.autoSwitches = sim.autoSwitches();
            extras.events = sim.sink()->events().size();
            report.expect("traced run", checkTraced(sim, traced));
            if (have_first)
                report.expect("traced vs untraced",
                              checkSameResult(first, traced));
        } catch (const std::exception &e) {
            ++report.failed;
            std::cerr << "perfbench: traced run failed: " << e.what()
                      << "\n";
        }
    }
    totals.passS = secondsSince(traced_start);
    totals.runS = traced_times.runS;
    totals.setupS = traced_times.setupS;
    totals.initS = init_s;
    totals.cellS = {traced_times.initS + traced_times.setupS +
                    traced_times.runS};
    totals.addResult(traced, input.spec.policy);
    extras.tracedS = traced_times.runS;
    extras.untracedS = median(run_s);

    if (have_first && twin_ok) {
        storeRoundTrip(report, opt.outDir + "/store-" + opt.workload,
                       {{input.spec, first}, {twin.spec, dbi}}, extras);
    }
    {
        SpanLog::Scope span(spans, "standalone codec and prefetcher");
        const StreamSample sample =
            sampleStreams(input, kPrefetchMisses, kCodecLines);
        extras.codecs = timeCodecs(report, sample.lines);
        extras.prefetcherNs =
            timePrefetcher(input.spec.system, sample.lineAddrs);
    }
    addLayerMetrics(report, totals, extras);
}

// --- the paper grid -------------------------------------------------

/** Both systems x the 11 Table-3 workloads x {DBI, MiL}. */
mil::SweepGrid
paperGrid(std::uint64_t seed)
{
    mil::SweepGrid grid;
    grid.systems = {"ddr4", "lpddr3"};
    grid.workloads = mil::workloadNames();
    grid.policies = {"DBI", "MiL"};
    grid.opsPerThread = kGridOps;
    grid.scale = kGridScale;
    grid.baseSeed = seed;
    return grid;
}

std::string
sweepCsv(const std::vector<mil::SweepResult> &cells)
{
    std::ostringstream os;
    mil::writeSweepCsv(os, cells);
    return os.str();
}

/** The grid's completed cells paired by (system, workload). */
std::vector<PolicyPair>
gridPairs(const std::vector<mil::SweepResult> &cells)
{
    std::map<std::pair<std::string, std::string>, std::pair<int, PolicyPair>>
        by_key;
    for (const auto &cell : cells) {
        if (!cell.ok())
            continue;
        auto &[seen, pair] = by_key[{cell.spec.system, cell.spec.workload}];
        pair.system = cell.spec.system;
        pair.workload = cell.spec.workload;
        if (cell.spec.policy == "DBI") {
            pair.dbi = cell.result;
            seen |= 1;
        } else if (cell.spec.policy == "MiL") {
            pair.mil = cell.result;
            seen |= 2;
        }
    }
    std::vector<PolicyPair> pairs;
    for (const auto &[key, entry] : by_key)
        if (entry.first == 3)
            pairs.push_back(entry.second);
    return pairs;
}

std::uint64_t
gridExpectedOps(const mil::RunSpec &spec)
{
    const mil::SystemConfig config = mil::makeSystemConfig(spec.system);
    return spec.opsPerThread * config.cores * config.core.threads;
}

/**
 * paper_grid: the grid cold through SweepRunner with a fresh store and
 * --jobs = the host's CPUs, then warm from that store, repeated for the
 * run's seconds.
 */
void
runGrid(const Options &opt, Report &report, SpanLog &spans)
{
    warmCodecTables();
    const unsigned jobs = hostCpus();
    const mil::SweepGrid grid = paperGrid(opt.seed);
    const std::vector<mil::RunSpec> specs = grid.expand();
    const std::string store_dir = opt.outDir + "/store-paper_grid";
    for (const auto &system : grid.systems)
        report.expect("verifyData",
                      checkVerifyData(mil::makeSystemConfig(system)));

    // Round 0's store is opened inside set-up.
    fs::remove_all(store_dir);
    auto store = std::make_unique<mil::store::ResultStore>(
        store_dir, mil::sweepStoreVersion());
    EndToEnd e2e;
    e2e.setupS = secondsSince(kProcessStart);

    std::vector<double> cold_s, cal_s, cold_ref_s, warm_s;
    std::vector<mil::SweepResult> first;
    std::string first_csv;
    LayerExtras extras;
    const Clock::time_point phase = Clock::now();
    {
        SpanLog::Scope span(spans, "timed_phase");
        for (int round = 0; round == 0 || secondsSince(phase) < opt.seconds;
             ++round) {
            if (!store) {
                fs::remove_all(store_dir);
                store = std::make_unique<mil::store::ResultStore>(
                    store_dir, mil::sweepStoreVersion());
            }
            mil::SweepRunner cold(jobs);
            cold.setUseCache(false);
            cold.setStore(store.get());
            Clock::time_point start = Clock::now();
            std::vector<mil::SweepResult> cells;
            {
                SpanLog::Scope pass(spans, "SweepRunner::run cold",
                                    span.id());
                cells = cold.run(grid);
            }
            cold_s.push_back(secondsSince(start));
            store.reset(); // Close the log before the warm pass opens it.
            cal_s.push_back(calibrateAll(jobs));
            cold_ref_s.push_back(referenceSeconds(cold_s.back(),
                                                  cal_s.back()));

            report.attempted += cells.size();
            for (const auto &cell : cells) {
                if (!cell.ok()) {
                    ++report.failed;
                    std::cerr << "perfbench: cell " << cell.spec.key()
                              << " failed: " << cell.error << "\n";
                    continue;
                }
                report.expect(cell.spec.key() + " retired ops",
                              checkRetired(cell.result,
                                           gridExpectedOps(cell.spec)));
            }
            const std::string csv = sweepCsv(cells);

            start = Clock::now();
            {
                SpanLog::Scope pass(spans, "SweepRunner::run warm",
                                    span.id());
                mil::store::ResultStore warm_store(store_dir,
                                                   mil::sweepStoreVersion());
                mil::SweepRunner warm(jobs);
                warm.setStore(&warm_store);
                const std::vector<mil::SweepResult> warm_cells =
                    warm.run(grid);
                warm_s.push_back(secondsSince(start));
                report.expect("warm pass",
                              checkWarmPass(csv, sweepCsv(warm_cells),
                                            warm.lastRunStats().simulated));
            }
            extras.storeBytes = fs::file_size(
                fs::path(store_dir) / mil::store::ResultStore::fileName());

            if (round == 0) {
                first = std::move(cells);
                first_csv = csv;
            } else if (csv != first_csv) {
                report.expect("repeat grid",
                              "cold CSV differs from the first round's");
            }
        }
    }

    const std::vector<PolicyPair> pairs = gridPairs(first);
    if (pairs.size() != specs.size() / 2)
        report.expect("paper shape", "only " +
                                         std::to_string(pairs.size()) +
                                         " complete MiL/DBI pairs");
    else
        report.expect("paper shape", checkPaperShape(pairs));
    e2e.ratios = pairRatios(pairs);
    for (const std::string system : {"ddr4", "lpddr3"}) {
        std::vector<PolicyPair> own;
        std::vector<double> io;
        for (const auto &p : pairs) {
            if (p.system != system)
                continue;
            own.push_back(p);
            io.push_back(p.mil.dramEnergy.ioMj / p.dbi.dramEnergy.ioMj);
        }
        const PairRatios r = pairRatios(own);
        std::cout << "# " << system << " MiL/DBI geomeans: zeros " << r.zeros
                  << ", IO energy " << mil::geomean(io) << ", DRAM energy "
                  << r.dramEnergy << ", system energy " << r.systemEnergy
                  << ", slowdown " << r.slowdown << "\n";
    }

    double cycles = 0;
    double ops = 0;
    for (const auto &cell : first) {
        cycles += static_cast<double>(cell.result.cycles);
        ops += static_cast<double>(cell.result.totalOps);
        e2e.dramEnergyMj += cell.result.dramEnergy.totalMj();
    }
    const double cold = median(cold_s);
    const double cold_ref = median(cold_ref_s);
    e2e.memOpsPerS = ratio(ops, cold_ref);
    e2e.simCyclesPerS = ratio(cycles, cold_ref);
    e2e.cellsPerS = ratio(static_cast<double>(specs.size()), cold_ref);
    e2e.simCycles = cycles;
    extras.calibrationS = median(cal_s);
    std::cerr << "perfbench: unscaled mem_ops_per_s = " << ratio(ops, cold)
              << "\n";

    // Two short cells of the grid's own inputs under the oracle.
    std::vector<Input> oracle;
    for (const auto &spec : specs) {
        if (spec.policy == "MiL" &&
            ((spec.system == "ddr4" && spec.workload == "MM") ||
             (spec.system == "lpddr3" && spec.workload == "GUPS"))) {
            Input in;
            in.spec = spec;
            in.spec.opsPerThread = kGridOracleOps;
            oracle.push_back(in);
        }
    }
    runOracle(report, oracle, extras);

    if (!opt.trace) {
        addEndToEndMetrics(report, e2e);
        return;
    }

    // --- the traced pass: every cell with probes, on `jobs` threads --
    const std::size_t n = specs.size();
    std::vector<Probes> probes(n);
    std::vector<SimTimes> times(n);
    std::vector<double> cell_s(n, 0);
    std::vector<mil::SimResult> traced(n);
    std::vector<std::string> errors(n);
    std::vector<std::uint64_t> events(n, 0), switches(n, 0);
    std::vector<char> failed(n, 0);
    const Clock::time_point traced_start = Clock::now();
    {
        SpanLog::Scope span(spans, "traced grid");
        mil::ThreadPool pool(jobs - 1);
        pool.parallelFor(n, [&](std::size_t i) {
            SpanLog::Scope cell(spans, "cell " + specs[i].key(), span.id());
            const Clock::time_point start = Clock::now();
            try {
                Input in;
                in.spec = specs[i];
                Simulation sim(in, &probes[i], times[i]);
                traced[i] = sim.run(times[i]);
                switches[i] = sim.autoSwitches();
                events[i] = sim.sink()->events().size();
                errors[i] = checkTraced(sim, traced[i]);
            } catch (const std::exception &e) {
                failed[i] = 1;
                errors[i] = e.what();
            }
            cell_s[i] = secondsSince(start);
        });
    }
    LayerTotals totals;
    totals.jobs = jobs;
    totals.passS = secondsSince(traced_start);
    report.attempted += n;
    for (std::size_t i = 0; i < n; ++i) {
        if (failed[i]) {
            ++report.failed;
            std::cerr << "perfbench: traced cell " << specs[i].key()
                      << " failed: " << errors[i] << "\n";
            continue;
        }
        report.expect("traced " + specs[i].key(), errors[i]);
        if (i < first.size() && first[i].ok())
            report.expect("traced vs untraced " + specs[i].key(),
                          checkSameResult(first[i].result, traced[i]));
        totals.probes += probes[i];
        totals.runS += times[i].runS;
        totals.setupS += times[i].setupS;
        totals.initS += times[i].initS;
        totals.cellS.push_back(cell_s[i]);
        totals.addResult(traced[i], specs[i].policy);
        extras.events += events[i];
        extras.autoSwitches += switches[i];
    }
    extras.tracedS = totals.passS;
    extras.untracedS = cold;
    extras.warmPassS = median(warm_s);

    {
        SpanLog::Scope span(spans, "standalone codec and prefetcher");
        StreamSample all;
        const std::size_t nwl = mil::workloadNames().size();
        for (const auto &spec : specs) {
            if (spec.system != "ddr4" || spec.policy != "MiL")
                continue;
            Input in;
            in.spec = spec;
            const StreamSample s = sampleStreams(
                in, kPrefetchMisses / nwl, kCodecLines / nwl);
            all.lineAddrs.insert(all.lineAddrs.end(), s.lineAddrs.begin(),
                                 s.lineAddrs.end());
            all.lines.insert(all.lines.end(), s.lines.begin(),
                             s.lines.end());
        }
        extras.codecs = timeCodecs(report, all.lines);
        extras.prefetcherNs = timePrefetcher("ddr4", all.lineAddrs);
    }
    addLayerMetrics(report, totals, extras);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    Report report;
    SpanLog spans;
    try {
        fs::create_directories(opt.outDir);
        if (opt.workload == "paper_grid") {
            runGrid(opt, report, spans);
        } else if (opt.workload == "bus_saturated") {
            const Clock::time_point init = Clock::now();
            Input in;
            in.spec.system = "ddr4";
            in.spec.workload = "GUPS";
            in.spec.policy = "MiL";
            in.spec.opsPerThread = kSaturatedOps;
            in.spec.scale = kSaturatedScale;
            in.spec.seed = opt.seed;
            runSingle(opt, report, in, secondsSince(init), spans);
        } else if (opt.workload == "latency_bound") {
            const Clock::time_point init = Clock::now();
            Input in;
            in.spec.system = "ddr4";
            in.spec.workload = "TRACE";
            in.spec.policy = "MiL";
            in.spec.seed = opt.seed;
            in.trace = std::make_shared<const std::vector<mil::TraceOp>>(
                makeLatencyTrace(opt.seed));
            in.spec.opsPerThread = in.trace->size();
            runSingle(opt, report, in, secondsSince(init), spans);
        } else {
            usage("unknown workload '" + opt.workload + "'");
        }
        fs::remove_all(opt.outDir + "/store-" + opt.workload);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    if (opt.trace) {
        const std::string path = opt.outDir + "/spans-" + opt.workload +
            "-" + std::to_string(opt.seed) + ".json";
        std::ofstream os(path, std::ios::trunc);
        spans.writeJson(os, report.calls);
        if (!os) {
            std::cerr << "perfbench: cannot write " << path << "\n";
            return 1;
        }
    }
    for (const Metric &m : report.metrics)
        if (!std::isfinite(m.value))
            report.expect(m.name, "not a finite number");
    for (const auto &failure : report.failures)
        std::cerr << "perfbench: check failed: " << failure << "\n";
    for (const auto &m : report.metrics)
        std::cout << "# " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (report.failures.empty() ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        json << (i == 0 ? "" : ", ") << "\"" << m.name
             << "\": {\"value\": " << (std::isfinite(m.value) ? m.value : 0)
             << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::cout << json.str() << std::endl;
    return 0;
}
