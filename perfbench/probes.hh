/**
 * @file
 * Host-time probes for the benchmark's traced run.
 *
 * The benchmark records spans from its own files, around the calls it
 * makes into each layer: it wraps the public interfaces the simulator
 * calls through (CodingPolicy, Code, Workload/ThreadStream, TraceSink)
 * and hands the wrappers to System. Every wrapper forwards to the real
 * object unchanged, so a traced simulation produces the same SimResult
 * as an untraced one (the benchmark checks that it does).
 *
 * Calls made millions of times per run (choose, encode/decode, next,
 * record) are aggregated per name into a call count and total host
 * nanoseconds; coarse calls (System construction, System::run, sweep
 * passes, standalone loops) are kept whole as spans with a parent, in
 * memory, and written out as JSON when the benchmark ends.
 *
 * A Probes object is used by one simulation on one thread; a parallel
 * traced sweep gives each cell its own and merges them afterwards.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "dram/coding_policy.hh"
#include "obs/trace_sink.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host nanoseconds since an arbitrary fixed origin. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/** Host seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Aggregated calls at one layer boundary. */
struct CallStats
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    void
    add(std::uint64_t start_ns, std::uint64_t end_ns)
    {
        ++calls;
        ns += end_ns - start_ns;
    }

    CallStats &
    operator+=(const CallStats &o)
    {
        calls += o.calls;
        ns += o.ns;
        return *this;
    }
};

/** The fine-grained call totals of one traced simulation. */
struct Probes
{
    CallStats choose;                        ///< CodingPolicy::choose
    std::map<std::string, CallStats> encode; ///< Code::encode by scheme
    std::map<std::string, CallStats> decode; ///< Code::decode by scheme
    CallStats next;                          ///< ThreadStream::next
    CallStats record;                        ///< TraceSink::record

    /** Host ns spent inside wrapped calls (sink excluded). */
    std::uint64_t wrappedNs() const;

    /** Total encode + decode calls / ns over every scheme. */
    CallStats codec() const;

    Probes &operator+=(const Probes &o);
};

/** Forwards to a real Code, timing encode/decode into a Probes. */
class TimedCode final : public mil::Code
{
  public:
    TimedCode(const mil::Code &inner, Probes &probes);

    std::string name() const override { return name_; }
    unsigned burstLength() const override { return inner_.burstLength(); }
    unsigned lanes() const override { return inner_.lanes(); }
    unsigned extraLatency() const override { return inner_.extraLatency(); }
    mil::BusFrame encode(mil::LineView line) const override;
    mil::Line decode(const mil::BusFrame &frame) const override;

  private:
    const mil::Code &inner_;
    std::string name_;
    CallStats &encode_;
    CallStats &decode_;
};

/**
 * Forwards to a real CodingPolicy, timing choose() and returning a
 * TimedCode in place of each code the policy picks.
 */
class TimedPolicy final : public mil::CodingPolicy
{
  public:
    TimedPolicy(mil::CodingPolicy &inner, Probes &probes);

    std::string name() const override { return inner_.name(); }
    unsigned lookahead() const override { return inner_.lookahead(); }
    const mil::Code &choose(const mil::ColumnContext &ctx) override;
    unsigned latencyAdder() const override { return inner_.latencyAdder(); }
    unsigned maxBusCycles() const override { return inner_.maxBusCycles(); }
    std::vector<std::string>
    codeNames() const override
    {
        return inner_.codeNames();
    }
    bool stateless() const override { return inner_.stateless(); }
    void observe(const mil::Code &code, std::uint64_t bits,
                 std::uint64_t zeros) override;

  private:
    mil::CodingPolicy &inner_;
    Probes &probes_;
    /// Wrapper per inner code, keyed by the inner code's address.
    std::map<const mil::Code *, std::unique_ptr<TimedCode>> wrapped_;
    /// Inner code per wrapper, to hand observe() the real code.
    std::map<const mil::Code *, const mil::Code *> innerOf_;
};

/** Forwards to a real Workload whose streams time next(). */
class TimedWorkload final : public mil::Workload
{
  public:
    TimedWorkload(const mil::Workload &inner, Probes &probes);

    std::string name() const override { return inner_.name(); }
    void registerRegions(mil::FunctionalMemory &mem) const override;
    mil::ThreadStreamPtr makeStream(unsigned tid,
                                    unsigned nthreads) const override;

  private:
    const mil::Workload &inner_;
    Probes &probes_;
};

/** Keeps every event in memory, timing each record() call. */
class TimedSink final : public mil::obs::TraceSink
{
  public:
    explicit TimedSink(Probes &probes) : probes_(probes) {}

    void record(const mil::obs::Event &event) override;

    const std::vector<mil::obs::Event> &events() const { return events_; }

  private:
    Probes &probes_;
    std::vector<mil::obs::Event> events_;
};

/** Coarse spans, kept whole with their parent, written at the end. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        int parent = -1;
    };

    /** Open a span; returns its id. Thread-safe. */
    int begin(std::string name, int parent = -1);

    /** Close span @p id. Thread-safe. */
    void end(int id);

    /** Open spans close when their Scope leaves. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, int parent = -1)
            : log_(log), id_(log.begin(std::move(name), parent))
        {}
        ~Scope() { log_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int id() const { return id_; }

      private:
        SpanLog &log_;
        int id_;
    };

    /**
     * Write the spans and the aggregated call totals as one JSON
     * object: {"spans": [...], "calls": {name: {calls, ns}}}.
     */
    void writeJson(std::ostream &os,
                   const std::map<std::string, CallStats> &calls) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
