#include "probes.hh"

namespace perfbench
{

std::uint64_t
Probes::wrappedNs() const
{
    return choose.ns + codec().ns + next.ns;
}

CallStats
Probes::codec() const
{
    CallStats total;
    for (const auto &[name, stats] : encode)
        total += stats;
    for (const auto &[name, stats] : decode)
        total += stats;
    return total;
}

Probes &
Probes::operator+=(const Probes &o)
{
    choose += o.choose;
    for (const auto &[name, stats] : o.encode)
        encode[name] += stats;
    for (const auto &[name, stats] : o.decode)
        decode[name] += stats;
    next += o.next;
    record += o.record;
    return *this;
}

TimedCode::TimedCode(const mil::Code &inner, Probes &probes)
    : inner_(inner), name_(inner.name()), encode_(probes.encode[name_]),
      decode_(probes.decode[name_])
{
}

mil::BusFrame
TimedCode::encode(mil::LineView line) const
{
    const std::uint64_t start = nowNs();
    mil::BusFrame frame = inner_.encode(line);
    encode_.add(start, nowNs());
    return frame;
}

mil::Line
TimedCode::decode(const mil::BusFrame &frame) const
{
    const std::uint64_t start = nowNs();
    const mil::Line line = inner_.decode(frame);
    decode_.add(start, nowNs());
    return line;
}

TimedPolicy::TimedPolicy(mil::CodingPolicy &inner, Probes &probes)
    : inner_(inner), probes_(probes)
{
}

const mil::Code &
TimedPolicy::choose(const mil::ColumnContext &ctx)
{
    const std::uint64_t start = nowNs();
    const mil::Code &code = inner_.choose(ctx);
    probes_.choose.add(start, nowNs());
    auto &slot = wrapped_[&code];
    if (!slot) {
        slot = std::make_unique<TimedCode>(code, probes_);
        innerOf_[slot.get()] = &code;
    }
    return *slot;
}

void
TimedPolicy::observe(const mil::Code &code, std::uint64_t bits,
                     std::uint64_t zeros)
{
    const auto it = innerOf_.find(&code);
    inner_.observe(it == innerOf_.end() ? code : *it->second, bits,
                   zeros);
}

namespace
{

class TimedStream final : public mil::ThreadStream
{
  public:
    TimedStream(mil::ThreadStreamPtr inner, CallStats &stats)
        : inner_(std::move(inner)), stats_(stats)
    {}

    bool
    next(mil::CoreMemOp &op) override
    {
        const std::uint64_t start = nowNs();
        const bool more = inner_->next(op);
        stats_.add(start, nowNs());
        return more;
    }

  private:
    mil::ThreadStreamPtr inner_;
    CallStats &stats_;
};

} // anonymous namespace

TimedWorkload::TimedWorkload(const mil::Workload &inner, Probes &probes)
    : mil::Workload(inner.config()), inner_(inner), probes_(probes)
{
}

void
TimedWorkload::registerRegions(mil::FunctionalMemory &mem) const
{
    inner_.registerRegions(mem);
}

mil::ThreadStreamPtr
TimedWorkload::makeStream(unsigned tid, unsigned nthreads) const
{
    return std::make_unique<TimedStream>(
        inner_.makeStream(tid, nthreads), probes_.next);
}

void
TimedSink::record(const mil::obs::Event &event)
{
    const std::uint64_t start = nowNs();
    events_.push_back(event);
    probes_.record.add(start, nowNs());
}

int
SpanLog::begin(std::string name, int parent)
{
    const std::uint64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), start, 0, parent});
    return static_cast<int>(spans_.size() - 1);
}

void
SpanLog::end(int id)
{
    const std::uint64_t stop = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endNs = stop;
}

void
SpanLog::writeJson(std::ostream &os,
                   const std::map<std::string, CallStats> &calls) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t origin = spans_.empty() ? 0 : spans_[0].startNs;
    os << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
           << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
           << ", \"start_ns\": " << s.startNs - origin
           << ", \"dur_ns\": " << s.endNs - s.startNs << "}";
    }
    os << "\n], \"calls\": {";
    bool first = true;
    for (const auto &[name, stats] : calls) {
        os << (first ? "\n" : ",\n") << "  \"" << name
           << "\": {\"calls\": " << stats.calls << ", \"ns\": " << stats.ns
           << "}";
        first = false;
    }
    os << "\n}}\n";
}

} // namespace perfbench
