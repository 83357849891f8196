/**
 * @file
 * The workload table, the tracer and small shared helpers.
 */
#include <fstream>
#include <string>

#include "bench.h"
#include "trace.h"

namespace pb {

const std::vector<WorkloadSpec> &
workloads()
{
    // name, front, range, preloaded, total, churn, zipfian, get%,
    // write% (the rest: scans), epochMs, rewriteBeforeCrash. Only
    // write_churn_hash's timed phase logs enough for its longest epoch to
    // set the log high-water mark; in the others InCLL absorbs nearly
    // every write.
    static const std::vector<WorkloadSpec> table = {
        {"read_mostly_range", Front::kInProcess, true, 2'000'000,
         2'000'000 + 8192, false, true, 90, 5, 64, false},
        {"write_churn_hash", Front::kInProcess, false, 98'304, 131'072,
         true, false, 20, 75, 16, true},
        {"wire_batched_range", Front::kWire, true, 500'000, 500'000 + 8192,
         false, false, 80, 15, 64, false},
    };
    return table;
}

const WorkloadSpec *
findWorkload(std::string_view name)
{
    for (const WorkloadSpec &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
acrossSegments(std::vector<double> v, bool lowerIsBetter)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = (lowerIsBetter ? 0.25 : 0.75) *
                       static_cast<double>(v.size() - 1);
    const std::size_t i = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

unsigned
processThreads()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(std::strtoul(line.c_str() + 8,
                                                      nullptr, 10));
    return 0;
}

// -- tracer ---------------------------------------------------------------

const char *
spanName(SpanKind k)
{
    switch (k) {
    case SpanKind::kOp: return "bench.op";
    case SpanKind::kStoreGet: return "store.get";
    case SpanKind::kStorePut: return "store.put";
    case SpanKind::kStoreRemove: return "store.remove";
    case SpanKind::kStoreScan: return "store.scan";
    case SpanKind::kCheck: return "bench.check";
    case SpanKind::kWireFrame: return "wire.frame";
    case SpanKind::kWireIo: return "wire.client_io";
    case SpanKind::kLadderGet: return "ladder.get";
    case SpanKind::kLadderPut: return "ladder.put";
    case SpanKind::kRecoverCtor: return "recovery.ctor";
    case SpanKind::kRecoverReads: return "recovery.first_reads";
    case SpanKind::kCount: break;
    }
    return "?";
}

Tracer::Tracer(unsigned threads)
{
    for (unsigned i = 0; i < threads; ++i) {
        threads_.push_back(std::make_unique<Thread>());
        threads_.back()->index = i;
        threads_.back()->spans.reserve(kMaxSpansPerThread);
    }
}

Tracer::Totals
Tracer::totals(SpanKind k) const
{
    Totals sum;
    for (const auto &t : threads_) {
        const Totals &x = t->totals[static_cast<std::size_t>(k)];
        sum.count += x.count;
        sum.totalNs += x.totalNs;
        sum.selfNs += x.selfNs;
    }
    return sum;
}

double
Tracer::meanNs(SpanKind k) const
{
    const Totals t = totals(k);
    return t.count ? static_cast<double>(t.totalNs) /
                         static_cast<double>(t.count)
                   : 0.0;
}

void
Tracer::write(const std::string &csvPath) const
{
    std::ofstream f(csvPath);
    f << "thread,id,parent,req,name,start_ns,end_ns\n";
    std::uint64_t dropped = 0;
    for (const auto &t : threads_) {
        dropped += t->dropped;
        for (const Record &r : t->spans)
            f << t->index << ',' << r.id << ',' << r.parent << ','
              << r.req << ',' << spanName(r.kind) << ',' << r.start << ','
              << r.end << '\n';
    }
    std::ofstream s(csvPath + ".summary");
    s << "name,count,total_ns,self_ns,mean_ns\n";
    for (unsigned k = 0; k < static_cast<unsigned>(SpanKind::kCount); ++k) {
        const Totals t = totals(static_cast<SpanKind>(k));
        if (t.count == 0)
            continue;
        s << spanName(static_cast<SpanKind>(k)) << ',' << t.count << ','
          << t.totalNs << ',' << t.selfNs << ','
          << static_cast<double>(t.totalNs) / static_cast<double>(t.count)
          << '\n';
    }
    s << "dropped," << dropped << ",0,0,0\n";
}

} // namespace pb
