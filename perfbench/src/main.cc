/**
 * @file
 * incll benchmark entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out-dir DIR]
 *
 * Runs one workload's four phases (set-up, timed phase, quiesce and
 * verify, failed epoch and recovery) and prints every metric by name
 * with its unit and sample count, then, as the last stdout line, one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * per-layer ones from the traced run, whose spans are written to
 * DIR/<workload>-seed<N>-spans.csv. The full result, sample counts and
 * the per-segment values behind each timing included, goes to
 * DIR/<workload>-seed<N>-trace<T>.json.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include <sched.h>

#include "bench.h"
#include "trace.h"

namespace {

using namespace pb;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\nworkloads:",
                 why);
    for (const WorkloadSpec &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        if (arg == "--workload")
            a.workload = v;
        else if (arg == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (arg == "--trace")
            a.trace = std::strtoul(v, nullptr, 10) != 0;
        else if (arg == "--out-dir")
            a.outDir = v;
        else
            usage(("unknown flag " + arg).c_str());
    }
    if (!(a.seconds > 0.0 && a.seconds <= 120.0))
        usage("--seconds is required and must be in (0, 120]");
    return a;
}

/** CPUs this process may run on (what nproc reports), at least 1. */
unsigned
cpuBudget()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) {
        std::perror("perfbench: sched_getaffinity");
        std::exit(1);
    }
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    a.threads = cpuBudget();
    const WorkloadSpec *w = findWorkload(a.workload);
    if (w == nullptr)
        usage(("unknown workload '" + a.workload + "'").c_str());

    std::unique_ptr<Tracer> tracer;
    if (a.trace)
        tracer = std::make_unique<Tracer>(a.threads);

    Result r;
    bool correct = true;
    try {
        r = w->front == Front::kWire ? runWire(*w, a, tracer.get())
                                     : runInProcess(*w, a, tracer.get());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", w->name, e.what());
        return 1;
    }

    const std::vector<Metric> &shown = a.trace ? r.perLayer : r.endToEnd;
    std::printf("workload %s seed %llu seconds %g trace %d threads %u\n",
                w->name, static_cast<unsigned long long>(a.seed), a.seconds,
                a.trace ? 1 : 0, a.threads);
    for (const Metric &m : shown) {
        if (!std::isfinite(m.value))
            correct = false;
        std::printf("  %-34s %14.6g %-6s samples %llu\n", m.name.c_str(),
                    m.value, m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    }
    std::printf("  attempted %llu failed %llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    correct = correct && r.failed == 0 && r.attempted > 0;

    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
    std::ostringstream full; // the result file also carries sample counts
    full << "{\"workload\": \"" << w->name << "\", \"seed\": " << a.seed
         << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"threads\": "
         << a.threads << ", \"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << r.attempted << ", \"failed\": "
         << r.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < shown.size(); ++i) {
        const Metric &m = shown[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        js << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
           << jsonNumber(v) << ", \"unit\": \"" << m.unit << "\"}";
        full << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
             << jsonNumber(v) << ", \"unit\": \"" << m.unit
             << "\", \"samples\": " << m.samples << '}';
    }
    js << "}}";
    full << "}, \"segments\": {";
    for (std::size_t i = 0; i < r.series.size(); ++i) {
        full << (i ? ", " : "") << '"' << r.series[i].first << "\": [";
        for (std::size_t j = 0; j < r.series[i].second.size(); ++j)
            full << (j ? ", " : "") << jsonNumber(r.series[i].second[j]);
        full << ']';
    }
    full << "}}\n";
    std::ofstream(a.outDir + "/" + w->name + "-seed" + std::to_string(a.seed) +
                  "-trace" + (a.trace ? "1" : "0") + ".json")
        << full.str();
    std::printf("%s\n", js.str().c_str());
    std::fflush(stdout);
    return 0;
}
