/**
 * @file
 * Shared pieces of the benchmark: key and value encoding, the workload
 * table, the result record and the per-thread latency recorder.
 *
 * Keys are 8-byte big-endian encodings of mix64(rank), so byte order is
 * numeric order of the scrambled key and popular ranks land on
 * unrelated tree nodes. Every value is kValueBytes long and encodes the
 * rank of the key it is stored under plus a write version, so a reader
 * can tell a value that belongs to another key (or a torn one) from the
 * right one without consulting the store.
 */
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "obs/histogram.h"
#include "obs/metrics.h"

namespace pb {

inline std::uint64_t nowNs() { return incll::obs::steadyNowNs(); }

/** Value-buffer size of every store and every wire PUT. */
inline constexpr std::size_t kValueBytes = 32;
/** Keys per short ordered scan. */
inline constexpr std::size_t kScanLen = 10;
/** Shards of every workload's store. */
inline constexpr unsigned kShards = 4;
/** Writes in each failed epoch. */
inline constexpr unsigned kFailedOps = 4096;
/**
 * Segments of the timed phase. After each, the store quiesces and goes
 * through one failed-epoch + recovery round, so the rounds are spread
 * over the whole run instead of sampling the machine in one moment.
 */
inline constexpr unsigned kSegments = 25;

// -- keys ---------------------------------------------------------------

using KeyBuf = std::array<char, 8>;

inline std::uint64_t keyU64OfRank(std::uint64_t rank)
{
    return incll::mix64(rank);
}

inline KeyBuf
keyOfU64(std::uint64_t k)
{
    KeyBuf b;
    for (int i = 7; i >= 0; --i) {
        b[i] = static_cast<char>(k & 0xff);
        k >>= 8;
    }
    return b;
}

inline KeyBuf keyOfRank(std::uint64_t rank)
{
    return keyOfU64(keyU64OfRank(rank));
}

inline std::string_view keyView(const KeyBuf &b) { return {b.data(), 8}; }

/** Decode an 8-byte big-endian key; false if @p k is not 8 bytes. */
inline bool
u64OfKey(std::string_view k, std::uint64_t &out)
{
    if (k.size() != 8)
        return false;
    out = 0;
    for (char c : k)
        out = (out << 8) | static_cast<unsigned char>(c);
    return true;
}

// -- values -------------------------------------------------------------

inline std::uint64_t
valueCheckWord(std::uint64_t rank, std::uint64_t version)
{
    return incll::mix64(rank ^ (version * 0x9e3779b97f4a7c15ULL));
}

/** Fill @p out (kValueBytes) with the value of @p rank at @p version. */
inline void
encodeValue(std::uint64_t rank, std::uint64_t version, char *out)
{
    const std::uint64_t w[4] = {rank, version, valueCheckWord(rank, version),
                                ~rank};
    static_assert(sizeof(w) == kValueBytes);
    std::memcpy(out, w, sizeof(w));
}

struct Decoded
{
    bool wellFormed = false; ///< check words match (not torn / foreign)
    std::uint64_t rank = 0;
    std::uint64_t version = 0;
};

inline Decoded
decodeValue(const void *p, std::size_t len = kValueBytes)
{
    Decoded d;
    if (p == nullptr || len != kValueBytes)
        return d;
    std::uint64_t w[4];
    std::memcpy(w, p, sizeof(w));
    d.rank = w[0];
    d.version = w[1];
    d.wellFormed = w[2] == valueCheckWord(w[0], w[1]) && w[3] == ~w[0];
    return d;
}

// -- workloads ----------------------------------------------------------

enum class Front { kInProcess, kWire };

/** One workload's fixed shape (sizes, mix, flush policy). */
struct WorkloadSpec
{
    const char *name;
    Front front;
    bool rangePlacement;
    std::uint64_t preloaded; ///< ranks [0, preloaded) loaded at set-up
    std::uint64_t total;     ///< ranks [0, total) addressable
    bool churn;          ///< odd ranks may be removed and re-inserted
    bool zipfian;        ///< key choice: zipfian(0.99) or uniform
    unsigned getPct;     ///< in-process: % gets; wire: % MULTI_GET frames
    unsigned writePct;   ///< in-process: % writes; wire: % MULTI_PUT frames
                         ///< (the rest are short scans)
    unsigned epochMs;    ///< EpochService interval
    /**
     * Before each failed epoch, commit one epoch in which the crashing
     * writer rewrites every live key. Recovery walks each written log
     * buffer up to its historical high-water mark, stale entries
     * included; this pins that mark at its ceiling instead of at the
     * timed phase's longest epoch, which varies from run to run.
     */
    bool rewriteBeforeCrash;
};

/** The benchmark's workloads; see README.md for why each exists. */
const std::vector<WorkloadSpec> &workloads();
const WorkloadSpec *findWorkload(std::string_view name);

// -- flush policy (identical on every run; stated in README.md) --------

/** Emulated global cache flush per epoch boundary (paper §6.2). */
inline constexpr std::uint64_t kWbinvdNs = 1'380'000;
/** Emulated extra latency after every persist fence. */
inline constexpr std::uint64_t kSfenceExtraNs = 100;
/** EpochService backpressure: throttle batched writers past this. */
inline constexpr std::uint64_t kMaxLogBytesPerEpoch = 2u << 20;
/** EpochService: request an early advance past this log debt. */
inline constexpr std::uint64_t kAdaptiveDebtBytes = 1u << 20;

// -- results ------------------------------------------------------------

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::uint64_t samples = 0; ///< measurements behind the value
};

/**
 * Summary of a timing taken once per segment (or recovery round): the
 * value on the favourable side of the middle, the first quartile of a
 * lower-is-better timing and the third of a higher-is-better one.
 * Interference from the shared machine only ever slows the program,
 * and it comes and goes over tens of seconds, so this reads the
 * program's own speed over the faster half of the run.
 */
double acrossSegments(std::vector<double> v, bool lowerIsBetter);

struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;
    /** Per-segment values behind the summarised end-to-end metrics. */
    std::vector<std::pair<std::string, std::vector<double>>> series;

    void
    add(bool traced, std::string name, std::string unit, double value,
        std::uint64_t samples = 1)
    {
        (traced ? perLayer : endToEnd)
            .push_back({std::move(name), std::move(unit), value, samples});
    }

    /** An end-to-end metric summarised over @p values by acrossSegments. */
    void
    addSeries(const std::string &name, std::string unit,
              std::vector<double> values, bool higherIsBetter,
              std::uint64_t samples)
    {
        add(false, name, std::move(unit),
            acrossSegments(values, !higherIsBetter), samples);
        series.emplace_back(name, std::move(values));
    }
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0; ///< required: the timed phase's length
    bool trace = false;
    std::string outDir = ".";
    unsigned threads = 0; ///< total thread budget: CPUs this process may use
};

// -- latency ------------------------------------------------------------

/** Per-thread latency histograms (ns), merged after the run. */
struct Latencies
{
    incll::obs::HistSnapshot get, put, scan;

    void
    merge(const Latencies &o)
    {
        get.add(o.get);
        put.add(o.put);
        scan.add(o.scan);
    }
};

/** Unmeasured warm-up before a timed phase of @p seconds: caches fill,
 *  the epoch service settles. */
inline std::uint64_t
warmupNs(double seconds)
{
    return static_cast<std::uint64_t>(std::min(2.0, seconds * 0.1) * 1e9);
}

/** Unmeasured lead-in of every later segment: the threads and the epoch
 *  service restart on the recovered store. */
inline constexpr std::uint64_t kLeadInNs = 50'000'000;

/** Median of @p v (copied); 0 when empty. */
double median(std::vector<double> v);

/** Threads of this process right now (from /proc/self/status). */
unsigned processThreads();

// -- workload entry points ---------------------------------------------

class Tracer;
Result runInProcess(const WorkloadSpec &w, const Args &a, Tracer *tr);
Result runWire(const WorkloadSpec &w, const Args &a, Tracer *tr);

} // namespace pb
