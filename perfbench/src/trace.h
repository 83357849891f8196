/**
 * @file
 * In-memory span tracing for the traced run.
 *
 * A span is recorded around each call the benchmark makes into a layer
 * (name, start, end, parent span, request id). Spans nest per thread;
 * a span's self time is its duration minus the time its child spans
 * cover, accumulated online per span name for every span. The raw
 * spans are kept in per-thread buffers up to a cap and written out as
 * CSV when the run ends; spans past the cap still count in the per-name
 * totals and are reported as dropped.
 *
 * With tracing off (the end-to-end run) no Tracer exists and a
 * ScopedSpan over a null thread reads no clock.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace pb {

enum class SpanKind : std::uint8_t {
    kOp,            ///< one benchmark operation (parent of the store call)
    kStoreGet,      ///< ShardedStore::get
    kStorePut,      ///< store::installValue against the store
    kStoreRemove,   ///< ShardedStore::remove + freeValueFor
    kStoreScan,     ///< ShardedStore::scan
    kCheck,         ///< oracle check of one operation's output
    kWireFrame,     ///< one wire request: send to response
    kWireIo,        ///< client send/recv system calls
    kLadderGet,     ///< one ladder get (rung in the request id's high bits)
    kLadderPut,     ///< one ladder install
    kRecoverCtor,   ///< ShardedStore recovery constructor
    kRecoverReads,  ///< first reads of the failed epoch's keys
    kCount,
};

const char *spanName(SpanKind k);

class Tracer
{
  public:
    /** Raw spans kept per thread (the rest are counted as dropped). */
    static constexpr std::size_t kMaxSpansPerThread = 100'000;

    struct Record
    {
        std::uint64_t id;
        std::uint64_t parent; ///< 0 = root
        std::uint64_t req;
        std::uint64_t start;
        std::uint64_t end;
        SpanKind kind;
    };

    struct Totals
    {
        std::uint64_t count = 0;
        std::uint64_t totalNs = 0;
        std::uint64_t selfNs = 0;
    };

    /** One recording thread's state; touched by that thread only. */
    struct Thread
    {
        struct Open
        {
            std::uint64_t id;
            std::uint64_t start;
            std::uint64_t childNs;
        };

        unsigned index = 0;
        std::uint64_t nextId = 1;
        std::vector<Record> spans;
        std::uint64_t dropped = 0;
        std::array<Open, 8> stack{};
        unsigned depth = 0;
        std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)>
            totals{};

        void
        open()
        {
            stack[depth++] = {(std::uint64_t{index} << 48) | nextId++,
                              nowNs(), 0};
        }

        /** Close the innermost span; returns its duration in ns. */
        std::uint64_t
        close(SpanKind kind, std::uint64_t req)
        {
            const std::uint64_t end = nowNs();
            const Open o = stack[--depth];
            const std::uint64_t dur = end - o.start;
            Totals &t = totals[static_cast<std::size_t>(kind)];
            ++t.count;
            t.totalNs += dur;
            t.selfNs += dur - std::min(dur, o.childNs);
            std::uint64_t parent = 0;
            if (depth > 0) {
                stack[depth - 1].childNs += dur;
                parent = stack[depth - 1].id;
            }
            keep({o.id, parent, req, o.start, end, kind});
            return dur;
        }

        /** Record a finished root span that did not nest on this
         *  thread's stack (pipelined wire requests overlap). */
        void
        add(SpanKind kind, std::uint64_t start, std::uint64_t end,
            std::uint64_t req)
        {
            Totals &t = totals[static_cast<std::size_t>(kind)];
            ++t.count;
            t.totalNs += end - start;
            t.selfNs += end - start;
            keep({(std::uint64_t{index} << 48) | nextId++, 0, req, start, end,
                  kind});
        }

        void
        keep(const Record &r)
        {
            if (spans.size() < kMaxSpansPerThread)
                spans.push_back(r);
            else
                ++dropped;
        }
    };

    explicit Tracer(unsigned threads);

    Thread &thread(unsigned i) { return *threads_[i]; }

    /** Totals per span name over every thread. */
    Totals totals(SpanKind k) const;

    /** Mean duration (ns) of spans named @p k; 0 when none. */
    double meanNs(SpanKind k) const;

    /** Write every kept span as CSV to @p csvPath, and per-name totals
     *  (count, total, self and mean ns; dropped spans) beside it. */
    void write(const std::string &csvPath) const;

  private:
    std::vector<std::unique_ptr<Thread>> threads_;
};

/** RAII span; inert (no clock read) when @p t is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer::Thread *t, SpanKind kind, std::uint64_t req)
        : t_(t), kind_(kind), req_(req)
    {
        if (t_ != nullptr)
            t_->open();
    }

    ~ScopedSpan()
    {
        if (t_ != nullptr)
            t_->close(kind_, req_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer::Thread *t_;
    SpanKind kind_;
    std::uint64_t req_;
};

} // namespace pb
