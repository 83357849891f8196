/**
 * @file
 * The in-process workloads: worker threads drive the per-op store API
 * (get, store::installValue, remove, scan) of a ShardedStore while one
 * EpochService thread runs the epoch boundaries, segment by segment,
 * with a failed-epoch and recovery round after each segment.
 */
#include <barrier>
#include <stdexcept>
#include <string>
#include <thread>

#include "stores.h"

namespace pb {

namespace {

struct WorkerOut
{
    Latencies lat;
    CheckLog log;
    std::uint64_t ops = 0;    ///< operations completed in the window
    std::uint64_t writes = 0; ///< puts + removes in the window
};

/** One segment's run of the workers. */
struct Shared
{
    const WorkloadSpec &w;
    ShardedStore &store;
    Oracle &oracle;
    const incll::KeyChooser &chooser;
    std::uint64_t seed;
    unsigned segment;
    std::uint64_t measureStart;
    std::uint64_t end;
    Tracer *tr; ///< null unless this segment is traced
    Window &win;
};

void
workerLoop(Shared &sh, unsigned self, WorkerOut &out)
{
    incll::Rng rng(incll::mix64(sh.seed * 0x9e3779b97f4a7c15ULL +
                                (std::uint64_t{sh.segment} << 32) + self +
                                1));
    ShardedStore &store = sh.store;
    Oracle &oracle = sh.oracle;
    const WorkloadSpec &w = sh.w;
    std::vector<ScanItem> items;
    items.reserve(kScanLen);
    char val[kValueBytes];
    bool windowOpen = self != 0; // worker 0 opens the counter window
    std::uint64_t req =
        (std::uint64_t{self} << 56) | (std::uint64_t{sh.segment} << 40);
    for (;;) {
        const std::uint64_t now = nowNs();
        if (now >= sh.end)
            break;
        const bool measuring = now >= sh.measureStart;
        if (measuring && !windowOpen) {
            sh.win.begin();
            windowOpen = true;
        }
        Tracer::Thread *tt =
            sh.tr != nullptr && measuring ? &sh.tr->thread(self) : nullptr;
        ++req;
        const unsigned dice = static_cast<unsigned>(rng.nextBounded(100));
        ScopedSpan opSpan(tt, SpanKind::kOp, req);
        if (dice < w.getPct) {
            const std::uint64_t r = sh.chooser.next(rng);
            const KeyBuf kb = keyOfRank(r);
            Decoded d;
            bool hit;
            const std::uint64_t t0 = nowNs();
            {
                ScopedSpan s(tt, SpanKind::kStoreGet, req);
                hit = gatedGet(store, keyView(kb), d);
            }
            const std::uint64_t t1 = nowNs();
            ScopedSpan c(tt, SpanKind::kCheck, req);
            checkGet(oracle, self, r, hit, d, out.log);
            if (measuring)
                out.lat.get.record(t1 - t0);
        } else if (dice < w.getPct + w.writePct) {
            const std::uint64_t r =
                oracle.ownedRank(sh.chooser.next(rng), self);
            const KeyBuf kb = keyOfRank(r);
            const std::string_view key = keyView(kb);
            const bool live = oracle.live(r);
            const std::uint32_t ver = oracle.version(r);
            if (!oracle.stable(r) && live && (rng.next() & 1)) {
                void *old = nullptr;
                bool hit;
                Decoded d;
                {
                    ScopedSpan s(tt, SpanKind::kStoreRemove, req);
                    hit = store.remove(key, &old);
                    if (hit) {
                        d = decodeValue(old);
                        store.freeValueFor(key, old, kValueBytes);
                    }
                }
                ScopedSpan c(tt, SpanKind::kCheck, req);
                ++out.log.checks;
                if (!hit || !d.wellFormed || d.rank != r || d.version != ver)
                    out.log.fail("remove of an own live key saw wrong state",
                                 r);
                oracle.record(r, ver, false);
            } else {
                encodeValue(r, ver + 1, val);
                bool inserted;
                const std::uint64_t t0 = nowNs();
                {
                    ScopedSpan s(tt, SpanKind::kStorePut, req);
                    inserted = incll::store::installValue(
                        store, key, val, kValueBytes, kValueBytes);
                }
                const std::uint64_t t1 = nowNs();
                ScopedSpan c(tt, SpanKind::kCheck, req);
                ++out.log.checks;
                if (inserted == live)
                    out.log.fail("put insert/update verdict wrong", r);
                oracle.record(r, ver + 1, true);
                if (measuring)
                    out.lat.put.record(t1 - t0);
            }
            if (measuring)
                ++out.writes;
        } else {
            const std::uint64_t r = sh.chooser.next(rng);
            const KeyBuf kb = keyOfRank(r);
            items.clear();
            const std::uint64_t t0 = nowNs();
            {
                ScopedSpan s(tt, SpanKind::kStoreScan, req);
                store.scan(keyView(kb), kScanLen,
                           [&items](std::string_view k, void *v) {
                               std::uint64_t key = 0;
                               u64OfKey(k, key);
                               items.push_back({key, decodeValue(v)});
                           });
            }
            const std::uint64_t t1 = nowNs();
            ScopedSpan c(tt, SpanKind::kCheck, req);
            checkScan(oracle, self, keyU64OfRank(r), kScanLen, items.data(),
                      items.size(), out.log);
            if (measuring)
                out.lat.scan.record(t1 - t0);
        }
        if (measuring)
            ++out.ops;
    }
    if (!windowOpen)
        sh.win.begin();
}

} // namespace

Result
runInProcess(const WorkloadSpec &w, const Args &a, Tracer *tr)
{
    // One thread of the budget drives the epochs; the rest, the main
    // thread included, are workers.
    const unsigned workers = std::max(1u, a.threads - 1);
    Oracle oracle(w.preloaded, w.total, w.churn, workers);
    PhaseFacts f;
    auto store = setUp(w, a, oracle, f);
    const incll::store::StoreConfig cfg = storeOptions(w, a.seed).config;

    CheckLog log;
    Window win;
    const incll::KeyChooser chooser(
        w.zipfian ? incll::KeyChooser::Dist::kZipfian
                  : incll::KeyChooser::Dist::kUniform,
        w.churn ? w.total : w.preloaded, 0.99);

    // -- timed phase, cut into segments; after each, a failed epoch and
    //    recovery round ------------------------------------------------
    // The workers live for the whole run and wait at a barrier while the
    // main thread (worker 0) runs each round: a thread's log buffer slot
    // is fixed at its first log write, so new threads on a recovered
    // store would share buffers with old ones.
    const std::uint64_t segNs =
        static_cast<std::uint64_t>(a.seconds * 1e9 / kSegments);
    std::unique_ptr<Shared> sh; // the current segment; set by worker 0
    std::vector<WorkerOut> outs(workers);
    std::vector<std::string> errors(workers);
    std::barrier sync(static_cast<std::ptrdiff_t>(workers));
    auto runSegment = [&](unsigned i) {
        try {
            workerLoop(*sh, i, outs[i]);
        } catch (const std::exception &e) {
            errors[i] = e.what();
        }
    };
    bool done = false; // read by the workers after the start barrier
    std::vector<std::thread> threads;
    for (unsigned i = 1; i < workers; ++i)
        threads.emplace_back([&, i] {
            for (;;) {
                sync.arrive_and_wait(); // a segment starts, or the run ends
                if (done)
                    return;
                runSegment(i);
                sync.arrive_and_wait(); // the segment ends
            }
        });
    auto release = [&] {
        done = true;
        sync.arrive_and_wait();
        for (std::thread &t : threads)
            t.join();
    };
    unsigned peakThreads = 0;
    try {
        for (unsigned seg = 0; seg < kSegments; ++seg) {
            // A recovered log appends after the chain it walked, stale
            // entries included; a checkpoint first empties it (see the
            // log-tail FOUND line in CHANGES.md).
            store->advanceEpoch();
            auto svc = std::make_unique<incll::service::EpochService>(
                *store, serviceOptions(w));
            svc->start();
            const std::uint64_t start = nowNs();
            const std::uint64_t lead =
                seg == 0 ? warmupNs(a.seconds) : kLeadInNs;
            Segment s;
            s.traced = tr != nullptr && seg % 2 == 1;
            sh = std::make_unique<Shared>(Shared{
                w, *store, oracle, chooser, a.seed, seg, start + lead,
                start + lead + segNs, s.traced ? tr : nullptr, win});
            outs.assign(workers, WorkerOut{});
            sync.arrive_and_wait();
            peakThreads = std::max(peakThreads, processThreads());
            runSegment(0);
            sync.arrive_and_wait();
            for (const std::string &e : errors)
                if (!e.empty())
                    throw std::runtime_error("worker: " + e);
            win.end();
            addService(f.service, svc->totalCounters());
            svc.reset();
            s.seconds = static_cast<double>(segNs) / 1e9;
            for (const WorkerOut &o : outs) {
                s.lat.merge(o.lat);
                log.merge(o.log);
                s.ops += o.ops;
                f.writes += o.writes;
            }
            f.windowS += s.seconds;
            f.segments.push_back(std::move(s));

            if (seg + 1 == kSegments) {
                // -- quiesce and verify (before the last round) --------
                f.poolBytes = poolBytesUsed(*store) - f.fixedBytes;
                f.liveKeys = oracle.liveCount();
                store->advanceEpoch();
                compareFullScan(*store, oracle, log);
                if (tr != nullptr)
                    f.ladder = runLadder(w, *store, oracle, a.seed, log,
                                         &tr->thread(0));
            }

            // -- failed epoch and recovery -----------------------------
            store->advanceEpoch();
            if (w.rewriteBeforeCrash) {
                rewriteLive(*store, oracle, log);
                store->advanceEpoch();
            }
            const auto writes =
                makeFailedEpoch(oracle, a.seed, seg, kFailedOps);
            applyFailedEpoch(*store, writes, log);
            const std::uint64_t walk = logChainEntries(*store);
            auto pools = store->releasePools();
            store.reset();
            f.rounds.push_back(recoverAndCheck(std::move(pools), store, cfg,
                                               oracle, writes, log,
                                               tr ? &tr->thread(0) : nullptr));
            f.rounds.back().walkEntries = walk;
        }
    } catch (...) {
        release();
        throw;
    }
    release();
    ++log.checks;
    if (peakThreads > a.threads)
        log.fail("thread budget exceeded", peakThreads);
    compareFullScan(*store, oracle, log);
    return finish(log, win, f, tr, a);
}

} // namespace pb
