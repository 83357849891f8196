#include "stores.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace pb {

using incll::Stat;
using incll::obs::Hist;

ShardedStore::Options
storeOptions(const WorkloadSpec &w, std::uint64_t seed)
{
    ShardedStore::Options so;
    so.shards = kShards;
    so.mode = incll::nvm::Mode::kDirect;
    so.seed = seed;
    so.config.placement = w.rangePlacement
                              ? incll::store::PlacementKind::kRange
                              : incll::store::PlacementKind::kHash;
    // Range boundaries default to an even split of the u64 key space,
    // which is balanced for the scrambled keys used here.
    so.poolBytesPerShard =
        poolBytesFor((w.total + kShards - 1) / kShards, so.config);
    return so;
}

std::size_t
poolBytesFor(std::uint64_t keys, const incll::store::StoreConfig &cfg)
{
    // Pools are zero-filled up front, so this is resident memory: the
    // log buffers, allocator slab slack, and ~92 B per key measured
    // (nvm_bytes_per_key) with headroom for keys that skew to a shard.
    return (std::size_t{32} << 20) + static_cast<std::size_t>(keys) * 128 +
           cfg.logBuffers * cfg.logBufferBytes;
}

void
applyFlushPolicy(ShardedStore &s)
{
    s.forEachShard([](incll::store::Shard &sh) {
        sh.pool().latency().sfenceExtraNs = kSfenceExtraNs;
        sh.pool().latency().wbinvdNs = kWbinvdNs;
    });
}

incll::service::EpochService::Options
serviceOptions(const WorkloadSpec &w)
{
    incll::service::EpochService::Options o;
    o.threads = 1;
    o.interval = std::chrono::milliseconds(w.epochMs);
    o.maxLogBytesPerEpoch = kMaxLogBytesPerEpoch;
    o.adaptiveDebtBytes = kAdaptiveDebtBytes;
    return o;
}

std::uint64_t
poolBytesUsed(ShardedStore &s)
{
    std::uint64_t used = 0;
    s.forEachShard([&used](incll::store::Shard &sh) {
        used += sh.pool().size() - sh.pool().rawAvailable();
    });
    return used;
}

std::uint64_t
logChainEntries(ShardedStore &s)
{
    std::uint64_t n = 0;
    s.forEachShard([&n](incll::store::Shard &sh) {
        n += sh.tree().log().countEntries();
    });
    return n;
}

StatSnap
StatSnap::take()
{
    StatSnap s;
    for (unsigned i = 0; i < s.v.size(); ++i)
        s.v[i] = incll::globalStats().get(static_cast<Stat>(i));
    return s;
}

void
Window::begin()
{
    s0_ = StatSnap::take();
    boundary0_ = incll::obs::hist(Hist::kEpochBoundaryNs).snapshot();
    gate0_ = incll::obs::hist(Hist::kGateWaitNs).snapshot();
    flush0_ = incll::obs::hist(Hist::kServerBatchFlushNs).snapshot();
}

void
Window::end()
{
    const StatSnap s1 = StatSnap::take();
    for (std::size_t i = 0; i < sum.v.size(); ++i)
        sum.v[i] += s1.v[i] - s0_.v[i];
    auto add = [](incll::obs::HistSnapshot &total, Hist h,
                  const incll::obs::HistSnapshot &h0) {
        incll::obs::HistSnapshot d = incll::obs::hist(h).snapshot();
        d.subtract(h0);
        total.add(d);
    };
    add(boundary, Hist::kEpochBoundaryNs, boundary0_);
    add(gate, Hist::kGateWaitNs, gate0_);
    add(flush, Hist::kServerBatchFlushNs, flush0_);
}

void
addService(incll::service::EpochService::ShardCounters &sum,
           const incll::service::EpochService::ShardCounters &c)
{
    sum.advances += c.advances;
    sum.boundaryNs += c.boundaryNs;
    sum.throttleStalls += c.throttleStalls;
    sum.throttleNs += c.throttleNs;
    sum.debtAdvances += c.debtAdvances;
}

std::vector<FailedWrite>
makeFailedEpoch(const Oracle &o, std::uint64_t seed, unsigned round,
                unsigned n)
{
    incll::Rng rng(incll::mix64(seed * 0x100000001b3ULL + round + 0xfa11));
    // Scratch state of the keys written so far in this epoch.
    std::unordered_map<std::uint64_t, std::pair<std::uint32_t, bool>> st;
    std::vector<FailedWrite> out;
    out.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t r = rng.nextBounded(o.total());
        auto it = st.try_emplace(r, o.version(r), o.live(r)).first;
        auto &[ver, live] = it->second;
        FailedWrite fw{r, false, live, 0};
        if (live && (rng.next() & 1)) {
            fw.remove = true;
            fw.version = ver;
            live = false;
        } else {
            fw.version = ++ver;
            live = true;
        }
        out.push_back(fw);
    }
    return out;
}

void
applyFailedEpoch(ShardedStore &s, const std::vector<FailedWrite> &writes,
                 CheckLog &log)
{
    char val[kValueBytes];
    for (const FailedWrite &fw : writes) {
        const KeyBuf kb = keyOfRank(fw.rank);
        const std::string_view key = keyView(kb);
        ++log.checks;
        if (fw.remove) {
            void *old = nullptr;
            const bool hit = s.remove(key, &old);
            const Decoded d = hit ? decodeValue(old) : Decoded{};
            if (hit)
                s.freeValueFor(key, old, kValueBytes);
            if (!hit || !d.wellFormed || d.rank != fw.rank ||
                d.version != fw.version)
                log.fail("failed-epoch remove saw the wrong state", fw.rank);
        } else {
            encodeValue(fw.rank, fw.version, val);
            const bool inserted =
                incll::store::installValue(s, key, val, kValueBytes,
                                           kValueBytes);
            if (inserted == fw.wasLive)
                log.fail("failed-epoch install verdict wrong", fw.rank);
        }
    }
}

void
rewriteLive(ShardedStore &s, Oracle &o, CheckLog &log)
{
    char val[kValueBytes];
    for (std::uint64_t r = 0; r < o.total(); ++r) {
        if (!o.live(r))
            continue;
        const KeyBuf kb = keyOfRank(r);
        encodeValue(r, o.version(r) + 1, val);
        ++log.checks;
        if (incll::store::installValue(s, keyView(kb), val, kValueBytes,
                                       kValueBytes))
            log.fail("rewrite of a live key inserted it", r);
        o.record(r, o.version(r) + 1, true);
    }
}

RecoveryRound
recoverAndCheck(std::vector<std::unique_ptr<incll::nvm::Pool>> pools,
                std::unique_ptr<ShardedStore> &s,
                const incll::store::StoreConfig &cfg, const Oracle &o,
                const std::vector<FailedWrite> &writes, CheckLog &log,
                Tracer::Thread *tt)
{
    std::vector<std::uint64_t> ranks;
    ranks.reserve(writes.size());
    for (const FailedWrite &fw : writes)
        ranks.push_back(fw.rank);
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    std::vector<KeyBuf> keys(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i)
        keys[i] = keyOfRank(ranks[i]);
    std::vector<Decoded> got(ranks.size());
    std::vector<std::uint8_t> hit(ranks.size());

    const StatSnap before = StatSnap::take();
    const std::uint64_t t0 = nowNs();
    {
        ScopedSpan span(tt, SpanKind::kRecoverCtor, 0);
        s = std::make_unique<ShardedStore>(std::move(pools),
                                           incll::store::kRecover, cfg);
    }
    const std::uint64_t t1 = nowNs();
    {
        ScopedSpan span(tt, SpanKind::kRecoverReads, 0);
        for (std::size_t i = 0; i < keys.size(); ++i)
            hit[i] = gatedGet(*s, keyView(keys[i]), got[i]);
    }
    const std::uint64_t t2 = nowNs();
    const StatSnap after = StatSnap::take();
    for (std::size_t i = 0; i < ranks.size(); ++i)
        checkGet(o, Oracle::kAll, ranks[i], hit[i] != 0, got[i], log);

    RecoveryRound rr;
    rr.recoveryMs = static_cast<double>(t2 - t0) / 1e6;
    rr.ctorMs = static_cast<double>(t1 - t0) / 1e6;
    rr.imagesApplied = s->lastRecoveryLogApplied();
    rr.lazyRecoveries = after[Stat::kNodeRecoveries] -
                        before[Stat::kNodeRecoveries];
    rr.poolBytes = poolBytesUsed(*s);
    return rr;
}

namespace {

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
addRecoveryAndSpace(Result &r, const PhaseFacts &f)
{
    std::vector<double> ms;
    for (const RecoveryRound &rr : f.rounds) {
        ms.push_back(rr.recoveryMs);
        std::fprintf(stderr,
                     "perfbench: recovery round: %.3f ms (constructor %.3f "
                     "ms, %llu log entries walked, %llu applied, %llu lazy "
                     "node recoveries, %llu pool bytes in use)\n",
                     rr.recoveryMs, rr.ctorMs,
                     static_cast<unsigned long long>(rr.walkEntries),
                     static_cast<unsigned long long>(rr.imagesApplied),
                     static_cast<unsigned long long>(rr.lazyRecoveries),
                     static_cast<unsigned long long>(rr.poolBytes));
    }
    r.addSeries("recovery_ms", "ms", ms, false, ms.size());
    r.add(false, "nvm_bytes_per_key", "B",
          ratio(static_cast<double>(f.poolBytes),
                static_cast<double>(f.liveKeys)),
          f.liveKeys);
}

void
addPerLayer(Result &r, const Window &win, const PhaseFacts &f,
            const Tracer &tr)
{
    auto d = [&win](Stat s) { return static_cast<double>(win.delta(s)); };
    auto add = [&r](const char *name, const char *unit, double v,
                    std::uint64_t n = 1) { r.add(true, name, unit, v, n); };
    const Ladder &L = f.ladder;
    const double writes = static_cast<double>(f.writes);

    // store: spans around the store calls of the timed phase's traced
    // slices; the wire workload's store calls run inside the server, so
    // there the ladder's store rung stands in.
    auto storeNs = [&](const char *name, SpanKind k, double ladderNs) {
        const Tracer::Totals t = tr.totals(k);
        if (t.count > 0)
            add(name, "ns", tr.meanNs(k), t.count);
        else
            add(name, "ns", ladderNs, tr.totals(SpanKind::kLadderGet).count);
    };
    storeNs("store.get_ns", SpanKind::kStoreGet, L.storeGet);
    storeNs("store.put_ns", SpanKind::kStorePut, L.storePut);
    storeNs("store.scan_ns", SpanKind::kStoreScan, L.storeScan);
    add("store.route_tax_get_ns", "ns", L.storeGet - L.directGet);
    add("store.route_tax_put_ns", "ns", L.storePut - L.directPut);
    add("store.shard1_get_ns", "ns", L.oneShardGet);
    add("store.shard1_put_ns", "ns", L.oneShardPut);
    add("store.scan_shards_per_scan", "count",
        ratio(d(Stat::kScanShardsEntered), d(Stat::kScans)),
        win.delta(Stat::kScans));

    std::vector<double> ctor, images, walk, lazy;
    for (const RecoveryRound &rr : f.rounds) {
        ctor.push_back(rr.ctorMs);
        images.push_back(static_cast<double>(rr.imagesApplied));
        walk.push_back(static_cast<double>(rr.walkEntries));
        lazy.push_back(static_cast<double>(rr.lazyRecoveries));
    }
    add("store.recover_ctor_ms", "ms", median(ctor), ctor.size());
    add("log.images_applied", "count", median(images), images.size());
    add("log.recovery_walk_entries", "count", median(walk), walk.size());
    add("masstree.lazy_recoveries", "count", median(lazy), lazy.size());

    add("masstree.transient_get_ns", "ns", L.transientGet);
    add("masstree.durable_get_ns", "ns", L.durableGet);
    add("masstree.transient_put_ns", "ns", L.transientPut);
    add("masstree.durable_put_ns", "ns", L.durablePut);
    add("masstree.incll_overhead_pct", "%",
        100.0 * ratio(L.durableMix - L.transientMix, L.transientMix));
    const double incll = d(Stat::kInCllPerm) + d(Stat::kInCllVal);
    const double logged = d(Stat::kNodesLogged);
    add("masstree.incll_absorb_ratio", "ratio",
        ratio(incll, incll + logged));

    add("log.nodes_logged_per_kput", "count",
        1e3 * ratio(logged, writes), f.writes);
    add("log.bytes_per_kput", "B", 1e3 * ratio(d(Stat::kLogBytes), writes),
        f.writes);
    add("nvm.sfence_per_kput", "count",
        1e3 * ratio(d(Stat::kSfence), writes), f.writes);
    add("nvm.wbinvd_per_s", "1/s", ratio(d(Stat::kWbinvd), f.windowS));
    add("nvm.pool_bytes_used", "B", static_cast<double>(f.poolBytes));

    add("epoch.advances", "count", d(Stat::kEpochAdvances));
    add("epoch.boundary_p99_us", "us", win.boundary.percentile(99) / 1e3,
        win.boundary.count);
    add("epoch.gate_wait_ms", "ms", d(Stat::kGateWaitNs) / 1e6);
    add("epoch.gate_wait_p99_us", "us", win.gate.percentile(99) / 1e3,
        win.gate.count);

    const double allocs = d(Stat::kAllocs);
    add("alloc.fast_path_ratio", "ratio",
        ratio(d(Stat::kAllocFastPathHits), allocs), win.delta(Stat::kAllocs));
    add("alloc.refills_per_kalloc", "count",
        1e3 * ratio(d(Stat::kAllocRefills), allocs));
    add("alloc.cas_retries_per_kalloc", "count",
        1e3 * ratio(d(Stat::kAllocCasRetries), allocs));

    add("service.boundary_ms", "ms",
        ratio(static_cast<double>(f.service.boundaryNs) / 1e6,
              static_cast<double>(f.service.advances)),
        f.service.advances);
    add("service.throttle_stalls", "count",
        static_cast<double>(f.service.throttleStalls));
    add("service.debt_advances", "count",
        static_cast<double>(f.service.debtAdvances));

    add("server.ops_per_batch", "count",
        ratio(d(Stat::kServerBatchedOps), d(Stat::kServerBatches)),
        win.delta(Stat::kServerBatches));
    add("server.batch_fallbacks", "count", d(Stat::kServerBatchFallbacks));
    add("server.batch_flush_p99_us", "us", win.flush.percentile(99) / 1e3,
        win.flush.count);
    add("server.client_io_us_per_req", "us", f.clientIoUsPerReq);

    // Throughput of the traced (odd) segments against the untraced ones.
    double ops[2] = {0, 0}, secs[2] = {0, 0};
    for (const Segment &s : f.segments) {
        ops[s.traced] += static_cast<double>(s.ops);
        secs[s.traced] += s.seconds;
    }
    const double untraced = ratio(ops[0], secs[0]);
    add("obs.trace_overhead_pct", "%",
        100.0 * ratio(untraced - ratio(ops[1], secs[1]), untraced));
}

} // namespace

std::unique_ptr<ShardedStore>
setUp(const WorkloadSpec &w, const Args &a, const Oracle &o, PhaseFacts &f)
{
    const std::uint64_t t0 = nowNs();
    auto s = std::make_unique<ShardedStore>(storeOptions(w, a.seed));
    applyFlushPolicy(*s);
    f.fixedBytes = poolBytesUsed(*s);
    preload(*s, o);
    s->advanceEpoch();
    f.setupS = static_cast<double>(nowNs() - t0) / 1e9;
    return s;
}

Result
finish(const CheckLog &log, const Window &win, const PhaseFacts &f,
       const Tracer *tr, const Args &a)
{
    Result r;
    r.attempted = log.checks;
    r.failed = log.failures;
    for (const std::string &s : log.first)
        std::fprintf(stderr, "perfbench: violation: %s\n", s.c_str());

    // Every timing metric is taken per segment, then summarised over
    // the segments (see acrossSegments).
    std::vector<double> mops;
    std::uint64_t ops = 0;
    for (const Segment &s : f.segments) {
        mops.push_back(static_cast<double>(s.ops) / s.seconds / 1e6);
        ops += s.ops;
    }
    r.addSeries("throughput_mops", "Mops/s", mops, true, ops);
    auto percentiles = [&](const std::string &prefix,
                           incll::obs::HistSnapshot Latencies::*h) {
        for (const double p : {50.0, 99.0}) {
            std::vector<double> us;
            std::uint64_t n = 0;
            for (const Segment &s : f.segments) {
                us.push_back((s.lat.*h).percentile(p) / 1e3);
                n += (s.lat.*h).count;
            }
            r.addSeries(prefix + (p == 50.0 ? "_p50_us" : "_p99_us"), "us",
                        us, false, n);
        }
    };
    percentiles("get", &Latencies::get);
    percentiles("put", &Latencies::put);
    percentiles("scan", &Latencies::scan);
    addRecoveryAndSpace(r, f);
    r.add(false, "setup_s", "s", f.setupS);
    if (tr != nullptr) {
        addPerLayer(r, win, f, *tr);
        tr->write(a.outDir + "/" + a.workload + "-seed" +
                  std::to_string(a.seed) + "-spans.csv");
    }
    return r;
}

} // namespace pb
