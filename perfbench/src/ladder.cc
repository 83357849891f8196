/**
 * @file
 * The layer ladder of the traced run: single-threaded gets and puts
 * against successively fuller stacks, so each gap in ns/op has an
 * owner:
 *
 *   TransientMasstree (MT+) -> lone DurableMasstree (InCLL, log, flush)
 *   -> 1-shard ShardedStore -> the workload's N-shard store, through its
 *   API and directly against the owning shard's tree (the routing tax).
 *
 * Every rung draws its own key stream from the workload's distribution
 * (rungs that share a tree must not warm each other's keys), and the
 * rungs take turns in short rounds, so a slow second of the machine
 * lands on every rung alike.
 */
#include <functional>

#include "masstree/durable_tree.h"
#include "stores.h"

namespace pb {

namespace {

constexpr std::size_t kRounds = 10;
constexpr std::size_t kGetsPerRound = 20'000;
constexpr std::size_t kPutsPerRound = 5'000;
constexpr std::size_t kScansPerRound = 2'000;
constexpr unsigned kRungs = 5;

struct Rung
{
    std::function<bool(std::string_view, void *&)> get;
    std::function<bool(std::string_view, const char *)> put;
    /** Version installed by the i-th put of @p rank. */
    std::function<std::uint32_t(std::uint64_t rank)> nextVersion;
    std::vector<std::uint64_t> getRanks, putRanks;
    std::vector<KeyBuf> getKeys, putKeys;
    std::uint64_t getNs = 0, putNs = 0;
    std::size_t gets = 0, puts = 0;
};

void
runGets(Rung &r, unsigned id, std::size_t from, std::size_t n, CheckLog &log,
        Tracer::Thread *tt)
{
    for (std::size_t i = from; i < from + n; ++i) {
        void *v = nullptr;
        bool hit;
        const std::uint64_t t0 = nowNs();
        {
            ScopedSpan span(tt, SpanKind::kLadderGet,
                            (std::uint64_t{id} << 56) | i);
            hit = r.get(keyView(r.getKeys[i]), v);
        }
        r.getNs += nowNs() - t0;
        const Decoded d = hit ? decodeValue(v) : Decoded{};
        ++log.checks;
        if (!hit || !d.wellFormed || d.rank != r.getRanks[i])
            log.fail("ladder get missed or read another key's value",
                     r.getRanks[i]);
    }
    r.gets += n;
}

void
runPuts(Rung &r, unsigned id, std::size_t from, std::size_t n, CheckLog &log,
        Tracer::Thread *tt)
{
    char val[kValueBytes];
    for (std::size_t i = from; i < from + n; ++i) {
        encodeValue(r.putRanks[i], r.nextVersion(r.putRanks[i]), val);
        bool inserted;
        const std::uint64_t t0 = nowNs();
        {
            ScopedSpan span(tt, SpanKind::kLadderPut,
                            (std::uint64_t{id} << 56) | i);
            inserted = r.put(keyView(r.putKeys[i]), val);
        }
        r.putNs += nowNs() - t0;
        ++log.checks;
        if (inserted)
            log.fail("ladder update inserted a key", r.putRanks[i]);
    }
    r.puts += n;
}

double
perOp(std::uint64_t ns, std::size_t n)
{
    return n ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
}

/** get/put/nextVersion of a tree or store @p st used by one rung. */
template <typename Store>
void
bindAux(Rung &r, Store &st)
{
    r.get = [&st](std::string_view k, void *&v) { return st.get(k, v); };
    r.put = [&st](std::string_view k, const char *val) {
        return incll::store::installValue(st, k, val, kValueBytes,
                                          kValueBytes);
    };
    r.nextVersion = [n = std::uint32_t{1}](std::uint64_t) mutable {
        return ++n;
    };
}

} // namespace

Ladder
runLadder(const WorkloadSpec &w, ShardedStore &main, Oracle &o,
          std::uint64_t seed, CheckLog &log, Tracer::Thread *tt)
{
    // Streams of stable ranks (present in every rung, never removed).
    incll::Rng rng(incll::mix64(seed ^ 0x1add3eULL));
    const incll::KeyChooser chooser(w.zipfian
                                        ? incll::KeyChooser::Dist::kZipfian
                                        : incll::KeyChooser::Dist::kUniform,
                                    w.preloaded, 0.99);
    auto stableDraw = [&] {
        const std::uint64_t r = chooser.next(rng);
        return o.stable(r) ? r : r & ~std::uint64_t{1};
    };
    std::array<Rung, kRungs> rungs;
    for (Rung &r : rungs) {
        for (std::size_t i = 0; i < kRounds * kGetsPerRound; ++i) {
            r.getRanks.push_back(stableDraw());
            r.getKeys.push_back(keyOfRank(r.getRanks.back()));
        }
        for (std::size_t i = 0; i < kRounds * kPutsPerRound; ++i) {
            r.putRanks.push_back(stableDraw());
            r.putKeys.push_back(keyOfRank(r.putRanks.back()));
        }
    }

    // Rungs 0-2: auxiliary trees preloaded with the workload's keys.
    incll::mt::MasstreeMTPlus transient;
    preload(transient, o);
    bindAux(rungs[0], transient);

    const ShardedStore::Options so = storeOptions(w, seed);
    const std::size_t wholeBytes = poolBytesFor(w.total, so.config);
    incll::nvm::Pool pool(wholeBytes, incll::nvm::Mode::kDirect, seed);
    pool.latency().sfenceExtraNs = kSfenceExtraNs;
    pool.latency().wbinvdNs = kWbinvdNs;
    incll::mt::DurableMasstree durable(pool, so.config.treeOptions());
    preload(durable, o);
    bindAux(rungs[1], durable);

    ShardedStore::Options one = so;
    one.shards = 1;
    one.poolBytesPerShard = wholeBytes;
    one.config.placement = incll::store::PlacementKind::kHash;
    ShardedStore oneShard(one);
    applyFlushPolicy(oneShard);
    preload(oneShard, o);
    bindAux(rungs[2], oneShard);

    // Rungs 3-4: the workload's own store through its API, and directly
    // against the owning shard's tree (owners resolved before timing).
    // Their puts are real updates, recorded in the oracle.
    auto nextVersion = [&o](std::uint64_t r) {
        o.record(r, o.version(r) + 1, true);
        return o.version(r);
    };
    rungs[3].get = [&main](std::string_view k, void *&v) {
        return main.get(k, v);
    };
    rungs[3].put = [&main](std::string_view k, const char *val) {
        return incll::store::installValue(main, k, val, kValueBytes,
                                          kValueBytes);
    };
    rungs[3].nextVersion = nextVersion;
    std::vector<incll::mt::DurableMasstree *> getOwner, putOwner;
    for (const KeyBuf &k : rungs[4].getKeys)
        getOwner.push_back(&main.shard(main.shardOf(keyView(k))).tree());
    for (const KeyBuf &k : rungs[4].putKeys)
        putOwner.push_back(&main.shard(main.shardOf(keyView(k))).tree());
    std::size_t gi = 0, pi = 0;
    rungs[4].get = [&getOwner, &gi](std::string_view k, void *&v) {
        return getOwner[gi++]->get(k, v);
    };
    rungs[4].put = [&putOwner, &pi](std::string_view k, const char *val) {
        return incll::store::installValue(*putOwner[pi++], k, val,
                                          kValueBytes, kValueBytes);
    };
    rungs[4].nextVersion = nextVersion;

    std::uint64_t scanNs = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        // Every durable rung starts the round in a fresh epoch, so each
        // logs its first touch of a node alike.
        durable.advanceEpoch();
        oneShard.advanceEpoch();
        main.advanceEpoch();
        for (unsigned k = 0; k < kRungs; ++k) {
            // Alternate which of the two main-store rungs goes first.
            const unsigned id = round % 2 == 1 && k >= 3 ? 7 - k : k;
            runGets(rungs[id], id, round * kGetsPerRound, kGetsPerRound, log,
                    tt);
        }
        for (unsigned k = 0; k < kRungs; ++k) {
            const unsigned id = round % 2 == 1 && k >= 3 ? 7 - k : k;
            runPuts(rungs[id], id, round * kPutsPerRound, kPutsPerRound, log,
                    tt);
        }
        // Short scans through the store API (the oracle is exact here:
        // this thread is the only writer).
        std::vector<ScanItem> items;
        for (std::size_t i = 0; i < kScansPerRound; ++i) {
            const std::uint64_t start = keyU64OfRank(chooser.next(rng));
            const KeyBuf kb = keyOfU64(start);
            items.clear();
            const std::uint64_t t0 = nowNs();
            main.scan(keyView(kb), kScanLen, [&items](std::string_view k,
                                                      void *v) {
                std::uint64_t key = 0;
                u64OfKey(k, key);
                items.push_back({key, decodeValue(v)});
            });
            scanNs += nowNs() - t0;
            checkScan(o, Oracle::kAll, start, kScanLen, items.data(),
                      items.size(), log);
        }
    }

    Ladder L;
    L.transientGet = perOp(rungs[0].getNs, rungs[0].gets);
    L.transientPut = perOp(rungs[0].putNs, rungs[0].puts);
    L.durableGet = perOp(rungs[1].getNs, rungs[1].gets);
    L.durablePut = perOp(rungs[1].putNs, rungs[1].puts);
    L.oneShardGet = perOp(rungs[2].getNs, rungs[2].gets);
    L.oneShardPut = perOp(rungs[2].putNs, rungs[2].puts);
    L.storeGet = perOp(rungs[3].getNs, rungs[3].gets);
    L.storePut = perOp(rungs[3].putNs, rungs[3].puts);
    L.directGet = perOp(rungs[4].getNs, rungs[4].gets);
    L.directPut = perOp(rungs[4].putNs, rungs[4].puts);
    L.storeScan = perOp(scanNs, kRounds * kScansPerRound);
    const double g = w.getPct, p = w.writePct;
    L.transientMix = (g * L.transientGet + p * L.transientPut) / (g + p);
    L.durableMix = (g * L.durableGet + p * L.durablePut) / (g + p);
    return L;
}

} // namespace pb
