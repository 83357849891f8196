/**
 * @file
 * Store-side helpers shared by the in-process and wire workloads:
 * building and preloading a store, the flush policy, counter deltas,
 * the failed epoch and the recovery round, and the per-layer metrics
 * every workload reports.
 */
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/zipf.h"
#include "oracle.h"
#include "service/epoch_service.h"
#include "store/sharded_store.h"
#include "store/value_util.h"
#include "trace.h"

namespace pb {

using incll::store::ShardedStore;

/** Options of @p w's store (direct-mode pools sized for its keys). */
ShardedStore::Options storeOptions(const WorkloadSpec &w, std::uint64_t seed);

/** Pool size for @p keys keys under @p cfg. */
std::size_t poolBytesFor(std::uint64_t keys,
                         const incll::store::StoreConfig &cfg);

/** Apply the flush policy (emulated fence and wbinvd cost) to every
 *  pool of @p s. Pools keep it across releasePools and recovery. */
void applyFlushPolicy(ShardedStore &s);

/** EpochService options for @p w: one service thread. */
incll::service::EpochService::Options serviceOptions(const WorkloadSpec &w);

/** Install every preloaded rank of @p o at version 1, in batches. */
template <typename Store>
void
preload(Store &s, const Oracle &o)
{
    constexpr std::size_t kChunk = 256;
    std::array<KeyBuf, kChunk> keys;
    std::array<std::array<char, kValueBytes>, kChunk> vals;
    std::array<incll::store::InstallOp, kChunk> ops;
    for (std::uint64_t base = 0; base < o.preloaded(); base += kChunk) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kChunk, o.preloaded() - base));
        for (std::size_t j = 0; j < n; ++j) {
            keys[j] = keyOfRank(base + j);
            encodeValue(base + j, 1, vals[j].data());
            ops[j] = {keyView(keys[j]), vals[j].data(), kValueBytes};
        }
        incll::store::installValueBatch(s, std::span(ops.data(), n),
                                        kValueBytes);
    }
}

/** Pool bytes handed out by every shard's bump allocator. */
std::uint64_t poolBytesUsed(ShardedStore &s);

/** Snapshot of every globalStats() counter. */
struct StatSnap
{
    std::array<std::uint64_t, static_cast<unsigned>(incll::Stat::kNumStats)>
        v{};

    static StatSnap take();

    std::uint64_t
    operator[](incll::Stat s) const
    {
        return v[static_cast<unsigned>(s)];
    }
};

/**
 * Counter and histogram deltas summed over the measured windows of the
 * timed phase's segments (begin() and end() once per segment).
 */
struct Window
{
    StatSnap sum;
    incll::obs::HistSnapshot boundary, gate, flush;

    void begin();
    void end();

    std::uint64_t delta(incll::Stat s) const { return sum[s]; }

  private:
    StatSnap s0_;
    incll::obs::HistSnapshot boundary0_, gate0_, flush0_;
};

/** What one segment of the timed phase measured. */
struct Segment
{
    double seconds = 0;     ///< measured length
    std::uint64_t ops = 0;  ///< operations completed in it
    Latencies lat;
    bool traced = false;    ///< spans recorded (traced run, odd segments)
};

/** Add the EpochService counters @p c into @p sum. */
void addService(incll::service::EpochService::ShardCounters &sum,
                const incll::service::EpochService::ShardCounters &c);

/** One write of a failed epoch. */
struct FailedWrite
{
    std::uint64_t rank;
    bool remove;  ///< else install `version` (insert when absent)
    bool wasLive; ///< key state just before this write
    std::uint32_t version; ///< installed version, or the removed one
};

/**
 * The failed epoch of round @p round: @p n writes over the oracle's
 * whole universe, drawn from @p seed (updates and removes of live keys,
 * inserts of absent ones), with a fresh version per write. The oracle
 * is not changed: after recovery the store must again equal it.
 */
std::vector<FailedWrite> makeFailedEpoch(const Oracle &o, std::uint64_t seed,
                                         unsigned round, unsigned n);

/**
 * Apply @p writes to @p s on the calling thread with no checkpoint,
 * checking each store verdict against the state makeFailedEpoch()
 * recorded for it.
 */
void applyFailedEpoch(ShardedStore &s, const std::vector<FailedWrite> &writes,
                      CheckLog &log);

/** Update every live key of @p o once (version + 1) on the calling
 *  thread, recording each write in @p o. */
void rewriteLive(ShardedStore &s, Oracle &o, CheckLog &log);

/** What one crash-and-recover round measured. */
struct RecoveryRound
{
    double recoveryMs = 0; ///< constructor + first reads of written keys
    double ctorMs = 0;
    std::uint64_t imagesApplied = 0;
    std::uint64_t lazyRecoveries = 0;
    /** Log entries the recovery walk will visit (failed epoch's and
     *  stale ones alike), counted just before the crash. */
    std::uint64_t walkEntries = 0;
    std::uint64_t poolBytes = 0; ///< pool bytes in use after recovery
};

/** Valid-looking entries in every log buffer of @p s (the chain the
 *  recovery constructor walks). */
std::uint64_t logChainEntries(ShardedStore &s);

/**
 * Recover the pools of a "crashed" store (releasePools: the store was
 * dropped with every pool intact) with the kRecover constructor into
 * @p out, then read every key @p writes touched — where lazy per-node
 * rollback runs — and check each holds its pre-failed-epoch state.
 */
RecoveryRound recoverAndCheck(
    std::vector<std::unique_ptr<incll::nvm::Pool>> pools,
    std::unique_ptr<ShardedStore> &out, const incll::store::StoreConfig &cfg,
    const Oracle &o, const std::vector<FailedWrite> &writes, CheckLog &log,
    Tracer::Thread *tt);

/** Read @p rank holding its shard's gate across the value decode. */
inline bool
gatedGet(ShardedStore &s, std::string_view key, Decoded &d)
{
    incll::EpochGate::Guard g(
        s.shard(s.shardOf(key)).tree().epochs().gate());
    void *v = nullptr;
    const bool hit = s.get(key, v);
    d = hit ? decodeValue(v) : Decoded{};
    return hit;
}

/** Per-rung ns/op of the layer ladder (traced run only). */
struct Ladder
{
    double transientGet = 0, transientPut = 0; ///< TransientMasstree (MT+)
    double durableGet = 0, durablePut = 0;     ///< lone DurableMasstree
    double oneShardGet = 0, oneShardPut = 0;   ///< 1-shard ShardedStore
    double storeGet = 0, storePut = 0;         ///< the workload's store
    double directGet = 0, directPut = 0; ///< its owning shard's tree
    double storeScan = 0; ///< short scans through the workload's store
    double transientMix = 0, durableMix = 0;   ///< gets+puts, ns/op
};

/**
 * Run one key stream, single-threaded, against each rung and time every
 * call. @p main is the workload's quiesced store; its puts are recorded
 * in @p o. Auxiliary rungs are preloaded with the same keys, built one
 * at a time and destroyed after use.
 */
Ladder runLadder(const WorkloadSpec &w, ShardedStore &main, Oracle &o,
                 std::uint64_t seed, CheckLog &log, Tracer::Thread *tt);

/** What the four phases fed to the metrics. */
struct PhaseFacts
{
    double setupS = 0;           ///< store construction to first checkpoint
    std::uint64_t fixedBytes = 0; ///< pool bytes in use before the preload
    double windowS = 0;        ///< measured length of all segments
    std::vector<Segment> segments;
    std::uint64_t writes = 0;  ///< puts + removes in the window
    std::uint64_t poolBytes = 0;
    std::uint64_t liveKeys = 0;
    incll::service::EpochService::ShardCounters service;
    std::vector<RecoveryRound> rounds;
    Ladder ladder;
    double clientIoUsPerReq = 0; ///< wire only
};

/**
 * Phase 1: build @p w's store, preload @p o's keys and checkpoint.
 * Records the set-up time (from just before the store is built; the
 * process's first store, so a cold one) and the pools' fixed bytes in
 * @p f.
 */
std::unique_ptr<ShardedStore> setUp(const WorkloadSpec &w, const Args &a,
                                    const Oracle &o, PhaseFacts &f);

/**
 * The run's result: the check counts, every end-to-end metric, and with
 * a tracer every per-layer metric (the span file is written too).
 */
Result finish(const CheckLog &log, const Window &win, const PhaseFacts &f,
              const Tracer *tr, const Args &a);

} // namespace pb
