/**
 * @file
 * Test of the benchmark's checker: it must be able to fail.
 *
 * Against a small real store, each case plants exactly one fault the
 * benchmark's checks exist to catch and requires the checker to report
 * it; a control case with no fault must report none. Exit code 0 iff
 * every case behaves.
 *
 *   1. one wrong version (a value rewritten behind the oracle's back);
 *   2. one missing stable key (removed behind the oracle's back);
 *   3. one failed-epoch write that was not rolled back (the epoch is
 *      committed before the crash, so recovery rightly keeps it).
 */
#include <cstdio>

#include "stores.h"

namespace {

using namespace pb;

constexpr std::uint64_t kKeys = 4096;

WorkloadSpec
smallSpec()
{
    WorkloadSpec w = *findWorkload("read_mostly_range");
    w.preloaded = kKeys;
    w.total = kKeys + 256;
    return w;
}

struct Fixture
{
    WorkloadSpec w = smallSpec();
    ShardedStore::Options so = storeOptions(w, 7);
    Oracle o{w.preloaded, w.total, false, 1};
    std::unique_ptr<ShardedStore> s = std::make_unique<ShardedStore>(so);

    Fixture()
    {
        preload(*s, o);
        s->advanceEpoch();
    }

    /** Full-scan comparison; returns the failures it reported. */
    std::uint64_t
    fullScanFailures()
    {
        CheckLog log;
        compareFullScan(*s, o, log);
        return log.failures;
    }
};

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    failures += ok ? 0 : 1;
}

/** A stable rank and the scan start of the rank just before it in key
 *  order, so a short scan from there must cover it. */
std::uint64_t
scanStartBefore(const Oracle &o, std::uint64_t rank)
{
    const std::size_t at = o.lowerBound(keyU64OfRank(rank));
    return at == 0 ? 0 : o.ordered()[at - 1].key;
}

} // namespace

int
main()
{
    {
        Fixture fx;
        expect(fx.fullScanFailures() == 0, "control: clean store passes");
    }
    {
        // 1. One wrong version.
        Fixture fx;
        const std::uint64_t r = 1234;
        char val[kValueBytes];
        encodeValue(r, fx.o.version(r) + 5, val);
        const KeyBuf kb = keyOfRank(r);
        incll::store::installValue(*fx.s, keyView(kb), val, kValueBytes,
                                   kValueBytes);
        expect(fx.fullScanFailures() == 1, "wrong version: full scan");
        CheckLog log;
        Decoded d;
        const bool hit = gatedGet(*fx.s, keyView(kb), d);
        checkGet(fx.o, Oracle::kAll, r, hit, d, log);
        expect(log.failures == 1, "wrong version: owner's get");
    }
    {
        // 2. One missing stable key.
        Fixture fx;
        const std::uint64_t r = 2345;
        const KeyBuf kb = keyOfRank(r);
        void *old = nullptr;
        fx.s->remove(keyView(kb), &old);
        expect(fx.fullScanFailures() == 1, "missing stable key: full scan");
        CheckLog log;
        Decoded d;
        const bool hit = gatedGet(*fx.s, keyView(kb), d);
        checkGet(fx.o, 0, r, hit, d, log);
        expect(log.failures == 1, "missing stable key: get");
        const std::uint64_t start = scanStartBefore(fx.o, r);
        std::vector<ScanItem> items;
        const KeyBuf sk = keyOfU64(start);
        fx.s->scan(keyView(sk), kScanLen, [&](std::string_view k, void *v) {
            std::uint64_t key = 0;
            u64OfKey(k, key);
            items.push_back({key, decodeValue(v)});
        });
        CheckLog scanLog;
        checkScan(fx.o, 0, start, kScanLen, items.data(), items.size(),
                  scanLog);
        expect(scanLog.failures == 1, "missing stable key: short scan");
    }
    {
        // Control for 3: a failed epoch that is rolled back passes.
        Fixture fx;
        const auto writes = makeFailedEpoch(fx.o, 7, 0, 64);
        CheckLog log;
        applyFailedEpoch(*fx.s, writes, log);
        auto pools = fx.s->releasePools();
        fx.s.reset();
        recoverAndCheck(std::move(pools), fx.s, fx.so.config, fx.o, writes,
                        log, nullptr);
        expect(log.failures == 0 && fx.fullScanFailures() == 0,
               "control: rolled-back failed epoch passes");
    }
    {
        // 3. One failed-epoch write that was not rolled back.
        Fixture fx;
        const auto writes = makeFailedEpoch(fx.o, 7, 1, 1);
        CheckLog log;
        applyFailedEpoch(*fx.s, writes, log);
        fx.s->advanceEpoch(); // committed: recovery must keep it
        auto pools = fx.s->releasePools();
        fx.s.reset();
        recoverAndCheck(std::move(pools), fx.s, fx.so.config, fx.o, writes,
                        log, nullptr);
        expect(log.failures == 1, "unrolled failed-epoch write: reads");
        expect(fx.fullScanFailures() == 1,
               "unrolled failed-epoch write: full scan");
    }
    std::printf("%s\n", failures == 0 ? "checker self-test: OK"
                                      : "checker self-test: FAILED");
    return failures == 0 ? 0 : 1;
}
