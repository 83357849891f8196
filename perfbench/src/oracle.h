/**
 * @file
 * The generator's own record of what the store must hold, and the
 * checks that compare store outputs against it.
 *
 * Every addressable key has one owning writer (ownerOf), so the owner
 * knows each of its keys' exact version and liveness without reading
 * the store, and after the writers join the oracle knows every key's
 * final state. Stable keys (never removed) must never miss. The checks
 * compare only with this record or with properties any correct ordered
 * store has (scan order, scan coverage); none compares with saved
 * output of an earlier run.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench.h"

namespace pb {

class Oracle
{
  public:
    /** Reader identity that owns every key (single-threaded phases). */
    static constexpr unsigned kAll = ~0u;

    struct Entry
    {
        std::uint64_t key;
        std::uint64_t rank;
    };

    Oracle(std::uint64_t preloaded, std::uint64_t total, bool churn,
           unsigned owners)
        : preloaded_(preloaded), total_(total), churn_(churn),
          owners_(owners), version_(total, 0), live_(total, 0)
    {
        ordered_.reserve(total);
        for (std::uint64_t r = 0; r < total; ++r) {
            ordered_.push_back({keyU64OfRank(r), r});
            if (r < preloaded) {
                version_[r] = 1;
                live_[r] = 1;
            }
        }
        std::sort(ordered_.begin(), ordered_.end(),
                  [](const Entry &a, const Entry &b) { return a.key < b.key; });
    }

    std::uint64_t preloaded() const { return preloaded_; }
    std::uint64_t total() const { return total_; }
    unsigned owners() const { return owners_; }

    /** Never removed during a timed phase, and preloaded. */
    bool
    stable(std::uint64_t r) const
    {
        return r < preloaded_ && !(churn_ && (r & 1));
    }

    unsigned ownerOf(std::uint64_t r) const { return r % owners_; }

    /** The rank nearest @p r (same stride) that @p self owns. */
    std::uint64_t
    ownedRank(std::uint64_t r, unsigned self) const
    {
        std::uint64_t o = r - r % owners_ + self;
        if (o >= total_)
            o -= owners_;
        return o;
    }

    std::uint32_t version(std::uint64_t r) const { return version_[r]; }
    bool live(std::uint64_t r) const { return live_[r] != 0; }

    /** Record a write by the key's owner (distinct owners touch
     *  distinct elements, so concurrent owners never race). */
    void
    record(std::uint64_t r, std::uint32_t version, bool live)
    {
        version_[r] = version;
        live_[r] = live ? 1 : 0;
    }

    /** Every addressable key in key order. */
    const std::vector<Entry> &ordered() const { return ordered_; }

    std::size_t
    lowerBound(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            std::lower_bound(ordered_.begin(), ordered_.end(), key,
                             [](const Entry &e, std::uint64_t k) {
                                 return e.key < k;
                             }) -
            ordered_.begin());
    }

    std::uint64_t
    liveCount() const
    {
        std::uint64_t n = 0;
        for (std::uint8_t l : live_)
            n += l;
        return n;
    }

  private:
    std::uint64_t preloaded_;
    std::uint64_t total_;
    bool churn_;
    unsigned owners_;
    std::vector<std::uint32_t> version_;
    std::vector<std::uint8_t> live_;
    std::vector<Entry> ordered_;
};

/** Check counts plus the first few violation messages. */
struct CheckLog
{
    std::uint64_t checks = 0;
    std::uint64_t failures = 0;
    std::vector<std::string> first;

    void
    fail(const char *what, std::uint64_t rank)
    {
        ++failures;
        if (first.size() < 8)
            first.push_back(std::string(what) + " (rank " +
                            std::to_string(rank) + ")");
    }

    void
    merge(const CheckLog &o)
    {
        checks += o.checks;
        failures += o.failures;
        for (const std::string &s : o.first)
            if (first.size() < 8)
                first.push_back(s);
    }
};

/**
 * One point read of @p rank by reader @p self (an owner index or
 * Oracle::kAll): a hit must carry the value of its own key; a stable
 * key must hit; a key the reader owns must match the oracle exactly.
 */
inline bool
checkGet(const Oracle &o, unsigned self, std::uint64_t rank, bool hit,
         const Decoded &d, CheckLog &log)
{
    ++log.checks;
    const bool mine = self == Oracle::kAll || o.ownerOf(rank) == self;
    if (!hit) {
        if (o.stable(rank)) {
            log.fail("stable key missed", rank);
            return false;
        }
        if (mine && o.live(rank)) {
            log.fail("live key missed", rank);
            return false;
        }
        return true;
    }
    if (!d.wellFormed || d.rank != rank) {
        log.fail("value does not encode its key's rank", rank);
        return false;
    }
    if (mine && !o.live(rank)) {
        log.fail("removed key present", rank);
        return false;
    }
    if (mine && d.version != o.version(rank)) {
        log.fail("wrong version", rank);
        return false;
    }
    return true;
}

struct ScanItem
{
    std::uint64_t key;
    Decoded d;
};

/**
 * One short scan of up to @p limit keys from @p startKey by reader
 * @p self: keys strictly increasing from startKey, each value encodes
 * its key's rank, owned keys match the oracle, and every stable key the
 * oracle's ordered universe places in the covered interval is present.
 * The interval is [startKey, last key] for a full scan and
 * [startKey, end of key space] for a short one.
 */
inline bool
checkScan(const Oracle &o, unsigned self, std::uint64_t startKey,
          std::size_t limit, const ScanItem *items, std::size_t n,
          CheckLog &log)
{
    ++log.checks;
    if (n > limit) {
        log.fail("scan returned more than its limit", 0);
        return false;
    }
    std::uint64_t prev = startKey;
    for (std::size_t i = 0; i < n; ++i) {
        const ScanItem &it = items[i];
        if (it.key < startKey || (i > 0 && it.key <= prev)) {
            log.fail("scan keys not strictly increasing from start",
                     it.d.rank);
            return false;
        }
        prev = it.key;
        if (!it.d.wellFormed || it.d.rank >= o.total() ||
            keyU64OfRank(it.d.rank) != it.key) {
            log.fail("scan value does not encode its key's rank",
                     it.d.rank);
            return false;
        }
        const bool mine = self == Oracle::kAll || o.ownerOf(it.d.rank) == self;
        if (mine && (!o.live(it.d.rank) ||
                     it.d.version != o.version(it.d.rank))) {
            log.fail("scan returned a wrong version or removed key",
                     it.d.rank);
            return false;
        }
    }
    const std::uint64_t hi = n == limit && n > 0
                                 ? items[n - 1].key
                                 : std::numeric_limits<std::uint64_t>::max();
    const auto &ord = o.ordered();
    std::size_t j = 0;
    for (std::size_t e = o.lowerBound(startKey);
         e < ord.size() && ord[e].key <= hi; ++e) {
        const std::uint64_t r = ord[e].rank;
        const bool mine = self == Oracle::kAll || o.ownerOf(r) == self;
        if (!o.stable(r) && !(mine && o.live(r)))
            continue;
        while (j < n && items[j].key < ord[e].key)
            ++j;
        if (j == n || items[j].key != ord[e].key) {
            log.fail("scan skipped a key that must be present", r);
            return false;
        }
    }
    return true;
}

/**
 * Streaming comparison of a full ordered scan with the oracle's live
 * key set and versions: feed() every scanned entry in order, then
 * finish(). Each live key is one check; a missing, extra, misordered
 * or wrong-version key is one failure.
 */
class FullCompare
{
  public:
    FullCompare(const Oracle &o, CheckLog &log) : o_(o), log_(log) {}

    void
    feed(std::uint64_t key, const Decoded &d)
    {
        const auto &ord = o_.ordered();
        if (any_ && key <= last_) {
            ++log_.checks;
            log_.fail("full scan out of order", d.rank);
            return;
        }
        any_ = true;
        last_ = key;
        for (; next_ < ord.size() && ord[next_].key < key; ++next_)
            expectAbsent(ord[next_]);
        if (next_ == ord.size() || ord[next_].key != key) {
            ++log_.checks;
            log_.fail("full scan returned a key never written", d.rank);
            return;
        }
        const Oracle::Entry &e = ord[next_++];
        ++log_.checks;
        if (!o_.live(e.rank))
            log_.fail("full scan returned a removed key", e.rank);
        else if (!d.wellFormed || d.rank != e.rank)
            log_.fail("full scan value does not encode its key's rank",
                      e.rank);
        else if (d.version != o_.version(e.rank))
            log_.fail("full scan found a wrong version", e.rank);
    }

    void
    finish()
    {
        const auto &ord = o_.ordered();
        for (; next_ < ord.size(); ++next_)
            expectAbsent(ord[next_]);
    }

  private:
    void
    expectAbsent(const Oracle::Entry &e)
    {
        if (!o_.live(e.rank))
            return;
        ++log_.checks;
        log_.fail("full scan missed a live key", e.rank);
    }

    const Oracle &o_;
    CheckLog &log_;
    std::size_t next_ = 0;
    std::uint64_t last_ = 0;
    bool any_ = false;
};

/**
 * Full ordered scan of @p store (any store with the scan(start, limit,
 * cb) shape) in chunks, compared with the oracle. Requires quiescence.
 */
template <typename Store>
void
compareFullScan(Store &store, const Oracle &o, CheckLog &log)
{
    constexpr std::size_t kChunk = 4096;
    FullCompare cmp(o, log);
    std::string start;
    std::vector<ScanItem> buf;
    buf.reserve(kChunk);
    for (;;) {
        buf.clear();
        store.scan(start, kChunk, [&](std::string_view k, void *v) {
            std::uint64_t key = 0;
            if (!u64OfKey(k, key))
                key = 0; // a non-8-byte key shows as out of order
            buf.push_back({key, decodeValue(v)});
        });
        for (const ScanItem &it : buf)
            cmp.feed(it.key, it.d);
        if (buf.size() < kChunk)
            break;
        // Resume just past the last key: append a zero byte.
        const KeyBuf kb = keyOfU64(buf.back().key);
        start.assign(kb.data(), 8);
        start.push_back('\0');
    }
    cmp.finish();
}

} // namespace pb
