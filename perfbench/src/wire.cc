/**
 * @file
 * The wire workload: an in-process server::Server on loopback over a
 * range-placed store, driven closed-loop by one client thread over a
 * few pipelined connections sending MULTI_GET, MULTI_PUT and SCAN
 * frames. Each connection owns the keys of its index (rank mod
 * connections), so the client knows every own key's version; the
 * server keeps pipelined same-shard requests of one connection in
 * order, so a MULTI_GET must see every MULTI_PUT sent before it.
 */
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "server/protocol.h"
#include "server/server.h"
#include "stores.h"

namespace pb {

namespace {

namespace proto = incll::server;

constexpr unsigned kConns = 2;
constexpr unsigned kDepth = 8;      ///< frames in flight per connection
constexpr unsigned kFrameKeys = 16; ///< keys per MULTI frame

enum class FrameKind : std::uint8_t { kGet, kPut, kScan, kRemove, kStats };

struct Frame
{
    FrameKind kind = FrameKind::kGet;
    std::uint64_t t0 = 0;
    std::vector<std::uint64_t> ranks;
    /** kGet: version an own key must show (0 = another owner's key). */
    std::vector<std::uint32_t> expect;
    std::uint32_t expectInserted = 0; ///< kPut
    bool expectHit = false;           ///< kRemove
};

struct Conn
{
    int fd = -1;
    unsigned owner = 0;
    std::vector<char> in;
    std::unordered_map<std::uint64_t, Frame> inflight;

    Conn() = default;
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;
    ~Conn() { close(); }

    void
    close()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
        in.clear();
        inflight.clear();
    }
};

/** Window bookkeeping of one segment; the default measures nothing. */
struct Timing
{
    std::uint64_t measureStart = ~std::uint64_t{0};
    std::uint64_t end = 0;
    Tracer *tr = nullptr; ///< null unless the segment is traced
};

class Client
{
  public:
    Client(Oracle &o, CheckLog &log) : o_(o), log_(log) {}

    void
    connectAll(std::uint16_t port)
    {
        for (unsigned c = 0; c < kConns; ++c) {
            Conn &cn = conns_[c];
            cn.close();
            cn.owner = c;
            cn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (cn.fd < 0)
                throw std::runtime_error("socket failed");
            int one = 1;
            ::setsockopt(cn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(port);
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            if (::connect(cn.fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) != 0)
                throw std::runtime_error("connect to the server failed");
        }
    }

    void
    closeAll()
    {
        for (Conn &c : conns_)
            c.close();
    }

    Conn &conn(unsigned i) { return conns_[i]; }

    /** Send one frame; the request bytes are built here. */
    void
    send(Conn &c, proto::Op op, Frame f, const std::vector<char> &payload,
         std::string_view key = {}, std::uint32_t valLen = 0)
    {
        out_.clear();
        proto::ReqHeader h{};
        h.op = static_cast<std::uint8_t>(op);
        h.keyLen = static_cast<std::uint16_t>(key.size());
        h.valLen = payload.empty() ? valLen
                                   : static_cast<std::uint32_t>(payload.size());
        h.seq = ++seq_;
        proto::putRaw(out_, h);
        out_.insert(out_.end(), key.begin(), key.end());
        out_.insert(out_.end(), payload.begin(), payload.end());
        f.t0 = nowNs();
        c.inflight.emplace(h.seq, std::move(f));
        std::size_t off = 0;
        const std::uint64_t io0 = nowNs();
        while (off < out_.size()) {
            const ssize_t n = ::send(c.fd, out_.data() + off,
                                     out_.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("send to the server failed");
            off += static_cast<std::size_t>(n);
        }
        noteIo(io0);
    }

    /** Wait up to @p timeoutMs for responses and check them. */
    void
    pump(int timeoutMs)
    {
        pollfd pfd[kConns];
        for (unsigned c = 0; c < kConns; ++c)
            pfd[c] = {conns_[c].fd, POLLIN, 0};
        if (::poll(pfd, kConns, timeoutMs) <= 0)
            return;
        for (unsigned c = 0; c < kConns; ++c) {
            if (!(pfd[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &cn = conns_[c];
            char buf[65536];
            const std::uint64_t io0 = nowNs();
            const ssize_t n = ::recv(cn.fd, buf, sizeof buf, MSG_DONTWAIT);
            noteIo(io0);
            if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR))
                throw std::runtime_error("server closed a connection");
            if (n > 0)
                cn.in.insert(cn.in.end(), buf, buf + n);
            parse(cn);
        }
    }

    /** Wait until every sent frame is answered. */
    void
    drain()
    {
        const std::uint64_t deadline = nowNs() + 30'000'000'000ULL;
        for (;;) {
            std::size_t pending = 0;
            for (const Conn &c : conns_)
                pending += c.inflight.size();
            if (pending == 0)
                return;
            if (nowNs() > deadline)
                throw std::runtime_error("server stopped answering");
            pump(10);
        }
    }

    // The current segment's window and its tallies (lat and ops are
    // per segment; the rest add up over the run).
    Timing timing;
    Latencies lat;
    std::uint64_t ops = 0, writes = 0, frames = 0;
    std::uint64_t ioNs = 0;

  private:
    void
    noteIo(std::uint64_t io0)
    {
        const std::uint64_t t = nowNs();
        if (io0 >= timing.measureStart && t <= timing.end)
            ioNs += t - io0;
        if (timing.tr != nullptr && inWindow(io0))
            timing.tr->thread(0).add(SpanKind::kWireIo, io0, t, seq_);
    }

    bool
    inWindow(std::uint64_t t) const
    {
        return t >= timing.measureStart && t < timing.end;
    }

    void
    parse(Conn &c)
    {
        std::size_t off = 0;
        while (c.in.size() - off >= sizeof(proto::RespHeader)) {
            proto::RespHeader h;
            std::memcpy(&h, c.in.data() + off, sizeof h);
            if (c.in.size() - off - sizeof h < h.valLen)
                break;
            const char *payload = c.in.data() + off + sizeof h;
            off += sizeof h + h.valLen;
            auto it = c.inflight.find(h.seq);
            if (it == c.inflight.end()) {
                ++log_.checks;
                log_.fail("response to a request never sent", h.seq);
                continue;
            }
            Frame f = std::move(it->second);
            c.inflight.erase(it);
            complete(f, h, payload, nowNs());
        }
        c.in.erase(c.in.begin(), c.in.begin() + static_cast<long>(off));
    }

    void
    complete(const Frame &f, const proto::RespHeader &h,
             const char *p, std::uint64_t t1)
    {
        const bool measured = f.t0 >= timing.measureStart && t1 <= timing.end;
        if (timing.tr != nullptr && inWindow(f.t0))
            timing.tr->thread(0).add(SpanKind::kWireFrame, f.t0, t1, h.seq);
        const std::uint32_t len = h.valLen;
        const auto status = static_cast<proto::Status>(h.status);
        std::uint64_t frameOps = 1;
        switch (f.kind) {
        case FrameKind::kGet: {
            frameOps = f.ranks.size();
            std::uint32_t count = 0;
            std::size_t off = 0;
            if (status != proto::Status::kOk || len < 4 ||
                (count = proto::getRaw<std::uint32_t>(p, off)) !=
                    f.ranks.size()) {
                ++log_.checks;
                log_.fail("MULTI_GET refused or miscounted", f.ranks[0]);
                break;
            }
            for (std::size_t i = 0; i < f.ranks.size(); ++i) {
                if (len - off < 5) {
                    ++log_.checks;
                    log_.fail("MULTI_GET response truncated", f.ranks[i]);
                    break;
                }
                const bool hit = proto::getRaw<std::uint8_t>(p, off) != 0;
                const std::uint32_t vl = proto::getRaw<std::uint32_t>(p, off);
                if (len - off < (hit ? vl : 0)) {
                    ++log_.checks;
                    log_.fail("MULTI_GET response truncated", f.ranks[i]);
                    break;
                }
                const Decoded d = hit ? decodeValue(p + off, vl) : Decoded{};
                off += hit ? vl : 0;
                // Rank and presence against the oracle, then the exact
                // version an own key must show.
                if (checkGet(o_, o_.owners(), f.ranks[i], hit, d, log_) &&
                    f.expect[i] != 0 && d.version != f.expect[i])
                    log_.fail("MULTI_GET missed an earlier own MULTI_PUT",
                              f.ranks[i]);
            }
            if (measured)
                lat.get.record(t1 - f.t0);
            break;
        }
        case FrameKind::kPut: {
            frameOps = f.ranks.size();
            std::size_t off = 0;
            ++log_.checks;
            if (status != proto::Status::kOk || len != 4 ||
                proto::getRaw<std::uint32_t>(p, off) != f.expectInserted)
                log_.fail("MULTI_PUT insert count wrong", f.ranks[0]);
            if (measured) {
                lat.put.record(t1 - f.t0);
                writes += f.ranks.size();
            }
            break;
        }
        case FrameKind::kScan: {
            std::vector<ScanItem> items;
            std::size_t off = 0;
            bool ok = status == proto::Status::kOk && len >= 4;
            const std::uint32_t count =
                ok ? proto::getRaw<std::uint32_t>(p, off) : 0;
            for (std::uint32_t i = 0; ok && i < count; ++i) {
                if (len - off < 6) {
                    ok = false;
                    break;
                }
                const std::uint16_t kl = proto::getRaw<std::uint16_t>(p, off);
                const std::uint32_t vl = proto::getRaw<std::uint32_t>(p, off);
                if (len - off < std::size_t{kl} + vl) {
                    ok = false;
                    break;
                }
                std::uint64_t key = 0;
                u64OfKey({p + off, kl}, key);
                items.push_back({key, decodeValue(p + off + kl, vl)});
                off += std::size_t{kl} + vl;
            }
            if (!ok) {
                ++log_.checks;
                log_.fail("SCAN response malformed", f.ranks[0]);
            } else {
                checkScan(o_, o_.owners(), keyU64OfRank(f.ranks[0]), kScanLen,
                          items.data(), items.size(), log_);
            }
            if (measured)
                lat.scan.record(t1 - f.t0);
            break;
        }
        case FrameKind::kRemove:
            ++log_.checks;
            if ((status == proto::Status::kOk) != f.expectHit)
                log_.fail("REMOVE verdict wrong", f.ranks[0]);
            break;
        case FrameKind::kStats:
            ++log_.checks;
            if (status != proto::Status::kOk ||
                std::string_view(p, len).find("counters") ==
                    std::string_view::npos)
                log_.fail("kStats exposition missing", 0);
            break;
        }
        if (measured) {
            ops += frameOps;
            ++frames;
        }
    }

    Oracle &o_;
    CheckLog &log_;
    Conn conns_[kConns];
    std::vector<char> out_;
    std::uint64_t seq_ = 0;
};

// -- request builders ---------------------------------------------------

void
appendMultiGet(std::vector<char> &pl, const std::vector<std::uint64_t> &ranks)
{
    pl.clear();
    proto::putRaw(pl, static_cast<std::uint32_t>(ranks.size()));
    for (std::uint64_t r : ranks) {
        const KeyBuf kb = keyOfRank(r);
        proto::putRaw(pl, std::uint16_t{8});
        pl.insert(pl.end(), kb.begin(), kb.end());
    }
}

void
appendMultiPut(std::vector<char> &pl, const std::vector<std::uint64_t> &ranks,
               const std::vector<std::uint32_t> &versions)
{
    pl.clear();
    proto::putRaw(pl, static_cast<std::uint32_t>(ranks.size()));
    char val[kValueBytes];
    for (std::size_t i = 0; i < ranks.size(); ++i) {
        const KeyBuf kb = keyOfRank(ranks[i]);
        proto::putRaw(pl, std::uint16_t{8});
        proto::putRaw(pl, static_cast<std::uint32_t>(kValueBytes));
        pl.insert(pl.end(), kb.begin(), kb.end());
        encodeValue(ranks[i], versions[i], val);
        pl.insert(pl.end(), val, val + kValueBytes);
    }
}

/** Send the failed epoch over connection 0, in order, all acked. */
void
sendFailedEpoch(Client &cl, const std::vector<FailedWrite> &writes)
{
    Conn &c = cl.conn(0);
    std::vector<char> pl;
    Frame put;
    put.kind = FrameKind::kPut;
    std::vector<std::uint32_t> versions;
    std::unordered_set<std::uint64_t> inFrame;
    auto window = [&] {
        while (c.inflight.size() >= kDepth)
            cl.pump(10);
    };
    auto flushPut = [&] {
        if (put.ranks.empty())
            return;
        window();
        appendMultiPut(pl, put.ranks, versions);
        cl.send(c, proto::Op::kMultiPut, std::move(put), pl);
        put = Frame{};
        put.kind = FrameKind::kPut;
        versions.clear();
        inFrame.clear();
    };
    for (const FailedWrite &fw : writes) {
        if (fw.remove || inFrame.count(fw.rank) ||
            put.ranks.size() == kFrameKeys)
            flushPut();
        if (fw.remove) {
            window();
            Frame f;
            f.kind = FrameKind::kRemove;
            f.ranks = {fw.rank};
            f.expectHit = fw.wasLive;
            const KeyBuf kb = keyOfRank(fw.rank);
            cl.send(c, proto::Op::kRemove, std::move(f), {}, keyView(kb));
            continue;
        }
        put.ranks.push_back(fw.rank);
        versions.push_back(fw.version);
        put.expectInserted += fw.wasLive ? 0 : 1;
        inFrame.insert(fw.rank);
    }
    flushPut();
    cl.drain();
}

/** Top up @p c's window with frames of @p w's mix (closed loop). */
void
fill(Client &cl, Conn &c, const WorkloadSpec &w, Oracle &oracle,
     const incll::KeyChooser &chooser, incll::Rng &rng, std::vector<char> &pl)
{
    while (c.inflight.size() < kDepth) {
        const unsigned dice = static_cast<unsigned>(rng.nextBounded(100));
        Frame fr;
        if (dice < w.getPct) {
            fr.kind = FrameKind::kGet;
            for (unsigned k = 0; k < kFrameKeys; ++k) {
                const std::uint64_t r = chooser.next(rng);
                fr.ranks.push_back(r);
                fr.expect.push_back(
                    oracle.ownerOf(r) == c.owner ? oracle.version(r) : 0);
            }
            appendMultiGet(pl, fr.ranks);
            cl.send(c, proto::Op::kMultiGet, std::move(fr), pl);
        } else if (dice < w.getPct + w.writePct) {
            fr.kind = FrameKind::kPut;
            std::vector<std::uint32_t> versions;
            while (fr.ranks.size() < kFrameKeys) {
                const std::uint64_t r =
                    oracle.ownedRank(chooser.next(rng), c.owner);
                if (std::find(fr.ranks.begin(), fr.ranks.end(), r) !=
                    fr.ranks.end())
                    continue;
                fr.ranks.push_back(r);
                versions.push_back(oracle.version(r) + 1);
                oracle.record(r, versions.back(), true);
            }
            appendMultiPut(pl, fr.ranks, versions);
            cl.send(c, proto::Op::kMultiPut, std::move(fr), pl);
        } else {
            fr.kind = FrameKind::kScan;
            fr.ranks.push_back(chooser.next(rng));
            const KeyBuf kb = keyOfRank(fr.ranks[0]);
            cl.send(c, proto::Op::kScan, std::move(fr), {}, keyView(kb),
                    kScanLen);
        }
    }
}

} // namespace

Result
runWire(const WorkloadSpec &w, const Args &a, Tracer *tr)
{
    Oracle oracle(w.preloaded, w.total, w.churn, kConns);
    PhaseFacts f;
    auto st = setUp(w, a, oracle, f);
    const incll::store::StoreConfig cfg = storeOptions(w, a.seed).config;

    // Thread budget: the client (main thread), one IO thread, one
    // executor and one EpochService thread.
    incll::server::Server::Options svo;
    svo.ioThreads = 1;
    svo.executorThreads = 1;
    svo.valueBytes = kValueBytes;
    svo.maxBatch = 16;
    svo.flushDeadline = std::chrono::microseconds(50);
    auto server =
        std::make_unique<incll::server::Server>(std::move(st), cfg, svo);
    server->start();

    CheckLog log;
    Window win;
    Client cl(oracle, log);
    cl.connectAll(server->port());
    incll::Rng rng(incll::mix64(a.seed * 0x9e3779b97f4a7c15ULL + 77));
    const incll::KeyChooser chooser(w.zipfian
                                        ? incll::KeyChooser::Dist::kZipfian
                                        : incll::KeyChooser::Dist::kUniform,
                                    w.preloaded, 0.99);

    // -- timed phase, cut into segments; after each, a failed epoch over
    //    the wire, crash, recovery and restart --------------------------
    const std::uint64_t segNs =
        static_cast<std::uint64_t>(a.seconds * 1e9 / kSegments);
    unsigned peakThreads = 0;
    std::vector<char> pl;
    for (unsigned seg = 0; seg < kSegments; ++seg) {
        // A recovered log appends after the chain it walked, stale
        // entries included; a checkpoint first empties it.
        server->store().advanceEpoch();
        auto svc = std::make_unique<incll::service::EpochService>(
            server->store(), serviceOptions(w));
        svc->start();
        const std::uint64_t start = nowNs();
        const std::uint64_t lead = seg == 0 ? warmupNs(a.seconds) : kLeadInNs;
        Segment s;
        s.traced = tr != nullptr && seg % 2 == 1;
        cl.timing = {start + lead, start + lead + segNs,
                     s.traced ? tr : nullptr};
        peakThreads = std::max(peakThreads, processThreads());
        bool windowOpen = false;
        for (;;) {
            const std::uint64_t now = nowNs();
            if (now >= cl.timing.end)
                break;
            if (!windowOpen && now >= cl.timing.measureStart) {
                win.begin();
                windowOpen = true;
            }
            for (unsigned ci = 0; ci < kConns; ++ci)
                fill(cl, cl.conn(ci), w, oracle, chooser, rng, pl);
            cl.pump(5);
        }
        cl.drain();
        if (!windowOpen)
            win.begin();
        win.end();
        addService(f.service, svc->totalCounters());
        svc.reset();
        s.seconds = static_cast<double>(segNs) / 1e9;
        s.ops = cl.ops;
        s.lat = cl.lat;
        cl.ops = 0;
        cl.lat = Latencies{};
        f.windowS += s.seconds;
        f.segments.push_back(std::move(s));
        cl.timing = Timing{}; // later traffic is outside the window

        if (seg + 1 == kSegments) {
            // -- quiesce and verify (before the last round) ------------
            f.poolBytes = poolBytesUsed(server->store()) - f.fixedBytes;
            f.liveKeys = oracle.liveCount();
            server->store().advanceEpoch();
            compareFullScan(server->store(), oracle, log);
            if (tr != nullptr)
                f.ladder = runLadder(w, server->store(), oracle, a.seed, log,
                                     &tr->thread(0));
        }

        // -- failed epoch over the wire, crash, recovery, restart ------
        server->store().advanceEpoch();
        const auto writes = makeFailedEpoch(oracle, a.seed, seg, kFailedOps);
        sendFailedEpoch(cl, writes);
        cl.closeAll();
        server->stop();
        const std::uint64_t walk = logChainEntries(server->store());
        auto pools = server->store().releasePools();
        server.reset();
        std::unique_ptr<ShardedStore> recovered;
        f.rounds.push_back(recoverAndCheck(std::move(pools), recovered, cfg,
                                           oracle, writes, log,
                                           tr ? &tr->thread(0) : nullptr));
        f.rounds.back().walkEntries = walk;
        server = std::make_unique<incll::server::Server>(std::move(recovered),
                                                         cfg, svo);
        server->start();
        cl.connectAll(server->port());
    }
    f.writes = cl.writes;
    f.clientIoUsPerReq =
        cl.frames ? static_cast<double>(cl.ioNs) / 1e3 /
                        static_cast<double>(cl.frames)
                  : 0.0;
    ++log.checks;
    if (peakThreads > a.threads)
        log.fail("thread budget exceeded", peakThreads);
    compareFullScan(server->store(), oracle, log);
    {
        Frame fr;
        fr.kind = FrameKind::kStats;
        cl.send(cl.conn(0), proto::Op::kStats, std::move(fr), {});
        cl.drain();
    }
    cl.closeAll();
    server->stop();
    server.reset();
    return finish(log, win, f, tr, a);
}

} // namespace pb
