// Socket parcelport: real TCP / Unix-domain-socket streams behind the
// transport interface.  Covers delivery and conservation over both
// families, wire-integrity containment (payload and header corruption
// injected after the CRCs are computed), forced connection drops healed
// by reconnect, the distributed barrier, and composition under the
// faulty_transport decorator.
//
// Race-labeled: sender threads race the IO thread and the corruption /
// drop seams; the tsan preset runs this binary under ThreadSanitizer.

#include <coal/net/socket_transport.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/net/wire_format.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace {

using coal::net::socket_params;
using coal::net::socket_transport;
using coal::serialization::byte_buffer;
using coal::serialization::shared_buffer;

socket_params tcp_params()
{
    socket_params p;
    p.kind = socket_params::family::tcp;
    p.drain_timeout_ms = 500;
    return p;
}

socket_params uds_params()
{
    socket_params p;
    p.kind = socket_params::family::uds;
    p.drain_timeout_ms = 500;
    return p;
}

byte_buffer patterned(std::size_t n, std::uint8_t seed)
{
    byte_buffer b(n);
    for (std::size_t i = 0; i != n; ++i)
        b[i] = static_cast<std::uint8_t>(seed + i * 3);
    return b;
}

/// Spin until `cond` or the timeout; returns cond's final value.
template <typename F>
bool wait_for(F cond, int timeout_ms = 5000)
{
    coal::stopwatch sw;
    while (!cond())
    {
        if (sw.elapsed_ms() > timeout_ms)
            return cond();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

void expect_conserved(coal::net::transport& t)
{
    auto const s = t.stats();
    EXPECT_EQ(s.messages_sent, s.messages_delivered + s.messages_dropped);
}

class SocketTransportBothFamilies
  : public ::testing::TestWithParam<socket_params::family>
{
protected:
    socket_params params() const
    {
        return GetParam() == socket_params::family::tcp ? tcp_params() :
                                                          uds_params();
    }
};

}    // namespace

TEST_P(SocketTransportBothFamilies, DeliversWithSourceAndContent)
{
    socket_transport net(params(), 3);
    std::atomic<int> delivered{0};
    std::atomic<std::uint32_t> seen_src{99};
    shared_buffer received;
    std::mutex m;

    net.set_delivery_handler(2, [&](std::uint32_t src, shared_buffer&& buf) {
        std::lock_guard lock(m);
        seen_src = src;
        received = std::move(buf);
        ++delivered;
    });

    auto const payload = patterned(1000, 7);
    net.send(0, 2, byte_buffer(payload));
    ASSERT_TRUE(wait_for([&] { return delivered.load() == 1; }));
    net.drain();

    std::lock_guard lock(m);
    EXPECT_EQ(seen_src.load(), 0u);
    EXPECT_EQ(received, payload);
    expect_conserved(net);

    auto const w = net.wire_stats();
    EXPECT_GE(w.frames_sent, 1u);
    EXPECT_GE(w.frames_received, 1u);
    EXPECT_GE(w.bytes_sent, payload.size());
    net.shutdown();
}

TEST_P(SocketTransportBothFamilies, AllPairsConservation)
{
    constexpr std::uint32_t n = 4;
    constexpr int per_pair = 50;

    socket_transport net(params(), n);
    std::atomic<std::uint64_t> delivered{0};
    for (std::uint32_t d = 0; d != n; ++d)
        net.set_delivery_handler(
            d, [&](std::uint32_t, shared_buffer&&) { ++delivered; });

    // Concurrent senders: one thread per source locality.
    std::vector<std::thread> senders;
    for (std::uint32_t s = 0; s != n; ++s)
    {
        senders.emplace_back([&, s] {
            for (int i = 0; i != per_pair; ++i)
                for (std::uint32_t d = 0; d != n; ++d)
                    net.send(s, d,
                        patterned(32 + (i % 64), static_cast<std::uint8_t>(s)));
        });
    }
    for (auto& t : senders)
        t.join();

    std::uint64_t const expected = std::uint64_t{n} * n * per_pair;
    ASSERT_TRUE(wait_for([&] { return delivered.load() == expected; }));
    net.drain();
    EXPECT_EQ(net.in_flight(), 0u);
    expect_conserved(net);
    EXPECT_EQ(net.stats().messages_dropped, 0u);
    net.shutdown();
}

TEST_P(SocketTransportBothFamilies, LargeFramesAndPartialIo)
{
    // Frames far above the socket buffer size force short writes and
    // partial reads; content must survive the resumption paths.
    socket_transport net(params(), 2);
    std::atomic<int> delivered{0};
    std::mutex m;
    std::vector<shared_buffer> received;

    net.set_delivery_handler(1, [&](std::uint32_t, shared_buffer&& buf) {
        std::lock_guard lock(m);
        received.push_back(std::move(buf));
        ++delivered;
    });

    constexpr int count = 8;
    constexpr std::size_t size = 2u << 20;    // 2 MiB
    for (int i = 0; i != count; ++i)
        net.send(0, 1, patterned(size, static_cast<std::uint8_t>(i)));

    ASSERT_TRUE(wait_for([&] { return delivered.load() == count; }, 20000));
    net.drain();

    std::lock_guard lock(m);
    for (int i = 0; i != count; ++i)
    {
        ASSERT_EQ(received[i].size(), size);
        auto const expect = patterned(size, static_cast<std::uint8_t>(i));
        EXPECT_EQ(received[i], expect) << "frame " << i;
    }
    expect_conserved(net);
    net.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Families, SocketTransportBothFamilies,
    ::testing::Values(
        socket_params::family::tcp, socket_params::family::uds),
    [](auto const& param_info) {
        return param_info.param == socket_params::family::tcp ? "tcp" : "uds";
    });

TEST(SocketTransport, CorruptPayloadDroppedCountedNeverDelivered)
{
    socket_transport net(tcp_params(), 2);
    std::atomic<int> delivered{0};
    std::mutex m;
    std::vector<shared_buffer> received;

    net.set_delivery_handler(1, [&](std::uint32_t, shared_buffer&& buf) {
        std::lock_guard lock(m);
        received.push_back(std::move(buf));
        ++delivered;
    });

    constexpr int count = 20;
    constexpr int corrupt = 3;
    auto const payload = patterned(512, 42);

    net.debug_corrupt_payload(corrupt);
    for (int i = 0; i != count; ++i)
        net.send(0, 1, byte_buffer(payload));

    ASSERT_TRUE(
        wait_for([&] { return delivered.load() == count - corrupt; }));
    net.drain();

    auto const w = net.wire_stats();
    EXPECT_EQ(w.crc_drops, static_cast<std::uint64_t>(corrupt));
    auto const s = net.stats();
    EXPECT_EQ(s.messages_delivered,
        static_cast<std::uint64_t>(count - corrupt));
    EXPECT_EQ(s.messages_dropped, static_cast<std::uint64_t>(corrupt));
    expect_conserved(net);

    // Zero corrupted parcels executed: every delivered payload is intact.
    std::lock_guard lock(m);
    for (auto const& r : received)
        EXPECT_EQ(r, payload);
    net.shutdown();
}

TEST(SocketTransport, CorruptHeaderCutsConnectionAndRecovers)
{
    socket_transport net(tcp_params(), 2);
    std::atomic<int> delivered{0};
    std::mutex m;
    std::vector<shared_buffer> received;

    net.set_delivery_handler(1, [&](std::uint32_t, shared_buffer&& buf) {
        std::lock_guard lock(m);
        received.push_back(std::move(buf));
        ++delivered;
    });

    auto const payload = patterned(256, 9);

    // A clean frame first, then a frame with a damaged header (stream
    // desync: the receiver must cut the connection), then more traffic
    // that needs the healed connection.
    net.send(0, 1, byte_buffer(payload));
    ASSERT_TRUE(wait_for([&] { return delivered.load() == 1; }));

    net.debug_corrupt_header(1);
    for (int i = 0; i != 10; ++i)
        net.send(0, 1, byte_buffer(payload));

    // drain() settles the aftermath: surviving frames arrive over the
    // healed connection, and custody of frames that died in the kernel
    // buffers alongside the cut connection reconciles to "dropped" —
    // delivered or dropped, never executed corrupted.
    net.drain();

    auto const w = net.wire_stats();
    EXPECT_GE(w.desync_drops, 1u);
    EXPECT_GE(w.reconnects, 1u);
    expect_conserved(net);

    std::lock_guard lock(m);
    for (auto const& r : received)
        EXPECT_EQ(r, payload);
    net.shutdown();
}

TEST(SocketTransport, ForcedConnectionDropHealsByReconnect)
{
    socket_transport net(tcp_params(), 2);
    std::atomic<int> delivered{0};
    net.set_delivery_handler(
        1, [&](std::uint32_t, shared_buffer&&) { ++delivered; });

    for (int i = 0; i != 25; ++i)
        net.send(0, 1, patterned(64, 1));
    ASSERT_TRUE(wait_for([&] { return delivered.load() == 25; }));

    ASSERT_TRUE(net.debug_drop_connection(1));

    // Traffic queued after the drop must flow again over the healed
    // connection (frames racing the cut may be dropped + counted; no
    // hang, no corruption).
    for (int i = 0; i != 25; ++i)
        net.send(0, 1, patterned(64, 2));

    ASSERT_TRUE(wait_for([&] {
        auto const s = net.stats();
        return s.messages_sent == s.messages_delivered + s.messages_dropped &&
            s.messages_delivered >= 25;
    }));
    net.drain();

    EXPECT_GE(net.wire_stats().reconnects, 1u);
    expect_conserved(net);
    net.shutdown();
}

TEST(SocketTransport, DownLocalityDropsAtSendAndConserves)
{
    socket_transport net(tcp_params(), 3);
    std::atomic<int> delivered{0};
    for (std::uint32_t d = 0; d != 3; ++d)
        net.set_delivery_handler(
            d, [&](std::uint32_t, shared_buffer&&) { ++delivered; });

    net.kill_locality(2);
    for (int i = 0; i != 10; ++i)
    {
        net.send(0, 2, patterned(64, 1));    // to the dead one: dropped
        net.send(0, 1, patterned(64, 2));    // alive pair: delivered
    }
    ASSERT_TRUE(wait_for([&] { return delivered.load() == 10; }));
    net.drain();

    auto const s = net.stats();
    EXPECT_EQ(s.messages_delivered, 10u);
    EXPECT_EQ(s.messages_dropped, 10u);
    expect_conserved(net);

    // Restart: traffic flows again.
    net.restart_locality(2);
    net.send(0, 2, patterned(64, 3));
    ASSERT_TRUE(wait_for([&] { return delivered.load() == 11; }));
    net.drain();
    expect_conserved(net);
    net.shutdown();
}

TEST(SocketTransport, OpenLinkBackPressuresInsteadOfShedding)
{
    // A backlog cap far below the offered burst: a sender on an open,
    // draining link must wait for room, not drop frames.
    socket_params p = uds_params();
    p.max_backlog_bytes = 256u << 10;
    socket_transport net(p, 2);
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<int> frames{0};
    std::atomic<int> damaged{0};
    net.set_delivery_handler(1, [&](std::uint32_t, shared_buffer&& buf) {
        if (buf.size() != 0 && buf.data()[buf.size() - 1] !=
                static_cast<std::uint8_t>(buf.data()[0] + (buf.size() - 1) * 3))
            ++damaged;
        bytes += buf.size();
        ++frames;
    });

    // Frames are built up front so the burst outruns the drain.
    constexpr std::size_t frame_bytes = 64u << 10;
    constexpr int count = (8u << 20) / frame_bytes;
    std::vector<byte_buffer> frames_out;
    for (int i = 0; i != count; ++i)
        frames_out.push_back(
            patterned(frame_bytes, static_cast<std::uint8_t>(i)));
    std::thread sender([&] {
        for (auto& frame : frames_out)
            net.send(0, 1, std::move(frame));
    });
    sender.join();

    ASSERT_TRUE(wait_for(
        [&] {
            auto const st = net.stats();
            return st.messages_delivered + st.messages_dropped == count;
        },
        20000));
    net.drain();
    EXPECT_EQ(frames.load(), count);
    EXPECT_EQ(bytes.load(), count * frame_bytes);
    EXPECT_EQ(damaged.load(), 0);
    EXPECT_EQ(net.wire_stats().backlog_drops, 0u);
    EXPECT_EQ(net.stats().messages_dropped, 0u);
    expect_conserved(net);
    net.shutdown();
}

TEST(SocketTransport, BacklogShedsTowardUnreachablePeer)
{
    // No process listens on locality 1's endpoint: its link never opens,
    // so the full backlog sheds (counted) instead of blocking the sender.
    std::string const tag = std::to_string(::getpid());
    socket_params p = uds_params();
    p.endpoints = {"/tmp/coal-bp-a-" + tag + ".sock",
        "/tmp/coal-bp-absent-" + tag + ".sock"};
    p.max_backlog_bytes = 256u << 10;
    socket_transport net(p, 2, 0, 1);

    constexpr int count = 64;
    for (int i = 0; i != count; ++i)
        net.send(0, 1, patterned(64u << 10, 1));
    EXPECT_GT(net.wire_stats().backlog_drops, 0u);
    net.shutdown();
    expect_conserved(net);
}

TEST(SocketTransport, BackPressureShedsOnStuckLinkWhileOthersProgress)
{
    // Locality 2's endpoint is a bare listener that never accepts: the
    // connect succeeds, the link opens, and its socket buffer fills with
    // nobody reading.  Meanwhile the 0 -> 1 link keeps writing.  A sender
    // back-pressured toward locality 2 must shed once that link has
    // written nothing for drain_timeout_ms, whatever the other links do.
    std::string const tag = std::to_string(::getpid());
    std::string const stuck_path = "/tmp/coal-stuck-" + tag + ".sock";
    ::unlink(stuck_path.c_str());
    int const lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    ::sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, stuck_path.c_str(), sizeof addr.sun_path - 1);
    ASSERT_EQ(
        ::bind(lfd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr), 0);
    ASSERT_EQ(::listen(lfd, 4), 0);

    socket_params p = uds_params();
    std::string const self_path = "/tmp/coal-stuck-a-" + tag + ".sock";
    p.endpoints = {self_path, self_path, stuck_path};
    p.max_backlog_bytes = 256u << 10;
    socket_transport net(p, 3, 0, 2);
    std::atomic<int> delivered{0};
    net.set_delivery_handler(
        1, [&](std::uint32_t, shared_buffer&&) { ++delivered; });

    std::atomic<bool> stuck_done{false};
    std::atomic<int> progressed{0};
    std::thread progress([&] {
        coal::stopwatch sw;
        while (!stuck_done.load() && sw.elapsed_ms() < 8000)
        {
            net.send(0, 1, patterned(1024, 5));
            ++progressed;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    coal::stopwatch sw;
    std::thread stuck([&] {
        for (int i = 0; i != 16; ++i)
            net.send(0, 2, patterned(64u << 10, 9));
        stuck_done = true;
    });
    stuck.join();
    double const blocked_ms = sw.elapsed_ms();
    int const progressed_meanwhile = progressed.load();
    progress.join();

    // One drain_timeout_ms (500 ms) of no progress on the stuck link,
    // with slack for a loaded machine; far below the progress thread's
    // 8 s, which would bound the wait if other links' writes counted.
    EXPECT_LT(blocked_ms, 3000.0);
    EXPECT_GT(net.wire_stats().backlog_drops, 0u);
    EXPECT_GT(progressed_meanwhile, 0);
    EXPECT_TRUE(wait_for([&] { return delivered.load() == progressed.load(); }));

    net.shutdown();
    ::close(lfd);
    ::unlink(stuck_path.c_str());
}

TEST(SocketTransport, FaultyTransportComposesOverRealWire)
{
    // The chaos decorator must not care that the wrapped transport is a
    // real socket: seeded drops inject above the wire, conservation
    // holds at the decorator boundary.
    coal::net::fault_plan plan;
    plan.seed = 31337;
    plan.drop_probability = 0.2;

    auto inner = std::make_unique<socket_transport>(tcp_params(), 2);
    auto* wire = inner.get();
    coal::net::faulty_transport net(std::move(inner), plan);

    std::atomic<int> delivered{0};
    net.set_delivery_handler(
        1, [&](std::uint32_t, shared_buffer&&) { ++delivered; });

    constexpr int count = 200;
    for (int i = 0; i != count; ++i)
        net.send(0, 1, patterned(128, static_cast<std::uint8_t>(i)));

    ASSERT_TRUE(wait_for([&] {
        auto const s = net.stats();
        return s.messages_sent >= count &&
            s.messages_delivered + s.messages_dropped == s.messages_sent;
    }));
    net.drain();

    auto const s = net.stats();
    EXPECT_EQ(s.messages_sent, static_cast<std::uint64_t>(count));
    EXPECT_GT(s.drops_injected, 0u);
    EXPECT_EQ(s.messages_delivered + s.messages_dropped, s.messages_sent);
    EXPECT_EQ(delivered.load(), static_cast<int>(s.messages_delivered));
    // The real wire below saw exactly the frames the decorator let pass.
    EXPECT_EQ(wire->stats().messages_sent, s.messages_delivered);
    net.shutdown();
}

TEST(SocketTransport, HandshakeDigestMismatchFailsBootstrap)
{
    // Two "processes" (both in this test process) with different
    // action-registry digests: each side rejects the other's HELLO.  The
    // rejection must be contained — connection closed *after* the decoder
    // callback returns (asan watches for the use-after-free), counted as
    // a handshake failure — and await_ready() must report failure
    // instead of hanging until the bootstrap timeout.
    std::string const tag = std::to_string(::getpid());
    socket_params pa = uds_params();
    pa.endpoints = {"/tmp/coal-hs-a-" + tag + ".sock",
        "/tmp/coal-hs-b-" + tag + ".sock"};
    pa.registry_digest = 1;
    pa.bootstrap_timeout_ms = 5000;
    socket_params pb = pa;
    pb.registry_digest = 2;

    socket_transport a(pa, 2, 0, 1);
    socket_transport b(pb, 2, 1, 1);

    EXPECT_FALSE(a.await_ready());
    EXPECT_GE(a.wire_stats().handshake_failures, 1u);
    a.shutdown();
    b.shutdown();
}

TEST(SocketTransport, StrayConnectionDoesNotFailBootstrap)
{
    // A malformed HELLO arriving on an *accepted* connection (a stray
    // client, a port scanner) must be closed and counted without
    // poisoning await_ready() for the real peers.
    socket_transport net(tcp_params(), 2);
    ASSERT_TRUE(net.await_ready());

    // Raw client: valid framing and header CRC, HELLO kind, but a
    // payload size no real peer would send.
    auto const& ep = net.endpoint_of(0);
    int const port = std::atoi(ep.c_str() + ep.rfind(':') + 1);

    int const fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ::sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<::sockaddr*>(&sa), sizeof sa), 0);

    namespace wire = coal::net::wire;
    std::uint8_t const bogus[4] = {1, 2, 3, 4};
    wire::frame_header h;
    h.kind = static_cast<std::uint8_t>(wire::frame_kind::hello);
    h.payload_len = sizeof bogus;
    h.payload_crc = wire::crc32c(bogus, sizeof bogus);
    std::uint8_t frame[wire::header_size + sizeof bogus];
    wire::encode_header(h, frame);
    std::memcpy(frame + wire::header_size, bogus, sizeof bogus);
    ASSERT_EQ(::send(fd, frame, sizeof frame, MSG_NOSIGNAL),
        static_cast<ssize_t>(sizeof frame));

    ASSERT_TRUE(wait_for(
        [&] { return net.wire_stats().handshake_failures >= 1; }));
    ::close(fd);

    // The stray client was rejected, the real peers are untouched.
    EXPECT_TRUE(net.await_ready());
    net.shutdown();
}

TEST(SocketTransport, SingleProcessBarrierIsImmediate)
{
    socket_transport net(tcp_params(), 2);
    auto const t1 = net.enter_barrier();
    EXPECT_TRUE(wait_for([&] { return net.barrier_done(t1); }, 1000));
    auto const t2 = net.enter_barrier();
    EXPECT_GT(t2, t1);
    EXPECT_TRUE(wait_for([&] { return net.barrier_done(t2); }, 1000));
    net.shutdown();
}

TEST(SocketTransport, EndpointResolutionPublishesBoundAddress)
{
    socket_transport net(tcp_params(), 2);
    // Auto mode binds ephemeral ports; the advertised endpoint must name
    // the real port, not ":0".
    for (std::uint32_t i = 0; i != 2; ++i)
    {
        auto const& ep = net.endpoint_of(i);
        EXPECT_EQ(ep.rfind("127.0.0.1:", 0), 0u) << ep;
        EXPECT_EQ(ep.find(":0"), std::string::npos) << ep;
    }
    EXPECT_EQ(net.process_count(), 2u);
    net.shutdown();
}

TEST(SocketTransport, ShutdownWithQueuedTrafficConserves)
{
    // Shutdown while frames are still queued: everything must resolve to
    // delivered-or-dropped, no hang, no leak (asan watches).
    socket_transport net(tcp_params(), 2);
    std::atomic<int> delivered{0};
    net.set_delivery_handler(
        1, [&](std::uint32_t, shared_buffer&&) { ++delivered; });

    for (int i = 0; i != 500; ++i)
        net.send(0, 1, patterned(256, static_cast<std::uint8_t>(i)));
    net.shutdown();
    expect_conserved(net);
}
