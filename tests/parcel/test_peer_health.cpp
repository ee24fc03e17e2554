// Unit tests of the per-peer health value and its transition functions:
// co-existing degrade causes, once-per-opening counter bumps, gauge
// bookkeeping across fence / evict / rehydrate / crash reset, and the
// peer_health trace event every transition records.

#include <coal/common/logging.hpp>
#include <coal/parcel/peer_health.hpp>
#include <coal/trace/tracer.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace {

using coal::parcel::health_counters;
using coal::parcel::health_tracker;
using coal::parcel::peer_health;
using coal::parcel::peer_status;
using coal::parcel::to_string_health;

constexpr std::uint8_t backlog = peer_health::retransmit_backlog;
constexpr std::uint8_t starvation = peer_health::credit_starvation;
constexpr std::uint8_t phi = peer_health::phi_suspect;
constexpr std::uint8_t breaker = peer_health::breaker;
constexpr std::uint8_t dead = peer_health::dead_bit;
constexpr std::uint8_t tombstoned = peer_health::tombstoned;

struct fixture
{
    health_counters counters;
    health_tracker tracker{0, counters};

    void expect_idle() const
    {
        EXPECT_EQ(tracker.suspected(), 0u);
        EXPECT_EQ(tracker.dead_live(), 0u);
        EXPECT_FALSE(tracker.any_degraded());
        EXPECT_FALSE(tracker.any_dead());
    }
};

TEST(PeerHealth, DefaultIsAliveAndHealthy)
{
    peer_health h;
    EXPECT_FALSE(h.dead());
    EXPECT_FALSE(h.degraded());
    EXPECT_FALSE(h.tripped());
    EXPECT_EQ(h.status(), peer_status::alive);
    EXPECT_EQ(h.bits(), 0u);
    fixture f;
    f.expect_idle();
}

TEST(PeerHealth, StatusFollowsVerdictThenSuspicion)
{
    fixture f;
    peer_health h;
    f.tracker.raise(h, 1, backlog);
    // An open breaker alone is a link verdict, not a liveness one.
    EXPECT_EQ(h.status(), peer_status::alive);
    EXPECT_TRUE(h.tripped());
    f.tracker.raise(h, 1, phi);
    EXPECT_EQ(h.status(), peer_status::suspected);
    f.tracker.set(h, 1, dead);
    EXPECT_EQ(h.status(), peer_status::dead);
    EXPECT_EQ(h.bits(), dead);    // the verdict drops every cause
    EXPECT_FALSE(h.degraded());
}

TEST(PeerHealth, SuspicionHealsWhileBacklogKeepsLinkDegraded)
{
    fixture f;
    peer_health h;
    f.tracker.raise(h, 7, backlog);
    f.tracker.raise(h, 7, phi);
    EXPECT_EQ(h.bits(), backlog | phi);
    EXPECT_TRUE(f.tracker.any_degraded());    // one link, two causes
    EXPECT_EQ(f.tracker.suspected(), 1u);

    // The next admitted frame clears suspicion; the backlog still holds.
    f.tracker.clear(h, 7, phi);
    EXPECT_EQ(h.bits(), backlog);
    EXPECT_TRUE(h.degraded());
    EXPECT_TRUE(h.tripped());
    EXPECT_EQ(h.status(), peer_status::alive);
    EXPECT_EQ(f.tracker.suspected(), 0u);
    EXPECT_TRUE(f.tracker.any_degraded());

    // Draining the backlog closes the breaker: the link is healthy.
    f.tracker.clear(h, 7, breaker);
    EXPECT_FALSE(h.degraded());
    f.expect_idle();
}

TEST(PeerHealth, StarvationTripOnSuspectedPeer)
{
    fixture f;
    peer_health h;
    f.tracker.raise(h, 3, phi);
    EXPECT_FALSE(h.tripped());
    f.tracker.raise(h, 3, starvation);
    EXPECT_EQ(h.bits(), starvation | phi);
    EXPECT_TRUE(h.tripped());
    EXPECT_EQ(h.status(), peer_status::suspected);
    EXPECT_EQ(f.counters.starvation_trips.load(), 1u);
    EXPECT_EQ(f.counters.circuit_breaker_trips.load(), 1u);
    EXPECT_EQ(f.counters.peers_suspected.load(), 1u);
    EXPECT_TRUE(f.tracker.any_degraded());
    EXPECT_EQ(f.tracker.suspected(), 1u);

    // Breaker close leaves the suspicion standing, and vice versa.
    f.tracker.clear(h, 3, breaker);
    EXPECT_EQ(h.bits(), phi);
    EXPECT_TRUE(f.tracker.any_degraded());
    f.tracker.clear(h, 3, phi);
    f.expect_idle();
}

TEST(PeerHealth, RaisingAnOpenCauseCountsOnce)
{
    fixture f;
    peer_health h;
    f.tracker.raise(h, 2, backlog);
    f.tracker.raise(h, 2, backlog);
    f.tracker.raise(h, 2, phi);
    f.tracker.raise(h, 2, phi);
    EXPECT_EQ(f.counters.circuit_breaker_trips.load(), 1u);
    EXPECT_EQ(f.counters.starvation_trips.load(), 0u);
    EXPECT_EQ(f.counters.peers_suspected.load(), 1u);
    EXPECT_TRUE(f.tracker.any_degraded());
    EXPECT_EQ(f.tracker.suspected(), 1u);

    // The second breaker cause joins an open breaker without a new trip.
    f.tracker.raise(h, 2, starvation);
    EXPECT_EQ(f.counters.circuit_breaker_trips.load(), 1u);
    EXPECT_EQ(f.counters.starvation_trips.load(), 0u);

    // Clearing a cause that is not set is a no-op.
    f.tracker.clear(h, 2, breaker);
    f.tracker.clear(h, 2, breaker);
    EXPECT_EQ(h.bits(), phi);

    // A re-opening after a close is a new trip.
    f.tracker.raise(h, 2, backlog);
    EXPECT_EQ(f.counters.circuit_breaker_trips.load(), 2u);

    f.tracker.set(h, 2, dead);
    f.tracker.set(h, 2, dead);
    EXPECT_TRUE(f.tracker.any_dead());
    EXPECT_EQ(f.counters.peers_declared_dead.load(), 1u);
}

TEST(PeerHealth, GaugesReturnToZeroAfterFenceEvictAndCrashReset)
{
    fixture f;

    // Fence drops the breaker causes only; eviction then drops suspicion.
    peer_health a;
    f.tracker.raise(a, 1, backlog);
    f.tracker.raise(a, 1, phi);
    f.tracker.clear(a, 1, breaker);
    EXPECT_EQ(a.bits(), phi);
    EXPECT_TRUE(f.tracker.any_degraded());
    f.tracker.set(a, 1, 0);    // eviction of a live peer
    f.expect_idle();

    // A dead verdict survives eviction in the dead gauge but leaves the
    // live column; rehydration moves it back; a crash forgets it.
    peer_health b;
    f.tracker.raise(b, 2, phi);
    f.tracker.set(b, 2, dead);
    EXPECT_EQ(f.tracker.suspected(), 0u);
    EXPECT_EQ(f.tracker.dead_live(), 1u);
    f.tracker.set(b, 2, dead | tombstoned);    // eviction
    EXPECT_EQ(b.status(), peer_status::dead);
    EXPECT_EQ(f.tracker.dead_live(), 0u);
    EXPECT_TRUE(f.tracker.any_dead());    // the quarantine still gates sends
    f.tracker.clear(b, 2, tombstoned);    // rehydration
    EXPECT_EQ(f.tracker.dead_live(), 1u);
    f.tracker.set(b, 2, dead | tombstoned);
    f.tracker.set(b, 2, 0);    // crash reset of the tombstone
    f.expect_idle();
    EXPECT_EQ(f.counters.peers_declared_dead.load(), 1u);

    // Crash reset of live values in every state.
    peer_health c;
    peer_health d;
    peer_health e;
    f.tracker.raise(c, 3, starvation);
    f.tracker.raise(c, 3, phi);
    f.tracker.set(d, 4, dead);
    f.tracker.raise(e, 5, backlog);
    EXPECT_TRUE(f.tracker.any_degraded());
    EXPECT_TRUE(f.tracker.any_dead());
    f.tracker.set(c, 3, 0);
    f.tracker.set(d, 4, 0);
    f.tracker.set(e, 5, 0);
    EXPECT_EQ(c.bits(), 0u);
    EXPECT_EQ(d.bits(), 0u);
    f.expect_idle();

    // Rejoin under a new incarnation clears a dead verdict.
    peer_health g;
    f.tracker.set(g, 6, dead);
    f.tracker.set(g, 6, 0);
    EXPECT_FALSE(g.dead());
    f.expect_idle();
}

TEST(PeerHealth, EveryTransitionRecordsOneTraceEvent)
{
    auto& tr = coal::trace::tracer::global();
    tr.enable(256);
    fixture f;
    peer_health h;
    f.tracker.raise(h, 9, backlog);
    f.tracker.raise(h, 9, backlog);    // no-op
    f.tracker.raise(h, 9, phi);
    f.tracker.clear(h, 9, phi);
    f.tracker.clear(h, 9, phi);    // no-op
    f.tracker.clear(h, 9, breaker);
    f.tracker.set(h, 9, dead);
    f.tracker.set(h, 9, 0);
    auto const events = tr.snapshot();
    tr.disable();

    std::vector<std::uint64_t> seen;
    for (auto const& e : events)
    {
        if (e.kind != coal::trace::event_kind::peer_health)
            continue;
        EXPECT_EQ(e.a, 9u);
        seen.push_back(e.b);
    }
    std::vector<std::uint64_t> const expected{
        backlog, backlog | phi, backlog, 0u, dead, 0u};
    EXPECT_EQ(seen, expected);
    EXPECT_STREQ(coal::trace::to_string(coal::trace::event_kind::peer_health),
        "peer-health");
}

TEST(PeerHealth, CausesRenderAsNames)
{
    EXPECT_EQ(to_string_health(0), "ok");
    EXPECT_EQ(to_string_health(dead | tombstoned), "dead+tombstoned");
    EXPECT_EQ(to_string_health(backlog), "retransmit-backlog");
    EXPECT_EQ(to_string_health(starvation | phi),
        "credit-starvation+phi-suspect");
}

// Peers transition concurrently, each under its own lock, while readers
// poll the lock-free gates: the shared gauges must end exactly at zero.
TEST(PeerHealth, ConcurrentPeersKeepGaugesConsistent)
{
    fixture f;
    constexpr int peers = 4;
    constexpr int rounds = 2000;
    auto const level = coal::detail::current_log_level();
    coal::set_log_level(coal::log_level::error);    // 16k degrade lines
    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire))
        {
            (void)f.tracker.any_degraded();
            (void)f.tracker.suspected();
            EXPECT_LE(f.tracker.dead_live(), static_cast<std::size_t>(peers));
        }
    });
    std::vector<std::thread> workers;
    for (int p = 0; p != peers; ++p)
    {
        workers.emplace_back([&f, p] {
            peer_health h;
            auto const id = static_cast<std::uint32_t>(p);
            for (int r = 0; r != rounds; ++r)
            {
                f.tracker.raise(h, id, phi);
                f.tracker.raise(h, id, backlog);
                f.tracker.clear(h, id, phi);
                f.tracker.clear(h, id, breaker);
                f.tracker.set(h, id, dead);
                f.tracker.raise(h, id, tombstoned);
                f.tracker.clear(h, id, tombstoned);
                f.tracker.set(h, id, 0);
            }
        });
    }
    for (auto& w : workers)
        w.join();
    done.store(true, std::memory_order_release);
    reader.join();
    coal::set_log_level(level);
    f.expect_idle();
    EXPECT_EQ(f.counters.circuit_breaker_trips.load(),
        static_cast<std::uint64_t>(peers) * rounds);
    EXPECT_EQ(f.counters.peers_declared_dead.load(),
        static_cast<std::uint64_t>(peers) * rounds);
}

}    // namespace
