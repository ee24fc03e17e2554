// Peer-liveness / epoched-membership layer: idle-link heartbeats, the
// phi-accrual failure detector (suspicion escalation and recovery),
// peer-death fencing through the unified delivery-failure path, the
// local-crash chaos hooks, and exactly-once semantics across incarnation
// epochs (ghost frames from a dead incarnation never execute).

#include <coal/parcel/parcelhandler.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace {

std::atomic<int> g_mem_sum{0};

int mem_record(int x)
{
    g_mem_sum += x;
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(mem_record, mem_record_action);

namespace {

using coal::net::blackout_window;
using coal::net::fault_plan;
using coal::net::faulty_transport;
using coal::net::loopback_transport;
using coal::parcel::delivery_error;
using coal::parcel::frame_header;
using coal::parcel::membership_params;
using coal::parcel::parcel;
using coal::parcel::parcelhandler;
using coal::parcel::peer_status;
using coal::parcel::reliability_params;
using coal::threading::scheduler;
using coal::threading::scheduler_config;

reliability_params fast_reliability()
{
    reliability_params rel;
    rel.enabled = true;
    rel.ack_delay_us = 100;
    rel.min_rto_us = 500;
    rel.max_rto_us = 20000;
    return rel;
}

// Timescales compressed ~10x against the defaults so a death verdict
// arrives in tens of milliseconds instead of seconds.
membership_params fast_membership()
{
    membership_params m;
    m.enabled = true;
    m.heartbeat_interval_us = 2000;
    m.probe_interval_us = 10000;
    m.suspect_phi = 3.0;
    m.dead_phi = 8.0;
    m.min_dead_us = 50000;
    return m;
}

// Two-locality harness with the membership layer on and a per-cause
// record of everything the delivery-error handler on locality 0 saw.
struct membership_harness
{
    explicit membership_harness(fault_plan plan,
        membership_params mem = fast_membership(),
        reliability_params rel = fast_reliability())
      : inner(2)
      , faulty(inner, plan)
      , sched0(make_cfg())
      , sched1(make_cfg())
      , ph0(0, faulty, sched0, rel, {}, mem)
      , ph1(1, faulty, sched1, rel, {}, mem)
    {
        g_mem_sum = 0;
        ph0.set_delivery_error_handler([this](delivery_error err, parcel&&) {
            switch (err)
            {
            case delivery_error::shed_overload:
                shed0.fetch_add(1);
                break;
            case delivery_error::link_down:
                link_down0.fetch_add(1);
                break;
            case delivery_error::peer_failed:
                peer_failed0.fetch_add(1);
                break;
            }
        });
    }

    ~membership_harness()
    {
        ph0.stop();
        ph1.stop();
        sched0.stop();
        sched1.stop();
    }

    static scheduler_config make_cfg()
    {
        scheduler_config cfg;
        cfg.num_workers = 1;
        cfg.idle_sleep_us = 50;
        return cfg;
    }

    void put(parcelhandler& ph, std::uint32_t dst, int arg)
    {
        parcel p;
        p.dest = dst;
        p.action = mem_record_action::id();
        p.arguments = mem_record_action::make_arguments(arg);
        ph.put_parcel(std::move(p));
    }

    // Spin until `cond` holds; fail the test on deadline.  Membership
    // verdicts need real time (silence accrual, probe intervals), so the
    // deadline is generous — a healthy run exits in milliseconds.
    template <typename Cond>
    void wait_for(Cond&& cond, char const* what, double deadline_ms = 20000.0)
    {
        coal::stopwatch deadline;
        while (deadline.elapsed_ms() < deadline_ms)
        {
            if (cond())
                return;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        FAIL() << "timed out waiting for: " << what;
    }

    loopback_transport inner;
    faulty_transport faulty;
    scheduler sched0, sched1;
    parcelhandler ph0, ph1;
    std::atomic<std::uint64_t> shed0{0};
    std::atomic<std::uint64_t> link_down0{0};
    std::atomic<std::uint64_t> peer_failed0{0};
};

TEST(Membership, HeartbeatsKeepIdleLinkAlive)
{
    membership_harness h(fault_plan{});

    h.put(h.ph0, 1, 1);
    h.wait_for([&] { return g_mem_sum.load() == 1; }, "delivery");

    // A long idle window (many heartbeat intervals, well past the
    // suspicion threshold for a silent link): heartbeats must keep both
    // verdicts at alive.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(h.ph0.peer_liveness(1), peer_status::alive);
    EXPECT_EQ(h.ph1.peer_liveness(0), peer_status::alive);
    EXPECT_GT(h.ph0.counters().heartbeats_sent.load(), 0u);
    EXPECT_GT(h.ph1.counters().heartbeats_sent.load(), 0u);
    EXPECT_EQ(h.ph0.counters().peers_suspected.load(), 0u);
    EXPECT_EQ(h.ph0.counters().peers_declared_dead.load(), 0u);
    EXPECT_EQ(h.ph0.health().suspected_peers, 0u);
    EXPECT_EQ(h.ph0.health().dead_peers, 0u);
}

TEST(Membership, SuspicionHealsWithoutDeathWhenBlackoutIsShort)
{
    // Both directions dark for 60 ms: far past the suspicion threshold
    // (~6 ms of silence) but the death floor is pushed out to 400 ms, so
    // the verdict must escalate to suspected and then heal back to alive
    // without ever fencing the peer.
    fault_plan plan;
    for (std::uint32_t src : {0u, 1u})
    {
        blackout_window w;
        w.src = src;
        w.dst = 1 - src;
        w.end_us = 60'000;
        plan.blackouts.push_back(w);
    }
    membership_params mem = fast_membership();
    mem.min_dead_us = 400000;
    membership_harness h(plan, mem);

    // First frame is eaten by the blackout; retransmission delivers it
    // after the window.  Meanwhile locality 0 knows peer 1 (it sent) and
    // hears nothing back — suspicion must trip.
    h.put(h.ph0, 1, 7);
    h.wait_for([&] { return h.ph0.peer_liveness(1) == peer_status::suspected; },
        "suspicion during blackout");
    EXPECT_GE(h.ph0.counters().peers_suspected.load(), 1u);
    EXPECT_EQ(h.ph0.health().suspected_peers, 1u);
    // A suspected link degrades exactly like an open breaker: the
    // coalescing layer bypasses batching for it.
    EXPECT_TRUE(h.ph0.link_degraded(1));

    // After the window the retransmits land, acks flow back, and the
    // suspicion must clear without a death verdict.
    h.wait_for(
        [&] {
            return g_mem_sum.load() == 7 &&
                h.ph0.peer_liveness(1) == peer_status::alive &&
                !h.ph0.link_degraded(1);
        },
        "recovery after blackout");
    EXPECT_EQ(h.ph0.counters().peers_declared_dead.load(), 0u);
    EXPECT_EQ(h.peer_failed0.load(), 0u);
    EXPECT_EQ(h.ph0.health().suspected_peers, 0u);

    // The healed link carries traffic normally again.
    for (int i = 0; i != 10; ++i)
        h.put(h.ph0, 1, 1);
    h.wait_for([&] { return g_mem_sum.load() == 17; }, "post-heal delivery");
}

TEST(Membership, PeerDeathFencesAllStateAndFailsParcels)
{
    membership_harness h(fault_plan{});

    // Establish contact, then the peer goes permanently dark.
    h.put(h.ph0, 1, 1);
    h.wait_for([&] { return g_mem_sum.load() == 1; }, "initial delivery");
    h.faulty.kill_locality(1);

    // Parcels offered while the link is dark pile up in the retransmit
    // state until the detector declares death and fences them.
    constexpr int backlog = 20;
    for (int i = 0; i != backlog; ++i)
        h.put(h.ph0, 1, 1);

    h.wait_for([&] { return h.ph0.peer_liveness(1) == peer_status::dead; },
        "death verdict");
    EXPECT_GE(h.ph0.counters().peers_declared_dead.load(), 1u);
    EXPECT_EQ(h.ph0.health().dead_peers, 1u);

    // Every backlogged parcel surfaces as peer_failed — none vanish.
    h.wait_for(
        [&] {
            return h.peer_failed0.load() == static_cast<std::uint64_t>(backlog);
        },
        "backlog failed as peer_failed");

    // No per-peer state may remain for the dead peer: the tombstone
    // holds only the verdict and the fenced epoch.
    auto const dbg = h.ph0.debug_peer(1);
    EXPECT_TRUE(dbg.known);
    EXPECT_EQ(dbg.status, peer_status::dead);
    EXPECT_EQ(dbg.unacked_frames, 0u);
    EXPECT_EQ(dbg.held_frames, 0u);
    EXPECT_EQ(dbg.deferred_jobs, 0u);
    EXPECT_EQ(dbg.unacked_bytes, 0u);
    EXPECT_EQ(dbg.deferred_bytes, 0u);

    // put_parcel toward a dead peer fails fast, without queueing.
    h.put(h.ph0, 1, 1);
    EXPECT_EQ(h.peer_failed0.load(), static_cast<std::uint64_t>(backlog) + 1);
    EXPECT_EQ(h.ph0.counters().peer_failed_failures.load(),
        static_cast<std::uint64_t>(backlog) + 1);

    // Sender-side conservation: confirmed + failed + shed == offered.
    std::uint64_t const offered = 1 + backlog + 1;
    EXPECT_EQ(h.ph0.counters().parcels_confirmed.load() +
            h.peer_failed0.load() + h.link_down0.load() + h.shed0.load(),
        offered);
}

TEST(Membership, RestartedPeerRejoinsUnderNewEpoch)
{
    membership_harness h(fault_plan{});

    h.put(h.ph0, 1, 1);
    h.wait_for([&] { return g_mem_sum.load() == 1; }, "initial delivery");

    // Hard crash of locality 1: wire dark first, then the parcel layer.
    h.faulty.kill_locality(1);
    h.ph1.simulate_crash();
    EXPECT_TRUE(h.ph1.crashed());

    h.wait_for([&] { return h.ph0.peer_liveness(1) == peer_status::dead; },
        "death verdict");

    // Restart under a fresh incarnation.  The epoch bumps before the
    // wire comes back so the first frame out already carries it.
    h.ph1.restart_incarnation();
    h.faulty.restart_locality(1);
    EXPECT_FALSE(h.ph1.crashed());
    EXPECT_EQ(h.ph1.epoch(), 2u);

    // Dead-peer probes discover the restart without application traffic:
    // the probe is addressed to the NEXT incarnation, which is exactly
    // the epoch the restarted peer came back under — it admits the probe
    // and its reply (a heartbeat carrying the new src_epoch) readmits it
    // at the prober.
    h.wait_for(
        [&] {
            return h.ph0.counters().peer_rejoins.load() >= 1 &&
                h.ph0.peer_liveness(1) == peer_status::alive;
        },
        "rejoin via probe");
    // A genuine restart needs no refutation — the epoch bump already
    // happened through restart_incarnation.
    EXPECT_EQ(h.ph1.counters().epoch_refutes.load(), 0u);
    EXPECT_EQ(h.ph0.debug_peer(1).epoch, 2u);
    EXPECT_EQ(h.ph0.health().dead_peers, 0u);

    // Delivery resumes to the new incarnation.
    auto const executed_before = h.ph1.counters().parcels_executed.load();
    for (int i = 0; i != 10; ++i)
        h.put(h.ph0, 1, 1);
    h.wait_for(
        [&] {
            return h.ph1.counters().parcels_executed.load() ==
                executed_before + 10;
        },
        "post-rejoin delivery");
}

TEST(Membership, GhostFramesFromDeadIncarnationNeverExecute)
{
    membership_harness h(fault_plan{});

    // Contact both ways, then locality 0 crashes and returns as epoch 2;
    // its first frame makes locality 1 adopt the new epoch.
    h.put(h.ph0, 1, 1);
    h.wait_for([&] { return g_mem_sum.load() == 1; }, "initial delivery");
    h.ph0.simulate_crash();
    h.ph0.restart_incarnation();
    EXPECT_EQ(h.ph0.epoch(), 2u);
    h.put(h.ph0, 1, 1);
    h.wait_for([&] { return h.ph1.debug_peer(0).epoch == 2; },
        "peer adopts epoch 2");
    h.wait_for([&] { return g_mem_sum.load() == 2; }, "second delivery");

    // Forge a frame from the dead incarnation: src_epoch 1, correctly
    // addressed (dst_epoch matches), fresh sequence number.  It must be
    // discarded on the epoch check — never decoded, never executed.
    auto const executed_before = h.ph1.counters().parcels_executed.load();
    auto const stale_before = h.ph1.counters().stale_epoch_frames.load();
    parcel ghost;
    ghost.dest = 1;
    ghost.action = mem_record_action::id();
    ghost.arguments = mem_record_action::make_arguments(999);
    frame_header hdr;
    hdr.seq = 100;
    hdr.src_epoch = 1;
    hdr.dst_epoch = h.ph1.epoch();
    std::vector<parcel> ghosts;
    ghosts.push_back(std::move(ghost));
    h.faulty.send(0, 1, coal::parcel::encode_message(ghosts, hdr));

    h.wait_for(
        [&] {
            return h.ph1.counters().stale_epoch_frames.load() > stale_before;
        },
        "ghost frame discarded");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(h.ph1.counters().parcels_executed.load(), executed_before);
    EXPECT_EQ(g_mem_sum.load(), 2);    // the 999 never landed
}

TEST(Membership, FalseDeathHealsByEpochRefutation)
{
    // Asymmetric blackout: locality 1's frames toward 0 vanish for
    // 150 ms while everything from 0 still arrives.  Locality 0 declares
    // 1 dead — a false positive, 1 is alive and can hear 0 — and starts
    // probing the next incarnation.  Without refutation this wedges
    // forever: 0's probes keep refreshing 1's liveness view of 0, so 1
    // never fences its side and retransmits into 0's quarantine until
    // the end of time.  The refutation rule turns the poison probe into
    // a heal: 1 adopts the demanded epoch (a virtual restart), and once
    // the blackout lifts its frames carry the higher epoch, which 0
    // readmits through the ordinary rejoin path.
    fault_plan plan;
    blackout_window w;
    w.src = 1;
    w.dst = 0;
    w.end_us = 150'000;
    plan.blackouts.push_back(w);
    membership_harness h(plan);

    h.put(h.ph0, 1, 1);
    h.wait_for([&] { return g_mem_sum.load() == 1; }, "initial delivery");

    h.wait_for([&] { return h.ph0.peer_liveness(1) == peer_status::dead; },
        "false-positive death verdict");

    // The poison probe reaches 1 (that direction is clear): refute.
    h.wait_for([&] { return h.ph1.counters().epoch_refutes.load() >= 1; },
        "refutation");
    EXPECT_EQ(h.ph1.epoch(), 2u);
    EXPECT_FALSE(h.ph1.crashed());    // a virtual restart, not a crash

    // After the blackout the refuted incarnation is readmitted.
    h.wait_for(
        [&] {
            return h.ph0.counters().peer_rejoins.load() >= 1 &&
                h.ph0.peer_liveness(1) == peer_status::alive;
        },
        "rejoin under the refuted epoch");
    EXPECT_EQ(h.ph0.debug_peer(1).epoch, h.ph1.epoch());
    EXPECT_EQ(h.ph0.health().dead_peers, 0u);

    // The healed link carries traffic in both directions again.
    h.put(h.ph0, 1, 10);
    h.put(h.ph1, 0, 100);
    h.wait_for([&] { return g_mem_sum.load() == 111; }, "post-heal delivery");
}

TEST(Membership, CrashedLocalityFailsLocalPutsUntilRestart)
{
    membership_harness h(fault_plan{});

    h.ph0.simulate_crash();
    h.put(h.ph0, 1, 5);
    EXPECT_EQ(h.peer_failed0.load(), 1u);
    EXPECT_EQ(g_mem_sum.load(), 0);

    h.ph0.restart_incarnation();
    EXPECT_EQ(h.ph0.epoch(), 2u);
    h.put(h.ph0, 1, 5);
    h.wait_for([&] { return g_mem_sum.load() == 5; }, "post-restart delivery");
    // The receiver saw the fresh incarnation on first contact.
    EXPECT_EQ(h.ph1.debug_peer(0).epoch, 2u);
}

TEST(Membership, DisabledLayerStaysInert)
{
    membership_harness h(fault_plan{}, membership_params{});

    h.put(h.ph0, 1, 3);
    h.wait_for([&] { return g_mem_sum.load() == 3; }, "delivery");
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    EXPECT_EQ(h.ph0.counters().heartbeats_sent.load(), 0u);
    EXPECT_EQ(h.ph0.counters().peers_suspected.load(), 0u);
    EXPECT_EQ(h.ph0.peer_liveness(1), peer_status::alive);
    EXPECT_EQ(h.ph0.health().suspected_peers, 0u);
    EXPECT_EQ(h.ph0.health().dead_peers, 0u);
}

}    // namespace
