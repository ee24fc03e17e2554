// Crash/rejoin chaos soak (tsan target): seeded locality kills and
// restarts in the middle of an all-to-all exchange.  The membership
// layer must (a) keep every sender's books balanced — confirmed +
// failed + shed == offered, with each refused parcel surfaced through
// the delivery-error handler under exactly one cause — (b) deliver
// exactly once between survivors and at most once everywhere (no
// replay across incarnation epochs), (c) leave no per-peer reliability
// state and no pool bytes behind for dead peers, and (d) settle without
// deadlock once everyone is back.
//
// The fault/kill schedule derives from one RNG seed that is printed on
// entry and overridable via COAL_FAULT_SEED, so any failure replays
// exactly.

#include <coal/runtime/runtime.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/parcel/action.hpp>
#include <coal/serialization/buffer_pool.hpp>

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr std::uint32_t soak_n = 4;    // localities
constexpr std::uint32_t soak_rounds = 6;
constexpr std::uint32_t soak_per_round = 40;    // parcels per (src,dst) pair
constexpr std::uint32_t tags_per_pair = soak_rounds * soak_per_round;

std::array<std::atomic<std::uint64_t>, soak_n * soak_n> g_exec{};
std::array<std::atomic<std::uint8_t>, soak_n * soak_n * tags_per_pair> g_seen{};
std::atomic<std::uint64_t> g_dups{0};

std::uint32_t chaos_mark(std::uint32_t src, std::uint32_t dst,
    std::uint32_t tag)
{
    g_exec[src * soak_n + dst].fetch_add(1);
    // Tags beyond the soak's per-pair space (other tests reuse this
    // action) skip duplicate tracking.
    if (tag < tags_per_pair &&
        g_seen[(src * soak_n + dst) * tags_per_pair + tag].exchange(1) != 0)
        g_dups.fetch_add(1);
    return tag;
}

}    // namespace

COAL_PLAIN_ACTION(chaos_mark, chaos_mark_action);

namespace {

using coal::parcel::delivery_error;
using coal::parcel::parcel;
using coal::parcel::peer_status;
using coal::serialization::buffer_pool;

// splitmix64: derive independent kill-schedule decisions from the seed.
std::uint64_t mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

coal::runtime_config chaos_config(std::uint64_t seed)
{
    coal::runtime_config cfg;
    cfg.num_localities = soak_n;
    cfg.workers_per_locality = 2;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    cfg.idle_sleep_us = 50;

    cfg.faults.seed = seed;
    cfg.faults.drop_probability = 0.02;
    cfg.faults.duplicate_probability = 0.01;

    cfg.reliability.enabled = true;
    cfg.reliability.ack_delay_us = 100;
    cfg.reliability.min_rto_us = 500;
    cfg.reliability.max_rto_us = 20000;

    // Flow control on so deferred-job fencing is exercised, with pool
    // watermarks far above what the small payloads can reach (this soak
    // is about crash accounting, not admission shedding).
    cfg.flow.enabled = true;
    cfg.flow.initial_window_bytes = 64 * 1024;
    cfg.flow.window_bytes = 256 * 1024;
    cfg.flow.min_window_bytes = 16 * 1024;
    cfg.flow.link_soft_bytes = 1u << 20;
    cfg.flow.link_inflight_cap_bytes = 4u << 20;
    cfg.flow.pool_soft_bytes = 16u << 20;
    cfg.flow.pool_critical_bytes = 32u << 20;
    cfg.flow.pool_fallback_cap_bytes = 16u << 20;

    // Compressed timescales: suspicion within ~15 ms of silence, death
    // at 150 ms, dead-peer rejoin probes every 10 ms.  min_dead is kept
    // far above any plausible scheduler stall so survivors never fence
    // each other even under tsan.
    cfg.membership.enabled = true;
    cfg.membership.heartbeat_interval_us = 5000;
    cfg.membership.probe_interval_us = 10000;
    cfg.membership.min_dead_us = 150000;
    return cfg;
}

TEST(ChaosSoak, KillsAndRejoinsPreserveAccounting)
{
    std::uint64_t const seed =
        coal::net::fault_plan::resolve_seed(0xC0A15EEDull);
    SCOPED_TRACE("replay with COAL_FAULT_SEED=" + std::to_string(seed));
    std::printf("chaos soak seed=%llu (set COAL_FAULT_SEED=%llu to replay)\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(seed));

    // Two victims, seed-chosen, killed and rejoined one after the other;
    // the other two localities are the survivors.
    std::uint32_t const victim_a = static_cast<std::uint32_t>(mix(seed) % soak_n);
    std::uint32_t const victim_b = (victim_a + 1 +
        static_cast<std::uint32_t>(mix(seed + 1) % (soak_n - 1))) % soak_n;
    ASSERT_NE(victim_a, victim_b);
    auto const is_victim = [&](std::uint32_t l) {
        return l == victim_a || l == victim_b;
    };

    for (auto& e : g_exec)
        e.store(0);
    for (auto& e : g_seen)
        e.store(0);
    g_dups.store(0);

    auto const pool_baseline = buffer_pool::global().stats().resident_bytes;

    std::array<std::atomic<std::uint64_t>, soak_n * soak_n> offered{};
    std::array<std::atomic<std::uint64_t>, soak_n * soak_n> failed{};
    std::array<std::atomic<std::uint64_t>, soak_n * soak_n> shed{};
    std::array<std::atomic<std::uint64_t>, soak_n> link_down_total{};
    std::array<std::atomic<std::uint64_t>, soak_n> peer_failed_total{};

    coal::runtime rt(chaos_config(seed));
    rt.enable_coalescing(chaos_mark_action::name(), {16, 500});
    for (std::uint32_t s = 0; s != soak_n; ++s)
    {
        rt.get_locality(s).parcels().set_delivery_error_handler(
            [&, s](delivery_error err, parcel&& p) {
                auto const pair = s * soak_n + p.dest;
                switch (err)
                {
                case delivery_error::shed_overload:
                    shed[pair].fetch_add(1);
                    break;
                case delivery_error::link_down:
                    failed[pair].fetch_add(1);
                    link_down_total[s].fetch_add(1);
                    break;
                case delivery_error::peer_failed:
                    failed[pair].fetch_add(1);
                    peer_failed_total[s].fetch_add(1);
                    break;
                }
            });
    }

    // One all-to-all burst: every locality offers soak_per_round parcels
    // to every other, racing whatever chaos the round schedules.
    auto burst = [&](std::uint32_t round) {
        std::vector<std::thread> senders;
        senders.reserve(soak_n);
        for (std::uint32_t s = 0; s != soak_n; ++s)
        {
            senders.emplace_back([&, s] {
                for (std::uint32_t k = 0; k != soak_per_round; ++k)
                {
                    for (std::uint32_t d = 0; d != soak_n; ++d)
                    {
                        if (d == s)
                            continue;
                        std::uint32_t const tag = round * soak_per_round + k;
                        rt.get_locality(s).apply<chaos_mark_action>(
                            coal::agas::locality_id{d}, s, d, tag);
                        offered[s * soak_n + d].fetch_add(1);
                    }
                }
            });
        }
        for (auto& t : senders)
            t.join();
    };

    // Everyone (still) alive in everyone else's verdict?
    auto all_alive = [&] {
        for (std::uint32_t i = 0; i != soak_n; ++i)
            for (std::uint32_t j = 0; j != soak_n; ++j)
                if (i != j &&
                    rt.get_locality(i).parcels().peer_liveness(j) !=
                        peer_status::alive)
                    return false;
        return true;
    };
    auto wait_all_alive = [&](char const* when) {
        coal::stopwatch deadline;
        while (deadline.elapsed_ms() < 30000.0)
        {
            if (all_alive())
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ADD_FAILURE() << "membership never converged to all-alive " << when;
        return false;
    };

    // Round 0: clean all-to-all so every pair has contact (and the
    // failure detectors have interarrival history).
    burst(0);

    // Round 1: victim A dies mid-burst.  Senders keep offering; the
    // backlog toward A fails as peer_failed once the detector fences it.
    {
        std::thread killer([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            rt.kill_locality(victim_a);
        });
        burst(1);
        killer.join();
    }
    // Let the death verdict land everywhere (min_dead + slack).
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    // Round 2: traffic toward a confirmed-dead peer fast-fails; the
    // crashed locality refuses its own puts the same way.
    burst(2);

    // Rejoin A under a fresh epoch; probes rediscover it.
    rt.restart_locality(victim_a);
    ASSERT_TRUE(wait_all_alive("after victim A rejoined"));

    // Rounds 3-4: same dance for victim B.
    {
        std::thread killer([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            rt.kill_locality(victim_b);
        });
        burst(3);
        killer.join();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    burst(4);
    rt.restart_locality(victim_b);
    ASSERT_TRUE(wait_all_alive("after victim B rejoined"));

    // Round 5: fully healed — coalesced all-to-all resumes everywhere.
    burst(5);

    rt.quiesce();

    // --- sender-side conservation: every offered parcel is in exactly
    // one bucket (confirmed by ack, failed through the handler, shed).
    for (std::uint32_t s = 0; s != soak_n; ++s)
    {
        auto const& c = rt.get_locality(s).parcels().counters();
        std::uint64_t off = 0, fail = 0, sh = 0;
        for (std::uint32_t d = 0; d != soak_n; ++d)
        {
            off += offered[s * soak_n + d].load();
            fail += failed[s * soak_n + d].load();
            sh += shed[s * soak_n + d].load();
        }
        EXPECT_EQ(c.parcels_confirmed.load() + fail + sh, off)
            << "conservation broken on sender " << s;
        // The per-cause counters must agree with what the handler saw.
        EXPECT_EQ(c.parcels_shed.load(), sh) << "sender " << s;
        EXPECT_EQ(c.link_down_failures.load(), link_down_total[s].load())
            << "sender " << s;
        EXPECT_EQ(c.peer_failed_failures.load(), peer_failed_total[s].load())
            << "sender " << s;
    }

    // --- delivery semantics: at-most-once everywhere (epoch fencing
    // blocks cross-incarnation replay), exactly-once between survivors.
    // With a forced topology (COAL_FORCE_NUM_NODES) a survivor pair's
    // parcels may transit a victim *relay*: once the relay acks custody
    // the origin counts them confirmed, and the relay's death loses them
    // into /coal/hierarchy/relay-failed — the documented at-most-once
    // window of the relay hop.  The per-pair law then weakens to a
    // cluster-wide one: the deficit across all pairs is bounded by the
    // custody losses the relays recorded.
    bool const topo_forced = std::getenv("COAL_FORCE_NUM_NODES") != nullptr;
    EXPECT_EQ(g_dups.load(), 0u) << "a parcel executed twice";
    std::uint64_t all_offered = 0, all_settled = 0, relay_failed = 0;
    for (std::uint32_t s = 0; s != soak_n; ++s)
    {
        relay_failed +=
            rt.get_locality(s).parcels().counters().parcels_relay_failed.load();
        for (std::uint32_t d = 0; d != soak_n; ++d)
        {
            if (s == d)
                continue;
            auto const pair = s * soak_n + d;
            EXPECT_LE(g_exec[pair].load(), offered[pair].load())
                << "pair " << s << "->" << d;
            if (!is_victim(s) && !is_victim(d))
            {
                auto const settled = g_exec[pair].load() +
                    failed[pair].load() + shed[pair].load();
                all_offered += offered[pair].load();
                all_settled += settled;
                if (!topo_forced)
                {
                    EXPECT_EQ(settled, offered[pair].load())
                        << "survivor pair " << s << "->" << d;
                }
            }
        }
    }
    if (topo_forced)
    {
        EXPECT_LE(all_settled, all_offered);
        EXPECT_GE(all_settled + relay_failed, all_offered)
            << "survivor-pair deficit exceeds recorded relay custody losses";
    }

    // --- chaos actually happened and was recovered from.
    for (std::uint32_t s = 0; s != soak_n; ++s)
    {
        if (is_victim(s))
            continue;
        auto const& c = rt.get_locality(s).parcels().counters();
        EXPECT_GE(c.peers_declared_dead.load(), 1u) << "survivor " << s;
        EXPECT_GE(c.peer_rejoins.load(), 1u) << "survivor " << s;
    }

    // --- no per-peer reliability/flow state left anywhere.
    for (std::uint32_t i = 0; i != soak_n; ++i)
    {
        for (std::uint32_t j = 0; j != soak_n; ++j)
        {
            if (i == j)
                continue;
            auto const dbg = rt.get_locality(i).parcels().debug_peer(j);
            EXPECT_EQ(dbg.unacked_frames, 0u) << i << "->" << j;
            EXPECT_EQ(dbg.held_frames, 0u) << i << "->" << j;
            EXPECT_EQ(dbg.deferred_jobs, 0u) << i << "->" << j;
            EXPECT_EQ(dbg.unacked_bytes, 0u) << i << "->" << j;
            EXPECT_EQ(dbg.deferred_bytes, 0u) << i << "->" << j;
        }
    }

    rt.stop();

    // --- no pool bytes leaked: every slab a fenced frame held has been
    // released (free-listed slabs are excluded from resident_bytes).
    EXPECT_EQ(buffer_pool::global().stats().resident_bytes, pool_baseline);
}

// Satellite of the failure model: a blackout long enough to trip the
// breaker and the suspicion score, but shorter than the death floor,
// must heal completely — no peer_failed verdict, and coalesced batching
// (not the degraded-link bypass) carrying traffic again afterwards.
TEST(ChaosSoak, ShortBlackoutHealsAndRestoresBatching)
{
    coal::runtime_config cfg;
    cfg.num_localities = 2;
    cfg.workers_per_locality = 2;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    cfg.idle_sleep_us = 50;
    cfg.reliability.enabled = true;
    cfg.reliability.ack_delay_us = 100;
    cfg.reliability.min_rto_us = 500;
    cfg.reliability.max_rto_us = 20000;
    cfg.membership.enabled = true;
    cfg.membership.heartbeat_interval_us = 2000;
    cfg.membership.probe_interval_us = 10000;
    cfg.membership.min_dead_us = 400000;    // blackout stays well below

    // Both directions dark for the first 60 ms.
    for (std::uint32_t src : {0u, 1u})
    {
        coal::net::blackout_window w;
        w.src = src;
        w.dst = 1 - src;
        w.end_us = 60'000;
        cfg.faults.blackouts.push_back(w);
    }

    for (auto& e : g_exec)
        e.store(0);
    for (auto& e : g_seen)
        e.store(0);
    g_dups.store(0);

    coal::runtime rt(cfg);
    rt.enable_coalescing(chaos_mark_action::name(), {32, 1000});

    std::atomic<std::uint64_t> errors{0};
    rt.get_locality(0).parcels().set_delivery_error_handler(
        [&](delivery_error, parcel&&) { errors.fetch_add(1); });

    auto& ph0 = rt.get_locality(0).parcels();

    // One parcel into the dark window: locality 0 now knows peer 1,
    // hears nothing, and must escalate to suspected (degrading the link
    // for the coalescing layer) without ever declaring death.
    rt.get_locality(0).apply<chaos_mark_action>(
        coal::agas::locality_id{1}, 0u, 1u, 0u);
    coal::stopwatch deadline;
    while (ph0.peer_liveness(1) != peer_status::suspected &&
        deadline.elapsed_ms() < 20000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(ph0.peer_liveness(1), peer_status::suspected);
    EXPECT_TRUE(ph0.link_degraded(1));

    // The blackout ends, retransmits land, and the verdict heals.
    while ((ph0.peer_liveness(1) != peer_status::alive ||
               ph0.link_degraded(1)) &&
        deadline.elapsed_ms() < 20000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(ph0.peer_liveness(1), peer_status::alive);
    ASSERT_FALSE(ph0.link_degraded(1));

    // Batching must be fully restored: far fewer wire messages than
    // parcels (the degraded-link bypass would send one message each).
    constexpr std::uint32_t parcels = 400;
    auto const messages_before = rt.network().stats().messages_sent;
    for (std::uint32_t k = 0; k != parcels; ++k)
        rt.get_locality(0).apply<chaos_mark_action>(
            coal::agas::locality_id{1}, 0u, 1u, 1u + k);
    rt.quiesce();
    auto const messages_delta =
        rt.network().stats().messages_sent - messages_before;

    EXPECT_EQ(g_exec[0 * soak_n + 1].load(), parcels + 1);
    EXPECT_LT(messages_delta, parcels)
        << "coalesced batching did not resume after the blackout healed";
    EXPECT_EQ(ph0.counters().peers_declared_dead.load(), 0u);
    EXPECT_EQ(ph0.counters().peer_failed_failures.load(), 0u);
    EXPECT_EQ(errors.load(), 0u);

    rt.stop();
}

}    // namespace
