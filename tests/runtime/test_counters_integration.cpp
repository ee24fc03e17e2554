// The performance-counter framework wired to live subsystems: every
// registered counter type must resolve, count real traffic, aggregate
// across localities and honour reset-on-read.

#include <coal/runtime/runtime.hpp>

#include <coal/parcel/action.hpp>
#include <coal/threading/future.hpp>

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace {

int ci_echo(int x)
{
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(ci_echo, ci_echo_action);

namespace {

using coal::locality;
using coal::runtime;
using coal::runtime_config;

runtime_config loopback()
{
    runtime_config cfg;
    cfg.num_localities = 2;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    return cfg;
}

void round_trips(runtime& rt, int n)
{
    rt.run_on(0, [n](locality& here) {
        auto const other = here.find_remote_localities().front();
        std::vector<coal::threading::future<int>> futures;
        for (int i = 0; i != n; ++i)
            futures.push_back(here.async<ci_echo_action>(other, i));
        coal::threading::wait_all(futures);
    });
}

TEST(CountersIntegration, DiscoverListsAllBuiltinTypes)
{
    runtime rt(loopback());
    auto const types = rt.counters().discover();

    auto has = [&](std::string const& path) {
        for (auto const& [p, d] : types)
        {
            if (p == path)
                return true;
        }
        return false;
    };

    // The paper's counters:
    EXPECT_TRUE(has("/coalescing/count/parcels"));
    EXPECT_TRUE(has("/coalescing/count/messages"));
    EXPECT_TRUE(has("/coalescing/count/average-parcels-per-message"));
    EXPECT_TRUE(has("/coalescing/time/average-parcel-arrival"));
    EXPECT_TRUE(has("/coalescing/time/parcel-arrival-histogram"));
    EXPECT_TRUE(has("/threads/time/average-overhead"));
    EXPECT_TRUE(has("/threads/background-work"));
    EXPECT_TRUE(has("/threads/background-overhead"));
    // Supporting counters:
    EXPECT_TRUE(has("/threads/count/cumulative"));
    EXPECT_TRUE(has("/parcels/count/sent"));
    EXPECT_TRUE(has("/messages/count/sent"));
    EXPECT_TRUE(has("/data/count/sent"));
    EXPECT_TRUE(has("/timers/count/fired"));
    // Batched receive pipeline:
    EXPECT_TRUE(has("/threads/receive-pipeline/count/drains"));
    EXPECT_TRUE(has("/threads/receive-pipeline/count/frames"));
    EXPECT_TRUE(has("/threads/receive-pipeline/count/chunks"));
    EXPECT_TRUE(has("/threads/receive-pipeline/frames-per-drain"));
    EXPECT_TRUE(has("/threads/receive-pipeline/chunk-occupancy"));
    EXPECT_TRUE(has("/threads/receive-pipeline/time/offloaded-decode"));
    EXPECT_TRUE(has("/net/count/duplicate-overhead-avoided"));
    rt.stop();
}

TEST(CountersIntegration, ReceivePipelineCountersTrackTraffic)
{
    runtime rt(loopback());
    round_trips(rt, 200);
    rt.quiesce();

    auto& c = rt.counters();
    // Every remote message goes through a drain; uncoalesced traffic is
    // one parcel per frame, so chunks == frames here.
    double const drains =
        c.query("/threads/receive-pipeline/count/drains").value;
    double const frames =
        c.query("/threads/receive-pipeline/count/frames").value;
    double const chunks =
        c.query("/threads/receive-pipeline/count/chunks").value;
    EXPECT_GT(drains, 0.0);
    EXPECT_DOUBLE_EQ(frames, 400.0);    // 200 requests + 200 responses
    EXPECT_DOUBLE_EQ(chunks, 400.0);    // 1 parcel per frame -> 1 chunk
    EXPECT_GE(frames, drains);
    EXPECT_DOUBLE_EQ(
        c.query("/threads/receive-pipeline/chunk-occupancy").value, 1.0);
    EXPECT_GE(c.query("/threads/receive-pipeline/frames-per-drain").value, 1.0);
    rt.stop();
}

TEST(CountersIntegration, ParcelsSentCountsTraffic)
{
    runtime rt(loopback());
    round_trips(rt, 100);
    rt.quiesce();

    // 100 requests from locality 0 + 100 responses from locality 1.
    EXPECT_DOUBLE_EQ(rt.counters().query("/parcels/count/sent").value, 200.0);
    EXPECT_DOUBLE_EQ(
        rt.counters().query("/parcels{locality#0}/count/sent").value, 100.0);
    EXPECT_DOUBLE_EQ(
        rt.counters().query("/parcels{locality#1}/count/sent").value, 100.0);
    EXPECT_DOUBLE_EQ(
        rt.counters().query("/parcels/count/received").value, 200.0);
    rt.stop();
}

TEST(CountersIntegration, MessageAndDataCountersConsistent)
{
    runtime rt(loopback());
    round_trips(rt, 50);
    rt.quiesce();

    auto& c = rt.counters();
    double const sent = c.query("/messages/count/sent").value;
    double const received = c.query("/messages/count/received").value;
    EXPECT_DOUBLE_EQ(sent, received);
    EXPECT_DOUBLE_EQ(sent, 100.0);    // uncoalesced: 1 parcel per message

    EXPECT_DOUBLE_EQ(c.query("/data/count/sent").value,
        c.query("/data/count/received").value);
    EXPECT_GT(c.query("/data/count/sent").value, 0.0);
    rt.stop();
}

TEST(CountersIntegration, ThreadCountersReflectTasks)
{
    runtime rt(loopback());
    round_trips(rt, 100);
    rt.quiesce();

    auto& c = rt.counters();
    EXPECT_GT(c.query("/threads/count/cumulative").value, 200.0);
    EXPECT_GT(c.query("/threads/time/func").value, 0.0);
    EXPECT_GE(c.query("/threads/time/func").value,
        c.query("/threads/time/exec").value);
    EXPECT_GE(c.query("/threads/time/average-overhead").value, 0.0);
    rt.stop();
}

TEST(CountersIntegration, UnknownLocalityInstanceInvalid)
{
    runtime rt(loopback());
    EXPECT_FALSE(
        rt.counters().query("/parcels{locality#9}/count/sent").valid);
    rt.stop();
}

TEST(CountersIntegration, CoalescingCountersNeedKnownAction)
{
    runtime rt(loopback());
    EXPECT_FALSE(rt.counters().query("/coalescing/count/parcels").valid);
    EXPECT_FALSE(
        rt.counters().query("/coalescing/count/parcels@never_enabled").valid);
    rt.stop();
}

TEST(CountersIntegration, CoalescingCountersCountPerAction)
{
    runtime rt(loopback());
    rt.enable_coalescing("ci_echo_action", {16, 2000});
    round_trips(rt, 160);
    rt.quiesce();

    auto& c = rt.counters();
    std::string const a = "@ci_echo_action";
    // Requests and responses both pass coalescing handlers: 320 parcels.
    EXPECT_DOUBLE_EQ(
        c.query("/coalescing/count/parcels" + a).value, 320.0);
    double const messages =
        c.query("/coalescing/count/messages" + a).value;
    EXPECT_GE(messages, 20.0);
    EXPECT_LE(messages, 60.0);    // ~320/16 plus partial flushes
    double const ppm =
        c.query("/coalescing/count/average-parcels-per-message" + a).value;
    EXPECT_GT(ppm, 4.0);
    EXPECT_LE(ppm, 16.0);
    EXPECT_GT(
        c.query("/coalescing/time/average-parcel-arrival" + a).value, 0.0);

    auto const histogram =
        c.query("/coalescing/time/parcel-arrival-histogram" + a);
    ASSERT_TRUE(histogram.valid);
    ASSERT_GT(histogram.values.size(), 3u);
    std::int64_t gaps = 0;
    for (std::size_t i = 3; i < histogram.values.size(); ++i)
        gaps += histogram.values[i];
    // 320 parcels counted per locality; gaps ≈ parcels - localities.
    EXPECT_GE(gaps, 300);
    rt.stop();
}

TEST(CountersIntegration, PerLocalityCoalescingInstanceSelectsOne)
{
    runtime rt(loopback());
    rt.enable_coalescing("ci_echo_action", {8, 2000});
    round_trips(rt, 80);
    rt.quiesce();

    auto& c = rt.counters();
    double const l0 = c.query(
                           "/coalescing{locality#0}/count/parcels@"
                           "ci_echo_action")
                          .value;
    double const l1 = c.query(
                           "/coalescing{locality#1}/count/parcels@"
                           "ci_echo_action")
                          .value;
    double const total =
        c.query("/coalescing/count/parcels@ci_echo_action").value;
    EXPECT_DOUBLE_EQ(l0 + l1, total);
    EXPECT_DOUBLE_EQ(l0, 80.0);    // requests at 0
    EXPECT_DOUBLE_EQ(l1, 80.0);    // responses at 1
    rt.stop();
}

TEST(CountersIntegration, ResetOnReadGivesPerPhaseValues)
{
    runtime rt(loopback());
    round_trips(rt, 30);
    rt.quiesce();

    auto& c = rt.counters();
    double const phase1 = c.query("/parcels/count/sent", true).value;
    EXPECT_DOUBLE_EQ(phase1, 60.0);
    EXPECT_DOUBLE_EQ(c.query("/parcels/count/sent").value, 0.0);

    round_trips(rt, 10);
    rt.quiesce();
    EXPECT_DOUBLE_EQ(c.query("/parcels/count/sent").value, 20.0);
    rt.stop();
}

TEST(CountersIntegration, BackgroundOverheadBetweenZeroAndOne)
{
    runtime_config cfg;    // sim network: real background costs
    cfg.num_localities = 2;
    cfg.apply_coalescing_defaults = false;
    runtime rt(cfg);
    round_trips(rt, 200);
    rt.quiesce();

    double const overhead =
        rt.counters().query("/threads/background-overhead").value;
    EXPECT_GT(overhead, 0.0);
    EXPECT_LT(overhead, 1.0);
    EXPECT_GT(rt.counters().query("/threads/background-work").value, 0.0);
    rt.stop();
}

TEST(CountersIntegration, PoolCountersObserveRealTraffic)
{
    runtime rt(loopback());
    auto& c = rt.counters();
    // Baseline first: the pool is process-global and other activity in
    // this process (runtime construction, earlier phases) already used it.
    double const hits0 = c.query("/coal/pool/count/hits").value;
    double const misses0 = c.query("/coal/pool/count/misses").value;
    double const referenced0 = c.query("/coal/pool/data/referenced").value;

    round_trips(rt, 200);
    rt.quiesce();

    // Every encode acquires a head slab and every decode borrows views,
    // so traffic must move the acquire counters...
    double const acquires = (c.query("/coal/pool/count/hits").value - hits0) +
        (c.query("/coal/pool/count/misses").value - misses0);
    EXPECT_GT(acquires, 0.0);
    // ...and receive-side argument views are refcount shares, not copies.
    EXPECT_GT(c.query("/coal/pool/data/referenced").value, referenced0);
    EXPECT_GE(c.query("/coal/pool/count/outstanding").value, 0.0);
    EXPECT_GE(c.query("/coal/pool/count/heap-fallbacks").value, 0.0);
    rt.stop();
}

TEST(CountersIntegration, PoolCountersListedInDiscovery)
{
    runtime rt(loopback());
    auto const types = rt.counters().discover();
    auto has = [&](std::string const& path) {
        for (auto const& [p, d] : types)
        {
            if (p == path)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has("/coal/pool/count/hits"));
    EXPECT_TRUE(has("/coal/pool/count/misses"));
    EXPECT_TRUE(has("/coal/pool/count/heap-fallbacks"));
    EXPECT_TRUE(has("/coal/pool/count/flattens"));
    EXPECT_TRUE(has("/coal/pool/count/outstanding"));
    EXPECT_TRUE(has("/coal/pool/data/copied"));
    EXPECT_TRUE(has("/coal/pool/data/referenced"));
    rt.stop();
}

TEST(CountersIntegration, FlowCountersListedInDiscovery)
{
    runtime rt(loopback());
    auto const types = rt.counters().discover();
    auto has = [&](std::string const& path) {
        for (auto const& [p, d] : types)
        {
            if (p == path)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has("/net/flow/count/shed"));
    EXPECT_TRUE(has("/net/flow/count/deferrals"));
    EXPECT_TRUE(has("/net/flow/count/releases"));
    EXPECT_TRUE(has("/net/flow/count/credit-updates"));
    EXPECT_TRUE(has("/net/flow/count/link-down"));
    EXPECT_TRUE(has("/net/flow/count/pressure-transitions"));
    EXPECT_TRUE(has("/net/flow/count/starvation-trips"));
    EXPECT_TRUE(has("/net/flow/pressure"));
    EXPECT_TRUE(has("/coal/pool/resident-bytes"));
    EXPECT_TRUE(has("/coal/pool/resident-bytes-peak"));
    EXPECT_TRUE(has("/coal/pool/fallback-bytes"));
    EXPECT_TRUE(has("/coal/pool/fallback-bytes-peak"));
    EXPECT_TRUE(has("/coal/pool/count/fallback-cap-hits"));
    rt.stop();
}

// Flow control live: a small credit window makes real traffic defer and
// release, credits flow back on acks, and a low soft watermark makes the
// pressure gauge move (transitions are counted and traced).
TEST(CountersIntegration, FlowCountersObserveBackpressure)
{
    runtime_config cfg = loopback();
    cfg.flow.enabled = true;
    cfg.flow.initial_window_bytes = 256;
    cfg.flow.window_bytes = 512;
    cfg.flow.min_window_bytes = 256;
    cfg.flow.pool_soft_bytes = 1;    // any live slab counts as soft pressure
    cfg.flow.pool_critical_bytes = 64u << 20;    // never critical: no shedding
    runtime rt(cfg);

    round_trips(rt, 300);
    rt.quiesce();

    auto& c = rt.counters();
    double const deferrals = c.query("/net/flow/count/deferrals").value;
    EXPECT_GT(deferrals, 0.0);
    // Nothing failed, so every deferral was eventually released.
    EXPECT_DOUBLE_EQ(c.query("/net/flow/count/releases").value, deferrals);
    EXPECT_GT(c.query("/net/flow/count/credit-updates").value, 0.0);
    EXPECT_GT(c.query("/net/flow/count/pressure-transitions").value, 0.0);
    EXPECT_DOUBLE_EQ(c.query("/net/flow/count/shed").value, 0.0);
    EXPECT_DOUBLE_EQ(c.query("/net/flow/count/link-down").value, 0.0);

    auto const pressure = c.query("/net/flow/pressure");
    ASSERT_TRUE(pressure.valid);
    EXPECT_LT(pressure.value, 2.0);    // never critical in this test

    EXPECT_GE(c.query("/coal/pool/resident-bytes-peak").value,
        c.query("/coal/pool/resident-bytes").value);
    rt.stop();
}

TEST(CountersIntegration, HealthCountersListedInDiscovery)
{
    runtime rt(loopback());
    auto const types = rt.counters().discover();
    auto has = [&](std::string const& path) {
        for (auto const& [p, d] : types)
        {
            if (p == path)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has("/net/health/count/heartbeats"));
    EXPECT_TRUE(has("/net/health/count/suspected"));
    EXPECT_TRUE(has("/net/health/count/deaths"));
    EXPECT_TRUE(has("/net/health/count/rejoins"));
    EXPECT_TRUE(has("/net/health/count/stale-epoch-frames"));
    EXPECT_TRUE(has("/net/health/count/refutes"));
    EXPECT_TRUE(has("/net/health/count/confirmed-parcels"));
    EXPECT_TRUE(has("/net/health/known-peers"));
    EXPECT_TRUE(has("/net/health/suspected-peers"));
    EXPECT_TRUE(has("/net/health/dead-peers"));
    EXPECT_TRUE(has("/net/count/delivery-errors/shed-overload"));
    EXPECT_TRUE(has("/net/count/delivery-errors/link-down"));
    EXPECT_TRUE(has("/net/count/delivery-errors/peer-failed"));
    rt.stop();
}

// Membership live: a kill/rejoin cycle must move every /net/health
// counter and the delivery-error taxonomy the way the failure model
// promises.
TEST(CountersIntegration, HealthCountersObserveKillAndRejoin)
{
    runtime_config cfg = loopback();
    cfg.membership.enabled = true;
    cfg.membership.heartbeat_interval_us = 2000;
    cfg.membership.probe_interval_us = 10000;
    cfg.membership.min_dead_us = 50000;
    runtime rt(cfg);
    auto& c = rt.counters();

    // Deadline-bounded spin on a counter predicate (membership verdicts
    // need real time to accrue).
    auto wait_counter = [&](char const* path, auto pred, char const* what) {
        auto const deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (std::chrono::steady_clock::now() < deadline)
        {
            if (pred(c.query(path).value))
                return;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        FAIL() << "timed out waiting for " << what << " on " << path;
    };

    round_trips(rt, 10);    // contact + acked (confirmed) parcels

    rt.kill_locality(1);
    constexpr double offered_at_dead = 10.0;
    for (int i = 0; i != static_cast<int>(offered_at_dead); ++i)
        rt.get_locality(0).apply<ci_echo_action>(coal::agas::locality_id{1}, i);

    wait_counter("/net/health/dead-peers",
        [](double v) { return v >= 1.0; }, "death verdict");
    wait_counter("/net/count/delivery-errors/peer-failed",
        [](double v) { return v >= offered_at_dead; }, "fenced parcels");
    EXPECT_GE(c.query("/net/health/count/suspected").value, 1.0);
    EXPECT_GE(c.query("/net/health/count/deaths").value, 1.0);

    rt.restart_locality(1);
    wait_counter("/net/health/count/rejoins",
        [](double v) { return v >= 1.0; }, "rejoin");
    wait_counter("/net/health/dead-peers",
        [](double v) { return v == 0.0; }, "dead gauge cleared");

    round_trips(rt, 5);    // the rejoined incarnation carries traffic
    rt.quiesce();

    EXPECT_GT(c.query("/net/health/count/heartbeats").value, 0.0);
    EXPECT_GT(c.query("/net/health/count/confirmed-parcels").value, 0.0);
    // The rejoin probes address the next incarnation, which is the epoch
    // the genuine restart came back under — no refutation is involved.
    EXPECT_DOUBLE_EQ(c.query("/net/health/count/refutes").value, 0.0);
    EXPECT_GE(c.query("/net/health/known-peers").value, 1.0);
    EXPECT_DOUBLE_EQ(c.query("/net/health/suspected-peers").value, 0.0);
    // Taxonomy: everything refused in this test was refused as
    // peer_failed — never shed, never link_down.
    EXPECT_DOUBLE_EQ(
        c.query("/net/count/delivery-errors/shed-overload").value, 0.0);
    EXPECT_DOUBLE_EQ(
        c.query("/net/count/delivery-errors/link-down").value, 0.0);
    rt.stop();
}

TEST(CountersIntegration, TimerCountersTrackFlushTimers)
{
    runtime rt(loopback());
    rt.enable_coalescing("ci_echo_action", {1000, 500});    // never fills
    round_trips(rt, 20);
    rt.quiesce();

    auto& c = rt.counters();
    EXPECT_GT(c.query("/timers/count/scheduled").value, 0.0);
    EXPECT_GE(c.query("/timers/time/average-lateness").value, 0.0);
    EXPECT_GE(c.query("/timers/time/max-lateness").value,
        c.query("/timers/time/average-lateness").value);
    // All flush timers resolved by quiesce: nothing left armed.
    EXPECT_DOUBLE_EQ(c.query("/timers/count/pending").value, 0.0);
    rt.stop();
}

// The arrival statistics are striped across per-thread shards
// internally; the counter facade must still aggregate to exact totals:
// per locality, the histogram holds one entry per measured gap, i.e.
// parcels - 1 (the first parcel after reset has no gap).
TEST(CountersIntegration, ArrivalStatsAggregateExactlyAcrossStripes)
{
    runtime rt(loopback());
    rt.enable_coalescing("ci_echo_action", {16, 2000});
    round_trips(rt, 120);
    rt.quiesce();

    auto& c = rt.counters();
    for (int loc = 0; loc != 2; ++loc)
    {
        std::string const inst =
            "{locality#" + std::to_string(loc) + "}";
        double const parcels =
            c.query("/coalescing" + inst + "/count/parcels@ci_echo_action")
                .value;
        ASSERT_GT(parcels, 0.0);

        auto const histogram = c.query(
            "/coalescing" + inst +
            "/time/parcel-arrival-histogram@ci_echo_action");
        ASSERT_TRUE(histogram.valid);
        ASSERT_GT(histogram.values.size(), 3u);
        std::int64_t gaps = 0;
        for (std::size_t i = 3; i < histogram.values.size(); ++i)
            gaps += histogram.values[i];
        EXPECT_EQ(gaps, static_cast<std::int64_t>(parcels) - 1);

        EXPECT_GT(c.query("/coalescing" + inst +
                       "/time/average-parcel-arrival@ci_echo_action")
                      .value,
            0.0);
    }
    rt.stop();
}

// The aggregate instance sums the per-locality ones field by field,
// idle-poll time included.  Read after stop() so the schedulers are frozen
// and the three reads agree exactly.
TEST(CountersIntegration, IdlePollsAggregateSumsLocalities)
{
    runtime rt(loopback());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    rt.stop();

    auto& c = rt.counters();
    double const l0 = c.query("/threads{locality#0}/time/idle-polls").value;
    double const l1 = c.query("/threads{locality#1}/time/idle-polls").value;
    double const total = c.query("/threads/time/idle-polls").value;
    EXPECT_GT(total, 0.0);
    EXPECT_DOUBLE_EQ(total, l0 + l1);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(rt.aggregate_snapshot().idle_poll_time_ns), total);
}

// Idle-eviction churn counts are monotonic, so reading them with reset
// re-zeroes them like every other count.
TEST(CountersIntegration, PeerChurnCountersResetOnRead)
{
    runtime_config cfg = loopback();
    cfg.reliability.enabled = true;    // the peer store lives in it
    cfg.store.evict_idle_us = 20'000;
    cfg.store.evict_scan_interval_us = 200;
    runtime rt(cfg);
    auto& c = rt.counters();

    // Until every hydrated peer is a tombstone nothing is left to evict.
    auto wait_all_evicted = [&] {
        auto const deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (c.query("/net/peers/active").value != 0.0 &&
            std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_EQ(c.query("/net/peers/active").value, 0.0);
    };

    round_trips(rt, 10);
    rt.quiesce();
    wait_all_evicted();
    EXPECT_GT(c.query("/net/peers/count/evictions", true).value, 0.0);
    EXPECT_DOUBLE_EQ(c.query("/net/peers/count/evictions").value, 0.0);

    round_trips(rt, 10);    // renewed contact restores the tombstones
    rt.quiesce();
    wait_all_evicted();
    EXPECT_GT(c.query("/net/peers/count/rehydrations", true).value, 0.0);
    EXPECT_DOUBLE_EQ(c.query("/net/peers/count/rehydrations").value, 0.0);
    rt.stop();
}

// Every path a shell-style `{a,b}` group in `text` expands to.
std::vector<std::string> brace_expand(std::string const& text)
{
    auto const open = text.find('{');
    auto const close = text.find('}', open);
    if (close == std::string::npos)
        return {text};
    std::vector<std::string> out;
    std::string const alternatives = text.substr(open + 1, close - open - 1);
    std::size_t begin = 0;
    while (begin <= alternatives.size())
    {
        auto end = alternatives.find(',', begin);
        if (end == std::string::npos)
            end = alternatives.size();
        for (auto& tail : brace_expand(text.substr(close + 1)))
            out.push_back(text.substr(0, open) +
                alternatives.substr(begin, end - begin) + tail);
        begin = end + 1;
    }
    return out;
}

// The README counter table is the catalogue users read: it must name
// exactly the registered counter types, no more and no fewer.
TEST(CountersIntegration, ReadmeListsEveryCounter)
{
    std::ifstream readme(COAL_SOURCE_DIR "/README.md");
    ASSERT_TRUE(readme) << "cannot open " COAL_SOURCE_DIR "/README.md";

    // Backticked paths in the first column of the table that follows the
    // "## Performance counters" heading; `@parameters` are not part of a
    // type path.
    std::set<std::string> documented;
    bool in_section = false;
    bool in_table = false;
    for (std::string line; std::getline(readme, line);)
    {
        if (line.starts_with("## "))
            in_section = line == "## Performance counters";
        if (!in_section)
            continue;
        if (!line.starts_with("|"))
        {
            if (in_table)
                break;
            continue;
        }
        in_table = true;
        std::string const first = line.substr(1, line.find('|', 1) - 1);
        for (auto tick = first.find('`'); tick != std::string::npos;
             tick = first.find('`', tick + 1))
        {
            auto const end = first.find('`', tick + 1);
            if (end == std::string::npos)
                break;
            std::string path = first.substr(tick + 1, end - tick - 1);
            path = path.substr(0, path.find('@'));
            for (auto& expanded : brace_expand(path))
                documented.insert(expanded);
            tick = end;
        }
    }

    runtime rt(loopback());
    std::set<std::string> registered;
    for (auto const& [path, description] : rt.counters().discover())
        registered.insert(path);
    rt.stop();

    for (auto const& path : registered)
        EXPECT_TRUE(documented.contains(path)) << path << " not in README";
    for (auto const& path : documented)
        EXPECT_TRUE(registered.contains(path)) << path << " not registered";
}

}    // namespace
