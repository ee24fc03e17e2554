// Runtime front end: boot/shutdown, SPMD execution, async round trips,
// barriers, coalescing enablement across localities.

#include <coal/runtime/runtime.hpp>

#include <coal/parcel/action.hpp>
#include <coal/threading/future.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <numeric>

namespace {

int rt_add(int a, int b)
{
    return a + b;
}

std::uint32_t rt_where()
{
    // Identifies the executing locality via a thread-unfriendly trick? No:
    // plain actions cannot see their host, so callers pass expectations
    // instead.  This action just returns a constant.
    return 7;
}

std::vector<double> rt_scale(std::vector<double> xs, double factor)
{
    for (auto& x : xs)
        x *= factor;
    return xs;
}

}    // namespace

COAL_PLAIN_ACTION(rt_add, rt_add_action);
COAL_PLAIN_ACTION(rt_where, rt_where_action);
COAL_PLAIN_ACTION(rt_scale, rt_scale_action);

namespace {

using coal::locality;
using coal::runtime;
using coal::runtime_config;
using coal::agas::locality_id;

runtime_config loopback(std::uint32_t n, unsigned workers = 1)
{
    runtime_config cfg;
    cfg.num_localities = n;
    cfg.workers_per_locality = workers;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    return cfg;
}

TEST(Runtime, BootAndStop)
{
    runtime rt(loopback(2));
    EXPECT_EQ(rt.num_localities(), 2u);
    EXPECT_EQ(rt.get_locality(0u).id(), locality_id{0});
    EXPECT_EQ(rt.get_locality(1u).id(), locality_id{1});
    rt.stop();
    rt.stop();    // idempotent
}

TEST(Runtime, SingleLocalityWorks)
{
    runtime rt(loopback(1));
    std::atomic<int> result{0};
    rt.run_on(0, [&](locality& here) {
        auto f = here.async<rt_add_action>(here.id(), 1, 2);
        result = f.get();
    });
    EXPECT_EQ(result.load(), 3);
    rt.stop();
}

TEST(Runtime, AsyncRoundTripAcrossLocalities)
{
    runtime rt(loopback(2));
    std::atomic<int> result{0};
    rt.run_on(0, [&](locality& here) {
        auto f = here.async<rt_add_action>(locality_id{1}, 20, 22);
        result = f.get();
    });
    EXPECT_EQ(result.load(), 42);
    rt.stop();
}

TEST(Runtime, AsyncWithContainerPayload)
{
    runtime rt(loopback(2));
    std::vector<double> out;
    rt.run_on(0, [&](locality& here) {
        auto f = here.async<rt_scale_action>(
            locality_id{1}, std::vector<double>{1.0, 2.0, 3.0}, 2.5);
        out = f.get();
    });
    EXPECT_EQ(out, (std::vector<double>{2.5, 5.0, 7.5}));
    rt.stop();
}

TEST(Runtime, ApplyFireAndForget)
{
    runtime rt(loopback(2));
    rt.run_on(0, [&](locality& here) {
        here.apply<rt_add_action>(locality_id{1}, 1, 1);
    });
    rt.quiesce();
    // One parcel reached locality 1 and executed.
    EXPECT_EQ(rt.get_locality(1u).parcels().counters().parcels_executed.load(),
        1u);
    rt.stop();
}

TEST(Runtime, RunEverywhereVisitsAllLocalities)
{
    runtime rt(loopback(4));
    std::atomic<std::uint32_t> mask{0};
    rt.run_everywhere([&](locality& here) {
        mask.fetch_or(1u << here.id().value());
    });
    EXPECT_EQ(mask.load(), 0b1111u);
    rt.stop();
}

TEST(Runtime, FindRemoteLocalities)
{
    runtime rt(loopback(3));
    rt.run_on(1, [&](locality& here) {
        auto const remotes = here.find_remote_localities();
        ASSERT_EQ(remotes.size(), 2u);
        EXPECT_EQ(remotes[0], locality_id{0});
        EXPECT_EQ(remotes[1], locality_id{2});
    });
    rt.stop();
}

TEST(Runtime, BarrierSynchronizesPhases)
{
    runtime rt(loopback(3));
    std::atomic<int> in_phase{0};
    std::atomic<bool> violated{false};

    rt.run_everywhere([&](locality&) {
        for (int phase = 0; phase != 5; ++phase)
        {
            in_phase.fetch_add(1);
            rt.barrier();
            // After the barrier, all 3 must have arrived.
            if (in_phase.load() % 3 != 0)
                violated = true;
            rt.barrier();
        }
    });
    EXPECT_FALSE(violated.load());
    EXPECT_EQ(in_phase.load(), 15);
    rt.stop();
}

TEST(Runtime, ManyConcurrentAsyncsAllComplete)
{
    runtime rt(loopback(2, 2));
    std::atomic<long long> sum{0};
    rt.run_everywhere([&](locality& here) {
        auto const other = here.find_remote_localities().front();
        std::vector<coal::threading::future<int>> futures;
        futures.reserve(2000);
        for (int i = 0; i != 2000; ++i)
            futures.push_back(here.async<rt_add_action>(other, i, 1));
        long long local = 0;
        for (auto& f : futures)
            local += f.get();
        sum += local;
    });
    // Each locality: Σ(i+1) for i in [0,2000) = 2001000.
    EXPECT_EQ(sum.load(), 2 * 2001000ll);
    rt.stop();
}

TEST(Runtime, EnableCoalescingAppliesOnAllLocalities)
{
    runtime rt(loopback(3));
    ASSERT_TRUE(
        rt.enable_coalescing("rt_add_action", {16, 2000}));
    for (std::uint32_t i = 0; i != 3; ++i)
    {
        auto p = rt.get_locality(i).coalescing().params("rt_add_action");
        ASSERT_TRUE(p.has_value()) << i;
        EXPECT_EQ(p->nparcels, 16u);
    }
    ASSERT_TRUE(rt.set_coalescing_params("rt_add_action", {64, 2000}));
    for (std::uint32_t i = 0; i != 3; ++i)
        EXPECT_EQ(
            rt.get_locality(i).coalescing().params("rt_add_action")->nparcels,
            64u);
    rt.stop();
}

TEST(Runtime, CoalescedTrafficStillCompletes)
{
    runtime rt(loopback(2));
    rt.enable_coalescing("rt_add_action", {32, 1000});

    std::atomic<int> total{0};
    rt.run_everywhere([&](locality& here) {
        auto const other = here.find_remote_localities().front();
        std::vector<coal::threading::future<int>> futures;
        for (int i = 0; i != 500; ++i)
            futures.push_back(here.async<rt_add_action>(other, 1, 1));
        for (auto& f : futures)
            total += f.get();
    });
    EXPECT_EQ(total.load(), 2 * 500 * 2);
    rt.stop();
}

TEST(Runtime, AggregateSnapshotSumsLocalities)
{
    runtime rt(loopback(2));
    rt.run_everywhere([&](locality& here) {
        auto f = here.async<rt_add_action>(
            here.find_remote_localities().front(), 2, 3);
        f.get();
    });
    auto const total = rt.aggregate_snapshot();
    auto const l0 = rt.get_locality(0u).scheduler().snapshot();
    auto const l1 = rt.get_locality(1u).scheduler().snapshot();
    EXPECT_EQ(total.tasks_executed, l0.tasks_executed + l1.tasks_executed);
    EXPECT_EQ(total.func_time_ns, l0.func_time_ns + l1.func_time_ns);
    rt.stop();
}

TEST(Runtime, SimNetworkEndToEnd)
{
    // Same round trip over the cost-model transport (latency > 0).
    runtime_config cfg;
    cfg.num_localities = 2;
    cfg.apply_coalescing_defaults = false;
    runtime rt(cfg);

    int result = 0;
    rt.run_on(0, [&](locality& here) {
        result = here.async<rt_add_action>(locality_id{1}, 40, 2).get();
    });
    EXPECT_EQ(result, 42);
    EXPECT_GT(rt.network().stats().messages_sent, 0u);
    rt.stop();
}

}    // namespace
