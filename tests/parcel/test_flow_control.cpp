// Credit-based flow control and overload protection: window deferral and
// release, credit advertisement under pool pressure, admission shedding,
// the credit-starvation slow-peer detector, and the link_down failure
// mode on a capped dark link.

#include <coal/parcel/parcelhandler.hpp>

#include <coal/common/stopwatch.hpp>
#include <coal/net/faulty_transport.hpp>
#include <coal/net/loopback.hpp>
#include <coal/parcel/action.hpp>
#include <coal/serialization/buffer_pool.hpp>
#include <coal/threading/scheduler.hpp>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

namespace {

std::atomic<int> g_flow_sum{0};

int flow_record(int x)
{
    g_flow_sum += x;
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(flow_record, flow_record_action);

namespace {

using coal::pressure_state;
using coal::net::blackout_window;
using coal::net::fault_plan;
using coal::net::faulty_transport;
using coal::net::loopback_transport;
using coal::parcel::delivery_error;
using coal::parcel::flow_params;
using coal::parcel::parcel;
using coal::parcel::parcelhandler;
using coal::parcel::reliability_params;
using coal::serialization::buffer_pool;
using coal::serialization::shared_buffer;
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

/// Flow params small enough that a handful of frames exercises every
/// window/cap path.  Pool watermarks stay off (0) unless a test sets
/// them explicitly on the global pool.
flow_params tight_flow()
{
    flow_params flow;
    flow.enabled = true;
    flow.initial_window_bytes = 512;
    flow.window_bytes = 512;
    flow.min_window_bytes = 256;
    flow.link_soft_bytes = 1024;
    flow.link_inflight_cap_bytes = 64 * 1024;    // high: no accidental link_down
    flow.starvation_trip_us = 20000;    // 20 ms: fast but not flaky
    flow.pool_soft_bytes = 0;
    flow.pool_critical_bytes = 0;
    flow.pool_fallback_cap_bytes = 0;
    return flow;
}

/// Two-locality harness mirroring the reliability tests, with flow
/// control on and a delivery-error recorder installed on ph0.
struct flow_harness
{
    explicit flow_harness(fault_plan plan, flow_params flow = tight_flow(),
        reliability_params rel = fast_reliability())
      : inner(2)
      , faulty(inner, plan)
      , sched0(make_cfg())
      , sched1(make_cfg())
      , ph0(0, faulty, sched0, rel, flow)
      , ph1(1, faulty, sched1, rel, flow)
    {
        g_flow_sum = 0;
        ph0.set_delivery_error_handler(
            [this](delivery_error err, parcel&&) {
                if (err == delivery_error::shed_overload)
                    shed_seen.fetch_add(1);
                else
                    link_down_seen.fetch_add(1);
            });
    }

    ~flow_harness()
    {
        settle();
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

    [[nodiscard]] bool handlers_quiet()
    {
        return ph0.pending_sends() == 0 && ph1.pending_sends() == 0 &&
            ph0.pending_receives() == 0 && ph1.pending_receives() == 0 &&
            ph0.pending_reliability() == 0 && ph1.pending_reliability() == 0 &&
            sched0.pending_tasks() == 0 && sched1.pending_tasks() == 0;
    }

    [[nodiscard]] bool quiet()
    {
        return handlers_quiet() && faulty.in_flight() == 0;
    }

    void settle()
    {
        coal::stopwatch deadline;
        while (deadline.elapsed_ms() < 15000.0)
        {
            if (quiet())
            {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                if (quiet())
                    return;
            }
            if (handlers_quiet() && faulty.in_flight() != 0)
                faulty.drain();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        FAIL() << "flow harness did not settle";
    }

    loopback_transport inner;
    faulty_transport faulty;
    scheduler sched0, sched1;
    parcelhandler ph0, ph1;
    std::atomic<std::uint64_t> shed_seen{0};
    std::atomic<std::uint64_t> link_down_seen{0};
};

parcel make_request(std::uint32_t dst, int arg, std::uint64_t continuation = 0)
{
    parcel p;
    p.dest = dst;
    p.action = flow_record_action::id();
    p.continuation = continuation;
    p.arguments = flow_record_action::make_arguments(arg);
    return p;
}

/// RAII watermark override on the process-global pool — the pool outlives
/// every test, so leaking a watermark would shed other tests' traffic.
struct watermark_guard
{
    watermark_guard(
        std::uint64_t soft, std::uint64_t critical, std::uint64_t cap)
    {
        buffer_pool::global().set_watermarks(soft, critical, cap);
    }

    ~watermark_guard()
    {
        buffer_pool::global().set_watermarks(0, 0, 0);
    }
};

TEST(FlowControl, WindowExhaustionDefersAndReleasesWithoutLoss)
{
    // Healthy link, but a window (512 B) far below the burst volume:
    // sends must defer, credits must release them, and nothing is lost.
    flow_harness h(fault_plan{});

    constexpr int n = 120;
    for (int i = 0; i != n; ++i)
        h.ph0.put_parcel(make_request(1, 1));
    h.settle();

    EXPECT_EQ(g_flow_sum.load(), n);
    EXPECT_EQ(
        h.ph1.counters().parcels_executed.load(), static_cast<unsigned>(n));
    EXPECT_GT(h.ph0.counters().sends_deferred.load(), 0u);
    EXPECT_EQ(h.ph0.counters().sends_released.load(),
        h.ph0.counters().sends_deferred.load());
    // The receiver advertised its window on data/ack frames.
    EXPECT_GT(h.ph0.counters().credit_updates.load(), 0u);
    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), 0u);
    EXPECT_EQ(h.shed_seen.load(), 0u);
}

TEST(FlowControl, DeferredSendsAreVisibleInPendingSends)
{
    // A blacked-out link accumulates deferred jobs; quiescence must see
    // them (pending_sends) until the link heals and they drain.
    fault_plan plan;
    blackout_window w;
    w.src = 0;
    w.dst = 1;
    w.end_us = 200'000;    // forward link dark for the first 200 ms
    plan.blackouts.push_back(w);
    flow_harness h(plan);

    for (int i = 0; i != 40; ++i)
        h.ph0.put_parcel(make_request(1, 1));

    coal::stopwatch deadline;
    bool saw_deferred = false;
    while (deadline.elapsed_ms() < 150.0)
    {
        if (h.ph0.counters().sends_deferred.load() >
            h.ph0.counters().sends_released.load())
        {
            saw_deferred = true;
            EXPECT_GT(h.ph0.pending_sends(), 0u);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(saw_deferred);

    h.settle();
    EXPECT_EQ(g_flow_sum.load(), 40);
}

TEST(FlowControl, CriticalPoolPressureShedsBestEffortOnly)
{
    // Force the pool into critical by holding live slabs past a tiny
    // watermark, then offer best-effort and continuation-bearing parcels.
    flow_harness h(fault_plan{});

    watermark_guard marks(16 * 1024, 64 * 1024, 0);
    std::vector<shared_buffer> hog;
    while (buffer_pool::global().pressure() != pressure_state::critical)
        hog.emplace_back(16 * 1024);
    ASSERT_EQ(h.ph0.flow_pressure(1), pressure_state::critical);

    constexpr int n = 20;
    for (int i = 0; i != n; ++i)
        h.ph0.put_parcel(make_request(1, 1));
    // Continuation-bearing parcels are never shed (a promise waits).
    std::atomic<int> completed{0};
    for (int i = 0; i != 5; ++i)
    {
        auto const id = h.ph0.register_response_callback(
            [&completed](shared_buffer&&) { ++completed; });
        h.ph0.put_parcel(make_request(1, 1, id));
    }

    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), static_cast<unsigned>(n));
    EXPECT_EQ(h.shed_seen.load(), static_cast<unsigned>(n));

    // Pressure subsides: admission reopens, traffic flows again.  The
    // admitted exchange's slabs stay resident until it is fully acked.
    hog.clear();
    h.settle();
    ASSERT_EQ(buffer_pool::global().pressure(), pressure_state::ok);
    for (int i = 0; i != n; ++i)
        h.ph0.put_parcel(make_request(1, 2));
    h.settle();
    // 5 admitted continuation parcels + 20 post-pressure parcels, and the
    // shed ones never arrived.
    EXPECT_EQ(g_flow_sum.load(), 5 * 1 + n * 2);
    EXPECT_EQ(completed.load(), 5);
    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), static_cast<unsigned>(n));
}

TEST(FlowControl, StarvationTripsTheBreaker)
{
    // Blackout long enough that deferred jobs starve past the trip
    // threshold (20 ms) but short enough that the link heals and the
    // harness settles with full delivery of everything not failed.
    fault_plan plan;
    blackout_window w;
    w.src = 0;
    w.dst = 1;
    w.end_us = 150'000;
    plan.blackouts.push_back(w);
    flow_harness h(plan);

    for (int i = 0; i != 40; ++i)
        h.ph0.put_parcel(make_request(1, 1));

    coal::stopwatch deadline;
    while (h.ph0.counters().starvation_trips.load() == 0 &&
        deadline.elapsed_ms() < 1000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    EXPECT_GT(h.ph0.counters().starvation_trips.load(), 0u);
    EXPECT_GT(h.ph0.counters().circuit_breaker_trips.load(), 0u);

    // Heal: deferred jobs release and everything still arrives.
    h.settle();
    EXPECT_EQ(g_flow_sum.load(), 40);
    EXPECT_EQ(h.ph0.counters().link_down_failures.load(), 0u);
}

TEST(FlowControl, CappedDarkLinkFailsSendsWithLinkDown)
{
    // Tiny in-flight cap + long blackout: once the starvation trip opens
    // the breaker and in-flight + deferred bytes hit the cap, further
    // sends fail as link_down instead of queueing forever.
    flow_params flow = tight_flow();
    flow.link_inflight_cap_bytes = 1024;
    fault_plan plan;
    blackout_window w;
    w.src = 0;
    w.dst = 1;
    w.end_us = 300'000;
    plan.blackouts.push_back(w);
    flow_harness h(plan, flow);

    constexpr int n = 200;
    for (int i = 0; i != n; ++i)
    {
        h.ph0.put_parcel(make_request(1, 1));
        if (i % 20 == 19)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    coal::stopwatch deadline;
    while (h.ph0.counters().link_down_failures.load() == 0 &&
        deadline.elapsed_ms() < 2000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    EXPECT_GT(h.ph0.counters().link_down_failures.load(), 0u);
    h.settle();

    // Exactly-once accounting: every offered parcel was either delivered,
    // failed as link_down, or shed at admission once the saturated link
    // pushed flow_pressure to critical — and each error was surfaced.
    std::uint64_t const failed = h.link_down_seen.load();
    std::uint64_t const shed = h.shed_seen.load();
    EXPECT_EQ(h.ph0.counters().link_down_failures.load(), failed);
    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), shed);
    EXPECT_EQ(g_flow_sum.load(), n - static_cast<int>(failed + shed));
    EXPECT_EQ(h.ph1.counters().parcels_executed.load(),
        static_cast<std::uint64_t>(n) - failed - shed);
}

TEST(FlowControl, DisabledFlowAddsNothing)
{
    // Reliability on, flow off: no credits, no deferrals, no pressure.
    flow_params off;
    off.enabled = false;
    flow_harness h(fault_plan{}, off);

    for (int i = 0; i != 50; ++i)
        h.ph0.put_parcel(make_request(1, 1));
    h.settle();

    EXPECT_EQ(g_flow_sum.load(), 50);
    EXPECT_EQ(h.ph0.counters().sends_deferred.load(), 0u);
    EXPECT_EQ(h.ph0.counters().credit_updates.load(), 0u);
    EXPECT_EQ(h.ph0.counters().parcels_shed.load(), 0u);
    EXPECT_EQ(h.ph0.flow_pressure(1), pressure_state::ok);
    EXPECT_EQ(h.ph0.current_pressure(), pressure_state::ok);
}

}    // namespace
