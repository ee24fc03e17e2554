// Tracer unit tests plus integration with the runtime's instrumentation
// points (parcel flow and coalescing flush reasons).

#include <coal/trace/tracer.hpp>

#include <coal/parcel/action.hpp>
#include <coal/runtime/runtime.hpp>
#include <coal/threading/future.hpp>

#include <gtest/gtest.h>

#include <thread>

namespace {

int trace_echo(int x)
{
    return x;
}

}    // namespace

COAL_PLAIN_ACTION(trace_echo, trace_echo_action);

namespace {

using coal::trace::event;
using coal::trace::event_kind;
using coal::trace::tracer;

TEST(Tracer, DisabledRecordsNothing)
{
    tracer t;
    t.record(0, event_kind::parcel_put, 1, 2);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, RecordsInOrder)
{
    tracer t;
    t.enable(64);
    for (std::uint64_t i = 0; i != 10; ++i)
        t.record(3, event_kind::message_sent, i, i * 2);

    auto const events = t.snapshot();
    ASSERT_EQ(events.size(), 10u);
    for (std::uint64_t i = 0; i != 10; ++i)
    {
        EXPECT_EQ(events[i].a, i);
        EXPECT_EQ(events[i].b, i * 2);
        EXPECT_EQ(events[i].locality, 3u);
        EXPECT_EQ(events[i].kind, event_kind::message_sent);
        if (i > 0)
        {
            EXPECT_GE(
                events[i].timestamp_ns, events[i - 1].timestamp_ns);
        }
    }
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, RingOverwritesOldest)
{
    tracer t;
    t.enable(16);    // capacity rounds to 16
    for (std::uint64_t i = 0; i != 100; ++i)
        t.record(0, event_kind::parcel_put, i);

    auto const events = t.snapshot();
    ASSERT_EQ(events.size(), 16u);
    // The retained events are the newest 16.
    for (auto const& e : events)
        EXPECT_GE(e.a, 84u);
    EXPECT_EQ(t.recorded(), 100u);
    EXPECT_EQ(t.dropped(), 84u);
}

TEST(Tracer, CapacityRoundsToPowerOfTwo)
{
    tracer t;
    t.enable(100);    // -> 128
    for (std::uint64_t i = 0; i != 128; ++i)
        t.record(0, event_kind::parcel_put, i);
    EXPECT_EQ(t.snapshot().size(), 128u);
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, EnableResetsBuffer)
{
    tracer t;
    t.enable(16);
    t.record(0, event_kind::parcel_put, 1);
    t.enable(16);
    EXPECT_EQ(t.recorded(), 0u);
    EXPECT_TRUE(t.snapshot().empty());
}

TEST(Tracer, ConcurrentWritersLoseNothingUnderCapacity)
{
    tracer t;
    t.enable(1 << 16);
    constexpr int threads = 4;
    constexpr int per_thread = 5000;

    std::vector<std::thread> writers;
    for (int w = 0; w != threads; ++w)
    {
        writers.emplace_back([&t, w] {
            for (int i = 0; i != per_thread; ++i)
                t.record(static_cast<std::uint32_t>(w),
                    event_kind::parcel_put, static_cast<std::uint64_t>(i));
        });
    }
    for (auto& w : writers)
        w.join();

    EXPECT_EQ(t.recorded(),
        static_cast<std::uint64_t>(threads) * per_thread);
    EXPECT_EQ(t.snapshot().size(),
        static_cast<std::size_t>(threads) * per_thread);
}

TEST(Tracer, FormatEventIsReadable)
{
    event e;
    e.timestamp_ns = 12345;
    e.locality = 2;
    e.kind = event_kind::flush_timeout;
    e.a = 0xabc;
    e.b = 7;
    auto const s = coal::trace::format_event(e);
    EXPECT_NE(s.find("flush-timeout"), std::string::npos);
    EXPECT_NE(s.find("L2"), std::string::npos);
    EXPECT_NE(s.find("abc"), std::string::npos);
}

TEST(Tracer, EveryKindHasAName)
{
    for (int k = 0; k <= static_cast<int>(event_kind::message_received); ++k)
    {
        EXPECT_STRNE(
            coal::trace::to_string(static_cast<event_kind>(k)), "?");
    }
}

// Integration: the runtime's instrumentation points produce a coherent
// parcel-flow trace.
TEST(TracerIntegration, ParcelFlowEventsAppear)
{
    auto& t = tracer::global();
    t.enable(1 << 14);

    {
        coal::runtime_config cfg;
        cfg.num_localities = 2;
        cfg.transport = "loopback";
        cfg.apply_coalescing_defaults = false;
        coal::runtime rt(cfg);
        rt.enable_coalescing("trace_echo_action", {8, 2000});

        rt.run_on(0, [](coal::locality& here) {
            auto const other = here.find_remote_localities().front();
            std::vector<coal::threading::future<int>> futures;
            for (int i = 0; i != 64; ++i)
                futures.push_back(here.async<trace_echo_action>(other, i));
            coal::threading::wait_all(futures);
        });
        rt.stop();
    }
    t.disable();

    std::uint64_t puts = 0, queued = 0, size_flushes = 0, sent = 0,
                  received = 0, executed = 0;
    for (auto const& e : t.snapshot())
    {
        switch (e.kind)
        {
        case event_kind::parcel_put:
            ++puts;
            break;
        case event_kind::coalescing_queued:
            ++queued;
            break;
        case event_kind::flush_size:
            ++size_flushes;
            break;
        case event_kind::message_sent:
            ++sent;
            break;
        case event_kind::message_received:
            ++received;
            break;
        case event_kind::parcel_executed:
            ++executed;
            break;
        default:
            break;
        }
    }

    // 64 requests + 64 responses put and queued; 8-parcel batches.
    EXPECT_EQ(puts, 128u);
    EXPECT_EQ(queued, 128u);
    EXPECT_EQ(size_flushes, 16u);
    EXPECT_EQ(sent, received);
    EXPECT_EQ(sent, 16u);
    EXPECT_EQ(executed, 128u);
}

}    // namespace
