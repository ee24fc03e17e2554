// The toy application (Listing 1) driver: phase structure, measurement
// plumbing, per-phase parameter schedules (Fig. 9 machinery).

#include <coal/apps/toy_app.hpp>

#include <gtest/gtest.h>

namespace {

using coal::runtime;
using coal::runtime_config;
using coal::apps::run_toy_app;
using coal::apps::toy_params;

runtime_config loopback()
{
    runtime_config cfg;
    cfg.num_localities = 2;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    return cfg;
}

TEST(ToyApp, RunsAllPhasesAndReportsMetrics)
{
    runtime rt(loopback());
    toy_params params;
    params.parcels_per_phase = 300;
    params.phases = 3;
    params.coalescing = {16, 2000};

    auto const result = run_toy_app(rt, params);
    ASSERT_EQ(result.phases.size(), 3u);
    for (unsigned i = 0; i != 3; ++i)
    {
        EXPECT_EQ(result.phases[i].phase, i);
        EXPECT_EQ(result.phases[i].nparcels, 16u);
        EXPECT_GT(result.phases[i].metrics.duration_s, 0.0);
        // Both localities send 300 requests -> >= 1200 parcels executed
        // per phase (request + response on each side).  Tasks are fewer:
        // the batched receive pipeline executes remote parcels in chunks
        // of >= 8, so the floor is 1200 / 8.
        EXPECT_GE(result.phases[i].metrics.parcels_executed, 1200u);
        EXPECT_GE(result.phases[i].metrics.tasks, 1200u / 8);
    }
    EXPECT_GT(result.total_s, 0.0);
    rt.stop();
}

TEST(ToyApp, ActionNameIsRegistered)
{
    EXPECT_STREQ(coal::apps::toy_action_name(), "toy_get_cplx_action");
    EXPECT_NE(coal::parcel::action_registry::instance().find_by_name(
                  coal::apps::toy_action_name()),
        nullptr);
}

TEST(ToyApp, ToyFunctionMatchesListing1)
{
    auto const v = coal::apps::toy_get_cplx();
    EXPECT_DOUBLE_EQ(v.real(), 13.3);
    EXPECT_DOUBLE_EQ(v.imag(), -23.8);
}

TEST(ToyApp, CoalescingOffMeansOneParcelPerMessage)
{
    runtime rt(loopback());
    toy_params params;
    params.parcels_per_phase = 100;
    params.phases = 1;
    params.enable_coalescing = false;

    auto const result = run_toy_app(rt, params);
    ASSERT_EQ(result.phases.size(), 1u);
    EXPECT_EQ(result.phases[0].nparcels, 1u);
    rt.quiesce();
    // 100 requests + 100 responses per locality = 400 messages.
    EXPECT_EQ(rt.network().stats().messages_sent, 400u);
    rt.stop();
}

TEST(ToyApp, CoalescingOnReducesMessages)
{
    runtime rt(loopback());
    toy_params params;
    params.parcels_per_phase = 320;
    params.phases = 1;
    params.coalescing = {32, 5000};

    run_toy_app(rt, params);
    rt.quiesce();
    // 4×320 parcels total / 32 per message ≈ 40 + partial flush slack.
    EXPECT_LE(rt.network().stats().messages_sent, 80u);
    rt.stop();
}

TEST(ToyApp, ScheduleChangesParametersPerPhase)
{
    runtime rt(loopback());
    toy_params params;
    params.parcels_per_phase = 200;
    params.phases = 4;
    params.coalescing = {128, 2000};
    params.nparcels_schedule = {128, 1, 32};    // short: last entry sticks

    auto const result = run_toy_app(rt, params);
    ASSERT_EQ(result.phases.size(), 4u);
    EXPECT_EQ(result.phases[0].nparcels, 128u);
    EXPECT_EQ(result.phases[1].nparcels, 1u);
    EXPECT_EQ(result.phases[2].nparcels, 32u);
    EXPECT_EQ(result.phases[3].nparcels, 32u);
    rt.stop();
}

TEST(ToyApp, PhaseMetricsRecordMessageVolume)
{
    runtime rt(loopback());
    toy_params params;
    params.parcels_per_phase = 64;
    params.phases = 2;
    params.coalescing = {8, 2000};

    auto const result = run_toy_app(rt, params);
    for (auto const& phase : result.phases)
    {
        EXPECT_GT(phase.metrics.messages_sent, 0u);
        EXPECT_GT(phase.metrics.bytes_sent, 0u);
        EXPECT_GE(phase.metrics.network_overhead, 0.0);
    }
    rt.stop();
}

}    // namespace
