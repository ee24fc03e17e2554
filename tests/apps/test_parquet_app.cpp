// Parquet skeleton: communication volume matches the paper's formula
// (8·Nc² parcels of Nc elements per iteration), the checksum proves
// conservation under coalescing, and per-iteration metrics are recorded.

#include <coal/apps/parquet_app.hpp>

#include <gtest/gtest.h>

namespace {

using coal::runtime;
using coal::runtime_config;
using coal::apps::parquet_params;
using coal::apps::run_parquet_app;

runtime_config loopback(std::uint32_t localities = 4)
{
    runtime_config cfg;
    cfg.num_localities = localities;
    cfg.transport = "loopback";
    cfg.apply_coalescing_defaults = false;
    return cfg;
}

TEST(ParquetApp, ChecksumConservationWithCoalescing)
{
    runtime rt(loopback());
    parquet_params params;
    params.nc = 8;    // 512 parcels/iteration
    params.iterations = 2;
    params.coalescing = {4, 2000};
    params.compute_flops_per_parcel = 50;

    auto const result = run_parquet_app(rt, params);
    EXPECT_TRUE(result.checksum_ok)
        << "checksum error " << result.checksum_error;
    ASSERT_EQ(result.iterations.size(), 2u);
    rt.stop();
}

TEST(ParquetApp, ChecksumConservationWithoutCoalescing)
{
    runtime rt(loopback());
    parquet_params params;
    params.nc = 8;
    params.iterations = 1;
    params.enable_coalescing = false;
    params.compute_flops_per_parcel = 50;

    auto const result = run_parquet_app(rt, params);
    EXPECT_TRUE(result.checksum_ok);
    rt.stop();
}

TEST(ParquetApp, ParcelVolumeMatchesPaperFormula)
{
    runtime rt(loopback());
    parquet_params params;
    params.nc = 8;
    params.iterations = 1;
    params.enable_coalescing = false;
    params.compute_flops_per_parcel = 0;

    run_parquet_app(rt, params);
    rt.quiesce();

    // 8·Nc² request parcels + as many responses.
    auto const expected_requests = 8ull * params.nc * params.nc;
    EXPECT_EQ(rt.counters().query("/parcels/count/sent").value,
        static_cast<double>(2 * expected_requests));
    rt.stop();
}

TEST(ParquetApp, CumulativeTimesAreMonotone)
{
    runtime rt(loopback());
    parquet_params params;
    params.nc = 6;
    params.iterations = 3;
    params.coalescing = {4, 2000};
    params.compute_flops_per_parcel = 20;

    auto const result = run_parquet_app(rt, params);
    ASSERT_EQ(result.iterations.size(), 3u);
    double last = 0.0;
    for (auto const& iter : result.iterations)
    {
        EXPECT_GT(iter.cumulative_s, last);
        last = iter.cumulative_s;
        EXPECT_GT(iter.metrics.duration_s, 0.0);
        EXPECT_GT(iter.metrics.tasks, 0u);
    }
    rt.stop();
}

TEST(ParquetApp, WorksOnTwoLocalities)
{
    runtime rt(loopback(2));
    parquet_params params;
    params.nc = 6;
    params.iterations = 1;
    params.coalescing = {4, 2000};
    params.compute_flops_per_parcel = 20;

    auto const result = run_parquet_app(rt, params);
    EXPECT_TRUE(result.checksum_ok);
    rt.stop();
}

TEST(ParquetApp, ParcelsPerLocalityOverride)
{
    runtime rt(loopback());
    parquet_params params;
    params.nc = 8;
    params.iterations = 1;
    params.parcels_per_locality = 10;
    params.enable_coalescing = false;
    params.compute_flops_per_parcel = 0;

    run_parquet_app(rt, params);
    rt.quiesce();
    EXPECT_EQ(rt.counters().query("/parcels/count/sent").value,
        2.0 * 4 * 10);
    rt.stop();
}

TEST(ParquetApp, CoalescingReducesParquetMessages)
{
    std::uint64_t without = 0, with = 0;
    {
        runtime rt(loopback());
        parquet_params params;
        params.nc = 8;
        params.iterations = 1;
        params.enable_coalescing = false;
        params.compute_flops_per_parcel = 0;
        run_parquet_app(rt, params);
        rt.quiesce();
        without = rt.network().stats().messages_sent;
        rt.stop();
    }
    {
        runtime rt(loopback());
        parquet_params params;
        params.nc = 8;
        params.iterations = 1;
        params.coalescing = {4, 5000};
        params.compute_flops_per_parcel = 0;
        run_parquet_app(rt, params);
        rt.quiesce();
        with = rt.network().stats().messages_sent;
        rt.stop();
    }
    EXPECT_LT(with, without / 2);
}

}    // namespace
