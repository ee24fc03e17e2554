/// \file counters_tour.cpp
/// Tour of the performance-counter framework: discovery, HPX-style full
/// names with {instance} and @parameters, scalar and histogram counters,
/// and reset-on-read for per-phase measurements.  Reads every registered
/// counter and exits non-zero if one is invalid (it runs as a ctest).
///
///     ./build/examples/counters_tour

#include <coal/apps/toy_app.hpp>
#include <coal/perf/registry.hpp>

#include <cstdio>
#include <string>

int main()
{
    coal::runtime_config cfg;
    cfg.num_localities = 2;
    // Flow control on, with a deliberately small credit window and a low
    // soft watermark so the /net/flow/* counters and pressure transitions
    // have something to show.
    cfg.flow.enabled = true;
    cfg.flow.initial_window_bytes = 8 * 1024;
    cfg.flow.window_bytes = 16 * 1024;
    cfg.flow.min_window_bytes = 4 * 1024;
    cfg.flow.pool_soft_bytes = 64 * 1024;
    cfg.flow.pool_critical_bytes = 64u << 20;    // far away: nothing shed
    // Membership on so the /net/health gauges are live (idle-link
    // heartbeats tick while the app runs; nobody dies in this tour).
    cfg.membership.enabled = true;
    // Real socket parcelport so the /net/wire/* counters are non-zero:
    // both localities live in this process but their frames take real
    // TCP connections through the kernel.
    cfg.transport = "tcp";
    coal::runtime rt(cfg);

    std::printf("registered counter types:\n");
    for (auto const& [path, description] : rt.counters().discover())
        std::printf("  %-48s %s\n", path.c_str(), description.c_str());

    // Generate some traffic so the counters have something to show.
    coal::apps::toy_params params;
    params.parcels_per_phase = 5000;
    params.phases = 2;
    params.coalescing.nparcels = 32;
    params.coalescing.interval_us = 2000;
    coal::apps::run_toy_app(rt, params);

    std::string const action = coal::apps::toy_action_name();
    auto& counters = rt.counters();

    // Every registered type, read once.  The /coalescing/* family is per
    // action, so those take the toy app's action as their @parameter.
    std::printf("\nevery counter, aggregated over localities:\n");
    int invalid = 0;
    for (auto const& [path, description] : counters.discover())
    {
        std::string const name =
            path.starts_with("/coalescing/") ? path + "@" + action : path;
        auto const v = counters.query(name);
        invalid += v.valid ? 0 : 1;
        if (!v.is_array())
        {
            std::printf("  %-64s = %.3f%s\n", name.c_str(), v.value,
                v.valid ? "" : "  (INVALID)");
            continue;
        }
        // The arrival histogram is an array counter in HPX's wire layout.
        std::printf("  %s:\n    min=%lld us, max=%lld us, width=%lld us, "
                    "counts: ",
            name.c_str(), static_cast<long long>(v.values[0]),
            static_cast<long long>(v.values[1]),
            static_cast<long long>(v.values[2]));
        for (std::size_t i = 3; i < v.values.size(); ++i)
            std::printf("%lld ", static_cast<long long>(v.values[i]));
        std::printf("\n");
    }

    // An {instance} selects one locality instead of the aggregate.
    std::printf("\nper-locality instances:\n");
    for (int loc = 0; loc != 2; ++loc)
    {
        std::string const name = "/threads{locality#" + std::to_string(loc) +
            "}/count/cumulative";
        std::printf(
            "  %-64s = %.3f\n", name.c_str(), counters.query(name).value);
    }

    // Reset-on-read: second read reports only what happened in between.
    double const first =
        counters.query("/parcels/count/sent", /*reset=*/true).value;
    double const second = counters.query("/parcels/count/sent").value;
    std::printf("\nreset-on-read: before=%.0f, after=%.0f\n", first, second);

    rt.stop();
    if (invalid != 0)
        std::printf("\n%d counter(s) read INVALID\n", invalid);
    return invalid == 0 ? 0 : 1;
}
