/// \file coal_bench.cpp
/// End-to-end benchmark harness for coal over the real Unix-domain-socket
/// parcelport: two localities with one worker each, load from this one
/// process, adaptive coalescing off.
///
///     coal_bench <toy|bulk|rpc> <seed> <seconds> <trace 0|1> <socket-dir>
///
/// Untraced runs (trace 0) measure the end-to-end metrics, spread over
/// several runtimes set up one after another.  A traced run (trace 1)
/// uses one runtime, spends half its time untraced and half with the
/// parcel-flow tracer on, then runs standalone layer calibrations shaped
/// like the workload, and reports the per-layer metrics.
/// perfbench/README.md defines every metric.  Every run checks the
/// program's outputs and counts each miss as a failed call.
///
/// The last line of standard output is one JSON object (see run.py, which
/// builds this program, adds host information and prints the result).

#include <coal/apps/parquet_app.hpp>
#include <coal/apps/toy_app.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/net/socket_transport.hpp>
#include <coal/net/wire_format.hpp>
#include <coal/parcel/action.hpp>
#include <coal/parcel/action_registry.hpp>
#include <coal/parcel/parcel.hpp>
#include <coal/runtime/runtime.hpp>
#include <coal/serialization/buffer_pool.hpp>
#include <coal/threading/future.hpp>
#include <coal/threading/scheduler.hpp>
#include <coal/trace/tracer.hpp>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

// ---- actions the benchmark adds ---------------------------------------------

std::vector<std::uint8_t> bench_echo(std::vector<std::uint8_t> payload)
{
    return payload;
}

/// Same argument shape as the parquet rotation parcel (destination,
/// row offset, slab of Nc complex doubles); used where the bulk workload
/// needs parcels built outside run_parquet_app.
void bench_slab(
    std::uint32_t, std::uint64_t, std::vector<std::complex<double>>)
{
}

COAL_PLAIN_ACTION(bench_echo, bench_echo_action);
COAL_PLAIN_ACTION(bench_slab, bench_slab_action);

namespace {

using coal::now_ns;

// ---- small helpers ----------------------------------------------------------

/// splitmix64: the benchmark's only source of seeded inputs.
class seeded_rng
{
public:
    explicit seeded_rng(std::uint64_t seed)
      : state_(seed)
    {
    }

    std::uint64_t next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    std::uint64_t below(std::uint64_t n)
    {
        return next() % n;
    }

private:
    std::uint64_t state_;
};

double process_cpu_s()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Restart the process's peak-RSS mark (Linux clear_refs, value 5), so
/// peak_rss_mb() covers only what follows.  Without it the mark covers
/// the process lifetime.
void reset_peak_rss()
{
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w"))
    {
        std::fputs("5", f);
        std::fclose(f);
    }
}

double lifetime_peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;    // KiB -> MiB
}

/// Peak resident set in MiB (VmHWM), or ru_maxrss if that is unreadable.
double peak_rss_mb()
{
    if (std::FILE* f = std::fopen("/proc/self/status", "r"))
    {
        char line[256];
        long kib = -1;
        while (std::fgets(line, sizeof line, f) != nullptr)
        {
            if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
                break;
        }
        std::fclose(f);
        if (kib >= 0)
            return static_cast<double>(kib) / 1024.0;
    }
    return lifetime_peak_rss_mb();
}

std::int64_t thread_cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void spin_until(std::int64_t deadline_ns)
{
    while (now_ns() < deadline_ns)
    {
    }
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double const pos = q * static_cast<double>(v.size() - 1);
    auto const lo = static_cast<std::size_t>(pos);
    std::size_t const hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/// The frame size below which half of all frame bytes travel: the size
/// that carries the workload's bytes, not the count of small control
/// frames (acks, void responses).
double byte_weighted_median(std::vector<std::uint64_t> sizes)
{
    if (sizes.empty())
        return 8.0;
    std::sort(sizes.begin(), sizes.end());
    std::uint64_t total = 0;
    for (auto b : sizes)
        total += b;
    std::uint64_t seen = 0;
    for (auto b : sizes)
    {
        seen += b;
        if (2 * seen >= total)
            return static_cast<double>(std::max<std::uint64_t>(b, 8));
    }
    return static_cast<double>(sizes.back());
}

/// Keeps a calibration loop's result alive so the loop is not optimised
/// away.
void keep(std::uint64_t value)
{
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_xor(value, std::memory_order_relaxed);
}

double ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ---- result document --------------------------------------------------------

struct base_t
{
    double num = 0.0;
    std::string num_label;
    double den = 0.0;
    std::string den_label;
};

class report
{
public:
    void metric(std::string const& name, double value, char const* unit)
    {
        metrics_[name] = {value, unit};
    }

    /// A ratio metric, printed with its numerator and denominator.
    void ratio_metric(std::string const& name, double num,
        std::string num_label, double den, std::string den_label,
        char const* unit, double scale = 1.0)
    {
        metric(name, scale * ratio(num, den), unit);
        bases_[name] = {num, std::move(num_label), den, std::move(den_label)};
    }

    [[nodiscard]] double value(std::string const& name) const
    {
        auto it = metrics_.find(name);
        return it == metrics_.end() ? 0.0 : it->second.value;
    }

    void info(std::string const& key, double value)
    {
        info_[key] = value;
    }

    void check(std::string const& name, bool ok, std::string detail)
    {
        checks_.push_back({name, ok, std::move(detail)});
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void print(std::string const& workload, int trace) const
    {
        std::printf("{\"workload\":\"%s\",\"trace\":%d,\"attempted\":%llu,"
                    "\"failed\":%llu,\"checks\":[",
            workload.c_str(), trace,
            static_cast<unsigned long long>(attempted),
            static_cast<unsigned long long>(failed));
        char const* sep = "";
        for (auto const& c : checks_)
        {
            std::printf("%s{\"name\":\"%s\",\"ok\":%s,\"detail\":\"%s\"}", sep,
                c.name.c_str(), c.ok ? "true" : "false", c.detail.c_str());
            sep = ",";
        }
        std::printf("],\"metrics\":{");
        sep = "";
        for (auto const& [name, m] : metrics_)
        {
            std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", sep,
                name.c_str(), finite(m.value), m.unit);
            sep = ",";
        }
        std::printf("},\"bases\":{");
        sep = "";
        for (auto const& [name, b] : bases_)
        {
            std::printf("%s\"%s\":{\"num\":%.17g,\"num_label\":\"%s\","
                        "\"den\":%.17g,\"den_label\":\"%s\"}",
                sep, name.c_str(), finite(b.num), b.num_label.c_str(),
                finite(b.den), b.den_label.c_str());
            sep = ",";
        }
        std::printf("},\"info\":{");
        sep = "";
        for (auto const& [key, value] : info_)
        {
            std::printf("%s\"%s\":%.17g", sep, key.c_str(), finite(value));
            sep = ",";
        }
        std::printf("}}\n");
    }

private:
    static double finite(double v)
    {
        return std::isfinite(v) ? v : 0.0;
    }

    struct metric_t
    {
        double value;
        char const* unit;
    };

    struct check_t
    {
        std::string name;
        bool ok;
        std::string detail;
    };

    std::map<std::string, metric_t> metrics_;
    std::map<std::string, base_t> bases_;
    std::map<std::string, double> info_;
    std::vector<check_t> checks_;
};

// ---- workloads --------------------------------------------------------------

enum class workload
{
    toy,
    bulk,
    rpc
};

struct options
{
    workload kind = workload::toy;
    std::string name;
    std::uint64_t seed = 0;
    double seconds = 1.0;
    bool trace = false;
    std::string socket_dir;
};

/// The generated inputs of one run (all derived from the seed).
struct inputs
{
    std::size_t toy_parcels_per_phase = 0;
    std::size_t bulk_parcels_per_locality = 0;
    std::vector<std::vector<std::uint8_t>> rpc_payloads;
    std::vector<std::int64_t> rpc_think_ns;
};

constexpr unsigned toy_phases_per_app_run = 1;
constexpr std::uint32_t bulk_nc = 256;    // 4 KiB slab per parcel
/// Iteration time per run_parquet_app call (one bulk window).  Each call
/// re-creates and checksums the two tensors, so calls are long and that
/// scaffolding is measured once and subtracted (see bulk_calibration).
constexpr double bulk_call_seconds = 1.0;
constexpr std::size_t rpc_payload_bytes = 64;
constexpr std::size_t rpc_inputs = 4096;
/// Set-ups before each runtime that is kept; the earlier ones are stopped
/// again.  Spread over the run, they sample the host at several times.
constexpr int setups_per_runtime = 11;
constexpr double warmup_seconds = 1.0;
/// An untraced run splits its timed part over this many runtimes; each
/// one after the first is set up anew and warmed up briefly.
constexpr int runtimes_per_run = 10;
constexpr double runtime_warmup_seconds = 0.25;

coal::coalescing::coalescing_params workload_coalescing(workload w)
{
    switch (w)
    {
    case workload::toy:
        return {128, 4000};
    case workload::bulk:
        return {16, 5000};
    case workload::rpc:
        return {16, 100};
    }
    return {};
}

inputs make_inputs(workload w, std::uint64_t seed)
{
    seeded_rng rng(seed * 0x2545f4914f6cdd1dull + static_cast<int>(w));
    inputs in;
    // Phase and iteration sizes stay multiples of the coalescing batch, so
    // a phase never ends on a partial batch waiting out the flush timer.
    in.toy_parcels_per_phase = 128 * (64 + rng.below(2));
    in.bulk_parcels_per_locality = 16 * (32 + rng.below(2));
    in.rpc_payloads.resize(rpc_inputs);
    in.rpc_think_ns.resize(rpc_inputs);
    for (std::size_t i = 0; i != rpc_inputs; ++i)
    {
        in.rpc_payloads[i].resize(rpc_payload_bytes);
        for (auto& b : in.rpc_payloads[i])
            b = static_cast<std::uint8_t>(rng.next());
        in.rpc_think_ns[i] = static_cast<std::int64_t>(rng.below(200'001));
    }
    return in;
}

coal::runtime_config workload_config(options const& opt)
{
    coal::runtime_config cfg;
    cfg.num_localities = 2;
    cfg.workers_per_locality = 1;
    cfg.transport = "uds";
    cfg.pin_transport = true;
    cfg.socket.uds_dir = opt.socket_dir;
    if (opt.kind == workload::bulk)
    {
        cfg.reliability.enabled = true;
        cfg.flow.enabled = true;
    }
    return cfg;
}

/// What a timed stretch of one workload produced.  Throughput and latency
/// are sampled once per unit of the workload (a toy phase, a bulk
/// iteration, an rpc call), CPU once per window (a toy or bulk app call,
/// an rpc call); each is reported as the median of its samples, so a host
/// stall that hits a few units does not move it.
struct phase_result
{
    double seconds = 0.0;    ///< timed run
    std::uint64_t calls = 0;
    std::uint64_t failed = 0;
    double bytes_per_call = 0.0;    ///< argument + result bytes per call
    double app_bytes = 0.0;    ///< argument + result bytes delivered
    std::vector<double> unit_calls_per_s;
    std::vector<double> window_cpu_us_per_call;
    std::vector<double> latency_us;
    std::vector<double> put_ns;    ///< timed locality::async calls (rpc)
    std::vector<std::string> failures;

    void add_window(std::uint64_t n, double window_s, double cpu_s)
    {
        calls += n;
        seconds += window_s;
        app_bytes += static_cast<double>(n) * bytes_per_call;
        window_cpu_us_per_call.push_back(
            ratio(cpu_s * 1e6, static_cast<double>(n)));
    }

    /// One unit of work: `n` calls completed in `unit_s`, a latency sample.
    void add_unit(std::uint64_t n, double unit_s, double latency_us_sample)
    {
        unit_calls_per_s.push_back(ratio(static_cast<double>(n), unit_s));
        latency_us.push_back(latency_us_sample);
    }

    [[nodiscard]] double calls_per_s() const
    {
        return median(unit_calls_per_s);
    }

    void fail(std::uint64_t n, std::string why)
    {
        failed += n;
        if (failures.size() < 4)
            failures.push_back(std::move(why));
    }

    void merge(phase_result const& o)
    {
        seconds += o.seconds;
        calls += o.calls;
        failed += o.failed;
        bytes_per_call = o.bytes_per_call;
        app_bytes += o.app_bytes;
        auto append = [](auto& to, auto const& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(unit_calls_per_s, o.unit_calls_per_s);
        append(window_cpu_us_per_call, o.window_cpu_us_per_call);
        append(latency_us, o.latency_us);
        append(put_ns, o.put_ns);
        for (auto const& f : o.failures)
        {
            if (failures.size() < 4)
                failures.push_back(f);
        }
    }
};

/// Calls that fail through the delivery-error path, summed over both
/// localities (shed, link-down and peer-failed parcels).
std::uint64_t delivery_errors(coal::runtime& rt)
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i != rt.num_localities(); ++i)
    {
        auto const& c = rt.get_locality(i).parcels().counters();
        n += c.parcels_shed.load() + c.link_down_failures.load() +
            c.peer_failed_failures.load();
    }
    return n;
}

std::uint64_t parcels_executed(coal::runtime& rt)
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i != rt.num_localities(); ++i)
        n += rt.get_locality(i).parcels().counters().parcels_executed.load();
    return n;
}

double echo_bytes(std::vector<std::uint8_t> const& payload)
{
    return static_cast<double>(
        coal::serialization::to_bytes(payload).size());
}

/// One echo call from a thread outside the runtime: latency in µs, or a
/// negative value when the echo came back wrong.  `put_ns` receives the
/// time locality::async took.
double timed_echo(coal::locality& here,
    std::vector<std::uint8_t> const& payload, double& put_ns)
{
    std::int64_t const issue = now_ns();
    auto f = here.async<bench_echo_action>(coal::agas::locality_id{1}, payload);
    std::int64_t const put = now_ns();
    bool const ok = f.get() == payload;
    std::int64_t const done = now_ns();
    put_ns = static_cast<double>(put - issue);
    return ok ? static_cast<double>(done - issue) / 1e3 : -1.0;
}

phase_result run_toy(coal::runtime& rt, inputs const& in, double seconds)
{
    coal::apps::toy_params p;
    p.parcels_per_phase = in.toy_parcels_per_phase;
    p.phases = toy_phases_per_app_run;
    p.coalescing = workload_coalescing(workload::toy);

    phase_result r;
    r.bytes_per_call = static_cast<double>(
        coal::serialization::to_bytes(coal::apps::toy_get_cplx()).size());
    // A response's execution is counted just after its future is set, so
    // let the calls before this phase finish counting first.
    rt.quiesce();
    std::uint64_t const executed0 = parcels_executed(rt);
    std::uint64_t const errors0 = delivery_errors(rt);
    std::int64_t const end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < end)
    {
        double const cpu0 = process_cpu_s();
        std::int64_t const t0 = now_ns();
        auto const res = coal::apps::run_toy_app(rt, p);
        // Both localities issue parcels_per_phase calls per phase.
        r.add_window(2 * p.parcels_per_phase * res.phases.size(),
            static_cast<double>(now_ns() - t0) / 1e9, process_cpu_s() - cpu0);
        // A phase runs from its first put to its last future.
        for (auto const& ph : res.phases)
        {
            r.add_unit(2 * p.parcels_per_phase, ph.metrics.duration_s,
                ph.metrics.duration_s * 1e6);
        }
    }

    // Every call executes one request and one response parcel.
    rt.quiesce();
    std::uint64_t const expected = 2 * r.calls;
    std::uint64_t const executed = parcels_executed(rt) - executed0;
    if (executed != expected)
    {
        std::uint64_t const miss =
            executed > expected ? executed - expected : expected - executed;
        r.fail(std::max<std::uint64_t>(1, miss / 2),
            "parcels_executed " + std::to_string(executed) + " != " +
                std::to_string(expected) + " expected");
    }
    if (std::uint64_t const errors = delivery_errors(rt) - errors0)
        r.fail(errors, "delivery errors " + std::to_string(errors));
    return r;
}

/// What run_parquet_app costs besides its iterations: every call frees,
/// re-allocates and zeroes the two tensors (2 x Nc^3/L complex doubles,
/// 256 MiB at Nc = 256) and sums them for the checksum.  That is page
/// faults and memory bandwidth, not coal, so it is measured once per run
/// and taken out of the bulk figures.
struct bulk_calibration
{
    double scaffold_cpu_s = 0.0;    ///< CPU of a call with iterations = 0
    double iteration_s = 0.05;    ///< running estimate, sizes the calls
};

coal::apps::parquet_params bulk_params(inputs const& in, unsigned iterations)
{
    coal::apps::parquet_params p;
    p.nc = bulk_nc;
    p.iterations = iterations;
    p.coalescing = workload_coalescing(workload::bulk);
    p.parcels_per_locality = in.bulk_parcels_per_locality;
    return p;
}

double bulk_tensor_mib()
{
    double const elements = static_cast<double>(bulk_nc) * bulk_nc * bulk_nc /
        2.0;    // per locality, 2 localities
    return 2.0 * elements * sizeof(std::complex<double>) / (1024.0 * 1024.0);
}

/// Median CPU of three scaffold-only calls (configure + checksum).
/// Returns false if one of them failed its checksum.
bool measure_bulk_scaffold(
    coal::runtime& rt, inputs const& in, bulk_calibration& bulk)
{
    std::vector<double> cpu;
    bool ok = true;
    for (int i = 0; i != 3; ++i)
    {
        double const cpu0 = process_cpu_s();
        auto const res = coal::apps::run_parquet_app(rt, bulk_params(in, 0));
        cpu.push_back(process_cpu_s() - cpu0);
        ok = ok && res.checksum_ok;
    }
    bulk.scaffold_cpu_s = median(cpu);
    return ok;
}

phase_result run_bulk(coal::runtime& rt, inputs const& in, double seconds,
    bulk_calibration& bulk)
{
    phase_result r;
    std::vector<std::complex<double>> const chunk(
        bulk_nc, std::complex<double>(0.5, -0.25));
    r.bytes_per_call = static_cast<double>(
        bench_slab_action::make_arguments(
            std::uint32_t{1}, std::uint64_t{0}, chunk)
            .size());
    std::uint64_t const per_iteration = 2 * in.bulk_parcels_per_locality;
    std::uint64_t const errors0 = delivery_errors(rt);
    std::int64_t const end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    int const app_calls = std::max(
        1, static_cast<int>(std::lround(seconds / bulk_call_seconds)));
    double const call_target_s = seconds / app_calls;
    for (int call = 0; call != app_calls && (call == 0 || now_ns() < end);
         ++call)
    {
        auto const p = bulk_params(in,
            std::max(1u,
                static_cast<unsigned>(call_target_s / bulk.iteration_s)));
        double const cpu0 = process_cpu_s();
        auto const res = coal::apps::run_parquet_app(rt, p);
        double const cpu_s = process_cpu_s() - cpu0 - bulk.scaffold_cpu_s;

        double call_s = 0.0;
        for (auto const& it : res.iterations)
        {
            r.add_unit(per_iteration, it.metrics.duration_s,
                it.metrics.duration_s * 1e6);
            call_s += it.metrics.duration_s;
        }
        std::uint64_t const calls = per_iteration * res.iterations.size();
        r.add_window(calls, call_s, cpu_s);
        if (!res.iterations.empty())
            bulk.iteration_s = call_s / res.iterations.size();
        if (!res.checksum_ok)
        {
            r.fail(calls,
                "checksum error " + std::to_string(res.checksum_error));
        }
    }
    if (std::uint64_t const errors = delivery_errors(rt) - errors0)
        r.fail(errors, "delivery errors " + std::to_string(errors));
    return r;
}

phase_result run_rpc(coal::runtime& rt, inputs const& in, double seconds)
{
    auto& here = rt.get_locality(0);

    phase_result r;
    r.bytes_per_call = 2.0 * echo_bytes(in.rpc_payloads[0]);
    std::uint64_t const errors0 = delivery_errors(rt);
    std::int64_t const end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    // A cycle (one call plus its think work) is both the unit and the CPU
    // window: process CPU is read at every cycle boundary, less the
    // caller's own think spin.
    double cpu_mark = process_cpu_s();
    std::int64_t t_mark = now_ns();
    for (std::size_t i = 0; t_mark < end; ++i)
    {
        double put_ns = 0.0;
        double const us =
            timed_echo(here, in.rpc_payloads[i % rpc_inputs], put_ns);
        r.put_ns.push_back(put_ns);
        // Seeded think work between calls (keeps the two workers' idle
        // polls from locking in phase with the caller).
        std::int64_t const think0 = thread_cpu_ns();
        spin_until(now_ns() + in.rpc_think_ns[i % rpc_inputs]);
        std::int64_t const think_cpu_ns = thread_cpu_ns() - think0;

        double const cpu = process_cpu_s();
        std::int64_t const t = now_ns();
        double const cycle_s = static_cast<double>(t - t_mark) / 1e9;
        r.add_window(1, cycle_s,
            cpu - cpu_mark - static_cast<double>(think_cpu_ns) / 1e9);
        if (us < 0.0)
            r.fail(1, "echo mismatch at call " + std::to_string(i));
        else
            r.add_unit(1, cycle_s, us);
        cpu_mark = cpu;
        t_mark = t;
    }
    if (std::uint64_t const errors = delivery_errors(rt) - errors0)
        r.fail(errors, "delivery errors " + std::to_string(errors));
    return r;
}

phase_result run_phase(options const& opt, coal::runtime& rt,
    inputs const& in, double seconds, bulk_calibration& bulk)
{
    switch (opt.kind)
    {
    case workload::toy:
        return run_toy(rt, in, seconds);
    case workload::bulk:
        return run_bulk(rt, in, seconds, bulk);
    case workload::rpc:
        return run_rpc(rt, in, seconds);
    }
    return {};
}

/// Transport conservation after quiescence: every data frame handed to
/// the wire was delivered, none dropped.  Returns the frames unaccounted.
std::uint64_t check_conservation(coal::runtime& rt, report& rep)
{
    rt.quiesce();
    auto const s = rt.network().stats();
    bool const balanced =
        s.messages_sent == s.messages_delivered + s.messages_dropped;
    bool const ok = balanced && s.messages_dropped == 0;
    rep.check("transport_conservation", ok,
        "sent " + std::to_string(s.messages_sent) + " delivered " +
            std::to_string(s.messages_delivered) + " dropped " +
            std::to_string(s.messages_dropped));
    if (ok)
        return 0;
    std::uint64_t const diff = s.messages_sent >
            s.messages_delivered + s.messages_dropped ?
        s.messages_sent - s.messages_delivered - s.messages_dropped :
        s.messages_delivered + s.messages_dropped - s.messages_sent;
    return std::max<std::uint64_t>(1, diff + s.messages_dropped);
}

// ---- set-up -----------------------------------------------------------------

struct setup_result
{
    std::unique_ptr<coal::runtime> rt;
    std::vector<double> setup_s;
    std::vector<double> stop_s;
    std::uint64_t calls = 0;
    std::uint64_t failed = 0;

    /// Construct a runtime and complete a first call on both links; the
    /// time this takes is one setup_s sample.
    void start(options const& opt)
    {
        std::vector<std::uint8_t> const probe{1, 2, 3, 4, 5, 6, 7, 8};
        std::int64_t const t0 = now_ns();
        rt = std::make_unique<coal::runtime>(workload_config(opt));
        if (opt.kind == workload::rpc)
        {
            rt->enable_coalescing(bench_echo_action::action_name,
                workload_coalescing(workload::rpc));
        }
        auto f01 = rt->get_locality(0).async<bench_echo_action>(
            coal::agas::locality_id{1}, probe);
        auto f10 = rt->get_locality(1).async<bench_echo_action>(
            coal::agas::locality_id{0}, probe);
        bool const ok = f01.get() == probe && f10.get() == probe;
        setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        calls += 2;
        failed += ok ? 0 : 2;
    }

    void stop()
    {
        std::int64_t const t0 = now_ns();
        rt->stop();
        stop_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        rt.reset();
    }
};

/// Set up `setups_per_runtime` times and keep the last runtime running.
void set_up(options const& opt, setup_result& s)
{
    for (int i = 0; i != setups_per_runtime; ++i)
    {
        if (s.rt)
            s.stop();
        s.start(opt);
    }
}

// ---- per-layer measurement (traced run) --------------------------------------

/// Cumulative counter values read through the runtime's counter catalogue.
struct counter_sample
{
    std::map<std::string, double> values;
    coal::threading::scheduler_snapshot sched{};
    coal::serialization::buffer_pool_stats pool{};
    coal::net::socket_wire_stats wire{};

    double operator[](std::string const& k) const
    {
        auto it = values.find(k);
        return it == values.end() ? 0.0 : it->second;
    }
};

std::vector<std::string> counter_names(std::string const& action)
{
    return {
        "/coalescing/count/parcels@" + action,
        "/coalescing/count/messages@" + action,
        "/messages/count/sent",
        "/data/count/sent",
        "/parcels/count/received",
        "/threads/receive-pipeline/count/drains",
        "/threads/receive-pipeline/count/frames",
        "/threads/receive-pipeline/count/chunks",
        "/net/count/retransmits",
        "/net/count/acks",
        "/net/flow/count/deferrals",
        "/net/wire/count/bytes-sent",
        "/net/wire/count/frames-sent",
    };
}

counter_sample sample_counters(coal::runtime& rt, std::string const& action)
{
    counter_sample s;
    for (auto const& name : counter_names(action))
    {
        auto const v = rt.counters().query(name);
        s.values[name] = v.valid ? v.value : 0.0;
    }
    s.sched = rt.aggregate_snapshot();
    s.pool = coal::serialization::buffer_pool::global().stats();
    if (rt.wire() != nullptr)
        s.wire = rt.wire()->wire_stats();
    return s;
}

std::string workload_action(workload w)
{
    switch (w)
    {
    case workload::toy:
        return coal::apps::toy_action_name();
    case workload::bulk:
        return coal::apps::parquet_action_name();
    case workload::rpc:
        return bench_echo_action::action_name;
    }
    return {};
}

/// Per-stage times of the rpc path, from the tracer ring.  With a single
/// call in flight every event belongs to exactly one call, so the i-th
/// event of each (locality, kind) stream belongs to the i-th call.
void rpc_stage_split(std::vector<coal::trace::event> const& events,
    std::vector<double> const& traced_latency_us, report& rep)
{
    using coal::trace::event_kind;
    auto const req = bench_echo_action::id();
    auto const resp = coal::parcel::make_response_id(req);
    auto times = [&](std::uint32_t loc, event_kind kind, bool any_action,
                     std::uint64_t action) {
        std::vector<std::int64_t> t;
        for (auto const& e : events)
        {
            if (e.locality == loc && e.kind == kind &&
                (any_action || e.a == action))
                t.push_back(e.timestamp_ns);
        }
        return t;
    };
    // Request leg 0 -> 1, response leg 1 -> 0.
    auto const put0 = times(0, event_kind::parcel_put, false, req);
    auto const sent0 = times(0, event_kind::message_sent, true, 0);
    auto const recv1 = times(1, event_kind::message_received, true, 0);
    auto const put1 = times(1, event_kind::parcel_put, false, resp);
    auto const sent1 = times(1, event_kind::message_sent, true, 0);
    auto const recv0 = times(0, event_kind::message_received, true, 0);
    auto const exec0 = times(0, event_kind::parcel_executed, false, resp);

    std::size_t const n = put0.size();
    bool const aligned = n > 0 && sent0.size() == n && recv1.size() == n &&
        put1.size() == n && sent1.size() == n && recv0.size() == n &&
        exec0.size() == n;
    rep.check("rpc_stage_events_aligned", aligned,
        "calls " + std::to_string(n) + " sent " +
            std::to_string(sent0.size()) + " received " +
            std::to_string(recv1.size()));
    rep.info("trace.stage_calls", aligned ? static_cast<double>(n) : 0.0);
    if (!aligned)
        return;

    double stage_mean_sum = 0.0;
    auto stage = [n, &stage_mean_sum](std::vector<std::int64_t> const& from,
                     std::vector<std::int64_t> const& to) {
        std::vector<double> d(n);
        for (std::size_t i = 0; i != n; ++i)
        {
            d[i] = static_cast<double>(to[i] - from[i]) / 1e3;
            stage_mean_sum += d[i] / static_cast<double>(n);
        }
        return median(std::move(d));
    };
    // The request "executes" when its action hands the response parcel
    // to put_parcel; the response executes when its promise is set.
    double const stages[6] = {
        stage(put0, sent0),
        stage(sent0, recv1),
        stage(recv1, put1),
        stage(put1, sent1),
        stage(sent1, recv0),
        stage(recv0, exec0),
    };
    rep.metric("parcel.put_to_sent_us", stages[0], "us");
    rep.metric("net.sent_to_received_us", stages[1], "us");
    rep.metric("threading.received_to_executed_us", stages[2], "us");
    rep.metric("parcel.resp_put_to_sent_us", stages[3], "us");
    rep.metric("net.resp_sent_to_received_us", stages[4], "us");
    rep.metric("threading.resp_received_to_executed_us", stages[5], "us");
    double covered = 0.0;
    for (double s : stages)
        covered += s;
    rep.ratio_metric("trace.stage_residue_us",
        median(traced_latency_us) - covered,
        "traced latency_p50_us - sum of stage medians", 1.0, "1", "us");
    // Medians of stages need not add up to the median call; means do.
    double mean_latency = 0.0;
    for (double us : traced_latency_us)
        mean_latency += us / static_cast<double>(traced_latency_us.size());
    rep.info("trace.stage_residue_mean_us", mean_latency - stage_mean_sum);
}

/// The net stages end when the receiving worker drains the frame, so
/// they include that worker's idle wake-up.  Split each into the raw UDS
/// one-way floor (net.raw_rtt_us / 2) and the rest.
void net_stage_floor_split(report& rep)
{
    double const floor_us = rep.value("net.raw_rtt_us") / 2.0;
    for (std::string const stage :
        {"net.sent_to_received", "net.resp_sent_to_received"})
    {
        rep.info(stage + ".wire_floor_us", floor_us);
        rep.info(
            stage + ".above_floor_us", rep.value(stage + "_us") - floor_us);
    }
}

/// Mean cost of locality::async in a burst of the workload's call shape,
/// issued from a task on locality 0 with the workload's coalescing on.
double put_burst_ns(options const& opt, coal::runtime& rt)
{
    constexpr std::size_t burst = 4096;
    double ns = 0.0;
    coal::agas::locality_id const other{1};
    if (opt.kind == workload::toy)
    {
        rt.run_on(0, [&](coal::locality& here) {
            std::vector<coal::threading::future<std::complex<double>>> fs;
            fs.reserve(burst);
            std::int64_t const t0 = now_ns();
            for (std::size_t i = 0; i != burst; ++i)
                fs.push_back(here.async<toy_get_cplx_action>(other));
            ns = static_cast<double>(now_ns() - t0) / burst;
            coal::threading::wait_all(fs);
        });
    }
    else
    {
        rt.enable_coalescing(bench_slab_action::action_name,
            workload_coalescing(workload::bulk));
        std::vector<std::complex<double>> const chunk(
            bulk_nc, std::complex<double>(0.5, -0.25));
        rt.run_on(0, [&](coal::locality& here) {
            std::vector<coal::threading::future<void>> fs;
            fs.reserve(burst);
            std::int64_t const t0 = now_ns();
            for (std::size_t i = 0; i != burst; ++i)
            {
                fs.push_back(here.async<bench_slab_action>(
                    other, std::uint32_t{1}, std::uint64_t{i}, chunk));
            }
            ns = static_cast<double>(now_ns() - t0) / burst;
            coal::threading::wait_all(fs);
        });
    }
    return ns;
}

/// A batch of parcels shaped like one coalesced message of the workload.
std::vector<coal::parcel::parcel> workload_batch(workload w, inputs const& in)
{
    std::vector<coal::parcel::parcel> batch;
    std::size_t const n = workload_coalescing(w).nparcels;
    std::vector<std::complex<double>> const chunk(
        bulk_nc, std::complex<double>(0.5, -0.25));
    for (std::size_t i = 0; i != (w == workload::rpc ? 1 : n); ++i)
    {
        coal::parcel::parcel p;
        p.source = 0;
        p.dest = 1;
        p.continuation = i + 1;
        switch (w)
        {
        case workload::toy:
            p.action = toy_get_cplx_action::id();
            p.arguments = toy_get_cplx_action::make_arguments();
            break;
        case workload::bulk:
            p.action = bench_slab_action::id();
            p.arguments = bench_slab_action::make_arguments(
                std::uint32_t{1}, std::uint64_t{i * bulk_nc}, chunk);
            break;
        case workload::rpc:
            p.action = bench_echo_action::id();
            p.arguments =
                bench_echo_action::make_arguments(in.rpc_payloads[i]);
            break;
        }
        batch.push_back(std::move(p));
    }
    return batch;
}

/// Repeat `body` for about `seconds`; returns ns per call.
template <typename F>
double timed_loop(double seconds, F&& body)
{
    std::uint64_t iterations = 0;
    std::int64_t const t0 = now_ns();
    std::int64_t const end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t t = t0;
    do
    {
        for (int k = 0; k != 16; ++k)
            body();
        iterations += 16;
        t = now_ns();
    } while (t < end);
    return static_cast<double>(t - t0) / static_cast<double>(iterations);
}

void codec_calibration(workload w, inputs const& in, report& rep)
{
    auto const batch = workload_batch(w, in);
    double const n = static_cast<double>(batch.size());
    std::size_t sink = 0;
    double const enc_ns = timed_loop(0.2, [&] {
        auto wire = coal::parcel::encode_message(batch);
        sink += wire.size();
    });
    auto const flat = coal::parcel::encode_message(batch).flatten_copy();
    double const dec_ns = timed_loop(0.2, [&] {
        auto parcels = coal::parcel::decode_message(flat);
        sink += parcels.size();
    });
    rep.ratio_metric("parcel.encode_ns_per_parcel", enc_ns,
        "encode_message ns per batch", n, "parcels per batch", "ns");
    rep.ratio_metric("parcel.decode_ns_per_parcel", dec_ns,
        "decode_message ns per batch", n, "parcels per batch", "ns");
    keep(sink);
}

void crc_calibration(std::size_t frame_bytes, std::uint64_t seed, report& rep)
{
    std::vector<std::uint8_t> buf(frame_bytes);
    seeded_rng rng(seed);
    for (auto& b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    std::uint32_t crc = 0;
    double const ns = timed_loop(
        0.2, [&] { crc ^= coal::net::wire::crc32c(buf.data(), buf.size()); });
    rep.ratio_metric("net.crc_mb_s", static_cast<double>(frame_bytes),
        "frame bytes per crc32c call", ns / 1e3, "us per call", "MB/s");
    keep(crc);
}

std::unique_ptr<coal::net::socket_transport> make_raw_wire(
    std::string const& dir)
{
    coal::net::socket_params p;
    p.kind = coal::net::socket_params::family::uds;
    p.uds_dir = dir;
    return std::make_unique<coal::net::socket_transport>(p, 2);
}

void raw_wire_calibration(
    std::string const& dir, std::size_t frame_bytes, report& rep)
{
    using coal::serialization::shared_buffer;
    using coal::serialization::wire_message;
    {
        // 8 B ping-pong: locality 1 echoes from its delivery handler.
        auto net = make_raw_wire(dir);
        std::atomic<std::uint64_t> pongs{0};
        net->set_delivery_handler(1, [&net](std::uint32_t, shared_buffer&&) {
            net->send(1, 0, wire_message(shared_buffer(std::size_t(8))));
        });
        net->set_delivery_handler(0, [&pongs](std::uint32_t, shared_buffer&&) {
            pongs.fetch_add(1, std::memory_order_release);
        });
        std::vector<double> rtt;
        for (int i = 0; i != 3000; ++i)
        {
            std::uint64_t const seen = pongs.load(std::memory_order_acquire);
            std::int64_t const t0 = now_ns();
            net->send(0, 1, wire_message(shared_buffer(std::size_t(8))));
            while (pongs.load(std::memory_order_acquire) == seen)
                std::this_thread::yield();
            if (i >= 100)    // the first rounds connect
                rtt.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        }
        rep.metric("net.raw_rtt_us", median(rtt), "us");
        net->drain();
        net->shutdown();
    }
    {
        auto net = make_raw_wire(dir);
        std::atomic<std::uint64_t> got{0};
        net->set_delivery_handler(0, [](std::uint32_t, shared_buffer&&) {});
        net->set_delivery_handler(
            1, [&got](std::uint32_t, shared_buffer&& buf) {
                got.fetch_add(buf.size(), std::memory_order_release);
            });
        shared_buffer payload(frame_bytes);
        std::memset(payload.mutable_data(), 0x5a, frame_bytes);
        std::size_t const frames = std::clamp<std::size_t>(
            (32u << 20) / std::max<std::size_t>(frame_bytes, 1), 2000,
            100000);
        std::int64_t const t0 = now_ns();
        for (std::size_t i = 0; i != frames; ++i)
            net->send(0, 1, wire_message(shared_buffer(payload)));
        while (got.load(std::memory_order_acquire) != frames * frame_bytes)
            std::this_thread::yield();
        double const us = static_cast<double>(now_ns() - t0) / 1e3;
        rep.ratio_metric("net.raw_mb_s",
            static_cast<double>(frames * frame_bytes), "bytes delivered", us,
            "us", "MB/s");
        net->drain();
        net->shutdown();
    }
}

/// Delay from scheduler::post to the task running on an idle scheduler
/// configured like the runtime's workers.
void idle_wake_calibration(std::int64_t idle_sleep_us, std::uint64_t seed,
    report& rep)
{
    coal::threading::scheduler_config cfg;
    cfg.num_workers = 1;
    cfg.idle_sleep_us = idle_sleep_us;
    cfg.name = "idle-wake";
    coal::threading::scheduler sched(cfg);
    seeded_rng rng(seed);
    std::vector<double> wake;
    for (int i = 0; i != 1500; ++i)
    {
        // Let the worker go idle for a random stretch first.
        std::this_thread::sleep_for(
            std::chrono::microseconds(50 + rng.below(250)));
        std::atomic<std::int64_t> ran{0};
        std::int64_t const t0 = now_ns();
        sched.post([&ran] { ran.store(now_ns(), std::memory_order_release); });
        std::int64_t t = 0;
        while ((t = ran.load(std::memory_order_acquire)) == 0)
            std::this_thread::yield();
        wake.push_back(static_cast<double>(t - t0) / 1e3);
    }
    sched.stop();
    rep.metric("threading.idle_wake_us", median(wake), "us");
}

/// Returns the median data-frame size seen in the trace (calibration input).
double layer_metrics(options const& opt, coal::runtime& rt,
    counter_sample const& a, counter_sample const& b,
    phase_result const& traced, phase_result const& untraced,
    std::vector<coal::trace::event> const& events, report& rep)
{
    using coal::trace::event_kind;
    auto d = [&](std::string const& k) { return b[k] - a[k]; };
    std::string const action = workload_action(opt.kind);

    // core
    rep.ratio_metric("core.parcels_per_message",
        d("/coalescing/count/parcels@" + action), "coalesced parcels",
        d("/coalescing/count/messages@" + action), "coalesced messages",
        "count");
    std::map<event_kind, double> kinds;
    std::vector<std::uint64_t> frame_bytes;
    for (auto const& e : events)
    {
        kinds[e.kind] += 1.0;
        if (e.kind == event_kind::message_sent)
            frame_bytes.push_back(e.b);
    }
    rep.ratio_metric("core.bypass_frac", kinds[event_kind::coalescing_bypass],
        "coalescing_bypass events", kinds[event_kind::parcel_put],
        "parcel_put events", "ratio");
    rep.ratio_metric("core.flush_timeout_frac",
        kinds[event_kind::flush_timeout], "flush_timeout events",
        kinds[event_kind::flush_timeout] + kinds[event_kind::flush_size] +
            kinds[event_kind::flush_forced],
        "flush events", "ratio");

    // parcel
    double const msgs = d("/messages/count/sent");
    rep.ratio_metric("parcel.frames_per_drain",
        d("/threads/receive-pipeline/count/frames"), "frames drained",
        d("/threads/receive-pipeline/count/drains"), "draining polls",
        "count");
    rep.ratio_metric("parcel.parcels_per_chunk",
        d("/parcels/count/received"), "parcels received",
        d("/threads/receive-pipeline/count/chunks"), "chunk tasks", "count");
    rep.ratio_metric("parcel.retransmit_frac", d("/net/count/retransmits"),
        "retransmits", msgs, "messages sent", "ratio");
    rep.ratio_metric("parcel.acks_per_message", d("/net/count/acks"),
        "standalone acks", msgs, "messages sent", "ratio");
    rep.ratio_metric("parcel.flow_deferrals_per_kmsg",
        d("/net/flow/count/deferrals"), "credit deferrals", msgs,
        "messages sent", "1/kmsg", 1000.0);

    // serialization (process-wide pool; deltas over the traced stretch)
    double const hits = static_cast<double>(b.pool.hits - a.pool.hits);
    double const acquires = hits +
        static_cast<double>(b.pool.misses - a.pool.misses) +
        static_cast<double>(b.pool.heap_fallbacks - a.pool.heap_fallbacks);
    rep.ratio_metric("serialization.pool_hit_frac", hits, "pool hits",
        acquires, "pool acquires", "ratio");
    rep.ratio_metric("serialization.copied_per_sent_byte",
        static_cast<double>(b.pool.bytes_copied - a.pool.bytes_copied),
        "bytes copied", d("/data/count/sent"), "bytes sent", "ratio");
    rep.ratio_metric("serialization.flattens_per_message",
        static_cast<double>(b.pool.flattens - a.pool.flattens), "flattens",
        msgs, "messages sent", "ratio");

    // net
    rep.ratio_metric("net.wire_bytes_per_payload_byte",
        d("/net/wire/count/bytes-sent"), "wire bytes", traced.app_bytes,
        "payload bytes", "ratio");
    rep.ratio_metric("net.partial_writes_per_frame",
        static_cast<double>(b.wire.partial_write_resumptions -
            a.wire.partial_write_resumptions),
        "partial-write resumptions",
        static_cast<double>(b.wire.frames_sent - a.wire.frames_sent),
        "frames written", "ratio");

    // threading: Eq. 4 and Eq. 2 over the traced stretch
    auto const snap = b.sched.since(a.sched);
    rep.ratio_metric("threading.background_overhead",
        static_cast<double>(snap.background_duration_ns()),
        "background ns (Eq. 3)",
        static_cast<double>(snap.func_time_ns + snap.background_time_ns),
        "task + background ns", "ratio");
    rep.ratio_metric("threading.task_overhead_ns",
        static_cast<double>(snap.func_time_ns - snap.exec_time_ns),
        "func - exec ns",
        static_cast<double>(snap.tasks_executed), "tasks", "ns");

    // timing
    rep.metric("timing.flush_lateness_us",
        rt.counters().query("/timers/time/average-lateness").value, "us");

    // core.put_ns: the rpc loop times every call; toy and bulk time a burst.
    rep.metric("core.put_ns",
        opt.kind == workload::rpc ? median(traced.put_ns) :
                                    put_burst_ns(opt, rt),
        "ns");

    // trace
    double const traced_cps = traced.calls_per_s();
    double const untraced_cps = untraced.calls_per_s();
    rep.ratio_metric("trace.overhead_frac", untraced_cps - traced_cps,
        "untraced - traced calls/s", untraced_cps, "untraced calls/s",
        "ratio");
    rep.metric("trace.ring_dropped",
        static_cast<double>(coal::trace::tracer::global().dropped()), "count");
    rep.info("trace.events_recorded",
        static_cast<double>(coal::trace::tracer::global().recorded()));

    // rpc stage split (one call in flight); other workloads report 0.
    for (char const* name : {"parcel.put_to_sent_us",
             "net.sent_to_received_us", "threading.received_to_executed_us",
             "parcel.resp_put_to_sent_us", "net.resp_sent_to_received_us",
             "threading.resp_received_to_executed_us",
             "trace.stage_residue_us"})
        rep.metric(name, 0.0, "us");
    if (opt.kind == workload::rpc)
        rpc_stage_split(events, traced.latency_us, rep);

    double const frame = byte_weighted_median(std::move(frame_bytes));
    rep.info("trace.median_frame_bytes", frame);
    return frame;
}

// ---- end-to-end metrics -----------------------------------------------------

/// `rss_mb` is the peak RSS during the first runtime's timed part.
void end_to_end_metrics(options const& opt, phase_result const& r,
    setup_result const& s, double rss_mb, report& rep)
{
    rep.metric("calls_per_s", r.calls_per_s(), "1/s");
    rep.metric("goodput_mb_s", r.calls_per_s() * r.bytes_per_call / 1e6,
        "MB/s");
    rep.metric("latency_p50_us", quantile(r.latency_us, 0.50), "us");
    // Reported, not gated: a host stall moves the p99 far more than any
    // usable run-to-run bound.
    rep.info("latency_p99_us", quantile(r.latency_us, 0.99));
    rep.metric("cpu_us_per_call", median(r.window_cpu_us_per_call), "us");
    rep.info("peak_rss_process_lifetime_mb", lifetime_peak_rss_mb());
    if (opt.kind == workload::bulk)
    {
        // The parquet tensors are the app's, not coal's.
        rep.info("peak_rss_with_tensors_mb", rss_mb);
        rep.info("bulk_tensor_mb", bulk_tensor_mib());
        rss_mb -= bulk_tensor_mib();
    }
    rep.metric("peak_rss_mb", rss_mb, "MB");
    rep.metric("setup_s", median(s.setup_s), "s");
    rep.info("calls_per_s.unit_q1", quantile(r.unit_calls_per_s, 0.25));
    rep.info("calls_per_s.unit_q3", quantile(r.unit_calls_per_s, 0.75));
    // Calls over the summed window time: the mean rate, stalls included.
    rep.info("calls_per_s.mean", ratio(static_cast<double>(r.calls), r.seconds));
    rep.info("cpu_us_per_call.window_q1",
        quantile(r.window_cpu_us_per_call, 0.25));
    rep.info("cpu_us_per_call.window_q3",
        quantile(r.window_cpu_us_per_call, 0.75));
    rep.info("latency_samples", static_cast<double>(r.latency_us.size()));
    rep.info("timed_s", r.seconds);
    rep.info("rate_units", static_cast<double>(r.unit_calls_per_s.size()));
    rep.info("cpu_windows",
        static_cast<double>(r.window_cpu_us_per_call.size()));
    rep.info("calls", static_cast<double>(r.calls));
}

bool parse(int argc, char** argv, options& opt)
{
    if (argc != 6)
        return false;
    opt.name = argv[1];
    if (opt.name == "toy")
        opt.kind = workload::toy;
    else if (opt.name == "bulk")
        opt.kind = workload::bulk;
    else if (opt.name == "rpc")
        opt.kind = workload::rpc;
    else
        return false;
    opt.seed = std::strtoull(argv[2], nullptr, 10);
    opt.seconds = std::strtod(argv[3], nullptr);
    opt.trace = std::strcmp(argv[4], "1") == 0;
    opt.socket_dir = argv[5];
    return opt.seconds > 0.0;
}

}    // namespace

int main(int argc, char** argv)
{
    options opt;
    if (!parse(argc, argv, opt))
    {
        std::fprintf(stderr,
            "usage: coal_bench <toy|bulk|rpc> <seed> <seconds> <trace 0|1> "
            "<socket-dir>\n");
        return 2;
    }
    inputs const in = make_inputs(opt.kind, opt.seed);
    report rep;

    setup_result s;
    set_up(opt, s);

    auto account = [&rep](phase_result const& r, char const* what) {
        rep.attempted += r.calls;
        rep.failed += r.failed;
        std::string detail = std::to_string(r.failed) + " of " +
            std::to_string(r.calls) + " calls failed";
        for (auto const& f : r.failures)
            detail += "; " + f;
        rep.check(what, r.failed == 0, detail);
    };

    // Warm up (pools, coalescing queues, first-touch of app state) before
    // anything is timed; its calls are still checked.
    bulk_calibration bulk;
    account(
        run_phase(opt, *s.rt, in, warmup_seconds, bulk), "outputs_warmup");
    if (opt.kind == workload::bulk)
    {
        bool const ok = measure_bulk_scaffold(*s.rt, in, bulk);
        rep.failed += ok ? 0 : 1;
        rep.check("bulk_scaffold_checksum", ok,
            "scaffold cpu_s " + std::to_string(bulk.scaffold_cpu_s));
        rep.info("bulk_scaffold_cpu_s", bulk.scaffold_cpu_s);
    }

    std::size_t frame_bytes = 0;
    if (!opt.trace)
    {
        // The timed part is spread over several runtimes: state that a
        // runtime keeps for its lifetime (thread placement, the phase of
        // its threads' idle polls) is sampled, not drawn once per run.
        phase_result r;
        double rss_mb = 0.0;
        for (int k = 0; k != runtimes_per_run; ++k)
        {
            if (k != 0)
            {
                set_up(opt, s);
                account(run_phase(opt, *s.rt, in, runtime_warmup_seconds,
                            bulk),
                    "outputs_warmup");
            }
            reset_peak_rss();
            r.merge(run_phase(
                opt, *s.rt, in, opt.seconds / runtimes_per_run, bulk));
            // Later runtimes start on what earlier ones left resident, so
            // only the first one's peak is the footprint of one runtime.
            if (k == 0)
                rss_mb = peak_rss_mb();
            rep.failed += check_conservation(*s.rt, rep);
        }
        account(r, "outputs");
        end_to_end_metrics(opt, r, s, rss_mb, rep);
    }
    else
    {
        auto& tracer = coal::trace::tracer::global();
        std::string const action = workload_action(opt.kind);
        coal::runtime& rt = *s.rt;
        phase_result const untraced =
            run_phase(opt, rt, in, opt.seconds / 2, bulk);
        account(untraced, "outputs_untraced");
        rt.quiesce();

        counter_sample const before = sample_counters(rt, action);
        tracer.enable(1u << 20);
        phase_result const traced =
            run_phase(opt, rt, in, opt.seconds / 2, bulk);
        rt.quiesce();
        tracer.disable();
        counter_sample const after = sample_counters(rt, action);
        account(traced, "outputs_traced");
        auto const events = tracer.snapshot();

        frame_bytes = static_cast<std::size_t>(layer_metrics(
            opt, rt, before, after, traced, untraced, events, rep));
        rep.failed += check_conservation(rt, rep);
    }

    s.stop();
    rep.attempted += s.calls;
    rep.failed += s.failed;
    rep.check("setup_echo", s.failed == 0,
        "first calls failed " + std::to_string(s.failed) + " of " +
            std::to_string(s.calls));

    if (opt.trace)
    {
        // Standalone layer calibrations, shaped like the workload, after
        // the runtime is gone so they share no threads with it.
        rep.metric("runtime.stop_s", median(s.stop_s), "s");
        codec_calibration(opt.kind, in, rep);
        crc_calibration(frame_bytes, opt.seed, rep);
        raw_wire_calibration(opt.socket_dir, frame_bytes, rep);
        idle_wake_calibration(
            workload_config(opt).idle_sleep_us, opt.seed, rep);
        if (opt.kind == workload::rpc)
            net_stage_floor_split(rep);
    }
    rep.print(opt.name, opt.trace ? 1 : 0);
    return 0;
}
