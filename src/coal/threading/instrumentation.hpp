#pragma once

/// \file instrumentation.hpp
/// Scheduler instrumentation backing the paper's metrics (§III):
///
///   Eq. 1  task duration        t_d  = Σ t_func
///   Eq. 2  task overhead        t_o  = (Σ t_func − Σ t_exec) / n_t
///   Eq. 3  background duration  t_bd = Σ t_background
///   Eq. 4  network overhead     n_oh = Σ t_background / Σ t_func
///
/// Each worker owns a cache-line-padded block updated with relaxed
/// atomics at task granularity; snapshots aggregate across workers.
/// `external_background_ns` collects network work done off the worker
/// threads (e.g. a flush performed on the timer thread) so Eq. 3/4 see
/// all of it.

#include <coal/common/cacheline.hpp>

#include <atomic>
#include <cstdint>
#include <vector>

namespace coal::threading {

/// Per-worker hot counters; single writer (the worker), racy readers.
struct worker_counters
{
    std::atomic<std::uint64_t> tasks_executed{0};
    std::atomic<std::int64_t> func_time_ns{0};    ///< Σ t_func
    std::atomic<std::int64_t> exec_time_ns{0};    ///< Σ t_exec
    std::atomic<std::int64_t> background_time_ns{0};
    std::atomic<std::uint64_t> background_calls{0};
    /// Time in background polls that found nothing to do.  Kept OUT of
    /// Eq. 3/4: an idle worker polling the (empty) parcelport while a
    /// task waits is not "processing information to be communicated",
    /// and folding it in would make the network-overhead metric track
    /// wait time instead of per-message cost.
    std::atomic<std::int64_t> idle_poll_time_ns{0};
    std::atomic<std::uint64_t> tasks_stolen{0};
    std::atomic<std::uint64_t> idle_loops{0};
};

/// Point-in-time aggregate over all workers of one scheduler.
struct scheduler_snapshot
{
    std::uint64_t tasks_executed = 0;
    std::int64_t func_time_ns = 0;
    std::int64_t exec_time_ns = 0;
    std::int64_t background_time_ns = 0;
    std::uint64_t background_calls = 0;
    std::int64_t idle_poll_time_ns = 0;
    std::uint64_t tasks_stolen = 0;
    std::uint64_t idle_loops = 0;
    /// Bulk-spawn (post_n) activity: batches and tasks enqueued through
    /// the batched receive pipeline's one-lock-per-deque path.
    std::uint64_t bulk_posts = 0;
    std::uint64_t bulk_posted_tasks = 0;

    /// Eq. 1: cumulative task duration (ns).
    [[nodiscard]] std::int64_t task_duration_ns() const noexcept
    {
        return func_time_ns;
    }

    /// Eq. 2: average per-task management overhead (ns/task).
    [[nodiscard]] double average_task_overhead_ns() const noexcept
    {
        if (tasks_executed == 0)
            return 0.0;
        return static_cast<double>(func_time_ns - exec_time_ns) /
            static_cast<double>(tasks_executed);
    }

    /// Eq. 3: cumulative background-work duration (ns).
    [[nodiscard]] std::int64_t background_duration_ns() const noexcept
    {
        return background_time_ns;
    }

    /// Eq. 4: the paper's network-overhead metric (dimensionless ratio in
    /// [0,1)).  In HPX, background work executes *as* HPX threads, so the
    /// paper's Σt_func denominator includes the background time; this
    /// scheduler accounts the two separately, hence the explicit sum.
    [[nodiscard]] double network_overhead() const noexcept
    {
        double const denominator =
            static_cast<double>(func_time_ns + background_time_ns);
        if (denominator <= 0.0)
            return 0.0;
        return static_cast<double>(background_time_ns) / denominator;
    }

    /// Difference of two snapshots — per-phase deltas for Fig. 9.
    [[nodiscard]] scheduler_snapshot since(
        scheduler_snapshot const& earlier) const noexcept;

    /// Field-wise sum — aggregates snapshots across schedulers.
    scheduler_snapshot& operator+=(scheduler_snapshot const& other) noexcept;
};

/// Owns the per-worker counter blocks plus an external-contribution slot.
class instrumentation
{
public:
    explicit instrumentation(std::size_t workers);

    [[nodiscard]] worker_counters& worker(std::size_t index) noexcept
    {
        return *counters_[index];
    }

    /// Credit background time performed outside worker threads.
    void add_external_background_ns(std::int64_t ns) noexcept
    {
        external_background_ns_.fetch_add(ns, std::memory_order_relaxed);
    }

    /// Record one post_n batch of `tasks` tasks.
    void add_bulk_post(std::uint64_t tasks) noexcept
    {
        bulk_posts_.fetch_add(1, std::memory_order_relaxed);
        bulk_posted_tasks_.fetch_add(tasks, std::memory_order_relaxed);
    }

    [[nodiscard]] scheduler_snapshot snapshot() const noexcept;

    [[nodiscard]] std::size_t worker_count() const noexcept
    {
        return counters_.size();
    }

private:
    std::vector<cache_aligned<worker_counters>> counters_;
    std::atomic<std::int64_t> external_background_ns_{0};
    std::atomic<std::uint64_t> bulk_posts_{0};
    std::atomic<std::uint64_t> bulk_posted_tasks_{0};
};

}    // namespace coal::threading
