#include <coal/threading/instrumentation.hpp>

namespace coal::threading {

scheduler_snapshot scheduler_snapshot::since(
    scheduler_snapshot const& earlier) const noexcept
{
    scheduler_snapshot delta;
    delta.tasks_executed = tasks_executed - earlier.tasks_executed;
    delta.func_time_ns = func_time_ns - earlier.func_time_ns;
    delta.exec_time_ns = exec_time_ns - earlier.exec_time_ns;
    delta.background_time_ns =
        background_time_ns - earlier.background_time_ns;
    delta.background_calls = background_calls - earlier.background_calls;
    delta.idle_poll_time_ns =
        idle_poll_time_ns - earlier.idle_poll_time_ns;
    delta.tasks_stolen = tasks_stolen - earlier.tasks_stolen;
    delta.idle_loops = idle_loops - earlier.idle_loops;
    delta.bulk_posts = bulk_posts - earlier.bulk_posts;
    delta.bulk_posted_tasks = bulk_posted_tasks - earlier.bulk_posted_tasks;
    return delta;
}

scheduler_snapshot& scheduler_snapshot::operator+=(
    scheduler_snapshot const& other) noexcept
{
    tasks_executed += other.tasks_executed;
    func_time_ns += other.func_time_ns;
    exec_time_ns += other.exec_time_ns;
    background_time_ns += other.background_time_ns;
    background_calls += other.background_calls;
    idle_poll_time_ns += other.idle_poll_time_ns;
    tasks_stolen += other.tasks_stolen;
    idle_loops += other.idle_loops;
    bulk_posts += other.bulk_posts;
    bulk_posted_tasks += other.bulk_posted_tasks;
    return *this;
}

instrumentation::instrumentation(std::size_t workers)
  : counters_(workers)
{
}

scheduler_snapshot instrumentation::snapshot() const noexcept
{
    scheduler_snapshot s;
    for (auto const& block : counters_)
    {
        auto const& c = *block;
        s.tasks_executed += c.tasks_executed.load(std::memory_order_relaxed);
        s.func_time_ns += c.func_time_ns.load(std::memory_order_relaxed);
        s.exec_time_ns += c.exec_time_ns.load(std::memory_order_relaxed);
        s.background_time_ns +=
            c.background_time_ns.load(std::memory_order_relaxed);
        s.background_calls +=
            c.background_calls.load(std::memory_order_relaxed);
        s.idle_poll_time_ns +=
            c.idle_poll_time_ns.load(std::memory_order_relaxed);
        s.tasks_stolen += c.tasks_stolen.load(std::memory_order_relaxed);
        s.idle_loops += c.idle_loops.load(std::memory_order_relaxed);
    }
    s.background_time_ns +=
        external_background_ns_.load(std::memory_order_relaxed);
    s.bulk_posts = bulk_posts_.load(std::memory_order_relaxed);
    s.bulk_posted_tasks = bulk_posted_tasks_.load(std::memory_order_relaxed);
    return s;
}

}    // namespace coal::threading
