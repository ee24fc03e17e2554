#include <coal/runtime/runtime.hpp>

#include <coal/common/assert.hpp>
#include <coal/common/logging.hpp>
#include <coal/common/stopwatch.hpp>
#include <coal/core/coalescing_defaults.hpp>
#include <coal/net/loopback.hpp>
#include <coal/parcel/action_registry.hpp>
#include <coal/serialization/buffer_pool.hpp>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <thread>

namespace coal {

runtime::runtime(runtime_config config)
  : config_(config)
{
    COAL_ASSERT_MSG(config_.num_localities > 0, "need at least one locality");
    COAL_ASSERT_MSG(
        config_.workers_per_locality > 0, "need at least one worker");

    // Test/CI knob: force a node topology (and hierarchical routing) onto
    // runtimes that did not ask for one, so existing suites can be
    // re-validated with cross-node relaying engaged.  Configs that set
    // their own topology are left alone.
    if (char const* force = std::getenv("COAL_FORCE_NUM_NODES");
        force != nullptr && config_.num_nodes <= 1)
    {
        auto const n = static_cast<std::uint32_t>(std::atoi(force));
        if (n > 1)
        {
            config_.num_nodes = std::min(n, config_.num_localities);
            config_.hierarchical_routing = true;
        }
    }

    // Test/CI knob: COAL_TRANSPORT=tcp|uds reroutes default-"sim" configs
    // onto the real socket parcelport, so the reliability / flow-control /
    // membership / chaos suites revalidate over real sockets with no test
    // edits.  Only "sim" is rewritten: loopback runtimes (timing-exact
    // unit tests) and very large locality counts (each auto-mode locality
    // binds a listener) keep their configured transport.
    if (char const* force = std::getenv("COAL_TRANSPORT");
        force != nullptr && config_.transport == "sim" &&
        !config_.pin_transport && config_.num_localities <= 64)
    {
        std::string const forced(force);
        if (forced == "tcp" || forced == "uds")
            config_.transport = forced;
    }

    first_rank_ = config_.first_local_rank;
    local_count_ = config_.num_local_ranks == 0 ? config_.num_localities :
                                                  config_.num_local_ranks;
    multiproc_ = local_count_ < config_.num_localities;
    COAL_ASSERT_MSG(first_rank_ + local_count_ <= config_.num_localities,
        "local rank range exceeds the locality count");

    agas_ = std::make_unique<agas::address_space>(config_.num_localities);

    net::topology const topo{config_.num_localities, config_.num_nodes};

    std::unique_ptr<net::transport> base;
    if (config_.transport == "tcp" || config_.transport == "uds")
    {
        COAL_ASSERT_MSG(!multiproc_ || !config_.socket.endpoints.empty(),
            "multi-process mode needs explicit per-locality endpoints");
        net::socket_params sp = config_.socket;
        sp.kind = config_.transport == "uds" ?
            net::socket_params::family::uds :
            net::socket_params::family::tcp;
        sp.registry_digest = parcel::action_registry::instance().wire_digest();
        auto socket = std::make_unique<net::socket_transport>(std::move(sp),
            config_.num_localities, first_rank_,
            multiproc_ ? local_count_ : 0);
        socket_transport_ = socket.get();
        base = std::move(socket);
    }
    else if (config_.transport == "loopback")
    {
        base =
            std::make_unique<net::loopback_transport>(config_.num_localities);
    }
    else
    {
        base = std::make_unique<net::sim_network>(
            topo, config_.network, config_.network_intra);
    }

    if (config_.faults.active())
    {
        // Lossy mode: wrap the transport in the fault injector, and force
        // the reliability layer on — delivery must stay exactly-once.
        transport_ = std::make_unique<net::faulty_transport>(
            std::move(base), config_.faults);
        config_.reliability.enabled = true;
    }
    else
    {
        transport_ = std::move(base);
    }

    if (config_.flow.enabled)
    {
        // Credits ride on the ack fields; watermarks guard the one pool
        // every locality in this process shares.
        config_.reliability.enabled = true;
        serialization::buffer_pool::global().set_watermarks(
            config_.flow.pool_soft_bytes, config_.flow.pool_critical_bytes,
            config_.flow.pool_fallback_cap_bytes);
    }

    // Heartbeats and incarnation epochs ride the reliability prefix.
    if (config_.membership.enabled)
        config_.reliability.enabled = true;

    timers_ = std::make_unique<timing::deadline_timer_service>();
    barrier_ = std::make_unique<help_barrier>(local_count_);

    // One locality object per *hosted* rank: in multi-process mode the
    // other ranks are remote processes reached through the wire.
    localities_.reserve(local_count_);
    for (std::uint32_t i = first_rank_; i != first_rank_ + local_count_; ++i)
    {
        threading::scheduler_config sched;
        sched.num_workers = config_.workers_per_locality;
        sched.idle_sleep_us = config_.idle_sleep_us;
        sched.name = "locality#" + std::to_string(i);
        localities_.push_back(std::make_unique<locality>(*this,
            agas::locality_id{i}, sched, *transport_, *timers_,
            config_.reliability, config_.flow, config_.membership,
            config_.store));
    }

    // Component actions resolve their target objects through AGAS.
    for (auto const& loc : localities_)
    {
        loc->parcels().set_component_resolver(
            [this](agas::gid target, std::type_index expected) {
                return agas_->find_erased(target, expected);
            });
        // Topology + relay routing must be installed before traffic too:
        // both are read without synchronization on every send/receive.
        loc->parcels().set_topology(topo, config_.hierarchical_routing);
    }

    if (config_.apply_coalescing_defaults)
    {
        for (auto const& entry :
            coalescing::coalescing_defaults::instance().entries())
        {
            bool const include_responses =
                entry.include_responses && config_.coalesce_responses;
            for (auto const& loc : localities_)
            {
                loc->coalescing().enable(
                    entry.action_name, entry.params, include_responses);
            }
        }
    }

    register_counters();

    // Multi-process bootstrap: handlers are installed (the localities
    // above exist), so connect to every peer endpoint and verify the
    // HELLO exchange — rank table and action-registry digest — before
    // the first parcel can flow.
    if (multiproc_ && socket_transport_ != nullptr)
    {
        COAL_ASSERT_MSG(socket_transport_->await_ready(),
            "wire bootstrap failed (peer missing or registry digest "
            "mismatch)");
    }
}

runtime::~runtime()
{
    stop();
}

locality& runtime::get_locality(std::uint32_t index)
{
    COAL_ASSERT_MSG(hosts(index), "locality is hosted by another process");
    return *localities_[index - first_rank_];
}

bool runtime::enable_coalescing(
    std::string const& action_name, coalescing::coalescing_params params)
{
    bool ok = true;
    for (auto const& loc : localities_)
    {
        ok = loc->coalescing().enable(
                 action_name, params, config_.coalesce_responses) &&
            ok;
    }
    return ok;
}

bool runtime::set_coalescing_params(
    std::string const& action_name, coalescing::coalescing_params params)
{
    bool ok = true;
    for (auto const& loc : localities_)
        ok = loc->coalescing().set_params(action_name, params) && ok;
    return ok;
}

void runtime::run_everywhere(std::function<void(locality&)> fn)
{
    COAL_ASSERT_MSG(threading::scheduler::current() == nullptr,
        "run_everywhere must be called from a non-worker thread");

    std::latch done(static_cast<std::ptrdiff_t>(localities_.size()));
    for (auto const& loc : localities_)
    {
        locality* l = loc.get();
        l->post([&fn, &done, l] {
            try
            {
                fn(*l);
            }
            catch (std::exception const& e)
            {
                COAL_LOG_ERROR("runtime",
                    "SPMD function threw on locality %u: %s",
                    l->id().value(), e.what());
            }
            catch (...)
            {
                COAL_LOG_ERROR("runtime",
                    "SPMD function threw a non-std exception on "
                    "locality %u",
                    l->id().value());
            }
            done.count_down();
        });
    }
    done.wait();
}

void runtime::run_on(std::uint32_t index, std::function<void(locality&)> fn)
{
    locality& l = get_locality(index);
    std::latch done(1);
    l.post([&fn, &done, &l] {
        try
        {
            fn(l);
        }
        catch (std::exception const& e)
        {
            COAL_LOG_ERROR("runtime", "run_on function threw on "
                                      "locality %u: %s",
                l.id().value(), e.what());
        }
        catch (...)
        {
            COAL_LOG_ERROR("runtime",
                "run_on function threw a non-std exception on locality %u",
                l.id().value());
        }
        done.count_down();
    });
    done.wait();
}

void runtime::help_barrier::arrive_and_wait()
{
    std::uint64_t const gen = generation.load(std::memory_order_acquire);
    if (arrived.fetch_add(1, std::memory_order_acq_rel) + 1 == participants)
    {
        arrived.store(0, std::memory_order_relaxed);
        generation.fetch_add(1, std::memory_order_acq_rel);
        return;
    }

    auto* sched = threading::scheduler::current();
    unsigned idle = 0;
    while (generation.load(std::memory_order_acquire) == gen)
    {
        // Keep local progress alive while parked at the barrier — other
        // localities may still need our responses to arrive there.
        if (sched != nullptr && sched->run_pending_task())
            idle = 0;
        else if (++idle < 64)
            cpu_relax();
        else
            std::this_thread::yield();
    }
}

void runtime::barrier()
{
    barrier_->arrive_and_wait();
    if (!multiproc_ || socket_transport_ == nullptr)
        return;

    // All hosted ranks have arrived locally; one of them (the round's
    // first ticket) now runs the wire barrier against the other
    // processes while the rest help-run their schedulers — responses the
    // other processes are waiting on must keep flowing while we block.
    std::uint64_t const ticket =
        barrier_ticket_.fetch_add(1, std::memory_order_acq_rel);
    std::uint64_t const round = ticket / local_count_ + 1;
    auto* sched = threading::scheduler::current();

    if (ticket % local_count_ == 0)
    {
        std::uint64_t const token = socket_transport_->enter_barrier();
        while (!socket_transport_->barrier_done(token))
        {
            if (sched == nullptr || !sched->run_pending_task())
                std::this_thread::yield();
        }
        // Publish monotonically: a slow leader of an earlier round must
        // never regress the round stamp.
        std::uint64_t cur =
            wire_barrier_round_.load(std::memory_order_relaxed);
        while (cur < round &&
            !wire_barrier_round_.compare_exchange_weak(cur, round))
        {
        }
    }
    else
    {
        while (wire_barrier_round_.load(std::memory_order_acquire) < round)
        {
            if (sched == nullptr || !sched->run_pending_task())
                std::this_thread::yield();
        }
    }
}

void runtime::kill_locality(std::uint32_t index)
{
    locality& loc = get_locality(index);
    COAL_LOG_WARN("runtime", "chaos: killing locality %u", index);
    // The wire goes dark first so no frame of the dead incarnation
    // escapes mid-crash; then the parcel layer crashes (queued, deferred
    // and retransmit-held parcels fail as peer_failed); coalescing queues
    // die with it and feed the same accounting.
    transport_->kill_locality(index);
    loc.parcels().simulate_crash();
    loc.parcels().fail_parcels(
        parcel::delivery_error::peer_failed, loc.coalescing().purge_all());
}

void runtime::restart_locality(std::uint32_t index)
{
    locality& loc = get_locality(index);
    // New epoch before the wire comes back: the first frame out must
    // already carry the fresh incarnation.
    loc.parcels().restart_incarnation();
    transport_->restart_locality(index);
    COAL_LOG_INFO("runtime", "chaos: locality %u restarted (epoch %u)",
        index, loc.parcels().epoch());
}

void runtime::quiesce()
{
    // Iterate until the whole system is stable: flushing coalescing
    // queues can create sends, sends create receives, receives create
    // tasks, tasks can create parcels...  Crashed localities are frozen —
    // their queues neither drain nor grow — so they are skipped entirely.
    stopwatch stuck;
    double next_report_ms = 5000.0;
    for (;;)
    {
        // Multi-process quiesce is local-only (a peer process may still
        // be producing traffic toward us — distributed quiescence is the
        // application's barrier to coordinate, see DESIGN.md §15); a
        // hard timeout keeps stop() from hanging on a peer that died.
        if (multiproc_ && stuck.elapsed_ms() > 10000.0)
        {
            COAL_LOG_WARN("runtime",
                "multi-process quiesce timed out after %.0f ms; "
                "proceeding to shutdown",
                stuck.elapsed_ms());
            return;
        }
        // A quiesce that cannot converge is a bug somewhere below; dump
        // what is still moving so the report names the stuck subsystem.
        if (stuck.elapsed_ms() >= next_report_ms)
        {
            next_report_ms += 5000.0;
            COAL_LOG_WARN("runtime",
                "quiesce not converging after %.0f ms (transport in-flight "
                "%zu):",
                stuck.elapsed_ms(), transport_->in_flight());
            for (auto const& loc : localities_)
            {
                COAL_LOG_WARN("runtime",
                    "  locality %u%s epoch %u: tasks %zu sends %zu "
                    "receives %zu reliability %zu coalesced %zu",
                    loc->id().value(),
                    loc->parcels().crashed() ? " (crashed)" : "",
                    loc->parcels().epoch(),
                    loc->scheduler().pending_tasks(),
                    loc->parcels().pending_sends(),
                    loc->parcels().pending_receives(),
                    loc->parcels().pending_reliability(),
                    loc->coalescing().queued_parcels());
                // One pass over the hydrated peers (per-shard snapshots)
                // instead of probing every locality pair — with many
                // evicted/unknown peers the dump cost tracks what is
                // actually resident.
                for (auto const& [peer_id, dbg] :
                    loc->parcels().debug_active_peers())
                {
                    if (dbg.evicted ||
                        (dbg.health == 0 && dbg.unacked_frames == 0 &&
                            dbg.held_frames == 0 && dbg.deferred_jobs == 0))
                        continue;
                    COAL_LOG_WARN("runtime",
                        "    -> peer %u health %s (epoch %u): unacked %zu "
                        "held %zu deferred %zu | next_seq %llu cum %llu "
                        "low_unacked %llu low_held %llu",
                        peer_id, parcel::to_string_health(dbg.health).c_str(),
                        dbg.epoch, dbg.unacked_frames, dbg.held_frames,
                        dbg.deferred_jobs,
                        static_cast<unsigned long long>(dbg.next_seq),
                        static_cast<unsigned long long>(dbg.cum_received),
                        static_cast<unsigned long long>(dbg.lowest_unacked_seq),
                        static_cast<unsigned long long>(dbg.lowest_held_seq));
                }
            }
        }
        for (auto const& loc : localities_)
        {
            if (!loc->parcels().crashed())
                loc->coalescing().flush_all();
        }

        bool busy = false;
        for (auto const& loc : localities_)
        {
            if (loc->parcels().crashed())
                continue;
            if (loc->scheduler().pending_tasks() != 0 ||
                loc->parcels().pending_sends() != 0 ||
                loc->parcels().pending_receives() != 0 ||
                loc->parcels().pending_reliability() != 0 ||
                loc->coalescing().queued_parcels() != 0)
            {
                busy = true;
                break;
            }
        }
        if (!busy && transport_->in_flight() != 0)
        {
            // Handlers are quiet but the transport still holds messages.
            // Some will move on their own (sim wire latency), but a
            // reorder-parked frame has no follow-up traffic left to swap
            // it out — flush instead of waiting forever.
            transport_->drain();
            continue;
        }
        if (!busy && transport_->in_flight() == 0)
        {
            // Re-check once after a short grace period: a message could
            // have been between queues at the instant we looked.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            bool still_busy = transport_->in_flight() != 0;
            for (auto const& loc : localities_)
            {
                if (loc->parcels().crashed())
                    continue;
                still_busy = still_busy ||
                    loc->scheduler().pending_tasks() != 0 ||
                    loc->parcels().pending_sends() != 0 ||
                    loc->parcels().pending_receives() != 0 ||
                    loc->parcels().pending_reliability() != 0 ||
                    loc->coalescing().queued_parcels() != 0;
            }
            if (!still_busy)
                return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

void runtime::stop()
{
    bool expected = false;
    if (!stopped_.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel))
        return;

    quiesce();

    // Counter factories capture subsystem references; drop instances
    // before tearing the subsystems down.
    counters_.clear_instances();

    for (auto const& loc : localities_)
        loc->parcels().stop();
    transport_->shutdown();
    for (auto const& loc : localities_)
        loc->scheduler().stop();
    timers_->shutdown();

    // The buffer pool outlives every runtime (it is process-global); do
    // not let this run's watermarks shed traffic of the next one.
    if (config_.flow.enabled)
        serialization::buffer_pool::global().set_watermarks(0, 0, 0);
}

threading::scheduler_snapshot runtime::aggregate_snapshot() const
{
    threading::scheduler_snapshot total;
    for (auto const& loc : localities_)
        total += loc->scheduler().snapshot();
    return total;
}

}    // namespace coal
