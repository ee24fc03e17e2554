#include <coal/core/coalescing_message_handler.hpp>

#include <coal/common/assert.hpp>
#include <coal/common/logging.hpp>
#include <coal/trace/tracer.hpp>

#include <algorithm>
#include <optional>
#include <utility>

namespace coal::coalescing {

coalescing_message_handler::coalescing_message_handler(std::string name,
    parcel::parcelhandler& parcels, timing::deadline_timer_service& timers,
    shared_params_ptr params, std::shared_ptr<coalescing_counters> counters)
  : name_(std::move(name))
  , parcels_(parcels)
  , timers_(timers)
  , params_(std::move(params))
  , counters_(std::move(counters))
{
    COAL_ASSERT(params_ != nullptr);
    COAL_ASSERT(counters_ != nullptr);
}

coalescing_message_handler::~coalescing_message_handler()
{
    // Disarm: enqueues that acquire a shard lock after flush() released
    // it observe stopped_ (the store below happens-before flush()'s
    // critical sections) and send directly without arming timers.
    stopped_.store(true, std::memory_order_release);
    flush();
    // A timer callback that already popped its entry cannot be
    // cancelled; wait until the timer thread is out of callbacks so none
    // can touch this handler post-destruction.  (Safe: no shard lock is
    // held here, so an in-flight on_timer can complete.)
    timers_.synchronize();
}

coalescing_message_handler::destination_queue&
coalescing_message_handler::queue_for_locked(
    queue_shard& shard, std::uint32_t dst)
{
    auto& queue = shard.queues[dst];
    if (queue.stream == 0)
        queue.stream = parcels_.allocate_send_stream();
    return queue;
}

coalescing_message_handler::detached_batch
coalescing_message_handler::detach_batch_locked(destination_queue& queue)
{
    if (queue.timer.valid())
    {
        timers_.cancel(queue.timer);
        queue.timer = {};
    }
    ++queue.epoch;    // a late timer for the old epoch becomes a no-op
    queue.queued_bytes = 0;
    detached_batch batch;
    batch.parcels = std::exchange(queue.parcels, {});
    batch.ticket = {queue.stream, queue.next_ticket++};
    return batch;
}

std::uint32_t coalescing_message_handler::route_of(
    std::uint32_t dst) const noexcept
{
    if (!parcels_.relay_routing())
        return dst;
    net::topology const& topo = parcels_.topo();
    if (topo.same_node(parcels_.here(), dst))
        return dst;
    return node_route_flag | topo.node_of(dst);
}

std::uint32_t coalescing_message_handler::resolve_target(
    std::uint32_t route) const
{
    if ((route & node_route_flag) == 0)
        return route;
    net::topology const& topo = parcels_.topo();
    std::uint32_t const node = route & ~node_route_flag;
    std::uint32_t const first = topo.node_first(node);
    std::uint32_t const size = topo.node_end(node) - first;
    if (size == 0)
        return first;    // malformed topology; let the send fail normally
    // Designated relay: deterministic per source, so this locality's
    // whole node-pair stream funnels through one relay (that
    // concentration is the aggregation win) — but *spread by source*
    // across the node's members, so a node's inbound fan-out work is
    // shared by all of its localities instead of serializing on member
    // 0.  Healthy-cluster fast path: nobody is suspected or dead
    // anywhere, so the preferred member is live by definition — no
    // per-peer locks on the enqueue path.
    std::uint32_t const preferred = parcels_.here() % size;
    if (parcels_.all_peers_live())
        return first + preferred;
    // Self-healing rotation: when the relay dies the failure detector
    // flips its status and the next resolution (flush, retimer, or the
    // death-path flush_message_handlers) lands on the next live member.
    for (std::uint32_t i = 0; i != size; ++i)
    {
        std::uint32_t const cand = first + (preferred + i) % size;
        if (parcels_.peer_liveness(cand) == parcel::peer_status::alive)
            return cand;
    }
    return first + preferred;
}

void coalescing_message_handler::send_batch(
    std::uint32_t route, detached_batch&& batch)
{
    // Runs WITHOUT the shard lock.  Per-route FIFO is preserved by the
    // ticket: sequence numbers were allocated in shard-lock order and
    // the parcelhandler's sequencer releases batches in ticket order, so
    // dropping the lock before this hand-off cannot reorder the wire.
    // A node-pair route resolves to its relay only now, at hand-off —
    // batches queued before a relay death ship to the successor.
    std::size_t const queued = batch.parcels.size();
    counters_->record_message(queued);
    parcels_.send_message(
        resolve_target(route), std::move(batch.parcels), batch.ticket);
    // Only now drop the parcels from the shard's queued gauge:
    // send_message has made them visible in pending_sends(), so a
    // quiescence poll always sees them in at least one count.
    if (batch.gauge != 0)
        shard_for(route).gauge.fetch_sub(
            batch.gauge, std::memory_order_release);
}

void coalescing_message_handler::enqueue(parcel::parcel&& p)
{
    coalescing_params params = params_->get();
    std::int64_t const gap_ns = counters_->record_parcel();
    std::uint32_t const dst = p.dest;

    // Disabled: pass through, one parcel per message (and no relay
    // detour — hierarchy without aggregation would only add a hop).  The
    // parcel still takes a ticket from the destination's stream so it
    // cannot overtake (or be overtaken by) batches detached moments
    // earlier.
    if (!params.coalescing_enabled())
    {
        detached_batch single;
        {
            std::lock_guard lock(shard_for(dst).lock);
            auto& queue = queue_for_locked(shard_for(dst), dst);
            single.ticket = {queue.stream, queue.next_ticket++};
        }
        single.parcels.push_back(std::move(p));
        send_batch(dst, std::move(single));
        return;
    }

    // Hierarchical routing: a cross-node parcel joins its node-pair
    // buffer under the patient inter-node knobs; everything downstream
    // of here keys on `route`, and the wire destination (the node's
    // relay) is resolved only at hand-off.
    std::uint32_t const route = route_of(dst);
    bool const relayed = route != dst;
    if (relayed)
    {
        node_routed_.fetch_add(1, std::memory_order_relaxed);
        params.nparcels = params.effective_inter_nparcels();
        params.interval_us = params.effective_inter_interval_us();
    }
    std::uint32_t const wire_dst = relayed ? resolve_target(route) : dst;

    // Degraded link (breaker open or peer suspected): while the wire link
    // (the relay's, for a node route) is degraded, batching only stacks
    // coalescing delay on top of retransmission timeouts.  Flush whatever
    // is queued for the route and send this parcel along immediately
    // (effectively nparcels = 1 until the link heals).
    if (parcels_.link_degraded(wire_dst))
    {
        breaker_bypasses_.fetch_add(1, std::memory_order_relaxed);
        trace::tracer::global().record(parcels_.here(),
            trace::event_kind::coalescing_bypass, p.action);
        detached_batch batch;
        {
            auto& shard = shard_for(route);
            std::lock_guard lock(shard.lock);
            batch = detach_batch_locked(queue_for_locked(shard, route));
            batch.gauge = batch.parcels.size();
        }
        batch.parcels.push_back(std::move(p));
        send_batch(route, std::move(batch));
        return;
    }

    // Overload protection: under soft (or worse) pressure toward this
    // destination the flow-control layer wants *earlier* flushes, not
    // bigger batches — shrink the batch targets for this enqueue so the
    // queue drains at a quarter of its configured depth.  The configured
    // params are untouched; pressure subsiding restores full batching on
    // the next enqueue.
    if (parcels_.flow_pressure(wire_dst) != pressure_state::ok)
    {
        pressure_shrinks_.fetch_add(1, std::memory_order_relaxed);
        params.nparcels = std::max<std::size_t>(2, params.nparcels / 4);
        params.max_buffer_bytes =
            std::max<std::size_t>(1024, params.max_buffer_bytes / 4);
    }

    auto& shard = shard_for(route);
    std::optional<detached_batch> flush_now;
    {
        std::unique_lock lock(shard.lock);
        auto& queue = queue_for_locked(shard, route);

        if (stopped_.load(std::memory_order_acquire))
        {
            // Tear-down path: do not arm new timers, send directly.
            detached_batch single;
            single.ticket = {queue.stream, queue.next_ticket++};
            lock.unlock();
            single.parcels.push_back(std::move(p));
            send_batch(route, std::move(single));
            return;
        }

        // Sparse-traffic bypass: if parcels arrive further apart than the
        // wait time and nothing is queued, coalescing would only add
        // latency — send directly (this is what "effectively disables"
        // coalescing for sparse phases, §II-B).
        bool const sparse = params.sparse_bypass && gap_ns >= 0 &&
            gap_ns > params.interval_us * 1000;
        if (sparse && queue.parcels.empty())
        {
            detached_batch single;
            single.ticket = {queue.stream, queue.next_ticket++};
            lock.unlock();
            trace::tracer::global().record(parcels_.here(),
                trace::event_kind::coalescing_bypass, p.action);
            single.parcels.push_back(std::move(p));
            send_batch(route, std::move(single));
            return;
        }

        std::uint64_t const action = p.action;
        queue.queued_bytes += p.wire_size();
        queue.parcels.push_back(std::move(p));
        shard.gauge.fetch_add(1, std::memory_order_relaxed);
        trace::tracer::global().record(parcels_.here(),
            trace::event_kind::coalescing_queued, action,
            queue.parcels.size());

        if (queue.parcels.size() == 1)
        {
            // First parcel: arm the flush timer for this epoch.
            std::uint64_t const epoch = queue.epoch;
            queue.timer = timers_.schedule_after(params.interval_us,
                [this, route, epoch] { on_timer(route, epoch); });
        }

        if (queue.parcels.size() >= params.nparcels ||
            queue.queued_bytes >= params.max_buffer_bytes)
        {
            // Queue full: stop the flush timer, detach; the hand-off to
            // the parcelhandler happens after the lock is dropped.
            size_flushes_.fetch_add(1, std::memory_order_relaxed);
            trace::tracer::global().record(parcels_.here(),
                trace::event_kind::flush_size, action, queue.parcels.size());
            flush_now = detach_batch_locked(queue);
            flush_now->gauge = flush_now->parcels.size();
        }
    }

    if (flush_now)
        send_batch(route, std::move(*flush_now));
}

void coalescing_message_handler::on_timer(
    std::uint32_t route, std::uint64_t epoch)
{
    auto& shard = shard_for(route);
    detached_batch batch;
    {
        std::lock_guard lock(shard.lock);
        auto it = shard.queues.find(route);
        if (it == shard.queues.end())
            return;
        auto& queue = it->second;
        // The epoch check resolves the race with a size-triggered flush
        // that won the lock before this callback ran.
        if (queue.epoch != epoch || queue.parcels.empty())
            return;
        timer_flushes_.fetch_add(1, std::memory_order_relaxed);
        trace::tracer::global().record(parcels_.here(),
            trace::event_kind::flush_timeout, queue.parcels.front().action,
            queue.parcels.size());
        queue.timer = {};    // it just fired; nothing to cancel
        batch = detach_batch_locked(queue);
        batch.gauge = batch.parcels.size();
    }
    send_batch(route, std::move(batch));
}

void coalescing_message_handler::flush()
{
    for (auto& shard : shards_)
    {
        // Detach every non-empty queue in one critical section, then send
        // the batches lock-free; tickets keep each route in order.  Node
        // routes re-resolve their relay here — this is how the death
        // path's flush_message_handlers() moves a node-pair stream to the
        // successor relay.
        std::vector<std::pair<std::uint32_t, detached_batch>> batches;
        {
            std::lock_guard lock(shard.lock);
            for (auto& [route, queue] : shard.queues)
            {
                if (queue.parcels.empty())
                    continue;
                trace::tracer::global().record(parcels_.here(),
                    trace::event_kind::flush_forced,
                    queue.parcels.front().action, queue.parcels.size());
                auto batch = detach_batch_locked(queue);
                batch.gauge = batch.parcels.size();
                batches.emplace_back(route, std::move(batch));
            }
        }
        for (auto& [route, batch] : batches)
            send_batch(route, std::move(batch));
    }
}

std::vector<parcel::parcel> coalescing_message_handler::purge()
{
    std::vector<parcel::parcel> purged;
    for (auto& shard : shards_)
    {
        std::lock_guard lock(shard.lock);
        for (auto& [dst, queue] : shard.queues)
        {
            if (queue.parcels.empty())
                continue;
            if (queue.timer.valid())
            {
                timers_.cancel(queue.timer);
                queue.timer = {};
            }
            ++queue.epoch;    // a pending timer for the old epoch no-ops
            queue.queued_bytes = 0;
            shard.gauge.fetch_sub(
                queue.parcels.size(), std::memory_order_release);
            for (auto& p : queue.parcels)
                purged.push_back(std::move(p));
            queue.parcels.clear();
        }
    }
    return purged;
}

std::size_t coalescing_message_handler::queued_parcels() const
{
    std::size_t total = 0;
    for (auto const& shard : shards_)
        total += shard.gauge.load(std::memory_order_acquire);
    return total;
}

}    // namespace coal::coalescing
