#pragma once

/// \file coalescing_message_handler.hpp
/// The paper's Algorithm 1 — the parcel coalescing message handler.
///
/// One handler serves one action id at one locality and keeps a parcel
/// queue per destination locality.  For each arriving parcel:
///
///   tslp := time since the last parcel of this action
///   if coalescing is disabled (nparcels <= 1 or interval <= 0):
///       send immediately (one parcel per message)
///   if tslp > interval and the queue is empty:
///       send immediately              // sparse-traffic bypass (§II-B):
///                                     // waiting out the timer would only
///                                     // add latency when traffic is sparse
///   queue the parcel
///   if it is the first in the queue:  start the flush timer (interval)
///   if the queue reached nparcels, or the queued payload reached
///   max_buffer_bytes:                 stop the timer, flush
///
/// The flush timer runs on the shared deadline_timer_service (dedicated
/// thread, µs resolution — §II-B's accuracy discussion).  The race
/// between a size-triggered flush and the timer firing is resolved with
/// a per-queue epoch: a timer only flushes the epoch it was armed for.
///
/// Concurrency: destination queues live in cacheline-aligned shards
/// (destination id & mask), each under its own spinlock, so producers
/// aiming at different destinations never serialize against each other.
/// Batch hand-off happens *outside* the shard lock: detaching a batch
/// allocates a consecutive sequence ticket on the destination's
/// parcelhandler stream while the lock is held, and
/// parcelhandler::send_message's sequencer restores ticket order before
/// the batch reaches the outbound queue — per-destination FIFO without
/// lock-coupled hand-off.  See DESIGN.md §8.
///
/// Flushing hands the batch to parcelhandler::send_message, which queues
/// it for transmission by background work — so the modeled per-message
/// cost lands in the Eq. 3/4 accounting regardless of which thread
/// triggered the flush.
///
/// Hierarchical (two-level) aggregation: when the parcelhandler has a
/// topology with relay routing enabled, parcels whose destination lives
/// on a *different node* do not get a per-destination queue.  They share
/// one queue per destination NODE (a node-pair buffer: this locality ×
/// that node), keyed by `node_route_flag | node`, batched under the
/// patient inter-node knobs (effective_inter_nparcels/interval).  At
/// flush time the batch ships to a designated relay locality on that
/// node — chosen deterministically per *source* so each sender's stream
/// stays concentrated on one relay while different senders spread across
/// the node's members, sharing the fan-out work — and the relay's
/// receive path fans the bundle out over cheap intra-node links
/// (parcelhandler::forward_parcel).  This turns O(localities²) cross-node
/// streams into O(nodes²) and packs far more parcels per expensive
/// inter-node message.  Relay death reroutes naturally: liveness flips,
/// resolve_target picks the next member, and the failure machinery
/// (fencing + flush_message_handlers) re-drives queued batches.

#include <coal/common/cacheline.hpp>
#include <coal/common/spinlock.hpp>
#include <coal/core/coalescing_counters.hpp>
#include <coal/core/coalescing_params.hpp>
#include <coal/parcel/message_handler.hpp>
#include <coal/parcel/parcelhandler.hpp>
#include <coal/timing/deadline_timer.hpp>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace coal::coalescing {

class coalescing_message_handler final : public parcel::message_handler
{
public:
    /// Shard fan-out for the per-destination queue map.  Power of two;
    /// destinations are folded with a mask, so up to 16 producer threads
    /// hitting distinct destinations proceed without sharing a lock.
    static constexpr std::size_t shard_count = 16;

    coalescing_message_handler(std::string name,
        parcel::parcelhandler& parcels,
        timing::deadline_timer_service& timers, shared_params_ptr params,
        std::shared_ptr<coalescing_counters> counters);

    ~coalescing_message_handler() override;

    void enqueue(parcel::parcel&& p) override;
    void flush() override;
    [[nodiscard]] std::size_t queued_parcels() const override;

    /// Chaos hook: drop every queued parcel without sending it (a crashed
    /// locality's coalescing queues die with the incarnation).  Returns
    /// the parcels so the caller can surface them through the
    /// delivery-error path.  Ordering tickets are NOT consumed — the
    /// sequencer streams stay contiguous across the purge.
    [[nodiscard]] std::vector<parcel::parcel> purge();

    [[nodiscard]] coalescing_params params() const
    {
        return params_->get();
    }

    void set_params(coalescing_params p)
    {
        params_->set(p);
    }

    [[nodiscard]] coalescing_counters const& counters() const noexcept
    {
        return *counters_;
    }

    [[nodiscard]] std::string const& name() const noexcept
    {
        return name_;
    }

    /// Number of timer-triggered flushes (vs size-triggered); useful for
    /// tests and the ablation benches.
    [[nodiscard]] std::uint64_t timer_flushes() const noexcept
    {
        return timer_flushes_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t size_flushes() const noexcept
    {
        return size_flushes_.load(std::memory_order_relaxed);
    }

    /// Parcels that skipped batching because the destination link was
    /// degraded (circuit breaker open or peer suspected).
    [[nodiscard]] std::uint64_t breaker_bypasses() const noexcept
    {
        return breaker_bypasses_.load(std::memory_order_relaxed);
    }

    /// Enqueues that ran with shrunken batch targets because the
    /// flow-control layer reported memory/link pressure toward the
    /// destination (early-flush overload degradation).
    [[nodiscard]] std::uint64_t pressure_shrinks() const noexcept
    {
        return pressure_shrinks_.load(std::memory_order_relaxed);
    }

    /// Parcels that entered a node-pair (inter-node relay) queue instead
    /// of a per-destination one.
    [[nodiscard]] std::uint64_t node_routed() const noexcept
    {
        return node_routed_.load(std::memory_order_relaxed);
    }

    /// Queue-map key of a node-pair buffer.  Locality ids are dense and
    /// small, so the high bit cleanly separates the two key spaces.
    static constexpr std::uint32_t node_route_flag = 0x80000000u;

private:
    struct destination_queue
    {
        std::vector<parcel::parcel> parcels;
        std::size_t queued_bytes = 0;
        std::uint64_t epoch = 0;     ///< bumped on every flush
        std::uint64_t stream = 0;    ///< parcelhandler sequencer stream id
        std::uint64_t next_ticket = 0;    ///< seq of the next detached batch
        timing::timer_id timer{};
    };

    struct alignas(cache_line_size) queue_shard
    {
        mutable spinlock lock;
        std::unordered_map<std::uint32_t, destination_queue> queues;

        /// Parcels currently queued in this shard, maintained as a gauge
        /// so queued_parcels() (polled by quiescence) never takes a lock
        /// — and so the enqueue fast path touches no cacheline shared
        /// with other shards.  Incremented under the shard lock at
        /// enqueue; decremented only after the detached batch has been
        /// handed to the parcelhandler, so a parcel is always visible in
        /// at least one of queued_parcels() / pending_sends() while in
        /// flight.
        std::atomic<std::size_t> gauge{0};
    };

    [[nodiscard]] queue_shard& shard_for(std::uint32_t dst) noexcept
    {
        return shards_[dst & (shard_count - 1)];
    }

    /// Get-or-create the destination queue inside its shard (caller holds
    /// the shard lock); allocates the sequencer stream on first use.
    destination_queue& queue_for_locked(
        queue_shard& shard, std::uint32_t dst);

    /// Detach a destination queue's contents and stamp them with the next
    /// ordering ticket (caller holds the shard lock).  The batch is sent
    /// by the caller *after* dropping the lock.
    struct detached_batch
    {
        std::vector<parcel::parcel> parcels;
        parcel::send_ticket ticket;
        /// How many of `parcels` are counted in the shard gauge (bypass
        /// paths append a never-queued parcel after detaching).
        std::size_t gauge = 0;
    };
    detached_batch detach_batch_locked(destination_queue& queue);

    /// Hand a detached batch to the parcelhandler.  Called without any
    /// shard lock held; the ticket preserves per-route FIFO.  `route` is
    /// the queue key: a plain destination, or a node-pair key that
    /// resolve_target() maps to the node's current relay at send time.
    void send_batch(std::uint32_t route, detached_batch&& batch);

    /// Queue key for a destination: the destination itself, or — with
    /// relay routing on and `dst` on another node — that node's
    /// node-pair key.
    [[nodiscard]] std::uint32_t route_of(std::uint32_t dst) const noexcept;

    /// Wire target for a route key: plain destinations map to
    /// themselves; a node-pair key maps to this source's designated
    /// relay on the node — the member at offset (here % node size),
    /// rotating to the next live member when the preferred one is down,
    /// falling back to the preferred member when the failure detector
    /// trusts nobody (the send then fails through the normal dead-peer
    /// machinery, which keeps accounting intact).
    [[nodiscard]] std::uint32_t resolve_target(std::uint32_t route) const;

    void on_timer(std::uint32_t route, std::uint64_t epoch);

    std::string name_;
    parcel::parcelhandler& parcels_;
    timing::deadline_timer_service& timers_;
    shared_params_ptr params_;
    std::shared_ptr<coalescing_counters> counters_;

    std::array<queue_shard, shard_count> shards_;
    std::atomic<bool> stopped_{false};

    std::atomic<std::uint64_t> timer_flushes_{0};
    std::atomic<std::uint64_t> size_flushes_{0};
    std::atomic<std::uint64_t> breaker_bypasses_{0};
    std::atomic<std::uint64_t> pressure_shrinks_{0};
    std::atomic<std::uint64_t> node_routed_{0};
};

}    // namespace coal::coalescing
