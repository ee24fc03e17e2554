#pragma once

/// \file tracer.hpp
/// Lightweight parcel-flow event tracer.
///
/// The paper's counters aggregate; debugging coalescing behaviour often
/// needs the *sequence* — which parcels entered which queue, what
/// triggered each flush, when messages hit the wire.  This tracer
/// records fixed-size events into a per-process ring buffer with relaxed
/// atomics; tracing is off by default and costs one branch when
/// disabled, so instrumentation points stay in release builds.
///
///     coal::trace::tracer::global().enable(1 << 16);
///     ... run traffic ...
///     for (auto const& e : coal::trace::tracer::global().snapshot())
///         std::puts(coal::trace::format_event(e).c_str());
///
/// The ring overwrites the oldest events when full (dropped count is
/// reported), so it is safe to leave enabled during long runs.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace coal::trace {

enum class event_kind : std::uint8_t
{
    parcel_put,          ///< put_parcel accepted a parcel (a=action, b=dest)
    parcel_local,        ///< delivered locally, no wire (a=action)
    parcel_executed,     ///< action invocation finished (a=action)
    coalescing_queued,   ///< parcel entered a coalescing queue (a=action, b=queue depth after)
    coalescing_bypass,   ///< sparse-traffic bypass sent directly (a=action)
    flush_size,          ///< queue-full flush (a=action, b=batch size)
    flush_timeout,       ///< timer flush (a=action, b=batch size)
    flush_forced,        ///< explicit flush (a=action, b=batch size)
    message_sent,        ///< frame handed to the transport (a=parcel count, b=bytes)
    message_received,    ///< frame decoded at receiver (a=parcel count, b=bytes)
    // Flow control / overload protection (DESIGN.md "Flow control"):
    pressure_changed,    ///< memory-pressure state transition (a=old, b=new)
    parcel_shed,         ///< admission control shed a parcel (a=action, b=dest)
    send_deferred,       ///< send deferred on an exhausted credit window (a=dest, b=deferred bytes after)
    link_down,           ///< sends failed on a capped dark link (a=dest, b=parcels failed)
    // Membership / failure detection (DESIGN.md "Failure model"):
    peer_health,         ///< peer health changed (a=peer, b=new peer_health bits)
    peer_failed,         ///< peer declared dead, state fenced (a=peer, b=parcels failed)
    peer_rejoined,       ///< peer came back under a new epoch (a=peer, b=new epoch)
};

struct event
{
    std::int64_t timestamp_ns = 0;
    std::uint32_t locality = 0;
    event_kind kind = event_kind::parcel_put;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

class tracer
{
public:
    /// The process-wide tracer used by the runtime's instrumentation
    /// points.  Additional private instances can be created for tests.
    static tracer& global();

    tracer() = default;

    /// Start recording into a fresh ring of `capacity` events
    /// (rounded up to a power of two).  Discards previous contents.
    void enable(std::size_t capacity);

    /// Stop recording (buffer stays readable).
    void disable();

    [[nodiscard]] bool enabled() const noexcept
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Record an event (no-op when disabled).
    void record(std::uint32_t locality, event_kind kind, std::uint64_t a = 0,
        std::uint64_t b = 0) noexcept;

    /// Events currently retained, oldest first.
    [[nodiscard]] std::vector<event> snapshot() const;

    /// Total events recorded since enable().
    [[nodiscard]] std::uint64_t recorded() const noexcept
    {
        return next_.load(std::memory_order_relaxed);
    }

    /// Events lost to ring overwrite.
    [[nodiscard]] std::uint64_t dropped() const noexcept;

private:
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> next_{0};
    std::size_t capacity_ = 0;    // power of two
    std::unique_ptr<event[]> ring_;
};

/// Human-readable one-liner for an event.
[[nodiscard]] std::string format_event(event const& e);

[[nodiscard]] char const* to_string(event_kind kind) noexcept;

}    // namespace coal::trace
