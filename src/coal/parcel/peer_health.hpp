#pragma once

/// \file peer_health.hpp
/// One per-peer "is this peer unwell, and why" value (DESIGN.md "Peer
/// health"): an alive/dead verdict plus a *set* of degrade causes, which
/// co-exist (suspicion can heal while a backlog keeps the breaker open).
/// Values change only through health_tracker, which owns every side
/// effect: gauges, counters, the log line and the trace event.

#include <coal/parcel/membership.hpp>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace coal::parcel {

class peer_health
{
public:
    /// Degrade causes (any set: the link is degraded and the coalescer
    /// bypasses batching toward it) and the dead verdict.
    enum bit : std::uint8_t
    {
        retransmit_backlog = 1u << 0,    ///< breaker: retransmit backlog / attempts
        credit_starvation = 1u << 1,     ///< breaker: starved for credit
        phi_suspect = 1u << 2,           ///< phi-accrual silence
        breaker = retransmit_backlog | credit_starvation,
        causes_mask = breaker | phi_suspect,
        tombstoned = 1u << 6,    ///< parked in an evicted peer's tombstone
        dead_bit = 1u << 7,
    };

    /// The cause mask plus the tombstoned and dead bits (trace encoding).
    [[nodiscard]] std::uint8_t bits() const noexcept
    {
        return bits_;
    }
    [[nodiscard]] bool dead() const noexcept
    {
        return (bits_ & dead_bit) != 0;
    }
    [[nodiscard]] bool degraded() const noexcept
    {
        return (bits_ & causes_mask) != 0;
    }
    /// The circuit breaker is open (a breaker cause is set).
    [[nodiscard]] bool tripped() const noexcept
    {
        return (bits_ & breaker) != 0;
    }
    [[nodiscard]] peer_status status() const noexcept
    {
        if (dead())
            return peer_status::dead;
        return (bits_ & phi_suspect) != 0 ? peer_status::suspected :
                                            peer_status::alive;
    }

private:
    friend class health_tracker;
    std::uint8_t bits_ = 0;
};

/// "retransmit-backlog+phi-suspect", "dead+tombstoned" or "ok" for bits.
[[nodiscard]] std::string to_string_health(std::uint8_t bits);

/// The counters health transitions bump; the parcelhandler's counter
/// block derives from this, so the /net paths read them there.
struct health_counters
{
    std::atomic<std::uint64_t> circuit_breaker_trips{0};
    std::atomic<std::uint64_t> starvation_trips{0};    ///< slow-peer breaker trips
    std::atomic<std::uint64_t> peers_suspected{0};    ///< suspicion escalations
    std::atomic<std::uint64_t> peers_declared_dead{0};
};

/// Owner of every peer_health transition and of the lock-free gauges
/// derived from the values.  Callers hold the owning peer's lock.
class health_tracker
{
public:
    health_tracker(std::uint32_t here, health_counters& counters) noexcept
      : here_(here)
      , counters_(counters)
    {
    }

    /// Move `h` to `bits`: adjust the gauges, count every breaker
    /// opening, starvation trip, suspicion and death, log the change and
    /// record a peer_health trace event.  No-op when nothing changes.
    void set(peer_health& h, std::uint32_t peer, std::uint8_t bits);
    void raise(peer_health& h, std::uint32_t peer, std::uint8_t cause)
    {
        set(h, peer, h.bits_ | cause);
    }
    void clear(peer_health& h, std::uint32_t peer, std::uint8_t mask)
    {
        set(h, peer, h.bits_ & ~mask);
    }

    /// Lock-free gates; steady state reads zero and skips every lock.
    [[nodiscard]] bool any_degraded() const noexcept
    {
        return degraded_.load(std::memory_order_acquire) != 0;
    }
    [[nodiscard]] bool any_dead() const noexcept
    {
        return dead_.load(std::memory_order_acquire) != 0;
    }

    /// Census: suspected peers, and dead verdicts of hydrated peers.
    [[nodiscard]] std::size_t suspected() const noexcept
    {
        return suspected_.load(std::memory_order_acquire);
    }
    [[nodiscard]] std::size_t dead_live() const noexcept
    {
        return dead_live_.load(std::memory_order_relaxed);
    }

private:
    std::uint32_t here_;
    health_counters& counters_;
    std::atomic<std::size_t> degraded_{0};
    std::atomic<std::size_t> suspected_{0};
    std::atomic<std::size_t> dead_{0};    ///< live and tombstoned
    std::atomic<std::size_t> dead_live_{0};
};

}    // namespace coal::parcel
