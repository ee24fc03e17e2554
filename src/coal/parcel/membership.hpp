#pragma once

/// \file membership.hpp
/// Tunables and vocabulary of the peer-liveness / epoched-membership
/// layer (DESIGN.md "Failure model").
///
/// Three cooperating pieces turn a permanently dark peer from an
/// indefinite hang into a first-class, recoverable event:
///
///  - **Heartbeats.**  Every frame a peer sends (data, retransmit,
///    standalone ack) doubles as a liveness proof; when a link has been
///    idle for `heartbeat_interval_us` the reliability loop emits a
///    standalone ack frame purely as a heartbeat.  Peers declared dead
///    are probed at the slower `probe_interval_us` so a restarted
///    incarnation is discovered without application traffic.
///
///  - **Phi-accrual suspicion.**  Per peer, the receiver keeps an EWMA
///    of frame interarrival times and scores silence as
///    `phi = elapsed / max(ewma, heartbeat_interval)`.  Crossing
///    `suspect_phi` marks the peer *suspected* (the `phi_suspect` cause
///    of peer_health.hpp: coalescing bypasses batching); crossing
///    `dead_phi` — but never before `min_dead_us` of silence — declares
///    it *dead*: all queued/deferred/retransmit-held parcels for the peer
///    fail with `delivery_error::peer_failed`, and its seq/credit/breaker
///    state is torn down to a one-entry tombstone holding the fenced
///    epoch.
///
///  - **Incarnation epochs.**  Every locality runs under an epoch
///    (starting at 1, bumped on restart) and every frame carries both
///    the sender's epoch and the sender's belief of the destination's
///    epoch.  A frame whose `src_epoch` is older than the peer's known
///    epoch is a ghost from a dead incarnation — discarded.  A frame
///    whose `dst_epoch` does not match the receiver's current epoch was
///    addressed to a previous incarnation — discarded (the receiver
///    answers with a heartbeat so the sender learns the new epoch and
///    fences).  Observing a *higher* `src_epoch` is a rejoin: both
///    directions of link state reset, unacknowledged frames toward the
///    old incarnation fail as `peer_failed`, and coalescing resumes.
///    Together the two checks keep delivery at-most-once across
///    incarnations: no parcel is both confirmed to its sender and
///    replayed into a later incarnation.
///
/// The layer rides on the reliability prefix (heartbeats are frames,
/// epochs travel in the frame header), so enabling it forces
/// `reliability_params::enabled`.
///
/// **Interplay with idle eviction** (peer_store.hpp): a peer whose link
/// is *data*-idle past `peer_store_params::evict_idle_us` is demoted to
/// a tombstone even while heartbeats flow — heartbeats deliberately do
/// not count as activity, or two idle peers would pin each other
/// resident forever.  An evicted peer neither emits heartbeats nor
/// scores phi; because both sides' last data contact is within one RTT
/// of each other, both evict at (almost) the same time and the mutual
/// silence is symmetric.  Suspicion does not survive eviction (it is a
/// detector verdict, not protocol state), but a dead verdict does: the
/// tombstone keeps the quarantined epoch, and `evict_idle_us` is scaled
/// 8x for dead peers so rejoin-probe cycles run first.

#include <cstdint>

namespace coal::parcel {

/// Liveness classification of a peer as seen by one parcelhandler.
enum class peer_status : std::uint8_t
{
    alive,        ///< heard from recently (phi below suspect threshold)
    suspected,    ///< silent past suspect_phi; batching bypassed
    dead,         ///< declared failed; state fenced, tombstone retained
};

/// Tunables of the failure detector.  Disabled by default: no heartbeats
/// are emitted, no suspicion is scored, and epoch fields stay inert.
struct membership_params
{
    bool enabled = false;

    /// Idle-link heartbeat period: a standalone ack frame is emitted
    /// toward any live peer this long after the last frame sent to it.
    std::int64_t heartbeat_interval_us = 20000;

    /// Probe period toward peers already declared dead — the rejoin
    /// discovery path when the application has stopped sending to them.
    std::int64_t probe_interval_us = 100000;

    /// Suspicion threshold: peer becomes `suspected` when silence
    /// exceeds suspect_phi × its EWMA interarrival (floored at the
    /// heartbeat interval).
    double suspect_phi = 3.0;

    /// Death threshold in the same units.  Must exceed suspect_phi.
    double dead_phi = 8.0;

    /// Hard floor on silence before death can be declared, so a single
    /// slow tick never fences a healthy peer regardless of phi.
    std::int64_t min_dead_us = 400000;

    /// EWMA gain for the interarrival estimate (0 < gain <= 1).
    double interarrival_gain = 0.125;
};

}    // namespace coal::parcel
