/// \file counters_setup.cpp
/// Registers all built-in performance counter types with the runtime's
/// registry — including the counters the paper adds to HPX:
///
///   /threads/time/average-overhead      (Eq. 2)
///   /threads/background-work            (Eq. 3, added by the paper)
///   /threads/background-overhead        (Eq. 4, added by the paper)
///   /coalescing/count/parcels@action
///   /coalescing/count/messages@action
///   /coalescing/count/average-parcels-per-message@action
///   /coalescing/time/average-parcel-arrival@action
///   /coalescing/time/parcel-arrival-histogram@action
///
/// plus supporting counters for parcels, messages, data volume, task
/// counts and the flush-timer service.  Instance selection follows HPX:
/// `{locality#N}` reads one locality, empty or `{locality#*/total}`
/// aggregates over all of them.
///
/// Every counter is one row of a descriptor table: path, help text, kind
/// (how reads and resets behave), scope (which sources an instance reads)
/// and a value function over one source — usually a pointer to the field
/// or accessor it reports.

#include <coal/runtime/runtime.hpp>

#include <coal/core/coalescing_counters.hpp>
#include <coal/perf/counter.hpp>
#include <coal/perf/counter_path.hpp>
#include <coal/serialization/buffer_pool.hpp>

#include <algorithm>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

namespace coal {

namespace {

using perf::counter_path;
using perf::counter_ptr;

using cc = coalescing::coalescing_counters;
using ph = parcel::parcelhandler;
using ph_counters = parcel::parcelhandler_counters;
using health = ph::health_snapshot;
using store = ph::peer_store_stats;
using sched = threading::scheduler_snapshot;
using pool = serialization::buffer_pool_stats;
using timers = timing::timer_service_stats;
using transport = net::transport_stats;
using wire = net::socket_wire_stats;

enum class row_kind
{
    count,        ///< monotonic source; reset re-zeroes a baseline
    gauge,        ///< current value; reset does nothing
    ratio,        ///< Σread / Σread2 over the interval since the last reset
    histogram,    ///< per-action arrival histogram; reset clears it
};
using enum row_kind;

enum class row_scope
{
    sum,        ///< `{locality#N}`, or the sum over every hosted locality
    max,        ///< as `sum`, but the aggregate takes the maximum
    process,    ///< process-wide; the instance is ignored
    action,     ///< as `sum`, over the `@action`'s coalescing counters
};
using enum row_scope;

/// What one reader call looks at: the runtime, plus one hosted locality
/// (all scopes but `process`) and its counter block for the `@action`.
struct source
{
    runtime* rt = nullptr;
    locality* loc = nullptr;
    std::shared_ptr<cc> block = nullptr;
};

using reader = double (*)(source const&);

struct counter_row
{
    char const* path;
    char const* help;
    row_kind kind;
    row_scope scope;
    reader read;
    reader read2 = nullptr;    ///< ratio denominator
};

/// The object that fields and accessors of class C are read from.
template <typename C>
decltype(auto) view(source const& s)
{
    if constexpr (std::is_base_of_v<C, ph_counters>)
        return s.loc->parcels().counters();
    else if constexpr (std::is_same_v<C, ph>)
        return s.loc->parcels();
    else if constexpr (std::is_same_v<C, health>)
        return s.loc->parcels().health();
    else if constexpr (std::is_same_v<C, store>)
        return s.loc->parcels().peer_stats();
    else if constexpr (std::is_same_v<C, sched>)
        return s.loc->scheduler().snapshot();
    else if constexpr (std::is_same_v<C, cc>)
        return *s.block;
    else if constexpr (std::is_same_v<C, transport>)
        return s.rt->network().stats();
    else if constexpr (std::is_same_v<C, wire>)
        // Wire rows exist on every transport and read 0 off sockets, so
        // the catalogue does not depend on the transport.
        return s.rt->wire() != nullptr ? s.rt->wire()->wire_stats() : wire{};
    else if constexpr (std::is_same_v<C, pool>)
        return serialization::buffer_pool::global().stats();
    else if constexpr (std::is_same_v<C, timers>)
        return s.rt->timers().stats();
    else
    {
        static_assert(std::is_same_v<C, timing::deadline_timer_service>);
        return s.rt->timers();
    }
}

/// The class a member pointer points into (for decltype only).
template <typename T, typename C>
C member_class(T C::*);

/// Reader of one field or const accessor, e.g. `&ph_counters::bytes_sent`.
template <auto Member>
double field(source const& s)
{
    using C = decltype(member_class(Member));
    return static_cast<double>(std::invoke(Member, view<C>(s)));
}

constexpr counter_row counter_table[] = {
    // ---- scheduler (Eq. 1-4) -------------------------------------------
    {"/threads/count/cumulative", "number of executed tasks (HPX threads)",
        count, sum, field<&sched::tasks_executed>},
    {"/threads/time/func", "cumulative task duration Σt_func (Eq. 1), ns",
        count, sum, field<&sched::func_time_ns>},
    {"/threads/time/exec", "cumulative useful execution time Σt_exec, ns",
        count, sum, field<&sched::exec_time_ns>},
    {"/threads/background-work",
        "cumulative background-work duration (Eq. 3), ns", count, sum,
        field<&sched::background_time_ns>},
    {"/threads/time/idle-polls",
        "time spent in background polls that found no work, ns "
        "(excluded from Eq. 3/4)", count, sum,
        field<&sched::idle_poll_time_ns>},
    {"/threads/time/average-overhead",
        "average per-task management overhead (Eq. 2), ns/task", ratio, sum,
        [](source const& s) {
            auto const snap = view<sched>(s);
            return static_cast<double>(snap.func_time_ns - snap.exec_time_ns);
        },
        field<&sched::tasks_executed>},
    // Denominator includes background time: HPX runs background work as
    // HPX threads, so Σt_func subsumes it there (see
    // scheduler_snapshot::network_overhead()).
    {"/threads/background-overhead",
        "network overhead n_oh = Σt_bg / Σt_func (Eq. 4), ratio", ratio,
        sum, field<&sched::background_time_ns>,
        [](source const& s) {
            auto const snap = view<sched>(s);
            return static_cast<double>(
                snap.func_time_ns + snap.background_time_ns);
        }},
    // ---- parcel / message / data volume --------------------------------
    {"/parcels/count/sent",
        "parcels handed to the parcel layer for remote delivery", count, sum,
        field<&ph_counters::parcels_sent>},
    {"/parcels/count/received", "parcels decoded from incoming messages", count,
        sum, field<&ph_counters::parcels_received>},
    {"/parcels/count/routed-local",
        "parcels short-circuited to the local scheduler", count, sum,
        field<&ph_counters::parcels_local>},
    {"/messages/count/sent", "wire messages transmitted", count, sum,
        field<&ph_counters::messages_sent>},
    {"/messages/count/received", "wire messages received", count, sum,
        field<&ph_counters::messages_received>},
    {"/data/count/sent", "bytes transmitted (message frames)", count, sum,
        field<&ph_counters::bytes_sent>},
    {"/data/count/received", "bytes received (message frames)", count, sum,
        field<&ph_counters::bytes_received>},
    // ---- hierarchical (two-level) aggregation --------------------------
    {"/coal/hierarchy/relayed",
        "parcels received as a node relay and re-routed to their final "
        "destination", count, sum, field<&ph_counters::parcels_relayed>},
    {"/coal/hierarchy/fanned-out",
        "relayed parcels forwarded over intra-node links (the fan-out leg)",
        count, sum, field<&ph_counters::parcels_fanned_out>},
    {"/coal/hierarchy/relay-confirmed",
        "forwarded parcels acknowledged by their final destination (the "
        "completion half of the relay custody ledger)", count, sum,
        field<&ph_counters::parcels_relay_confirmed>},
    {"/coal/hierarchy/relay-failed",
        "forwarded parcels lost from relay custody (destination death, "
        "link down, or relay crash after confirming the origin)", count, sum,
        field<&ph_counters::parcels_relay_failed>},
    {"/coal/hierarchy/inter-node-messages",
        "wire messages sent across a node boundary (topology-classified)",
        count, sum, field<&ph_counters::messages_inter_node>},
    {"/coal/hierarchy/intra-node-messages",
        "wire messages sent within a node (topology-classified)", count, sum,
        field<&ph_counters::messages_intra_node>},
    // ---- reliability & fault injection (/net) --------------------------
    {"/net/count/drops",
        "messages lost by the transport (shutdown races, missing handlers, "
        "injected faults)", count, process,
        field<&transport::messages_dropped>},
    {"/net/count/drops-injected", "messages dropped by the fault plan", count,
        process, field<&transport::drops_injected>},
    {"/net/count/duplicates-injected",
        "duplicate messages forged by the fault plan", count, process,
        field<&transport::duplicates_injected>},
    {"/net/count/retransmits", "frames retransmitted by the reliability layer",
        count, sum, field<&ph_counters::retransmits>},
    {"/net/count/duplicates-suppressed",
        "received frames discarded as duplicates by the reliability layer",
        count, sum, field<&ph_counters::duplicates_suppressed>},
    {"/net/count/acks", "standalone ack frames emitted", count, sum,
        field<&ph_counters::acks_sent>},
    {"/net/count/circuit-breaker-trips",
        "times a per-link circuit breaker opened (coalescing bypassed)", count,
        sum, field<&ph_counters::circuit_breaker_trips>},
    {"/net/time/average-ack-latency",
        "mean time from first transmission to acknowledgement, µs", ratio, sum,
        [](source const& s) {
            return field<&ph_counters::ack_latency_ns>(s) / 1000.0;    // µs
        },
        field<&ph_counters::acked_messages>},
    // ---- batched receive pipeline --------------------------------------
    {"/threads/receive-pipeline/count/drains",
        "progress_receive calls that drained at least one frame", count, sum,
        field<&ph_counters::receive_drains>},
    {"/threads/receive-pipeline/count/frames",
        "inbox frames consumed by budgeted receive drains", count, sum,
        field<&ph_counters::frames_drained>},
    {"/threads/receive-pipeline/count/chunks",
        "chunk tasks bulk-spawned by the receive pipeline", count, sum,
        field<&ph_counters::chunk_tasks>},
    {"/threads/receive-pipeline/frames-per-drain",
        "average inbox frames consumed per draining progress_receive call",
        ratio, sum, field<&ph_counters::frames_drained>,
        field<&ph_counters::receive_drains>},
    {"/threads/receive-pipeline/chunk-occupancy",
        "average parcels carried per chunk task", ratio, sum,
        field<&ph_counters::chunk_parcels>, field<&ph_counters::chunk_tasks>},
    {"/threads/receive-pipeline/time/offloaded-decode",
        "argument-decode time moved off the background critical path onto "
        "executing workers, ns", count, sum,
        field<&ph_counters::decode_offload_ns>},
    {"/net/count/duplicate-overhead-avoided",
        "duplicate frames recognized from the frame prefix before the "
        "per-message receive overhead was paid", count, sum,
        field<&ph_counters::duplicate_overhead_avoided>},
    // ---- socket parcelport (/net/wire) ---------------------------------
    {"/net/wire/count/bytes-sent",
        "bytes written to sockets, frame headers included", count, process,
        field<&wire::bytes_sent>},
    {"/net/wire/count/bytes-received",
        "bytes read from sockets, frame headers included", count, process,
        field<&wire::bytes_received>},
    {"/net/wire/count/frames-sent",
        "complete frames (data + control) written to sockets", count, process,
        field<&wire::frames_sent>},
    {"/net/wire/count/frames-received",
        "complete frames received and CRC-verified", count, process,
        field<&wire::frames_received>},
    {"/net/wire/count/reconnects",
        "established connections lost and scheduled for reconnect", count,
        process, field<&wire::reconnects>},
    {"/net/wire/count/connects",
        "successful outbound connects (incl. reconnects)", count, process,
        field<&wire::connects>},
    {"/net/wire/count/accepts", "inbound connections accepted", count, process,
        field<&wire::accepts>},
    {"/net/wire/count/partial-write-resumptions",
        "frame writes resumed after a short write (socket buffer full)", count,
        process, field<&wire::partial_write_resumptions>},
    {"/net/wire/count/partial-read-resumptions",
        "frame reads resumed after a partial frame arrived", count, process,
        field<&wire::partial_read_resumptions>},
    {"/net/wire/count/crc-drops",
        "frames discarded for a payload CRC mismatch (never executed; "
        "recovered by retransmission)", count, process,
        field<&wire::crc_drops>},
    {"/net/wire/count/desync-drops",
        "fatal stream decode errors (bad magic/version/header CRC) that "
        "cut the connection", count, process, field<&wire::desync_drops>},
    {"/net/wire/count/oversized-drops",
        "frames rejected for a length prefix above the frame cap", count,
        process, field<&wire::oversized_drops>},
    {"/net/wire/count/truncated-drops",
        "partial frames discarded at connection end", count, process,
        field<&wire::truncated_drops>},
    {"/net/wire/count/connect-failures",
        "outbound connect attempts that failed (retried with backoff)", count,
        process, field<&wire::connect_failures>},
    {"/net/wire/count/accept-failures",
        "accept() failures on listening sockets", count, process,
        field<&wire::accept_failures>},
    {"/net/wire/count/handshake-failures",
        "HELLO exchanges rejected (geometry or action-registry digest "
        "mismatch)", count, process, field<&wire::handshake_failures>},
    {"/net/wire/count/backlog-drops",
        "frames shed at the per-connection outbound backlog cap", count,
        process, field<&wire::backlog_drops>},
    // ---- flow control / overload protection (/net/flow) ----------------
    {"/net/flow/count/shed",
        "best-effort parcels shed by admission control under critical "
        "pressure", count, sum, field<&ph_counters::parcels_shed>},
    {"/net/flow/count/deferrals",
        "send jobs deferred on an exhausted credit window", count, sum,
        field<&ph_counters::sends_deferred>},
    {"/net/flow/count/releases",
        "deferred send jobs re-queued after the window opened", count, sum,
        field<&ph_counters::sends_released>},
    {"/net/flow/count/credit-updates",
        "credit window grants applied from peer advertisements", count, sum,
        field<&ph_counters::credit_updates>},
    {"/net/flow/count/link-down",
        "parcels failed with link_down (breaker open, in-flight cap "
        "exhausted)", count, sum, field<&ph_counters::link_down_failures>},
    {"/net/flow/count/pressure-transitions",
        "process-level pressure state changes (ok/soft/critical)", count, sum,
        field<&ph_counters::pressure_transitions>},
    {"/net/flow/count/starvation-trips",
        "circuit breakers opened by the credit-starvation slow-peer "
        "detector", count, sum, field<&ph_counters::starvation_trips>},
    {"/net/flow/pressure",
        "current pressure state toward the worst peer "
        "(gauge: 0=ok, 1=soft, 2=critical)", gauge, max,
        field<&ph::current_pressure>},
    // ---- membership / failure detection (/net/health) -------------------
    {"/net/health/count/heartbeats",
        "standalone liveness frames emitted on idle links (and dead-peer "
        "rejoin probes)", count, sum, field<&ph_counters::heartbeats_sent>},
    {"/net/health/count/suspected",
        "suspicion escalations (phi crossed suspect_phi)", count, sum,
        field<&ph_counters::peers_suspected>},
    {"/net/health/count/deaths",
        "peers declared dead by the phi-accrual failure detector", count, sum,
        field<&ph_counters::peers_declared_dead>},
    {"/net/health/count/rejoins",
        "peers readmitted under a fresh incarnation epoch", count, sum,
        field<&ph_counters::peer_rejoins>},
    {"/net/health/count/stale-epoch-frames",
        "frames discarded because they belonged to a fenced incarnation "
        "(wrong src or dst epoch)", count, sum,
        field<&ph_counters::stale_epoch_frames>},
    {"/net/health/count/refutes",
        "false-positive deaths healed by epoch refutation (this locality "
        "adopted the higher epoch an accuser's dead-peer probe demanded)",
        count, sum, field<&ph_counters::epoch_refutes>},
    {"/net/health/count/confirmed-parcels",
        "parcels whose frame the peer acknowledged (sender-side confirmed "
        "delivery)", count, sum, field<&ph_counters::parcels_confirmed>},
    {"/net/health/known-peers",
        "peers with membership state at this locality (gauge)", gauge, sum,
        field<&health::known_peers>},
    {"/net/health/suspected-peers", "peers currently under suspicion (gauge)",
        gauge, sum, field<&health::suspected_peers>},
    {"/net/health/dead-peers",
        "peers currently declared dead (gauge; rejoin clears)", gauge, sum,
        field<&health::dead_peers>},
    // ---- sharded peer store / idle eviction (/net/peers) ----------------
    {"/net/peers/active",
        "hydrated (resident) peer entries in the sharded store (gauge)", gauge,
        sum, field<&store::active>},
    {"/net/peers/evicted", "idle peers demoted to compact tombstones (gauge)",
        gauge, sum, field<&store::evicted>},
    // A hash-skew diagnostic: the aggregate is the worst locality.
    {"/net/peers/shard-max-occupancy",
        "entries in the fullest shard (max across localities; hash-skew "
        "diagnostic)", gauge, max, field<&store::shard_max_occupancy>},
    {"/net/peers/count/evictions",
        "idle peers demoted to tombstones by the clock-hand sweeper", count,
        sum, field<&store::evictions>},
    {"/net/peers/count/rehydrations",
        "tombstoned peers restored to full state on renewed contact", count,
        sum, field<&store::rehydrations>},
    // ---- unified delivery-failure taxonomy (/net/count/delivery-errors) --
    // One counter per delivery_error cause; every undeliverable parcel is
    // counted in exactly one of them (the fail_parcels funnel).
    {"/net/count/delivery-errors/shed-overload",
        "parcels refused by admission control under critical pressure", count,
        sum, field<&ph_counters::parcels_shed>},
    {"/net/count/delivery-errors/link-down",
        "parcels failed because the link was down (breaker open, byte cap "
        "exhausted)", count, sum, field<&ph_counters::link_down_failures>},
    {"/net/count/delivery-errors/peer-failed",
        "parcels failed because the destination locality died (delivery "
        "not confirmed)", count, sum,
        field<&ph_counters::peer_failed_failures>},
    // ---- coalescing counters (the paper's §II-B additions) -------------
    {"/coalescing/count/parcels",
        "parcels routed through the coalescing handler of an action", count,
        action, field<&cc::parcels>},
    {"/coalescing/count/messages",
        "messages generated by the coalescing handler of an action", count,
        action, field<&cc::messages>},
    {"/coalescing/count/average-parcels-per-message",
        "average number of parcels per coalesced message of an action", ratio,
        action, field<&cc::parcels_in_messages>, field<&cc::messages>},
    {"/coalescing/time/average-parcel-arrival",
        "average time between parcel arrivals for an action, µs", ratio,
        action,
        [](source const& s) {
            return s.block->average_arrival_us() *
                static_cast<double>(s.block->gap_count());
        },
        field<&cc::gap_count>},
    {"/coalescing/time/parcel-arrival-histogram",
        "histogram of gaps between parcel arrivals for an action "
        "(min, max, bucket-width, counts...), µs", histogram, action, nullptr},
    // ---- buffer pool (zero-copy pipeline) ------------------------------
    // The slab pool is process-global (archives and wire messages on every
    // locality share it), so these counters ignore instance selection.
    {"/coal/pool/count/hits", "slab acquires served from a pool free list",
        count, process, field<&pool::hits>},
    {"/coal/pool/count/misses", "slab acquires that had to allocate", count,
        process, field<&pool::misses>},
    {"/coal/pool/count/heap-fallbacks",
        "slab acquires above the top size class (plain heap, still "
        "refcounted)", count, process, field<&pool::heap_fallbacks>},
    {"/coal/pool/count/flattens",
        "wire-boundary gather copies (scatter-gather frames flattened "
        "for a contiguous transport)", count, process, field<&pool::flattens>},
    {"/coal/pool/count/outstanding",
        "pooled slabs currently alive (gauge; free-listed slabs excluded)",
        gauge, process, field<&pool::outstanding>},
    {"/coal/pool/data/copied",
        "payload bytes moved by memcpy anywhere in the pipeline "
        "(inlined small payloads, archive growth, gathers)", count, process,
        [](source const& s) {
            auto const stats = view<pool>(s);
            return static_cast<double>(
                stats.bytes_copied + stats.bytes_flattened);
        }},
    {"/coal/pool/data/referenced",
        "payload bytes moved by bumping a slab refcount instead of copying",
        count, process, field<&pool::bytes_referenced>},
    {"/coal/pool/resident-bytes",
        "payload bytes held by live slabs (gauge; watermark input)", gauge,
        process, field<&pool::resident_bytes>},
    {"/coal/pool/resident-bytes-peak",
        "high-water mark of live slab payload bytes", gauge, process,
        field<&pool::resident_bytes_peak>},
    {"/coal/pool/fallback-bytes",
        "live heap-fallback payload bytes (gauge; capped allocation path)",
        gauge, process, field<&pool::fallback_bytes>},
    {"/coal/pool/fallback-bytes-peak",
        "high-water mark of live heap-fallback payload bytes", gauge, process,
        field<&pool::fallback_bytes_peak>},
    {"/coal/pool/count/fallback-cap-hits",
        "capped acquires refused because live fallback bytes were at the "
        "configured cap", count, process, field<&pool::fallback_cap_hits>},
    // ---- flush-timer service -------------------------------------------
    {"/timers/count/scheduled", "flush timers scheduled", count, process,
        field<&timers::scheduled>},
    {"/timers/count/fired", "flush timers fired", count, process,
        field<&timers::fired>},
    {"/timers/count/cancelled", "flush timers cancelled before firing", count,
        process, field<&timers::cancelled>},
    {"/timers/time/average-lateness", "mean timer firing lateness, µs", gauge,
        process, field<&timers::mean_lateness_us>},
    {"/timers/time/max-lateness", "worst timer firing lateness since start, µs",
        gauge, process, field<&timers::max_lateness_us>},
    {"/timers/count/pending", "flush timers currently armed (gauge)", gauge,
        process, field<&timing::deadline_timer_service::pending>},
};

/// The sources an instance of `row` reads: the runtime alone for a
/// process-wide row, else the `{locality#N}` locality or every hosted one
/// (an action row keeps those that know the `@action`).  Empty — an
/// invalid instance — for a locality this process does not host, or an
/// action row without a known action.
std::vector<source> select_sources(
    runtime& rt, counter_row const& row, counter_path const& path)
{
    if (row.scope == process)
        return {source{&rt}};
    std::vector<source> out;
    auto const loc = path.locality();
    if ((loc && !rt.hosts(*loc)) ||
        (row.scope == action && path.parameters.empty()))
        return out;
    std::uint32_t const first = loc ? *loc : rt.first_local_rank();
    std::uint32_t const last = loc ? *loc + 1 : first + rt.num_local_ranks();
    for (std::uint32_t id = first; id != last; ++id)
    {
        locality& l = rt.get_locality(id);
        if (row.scope != action)
            out.push_back({&rt, &l});
        else if (auto block = l.coalescing().counters(path.parameters))
            out.push_back({&rt, &l, std::move(block)});
    }
    return out;
}

/// A live instance of one row over the sources its path selected.  Counts
/// and ratios reset by re-baselining, so a ratio read after a reset covers
/// just the interval since (per-phase overheads, Fig. 9).
class row_counter final : public perf::counter
{
public:
    row_counter(counter_row const& row, std::vector<source> sources)
      : row_(row)
      , sources_(std::move(sources))
    {
    }

    perf::counter_value value(bool reset) override
    {
        perf::counter_value v;
        v.valid = true;
        if (row_.kind == histogram)
        {
            v.values = arrival_histogram();
            if (reset)
                this->reset();
            return v;
        }
        double const n = fold(row_.read) - base_;
        double const d = row_.kind == ratio ? fold(row_.read2) - base2_ : 1.0;
        v.value = d > 0.0 ? n / d : 0.0;
        if (reset && row_.kind != gauge)
        {
            base_ += n;
            base2_ += row_.kind == ratio ? d : 0.0;
        }
        return v;
    }

    void reset() override
    {
        if (row_.kind == histogram)
        {
            for (auto const& s : sources_)
                s.block->reset_arrival_histogram();
        }
        else if (row_.kind != gauge)
        {
            base_ = fold(row_.read);
            base2_ = row_.kind == ratio ? fold(row_.read2) : 0.0;
        }
    }

private:
    [[nodiscard]] double fold(reader read) const
    {
        double total = 0.0;
        for (auto const& s : sources_)
            total = row_.scope == max ? std::max(total, read(s)) :
                                        total + read(s);
        return total;
    }

    /// Element-wise sum; all blocks share the default bucketing,
    /// including the 3-entry header.
    [[nodiscard]] std::vector<std::int64_t> arrival_histogram() const
    {
        std::vector<std::int64_t> total =
            sources_.front().block->arrival_histogram();
        for (std::size_t i = 1; i < sources_.size(); ++i)
        {
            auto const h = sources_[i].block->arrival_histogram();
            for (std::size_t j = 3; j < total.size() && j < h.size(); ++j)
                total[j] += h[j];
        }
        return total;
    }

    counter_row const& row_;
    std::vector<source> sources_;
    double base_ = 0.0;
    double base2_ = 0.0;
};

}    // namespace

void runtime::register_counters()
{
    for (counter_row const& row : counter_table)
        counters_.register_counter_type(row.path, row.help,
            [this, &row](counter_path const& path) -> counter_ptr {
                auto sources = select_sources(*this, row, path);
                if (sources.empty())
                    return nullptr;
                return std::make_shared<row_counter>(row, std::move(sources));
            });
}

}    // namespace coal
