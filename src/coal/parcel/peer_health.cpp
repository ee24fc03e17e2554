#include <coal/parcel/peer_health.hpp>

#include <coal/common/logging.hpp>
#include <coal/trace/tracer.hpp>

#include <utility>

namespace coal::parcel {

std::string to_string_health(std::uint8_t bits)
{
    static constexpr std::pair<std::uint8_t, char const*> names[] = {
        {peer_health::dead_bit, "dead"},
        {peer_health::tombstoned, "tombstoned"},
        {peer_health::retransmit_backlog, "retransmit-backlog"},
        {peer_health::credit_starvation, "credit-starvation"},
        {peer_health::phi_suspect, "phi-suspect"},
    };
    std::string out;
    for (auto const& [b, name] : names)
        if ((bits & b) != 0)
            out.append(out.empty() ? "" : "+").append(name);
    return out.empty() ? "ok" : out;
}

void health_tracker::set(peer_health& h, std::uint32_t peer, std::uint8_t bits)
{
    std::uint8_t const prev = h.bits_;
    if (prev == bits)
        return;
    h.bits_ = bits;
    auto const was = [prev](std::uint8_t m) { return (prev & m) != 0; };
    auto const is = [bits](std::uint8_t m) { return (bits & m) != 0; };
    auto const step = [](std::atomic<std::size_t>& gauge, bool from, bool to) {
        if (from != to)
            gauge.fetch_add(to ? 1 : static_cast<std::size_t>(-1),
                std::memory_order_release);
    };
    step(degraded_, was(peer_health::causes_mask), is(peer_health::causes_mask));
    step(suspected_, was(peer_health::phi_suspect), is(peer_health::phi_suspect));
    step(dead_, was(peer_health::dead_bit), is(peer_health::dead_bit));
    step(dead_live_, was(peer_health::dead_bit) && !was(peer_health::tombstoned),
        is(peer_health::dead_bit) && !is(peer_health::tombstoned));

    // One count per opening: a cause joining an open breaker is no trip.
    auto const rose = [&](std::uint8_t m) { return !was(m) && is(m); };
    if (rose(peer_health::breaker))
    {
        counters_.circuit_breaker_trips.fetch_add(1, std::memory_order_relaxed);
        if (is(peer_health::credit_starvation))
            counters_.starvation_trips.fetch_add(1, std::memory_order_relaxed);
    }
    if (rose(peer_health::phi_suspect))
        counters_.peers_suspected.fetch_add(1, std::memory_order_relaxed);
    if (rose(peer_health::dead_bit))
        counters_.peers_declared_dead.fetch_add(1, std::memory_order_relaxed);

    trace::tracer::global().record(
        here_, trace::event_kind::peer_health, peer, bits);
    bool const worse =
        (bits & ~prev & (peer_health::causes_mask | peer_health::dead_bit)) != 0;
    log(worse ? log_level::warn : log_level::info, "parcel",
        "link %u->%u health %s -> %s%s", here_, peer,
        to_string_health(prev).c_str(), to_string_health(bits).c_str(),
        h.degraded() ? ": coalescing bypassed" : "");
}

}    // namespace coal::parcel
