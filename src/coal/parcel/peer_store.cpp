#include <coal/parcel/peer_store.hpp>

#include <coal/common/assert.hpp>

#include <algorithm>

namespace coal::parcel {

namespace {

    struct id_less
    {
        bool operator()(std::pair<std::uint32_t, peer_entry*> const& a,
            std::uint32_t b) const noexcept
        {
            return a.first < b;
        }
    };

}    // namespace

peer_entry* peer_store::find(std::uint32_t id) const noexcept
{
    shard const& s = shards_[shard_of(id)];
    snapshot const* sn = s.snap.load(std::memory_order_acquire);
    std::size_t covered = 0;
    if (sn != nullptr)
    {
        covered = sn->entries.size();
        auto const it = std::lower_bound(
            sn->entries.begin(), sn->entries.end(), id, id_less{});
        if (it != sn->entries.end() && it->first == id)
            return it->second;
    }
    // Definitive miss: the snapshot covers every entry in the shard.
    if (s.count.load(std::memory_order_acquire) == covered)
        return nullptr;
    std::lock_guard lock(s.lock);
    auto const it = s.map.find(id);
    return it == s.map.end() ? nullptr : it->second.get();
}

peer_entry& peer_store::get_or_create(std::uint32_t id)
{
    if (peer_entry* e = find(id))
        return *e;
    shard& s = shards_[shard_of(id)];
    std::lock_guard lock(s.lock);
    auto [it, inserted] = s.map.try_emplace(id);
    if (inserted)
    {
        it->second = std::make_shared<peer_entry>(id);
        s.count.store(s.map.size(), std::memory_order_release);
        size_.fetch_add(1, std::memory_order_relaxed);
        // Doubling policy: O(log n) publications per shard, bounding
        // retired-snapshot memory at < 2n slots while keeping the
        // locked slow path rare.
        if (s.published == 0 || s.map.size() >= 2 * s.published)
            publish_locked(s);
    }
    return *it->second;
}

peer_state& peer_store::hydrate(peer_entry& e, std::uint32_t self_epoch)
{
    if (e.live)
        return *e.live;
    e.live = std::make_unique<peer_state>();
    peer_state& st = *e.live;
    if (e.tombstoned)
    {
        st.next_seq = e.tomb.next_seq;
        st.cum_received = e.tomb.cum_received;
        st.stream_gen = e.tomb.stream_gen;
        st.health = e.tomb.health;
        st.epoch = e.tomb.epoch;
        st.link_epoch =
            e.tomb.link_epoch != 0 ? e.tomb.link_epoch : self_epoch;
        e.tombstoned = false;
        tombstoned_.fetch_sub(1, std::memory_order_relaxed);
        rehydrations_.fetch_add(1, std::memory_order_relaxed);
    }
    else
    {
        st.link_epoch = self_epoch;
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    return st;
}

void peer_store::demote(peer_entry& e)
{
    COAL_ASSERT(e.live != nullptr);
    peer_state const& st = *e.live;
    COAL_ASSERT(evictable(st));
    e.tomb.next_seq = st.next_seq;
    e.tomb.cum_received = st.cum_received;
    e.tomb.stream_gen = st.stream_gen;
    e.tomb.epoch = st.epoch;
    e.tomb.link_epoch = st.link_epoch;
    e.tomb.health = st.health;
    e.tombstoned = true;
    e.live.reset();
    active_.fetch_sub(1, std::memory_order_relaxed);
    tombstoned_.fetch_add(1, std::memory_order_relaxed);
    evictions_.fetch_add(1, std::memory_order_relaxed);
}

void peer_store::reset(peer_entry& e)
{
    if (e.live)
    {
        e.live.reset();
        active_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (e.tombstoned)
    {
        e.tombstoned = false;
        tombstoned_.fetch_sub(1, std::memory_order_relaxed);
    }
    e.tomb = peer_tombstone{};
    e.last_activity_ns = 0;
}

void peer_store::collect_shard(std::size_t shard_index,
    std::vector<std::shared_ptr<peer_entry>>& out) const
{
    shard const& s = shards_[shard_index];
    std::lock_guard lock(s.lock);
    out.reserve(out.size() + s.map.size());
    for (auto const& [id, e] : s.map)
        out.push_back(e);
}

peer_store::snapshot const* peer_store::shard_snapshot(
    std::size_t shard_index) const noexcept
{
    return shards_[shard_index].snap.load(std::memory_order_acquire);
}

void peer_store::refresh_snapshot(std::size_t shard_index)
{
    shard& s = shards_[shard_index];
    std::lock_guard lock(s.lock);
    if (s.map.size() != s.published)
        publish_locked(s);
}

std::size_t peer_store::shard_max_occupancy() const noexcept
{
    std::size_t worst = 0;
    for (auto const& s : shards_)
        worst = std::max(worst, s.count.load(std::memory_order_relaxed));
    return worst;
}

void peer_store::publish_locked(shard& s)
{
    auto next = std::make_unique<snapshot>();
    next->entries.reserve(s.map.size());
    for (auto const& [id, e] : s.map)
        next->entries.emplace_back(id, e.get());
    std::sort(next->entries.begin(), next->entries.end(),
        [](auto const& a, auto const& b) { return a.first < b.first; });
    s.snap.store(next.get(), std::memory_order_release);
    s.published = s.map.size();
    s.retired.push_back(std::move(next));
}

void due_ring::schedule(std::shared_ptr<peer_entry> entry, std::int64_t due_ns)
{
    if (due_ns == std::numeric_limits<std::int64_t>::max())
        return;
    if (due_ns < 1)
        due_ns = 1;
    std::int64_t cur = entry->ring_due.load(std::memory_order_relaxed);
    while (due_ns < cur)
    {
        if (entry->ring_due.compare_exchange_weak(
                cur, due_ns, std::memory_order_acq_rel))
        {
            // Park on the staging list; only the drainer files items
            // into buckets (see the class comment — bucketing here
            // would strand past-due deadlines behind the cursor).
            std::lock_guard lock(staging_lock_);
            staged_.push_back(item{due_ns, std::move(entry)});
            return;
        }
    }
}

std::size_t due_ring::queued() const
{
    std::size_t total = 0;
    {
        std::lock_guard lock(staging_lock_);
        total += staged_.size();
    }
    for (auto const& b : buckets_)
    {
        std::lock_guard lock(b.lock);
        total += b.items.size();
    }
    return total;
}

}    // namespace coal::parcel
