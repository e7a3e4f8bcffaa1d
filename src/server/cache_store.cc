#include "server/cache_store.h"

#include <algorithm>

namespace dnscup::server {

CacheEntry* HeapCacheStore::find(const CacheKey& key) {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

CacheEntry* HeapCacheStore::find(const dns::NameView& name,
                                 dns::RRType type) {
  auto it = entries_.find(CacheKeyView{name, type});
  return it == entries_.end() ? nullptr : &it->second;
}

CacheEntry& HeapCacheStore::upsert(const CacheKey& key, bool& inserted) {
  return emplace_node(key, inserted);
}

HeapCacheStore::Node& HeapCacheStore::emplace_node(const CacheKey& key,
                                                   bool& inserted) {
  auto [it, fresh] = entries_.try_emplace(key);
  inserted = fresh;
  Node& node = it->second;
  if (fresh) {
    node.key = &it->first;
    node.stamp = ++next_stamp_;
    node.order = unleased_.emplace_hint(unleased_.end(), node.stamp, &node);
  }
  return node;
}

void HeapCacheStore::commit(CacheEntry& entry, Change change) {
  (void)change;
  reindex(node_of(entry));
}

void HeapCacheStore::reindex(Node& node) {
  const bool want = node.lease.has_value() && node.lease->expiry > horizon_;
  if (want != node.leased) {
    auto moved = set_of(node).extract(node.order);
    if (node.leased) {
      expiries_.erase(node.by_expiry);
    } else {
      node.by_expiry = expiries_.emplace(node.lease->expiry, &node);
    }
    node.leased = want;
    // Stamps are unique, so the insert always lands.
    node.order = set_of(node).insert(std::move(moved)).position;
  } else if (want && node.by_expiry->first != node.lease->expiry) {
    auto moved = expiries_.extract(node.by_expiry);
    moved.key() = node.lease->expiry;
    node.by_expiry = expiries_.insert(std::move(moved));
  }
}

bool HeapCacheStore::erase(const CacheKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  erase_node(it);
  return true;
}

void HeapCacheStore::erase_node(EntryMap::iterator it) {
  Node& node = it->second;
  set_of(node).erase(node.order);
  if (node.leased) expiries_.erase(node.by_expiry);
  entries_.erase(it);
}

void HeapCacheStore::touch(CacheEntry& entry) {
  // Re-key the set node in place (extract + reinsert at the end): the
  // per-hit recency bump allocates nothing.
  Node& node = node_of(entry);
  RecencyIndex& set = set_of(node);
  auto moved = set.extract(node.order);
  node.stamp = ++next_stamp_;
  moved.key() = node.stamp;
  node.order = set.insert(set.end(), std::move(moved));
}

std::optional<CacheStoreBackend::Victim> HeapCacheStore::evict_candidate(
    net::SimTime now) {
  if (entries_.size() < 2) return std::nullopt;
  if (now < horizon_) {
    // The clock stepped back: leases demoted at the later instant may be
    // valid again, so re-classify everything (rare; O(n log n)).
    horizon_ = now;
    for (auto& [key, node] : entries_) reindex(node);
  } else {
    horizon_ = now;
    // Demote leases that ran out; reindex re-checks the live entry, so a
    // lease renewed in place is re-indexed under its new expiry instead.
    while (!expiries_.empty() && expiries_.begin()->first <= now) {
      reindex(*expiries_.begin()->second);
    }
  }

  // The most recent entry is never a candidate: it may be the insertion
  // that triggered the eviction, and callers hold a reference to it.
  const uint64_t mru = std::max(
      unleased_.empty() ? 0 : unleased_.rbegin()->first,
      leased_.empty() ? 0 : leased_.rbegin()->first);

  // Prefer the least recent entry without a valid lease ...
  for (auto it = unleased_.begin();
       it != unleased_.end() && it->first != mru;) {
    Node& node = *it->second;
    if (!lease_valid(node, now)) return Victim{*node.key, false};
    ++it;
    reindex(node);  // a lease set in place: leased after all
  }
  // ... and fall back to the least recent leased entry (the caller counts
  // that separately — the authority believes we hold it, and the next
  // query re-negotiates).
  auto oldest = leased_.begin();
  if (oldest == leased_.end() || oldest->first == mru) return std::nullopt;
  const Node& node = *oldest->second;
  return Victim{*node.key, lease_valid(node, now)};
}

void HeapCacheStore::for_each(const EntryFn& fn) const {
  for (const auto& [key, node] : entries_) fn(key, node);
}

void HeapCacheStore::put_zone_serial(const dns::Name& zone, uint32_t serial) {
  zone_serials_[zone] = serial;
}

std::vector<std::pair<dns::Name, uint32_t>> HeapCacheStore::zone_serials()
    const {
  return {zone_serials_.begin(), zone_serials_.end()};
}

}  // namespace dnscup::server
