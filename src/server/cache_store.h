// Pluggable storage backend behind server::ResolverCache — the same
// extraction pattern as net::IoBackend: the cache's observable behavior
// (lookup/put/apply_update/invalidate semantics and stats) lives in
// ResolverCache, while the entry container (hash map + eviction index +
// zone-serial sidecar) is a backend that can be swapped.
//
// Two backends exist:
//  * HeapCacheStore (here) — an unordered_map plus a lease-aware
//    eviction index; all state is lost on process exit.
//  * cachestore::MmapCacheStore (src/cachestore) — serves from the same
//    heap structures but mirrors every committed mutation into an
//    mmap-backed file image, so a restart reloads the cache warm.
//
// The contract around mutation: ResolverCache mutates the CacheEntry
// reference returned by find()/upsert() and then calls commit(entry); a
// persistent backend re-serializes the entry at commit time.  References
// stay valid until the entry is erased (they point into heap nodes, never
// into the file image) and double as handles: touch() and commit() take
// the entry itself, so neither re-probes the hash table.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/cache.h"

namespace dnscup::server {

class CacheStoreBackend {
 public:
  virtual ~CacheStoreBackend() = default;

  /// Backend identifier ("heap", "mmap") for logs and banners.
  virtual std::string_view name() const = 0;

  virtual std::size_t size() const = 0;

  /// The entry for `key`, or nullptr.  The reference stays valid until
  /// the key is erased; mutations through it must be followed by
  /// commit(entry) to reach a persistent image.
  virtual CacheEntry* find(const CacheKey& key) = 0;

  /// Heterogeneous twin of find(): probes with a wire view, building no
  /// Name or CacheKey.
  virtual CacheEntry* find(const dns::NameView& name, dns::RRType type) = 0;

  /// Inserts (default-constructed) or returns the existing entry;
  /// `inserted` reports which.  A fresh insert becomes the most recent.
  virtual CacheEntry& upsert(const CacheKey& key, bool& inserted) = 0;

  /// What an in-place mutation changed: kData covers anything (the RRset
  /// included); kLease promises that only the lease / expiry metadata
  /// moved, so a persistent backend may keep the entry's stored RRset.
  enum class Change { kData, kLease };

  /// Re-syncs an entry (a reference from this store) after in-place
  /// mutation: re-classifies it for eviction and re-persists it.
  virtual void commit(CacheEntry& entry, Change change) = 0;

  virtual bool erase(const CacheKey& key) = 0;

  /// Makes `entry` (a reference from this store) the most recent.
  virtual void touch(CacheEntry& entry) = 0;
  /// Keyed convenience form of touch(); a no-op when absent.
  void touch(const CacheKey& key) {
    if (CacheEntry* entry = find(key)) touch(*entry);
  }

  struct Victim {
    CacheKey key;
    bool leased = false;  ///< lease still valid at candidate time
  };
  /// The entry eviction should claim next: the least-recently-used entry
  /// without a *valid* lease at `now` (expired leases do not protect),
  /// falling back to the least-recently-used validly-leased entry when
  /// every entry is leased.  The most recent entry is never a candidate
  /// (it may be the insertion that triggered the eviction, and callers
  /// hold a reference to it), so nullopt whenever fewer than 2 entries
  /// exist.  Not const: the backend may lazily re-classify entries whose
  /// lease changed or ran out since they were indexed.
  virtual std::optional<Victim> evict_candidate(net::SimTime now) = 0;

  using EntryFn = std::function<void(const CacheKey&, const CacheEntry&)>;
  virtual void for_each(const EntryFn& fn) const = 0;

  // Zone-serial sidecar: the highest serial applied per zone, persisted
  // alongside the entries so a warm restart can prove its data current
  // against the authority's SUBSCRIBE_ACK inventory.
  virtual void put_zone_serial(const dns::Name& zone, uint32_t serial) = 0;
  virtual std::vector<std::pair<dns::Name, uint32_t>> zone_serials()
      const = 0;
};

/// The concrete in-process store: unordered_map keyed by CacheKey plus a
/// lease-aware eviction index.  MmapCacheStore derives from this and
/// mirrors mutations into its file image.
///
/// Eviction index.  Every entry carries a recency stamp (a counter bumped
/// on insert and touch; larger = more recent) and sits in exactly one of
/// two stamp-ordered sets: entries believed unleased and entries believed
/// leased, the latter also indexed by lease expiry.  "Believed" is the
/// classification at the last re-sync: an entry is in the leased set iff
/// it held a lease expiring after `horizon_`, the latest `now` an
/// eviction ran at.  evict_candidate(now) first demotes every indexed
/// lease expiring at or before `now` (re-checking the live entry, whose
/// lease may have been renewed in place), then takes the oldest entry of
/// the unleased set, re-checking it too (a lease set in place through a
/// reference moves it to the leased set), and only then the oldest of
/// the leased set.  Each step is O(log n); the victim is exactly the one
/// an O(n) scan of the full LRU order would pick, provided lease changes
/// reach the store through commit().  A lease granted or extended in
/// place through a reference is picked up by the re-checks above without
/// one; a lease cleared or shortened in place is not.
class HeapCacheStore : public CacheStoreBackend {
 public:
  using CacheStoreBackend::touch;

  std::string_view name() const override { return "heap"; }
  std::size_t size() const override { return entries_.size(); }
  CacheEntry* find(const CacheKey& key) override;
  CacheEntry* find(const dns::NameView& name, dns::RRType type) override;
  CacheEntry& upsert(const CacheKey& key, bool& inserted) override;
  void commit(CacheEntry& entry, Change change) override;
  bool erase(const CacheKey& key) override;
  void touch(CacheEntry& entry) override;
  std::optional<Victim> evict_candidate(net::SimTime now) override;
  void for_each(const EntryFn& fn) const override;
  void put_zone_serial(const dns::Name& zone, uint32_t serial) override;
  std::vector<std::pair<dns::Name, uint32_t>> zone_serials() const override;

 protected:
  struct Node;
  using RecencyIndex = std::map<uint64_t, Node*>;            ///< by stamp
  using ExpiryIndex = std::multimap<net::SimTime, Node*>;    ///< by lease end
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  /// A stored entry plus its index bookkeeping.  Entries are handed out
  /// as CacheEntry references to the base; node_of() recovers the node.
  struct Node : CacheEntry {
    const CacheKey* key = nullptr;  ///< the map node's own key (stable)
    uint64_t stamp = 0;             ///< recency: larger = more recent
    bool leased = false;            ///< which recency set holds it
    RecencyIndex::iterator order;   ///< position in that set
    ExpiryIndex::iterator by_expiry;  ///< position in expiries_ if leased
    uint32_t mirror_slot = kNoSlot;   ///< persistent image slot (mmap)
  };

  static Node& node_of(CacheEntry& entry) { return static_cast<Node&>(entry); }

  /// The node for `key`; a fresh one (`inserted`) is default, the most
  /// recent, and indexed as unleased until filled and reindex()ed.
  Node& emplace_node(const CacheKey& key, bool& inserted);

  /// Moves `node` between the two recency sets / the expiry index to
  /// match its live lease (no-op when the classification still holds).
  void reindex(Node& node);

  using EntryMap =
      std::unordered_map<CacheKey, Node, CacheKeyHash, CacheKeyEq>;
  /// Unlinks the node from every index and drops it.
  void erase_node(EntryMap::iterator it);

  EntryMap entries_;
  std::map<dns::Name, uint32_t> zone_serials_;

 private:
  RecencyIndex& set_of(const Node& node) {
    return node.leased ? leased_ : unleased_;
  }
  bool lease_valid(const Node& node, net::SimTime at) const {
    return node.lease.has_value() && at < node.lease->expiry;
  }

  RecencyIndex unleased_;
  RecencyIndex leased_;
  ExpiryIndex expiries_;
  uint64_t next_stamp_ = 0;
  /// Latest `now` an eviction ran at; leases expiring at or before it
  /// are classified as unleased.
  net::SimTime horizon_ = std::numeric_limits<net::SimTime>::min();
};

}  // namespace dnscup::server
