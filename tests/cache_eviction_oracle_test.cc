// Eviction oracle: the stores' O(log n) lease-aware eviction index must
// pick exactly the victim the O(n) scan it replaced would pick.
//
// The old scan is kept here as the reference.  OracleStore wraps a real
// backend, mirrors its full LRU order from the calls ResolverCache makes
// (inserts and touches move a key to the front, erases drop it), and on
// every evict_candidate() call walks that order from the least recent end
// over the live entries — the first entry without a valid lease wins,
// else the first leased one, never the most recent — and asserts the
// wrapped store agrees.  Seeded random op streams drive a heap-backed and
// an mmap-backed cache side by side: puts and negative puts, set_lease
// (set, clear, shorten), leases granted or extended in place through
// put()'s reference or an older one (the store's contract allows no
// in-place clear or shortening), lookups, invalidations, purges, clock
// jumps past lease expiries and mmap warm reloads mid-stream.  Both must
// produce the same victim sequence as each other and the same leased /
// unleased eviction counts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <list>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cachestore/mmap_store.h"
#include "server/cache.h"
#include "server/cache_store.h"

namespace dnscup::server {
namespace {

using dns::Name;
using dns::RRType;

constexpr int64_t kWallBase = 1'700'000'000'000'000;

/// The reference LRU order of one cache, carried across warm reloads.
struct Reference {
  struct Slot {
    const CacheEntry* entry = nullptr;
    std::list<CacheKey>::iterator it;
  };
  std::list<CacheKey> lru;  ///< front = most recent
  std::unordered_map<CacheKey, Slot, CacheKeyHash, CacheKeyEq> by_key;
  std::unordered_map<const CacheEntry*, CacheKey> by_entry;

  void front(const CacheKey& key) {
    Slot& slot = by_key.at(key);
    lru.erase(slot.it);
    lru.push_front(key);
    slot.it = lru.begin();
  }

  /// The scan HeapCacheStore::evict_candidate ran before its index.
  std::optional<CacheStoreBackend::Victim> scan(net::SimTime now) const {
    if (lru.size() < 2) return std::nullopt;
    std::optional<CacheStoreBackend::Victim> leased_fallback;
    auto stop = lru.rend();
    --stop;  // reverse iteration ends before the most recent entry
    for (auto it = lru.rbegin(); it != stop; ++it) {
      const CacheEntry& entry = *by_key.at(*it).entry;
      const bool lease_valid =
          entry.lease.has_value() && now < entry.lease->expiry;
      if (!lease_valid) return CacheStoreBackend::Victim{*it, false};
      if (!leased_fallback.has_value()) {
        leased_fallback = CacheStoreBackend::Victim{*it, true};
      }
    }
    return leased_fallback;
  }
};

/// Forwards every call to the wrapped store, keeping `ref` in step and
/// checking each eviction candidate against the reference scan.
class OracleStore final : public CacheStoreBackend {
 public:
  OracleStore(std::unique_ptr<CacheStoreBackend> inner, Reference& ref,
              std::vector<std::string>& victims)
      : inner_(std::move(inner)), ref_(&ref), victims_(&victims) {
    // Re-bind the carried order to the (possibly reloaded) entries.
    ref_->by_entry.clear();
    std::size_t live = 0;
    inner_->for_each([&](const CacheKey& key, const CacheEntry& entry) {
      auto it = ref_->by_key.find(key);
      ASSERT_NE(it, ref_->by_key.end()) << key.name.to_string();
      it->second.entry = &entry;
      ref_->by_entry.emplace(&entry, key);
      ++live;
    });
    EXPECT_EQ(live, ref_->lru.size());
  }

  std::string_view name() const override { return inner_->name(); }
  std::size_t size() const override { return inner_->size(); }
  CacheEntry* find(const CacheKey& key) override { return inner_->find(key); }
  CacheEntry* find(const dns::NameView& name, RRType type) override {
    return inner_->find(name, type);
  }
  CacheEntry& upsert(const CacheKey& key, bool& inserted) override {
    CacheEntry& entry = inner_->upsert(key, inserted);
    if (inserted) {
      ref_->lru.push_front(key);
      ref_->by_key.emplace(key, Reference::Slot{&entry, ref_->lru.begin()});
      ref_->by_entry.emplace(&entry, key);
    }
    return entry;
  }
  void commit(CacheEntry& entry, Change change) override {
    inner_->commit(entry, change);
  }
  bool erase(const CacheKey& key) override {
    if (!inner_->erase(key)) return false;
    auto it = ref_->by_key.find(key);
    ref_->lru.erase(it->second.it);
    ref_->by_entry.erase(it->second.entry);
    ref_->by_key.erase(it);
    return true;
  }
  void touch(CacheEntry& entry) override {
    inner_->touch(entry);
    ref_->front(ref_->by_entry.at(&entry));
  }
  std::optional<Victim> evict_candidate(net::SimTime now) override {
    const auto want = ref_->scan(now);
    const auto got = inner_->evict_candidate(now);
    EXPECT_EQ(want.has_value(), got.has_value()) << "at " << now;
    if (want.has_value() && got.has_value()) {
      EXPECT_EQ(want->key.name.to_string(), got->key.name.to_string())
          << "at " << now;
      EXPECT_EQ(want->leased, got->leased) << want->key.name.to_string();
    }
    if (got.has_value()) {
      victims_->push_back(got->key.name.to_string() +
                          (got->leased ? "/leased" : "/unleased"));
    }
    return got;
  }
  void for_each(const EntryFn& fn) const override { inner_->for_each(fn); }
  void put_zone_serial(const Name& zone, uint32_t serial) override {
    inner_->put_zone_serial(zone, serial);
  }
  std::vector<std::pair<Name, uint32_t>> zone_serials() const override {
    return inner_->zone_serials();
  }

 private:
  std::unique_ptr<CacheStoreBackend> inner_;
  Reference* ref_;
  std::vector<std::string>* victims_;
};

struct Lcg {
  uint64_t state;
  uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
  uint64_t below(uint64_t n) { return next() % n; }
};

dns::RRset a_set(const Name& name, uint32_t ttl, uint32_t addr) {
  dns::RRset set{name, RRType::kA, dns::RRClass::kIN, ttl, {}};
  set.add(dns::ARdata{dns::Ipv4{addr}});
  return set;
}

struct Shape {
  uint64_t seed;
  std::size_t capacity;
  uint32_t names;
  int ops;
  /// Every third block of 1000 ops only inserts with a lease, as a
  /// DNScup cache does, so a large cache reaches the all-leased state.
  bool leased_phases = false;
};

void PrintTo(const Shape& shape, std::ostream* os) {
  *os << "seed " << shape.seed << ", capacity " << shape.capacity << ", "
      << shape.names << " names";
}

class EvictionOracleTest : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    path_ = "cache_eviction_oracle_" + std::to_string(GetParam().seed) +
            "." + std::to_string(::getpid());
    ::unlink(path_.c_str());
  }
  void TearDown() override { ::unlink(path_.c_str()); }

  std::unique_ptr<ResolverCache> open_mmap(net::SimTime now) {
    cachestore::MmapCacheStore::Options opts;
    opts.path = path_;
    opts.file_bytes = 1ull << 20;
    opts.now = now;
    // Wall time advances with sim time, so the reload sees no downtime
    // and every persisted time maps back unchanged.
    opts.wall_now_us = kWallBase + now;
    auto opened = cachestore::MmapCacheStore::open(std::move(opts));
    EXPECT_TRUE(opened.ok());
    return std::make_unique<ResolverCache>(
        GetParam().capacity, &registry_,
        std::make_unique<OracleStore>(std::move(opened).value(), mmap_ref_,
                                      mmap_victims_));
  }

  std::string path_;
  metrics::MetricsRegistry registry_;
  Reference heap_ref_, mmap_ref_;
  std::vector<std::string> heap_victims_, mmap_victims_;
};

TEST_P(EvictionOracleTest, IndexMatchesScanOnHeapAndMmap) {
  const Shape shape = GetParam();
  ResolverCache heap(shape.capacity, &registry_,
                     std::make_unique<OracleStore>(
                         std::make_unique<HeapCacheStore>(), heap_ref_,
                         heap_victims_));
  std::unique_ptr<ResolverCache> mmap = open_mmap(0);
  ResolverCache::Stats mmap_before_reloads{};
  int reloads = 0;

  const net::Endpoint authority{net::make_ip(10, 0, 0, 1), 53};
  std::vector<Name> names;
  for (uint32_t i = 0; i < shape.names; ++i) {
    names.push_back(
        Name::parse("n" + std::to_string(i) + ".example.com").value());
  }
  Lcg rng{shape.seed};
  net::SimTime now = 0;
  // Lease ends on whole seconds so expiries often coincide with `now`.
  auto lease_at = [&](int64_t from_now_s) {
    return LeaseState{now + net::seconds(from_now_s), authority};
  };
  // In place, a lease may only be granted or extended.
  auto extended = [&](const CacheEntry& entry) {
    const net::SimTime from =
        entry.lease.has_value() ? std::max(entry.lease->expiry, now) : now;
    return LeaseState{
        from + net::seconds(1 + static_cast<int64_t>(rng.below(3600))),
        authority};
  };
  auto random_lease = [&]() -> std::optional<LeaseState> {
    switch (rng.below(5)) {
      case 0: return std::nullopt;                                  // clear
      case 1: return lease_at(-static_cast<int64_t>(rng.below(5)));  // ended
      case 2: return lease_at(static_cast<int64_t>(rng.below(4)));   // short
      default: return lease_at(30 + static_cast<int64_t>(rng.below(3600)));
    }
  };

  for (int op = 0; op < shape.ops; ++op) {
    const Name& name = names[rng.below(names.size())];
    now += static_cast<net::Duration>(rng.below(4)) * net::milliseconds(250);
    const uint32_t ttl = 1 + static_cast<uint32_t>(rng.below(3600));
    uint64_t dice = rng.below(200);
    if (shape.leased_phases && (op / 1000) % 3 == 2 && dice >= 40 &&
        dice < 116) {
      dice = 0;
    }
    if (dice < 40) {
      // A DNScup leased miss: insert, then grant through the seam.
      const auto lease = lease_at(30 + static_cast<int64_t>(rng.below(3600)));
      heap.put(a_set(name, ttl, 1), now);
      mmap->put(a_set(name, ttl, 1), now);
      heap.set_lease(name, RRType::kA, lease);
      mmap->set_lease(name, RRType::kA, lease);
    } else if (dice < 70) {
      const auto addr = static_cast<uint32_t>(rng.next());
      heap.put(a_set(name, ttl, addr), now);
      mmap->put(a_set(name, ttl, addr), now);
    } else if (dice < 80) {
      heap.put_negative(name, RRType::kA, dns::Rcode::kNXDomain, ttl, now);
      mmap->put_negative(name, RRType::kA, dns::Rcode::kNXDomain, ttl, now);
    } else if (dice < 104) {
      const auto lease = random_lease();
      EXPECT_EQ(heap.set_lease(name, RRType::kA, lease),
                mmap->set_lease(name, RRType::kA, lease));
    } else if (dice < 116) {
      // Granted in place through put()'s reference, no commit.
      CacheEntry& h = heap.put(a_set(name, ttl, 7), now);
      CacheEntry& m = mmap->put(a_set(name, ttl, 7), now);
      const LeaseState lease = extended(h);
      h.lease = lease;
      m.lease = lease;
    } else if (dice < 166) {
      const CacheEntry* h = heap.lookup(name, RRType::kA, now);
      const CacheEntry* m = mmap->lookup(name, RRType::kA, now);
      ASSERT_EQ(h == nullptr, m == nullptr) << "op " << op;
    } else if (dice < 176) {
      EXPECT_EQ(heap.invalidate(name, RRType::kA),
                mmap->invalidate(name, RRType::kA));
    } else if (dice < 177) {
      EXPECT_EQ(heap.purge_expired(now), mmap->purge_expired(now));
    } else if (dice < 179) {
      now += net::seconds(30 + static_cast<int64_t>(rng.below(3600)));
    } else if (dice < 180) {
      // Warm reload: persist in-place edits, drop what the load would
      // drop as dead on both sides, then reopen the mmap image.
      std::vector<CacheKey> keys;
      mmap->for_each([&](const CacheKey& key, const CacheEntry&) {
        keys.push_back(key);
      });
      for (const CacheKey& key : keys) mmap->commit(key.name, key.type);
      EXPECT_EQ(heap.purge_expired(now), mmap->purge_expired(now));
      const auto s = mmap->stats();
      mmap_before_reloads.evictions += s.evictions;
      mmap_before_reloads.leased_evictions += s.leased_evictions;
      mmap.reset();
      mmap = open_mmap(now);
      ++reloads;
    } else if (dice < 190) {
      // Grant or extend a lease in place through an older reference, one
      // the store no longer tracks: only its lazy re-checks can see it.
      const CacheKey key{name, RRType::kA};
      auto h = heap_ref_.by_key.find(key);
      auto m = mmap_ref_.by_key.find(key);
      ASSERT_EQ(h == heap_ref_.by_key.end(), m == mmap_ref_.by_key.end());
      if (h != heap_ref_.by_key.end()) {
        const LeaseState lease = extended(*h->second.entry);
        const_cast<CacheEntry*>(h->second.entry)->lease = lease;
        const_cast<CacheEntry*>(m->second.entry)->lease = lease;
      }
    }
    ASSERT_EQ(heap.size(), mmap->size()) << "op " << op;
    ASSERT_LE(heap.size(), shape.capacity);
  }

  EXPECT_GT(reloads, 0);
  EXPECT_EQ(heap_victims_, mmap_victims_);
  uint64_t leased = 0;
  for (const std::string& v : heap_victims_) {
    if (v.ends_with("/leased")) ++leased;
  }
  const auto hs = heap.stats();
  const auto ms = mmap->stats();
  EXPECT_EQ(hs.evictions, heap_victims_.size());
  EXPECT_EQ(hs.leased_evictions, leased);
  EXPECT_EQ(mmap_before_reloads.evictions + ms.evictions, hs.evictions);
  EXPECT_EQ(mmap_before_reloads.leased_evictions + ms.leased_evictions,
            hs.leased_evictions);
  // The stream must exercise both kinds of victim to mean anything.
  EXPECT_GT(leased, 0u);
  EXPECT_LT(leased, heap_victims_.size());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EvictionOracleTest,
    ::testing::Values(Shape{20261017, 16, 40, 20000},
                      Shape{1, 8, 12, 20000},
                      Shape{77, 100, 250, 30000, true}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace dnscup::server
