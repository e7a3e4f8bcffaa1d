#include "cachestore/mmap_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <ctime>
#include <span>
#include <utility>
#include <vector>

#include "dns/rr.h"
#include "dns/wire.h"
#include "util/crc32.h"

namespace dnscup::cachestore {
namespace {

constexpr char kMagic[8] = {'D', 'N', 'S', 'C', 'U', 'P', 'C', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr std::size_t kHeaderBytes = 4096;
constexpr std::size_t kSlotBytes = 512;
constexpr std::size_t kMinFileBytes = 1ull << 20;
constexpr std::size_t kMinSlots = 64;
/// RRType sentinel marking a zone-serial slot's identity; real
/// record types never reach 0xFFFF in this codebase.
constexpr uint16_t kZoneType = 0xFFFF;

// Fixed in-slot byte layout.  The LRU tick lives OUTSIDE the CRC-covered
// range so touch() — the per-cache-hit path — is a single uncheck-summed
// u64 store; a torn tick only perturbs warm-reload LRU order, never data.
constexpr std::size_t kNameOffset = 80;        // after SlotHeader
constexpr std::size_t kMaxNameText = 255;
constexpr std::size_t kTickOffset = 496;       // u64, not CRC-covered
constexpr std::size_t kSlotCrcOffset = 508;    // u32 over [0, 496)

enum SlotState : uint32_t {
  kFree = 0,
  kUsed = 1,
  kDead = 2,
  kZone = 3,
};

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t slot_bytes;
  uint64_t slot_count;
  uint64_t slab_bytes;
  uint64_t slab_used;
  int64_t wall_epoch_us;  ///< CLOCK_REALTIME µs at the writer's SimTime 0
  uint64_t file_bytes;
  uint32_t reserved;
  uint32_t crc;           ///< over the preceding bytes
};
static_assert(sizeof(FileHeader) == 64);
static_assert(std::is_trivially_copyable_v<FileHeader>);
constexpr std::size_t kHeaderCrcOffset = offsetof(FileHeader, crc);

struct SlotHeader {
  uint32_t state;
  uint32_t slab_crc;
  uint64_t key_hash;
  int64_t inserted_at;
  int64_t expiry;
  int64_t lease_expiry;
  uint64_t slab_off;     ///< offset within the slab arena
  uint32_t slab_len;
  uint32_t ttl;          ///< zone slots: the zone serial
  uint32_t lease_ip;
  uint16_t lease_port;
  uint16_t name_len;
  uint16_t rrtype;
  uint16_t rrclass;
  uint8_t negative;
  uint8_t negative_rcode;
  uint8_t has_lease;
  uint8_t pad[9];
};
static_assert(sizeof(SlotHeader) == kNameOffset);
static_assert(std::is_trivially_copyable_v<SlotHeader>);

int64_t realtime_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return int64_t{ts.tv_sec} * 1'000'000 + ts.tv_nsec / 1'000;
}

std::string lower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

uint64_t zone_slot_hash(const dns::Name& zone) {
  return server::CacheKeyHash{}(
      server::CacheKey{zone, static_cast<dns::RRType>(kZoneType)});
}

uint32_t slot_crc(const uint8_t* slot) {
  return util::crc32({slot, kTickOffset});
}

/// The entry's metadata fields: everything but the identity (state, key,
/// name, type, class) and the slab reference.
void fill_header(SlotHeader& sh, const server::CacheEntry& entry) {
  sh.inserted_at = entry.inserted_at;
  sh.expiry = entry.expiry;
  sh.ttl = entry.rrset.ttl;
  sh.negative = entry.negative ? 1 : 0;
  sh.negative_rcode = static_cast<uint8_t>(entry.negative_rcode);
  sh.has_lease = entry.lease.has_value() ? 1 : 0;
  sh.lease_expiry = entry.lease.has_value() ? entry.lease->expiry : 0;
  sh.lease_ip = entry.lease.has_value() ? entry.lease->authority.ip : 0;
  sh.lease_port = entry.lease.has_value() ? entry.lease->authority.port : 0;
}

}  // namespace

MmapCacheStore::MmapCacheStore(Options options)
    : options_(std::move(options)) {
  metrics::MetricsRegistry& reg = metrics::resolve(options_.metrics);
  const std::string instance = reg.next_instance("cache_store");
  metrics::Labels base{{"instance", instance}};
  file_bytes_gauge_ = reg.gauge("cache_store_file_bytes", base);
  slots_used_gauge_ = reg.gauge("cache_store_slots_used", base);
  warm_entries_gauge_ = reg.gauge("cache_store_warm_entries", base);
  cold_starts_ = reg.counter("cache_store_cold_starts", base);
  metrics::Labels slab = base;
  slab.emplace_back("reason", "slab_full");
  persist_failed_slab_ = reg.counter("cache_store_persist_failures", slab);
  metrics::Labels table = base;
  table.emplace_back("reason", "table_full");
  persist_failed_table_ = reg.counter("cache_store_persist_failures", table);
  compactions_ = reg.counter("cache_store_compactions", base);
}

MmapCacheStore::~MmapCacheStore() {
  if (map_ != nullptr) {
    ::msync(map_, file_bytes_, MS_SYNC);
    ::munmap(map_, file_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

util::Result<std::unique_ptr<MmapCacheStore>> MmapCacheStore::open(
    Options options) {
  const int64_t wall_now =
      options.wall_now_us != 0 ? options.wall_now_us : realtime_us();
  std::unique_ptr<MmapCacheStore> store(
      new MmapCacheStore(std::move(options)));

  store->fd_ = ::open(store->options_.path.c_str(),
                      O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (store->fd_ < 0) {
    return util::make_error(util::ErrorCode::kIo,
                            "open " + store->options_.path + ": " +
                                std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(store->fd_, &st) != 0) {
    return util::make_error(util::ErrorCode::kIo,
                            "fstat: " + std::string(std::strerror(errno)));
  }
  const std::size_t target =
      std::max(store->options_.file_bytes, kMinFileBytes);
  const auto existing = static_cast<std::size_t>(st.st_size);
  if (existing != target && ::ftruncate(store->fd_, target) != 0) {
    return util::make_error(util::ErrorCode::kIo,
                            "ftruncate: " + std::string(std::strerror(errno)));
  }
  void* map = ::mmap(nullptr, target, PROT_READ | PROT_WRITE, MAP_SHARED,
                     store->fd_, 0);
  if (map == MAP_FAILED) {
    return util::make_error(util::ErrorCode::kIo,
                            "mmap: " + std::string(std::strerror(errno)));
  }
  store->map_ = static_cast<uint8_t*>(map);
  store->file_bytes_ = target;

  // Geometry derives from file size alone: half (rounded to a power of
  // two of 512 B slots) for the slot table, the rest for the slab.
  std::size_t slots = kMinSlots;
  while (slots * 2 * kSlotBytes <= (target - kHeaderBytes) / 2) slots *= 2;
  store->slot_count_ = slots;
  store->slab_off_ = kHeaderBytes + slots * kSlotBytes;
  store->slab_bytes_ = target - store->slab_off_;
  store->file_bytes_gauge_.set(static_cast<double>(target));

  if (existing == 0) {
    store->cold_init("fresh file", wall_now);
  } else if (existing != target) {
    store->cold_init("size mismatch", wall_now);
  } else {
    FileHeader hdr{};
    std::memcpy(&hdr, store->map_, sizeof hdr);
    const uint32_t want_crc =
        util::crc32({store->map_, kHeaderCrcOffset});
    if (std::memcmp(hdr.magic, kMagic, sizeof kMagic) != 0) {
      store->cold_init("bad magic", wall_now);
    } else if (hdr.version != kFormatVersion) {
      store->cold_init("bad version", wall_now);
    } else if (hdr.crc != want_crc) {
      store->cold_init("bad header crc", wall_now);
    } else if (hdr.slot_bytes != kSlotBytes ||
               hdr.slot_count != store->slot_count_ ||
               hdr.slab_bytes != store->slab_bytes_ ||
               hdr.file_bytes != target ||
               hdr.slab_used > hdr.slab_bytes) {
      store->cold_init("bad geometry", wall_now);
    } else {
      store->slab_used_ = hdr.slab_used;
      store->wall_epoch_us_ = hdr.wall_epoch_us;
      store->load_image(wall_now);
    }
  }
  return store;
}

uint8_t* MmapCacheStore::slot_ptr(std::size_t index) const {
  return map_ + kHeaderBytes + index * kSlotBytes;
}

void MmapCacheStore::write_header() {
  FileHeader hdr{};
  std::memcpy(hdr.magic, kMagic, sizeof kMagic);
  hdr.version = kFormatVersion;
  hdr.slot_bytes = kSlotBytes;
  hdr.slot_count = slot_count_;
  hdr.slab_bytes = slab_bytes_;
  hdr.slab_used = slab_used_;
  hdr.wall_epoch_us = wall_epoch_us_;
  hdr.file_bytes = file_bytes_;
  std::memcpy(map_, &hdr, sizeof hdr);
  const uint32_t crc = util::crc32({map_, kHeaderCrcOffset});
  std::memcpy(map_ + kHeaderCrcOffset, &crc, sizeof crc);
}

void MmapCacheStore::reset_image(int64_t wall_now) {
  std::memset(map_ + kHeaderBytes, 0, slot_count_ * kSlotBytes);
  slab_used_ = 0;
  slots_used_ = 0;
  // Every slot is free; handing them out from the back of the list
  // fills the table front to back.
  free_slots_.resize(slot_count_);
  for (std::size_t i = 0; i < slot_count_; ++i) {
    free_slots_[i] = static_cast<uint32_t>(slot_count_ - 1 - i);
  }
  zone_slots_.clear();
  // Anchor: wall_now corresponds to the adopting runtime's options_.now,
  // so SimTime 0 maps to wall_now - now.
  wall_epoch_us_ = wall_now - options_.now;
  write_header();
  slots_used_gauge_.set(0);
}

void MmapCacheStore::cold_init(const std::string& reason, int64_t wall_now) {
  reset_image(wall_now);
  load_.cold = true;
  load_.cold_reason = reason;
  ++cold_starts_;
}

void MmapCacheStore::load_image(int64_t wall_now) {
  // Every persisted SimTime is in the *writer's* clock.  Its wall time is
  // old_epoch + t; in the adopting runtime's clock that instant is
  // t - delta with delta = new_epoch - old_epoch — which includes exactly
  // the downtime, so TTLs keep decaying while the process is dead.
  const int64_t new_epoch = wall_now - options_.now;
  const int64_t delta = std::max<int64_t>(0, new_epoch - wall_epoch_us_);

  struct Loaded {
    server::CacheKey key;
    server::CacheEntry entry;
    uint64_t tick = 0;
  };
  std::vector<Loaded> loaded;
  std::vector<std::pair<dns::Name, uint32_t>> zones;

  for (std::size_t i = 0; i < slot_count_; ++i) {
    const uint8_t* slot = slot_ptr(i);
    SlotHeader sh{};
    std::memcpy(&sh, slot, sizeof sh);
    if (sh.state != kUsed && sh.state != kZone) continue;
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, slot + kSlotCrcOffset, sizeof stored_crc);
    if (stored_crc != slot_crc(slot) || sh.name_len == 0 ||
        sh.name_len > kMaxNameText) {
      ++load_.torn_dropped;
      continue;
    }
    const std::string text(reinterpret_cast<const char*>(slot + kNameOffset),
                           sh.name_len);
    auto name = dns::Name::parse(text);
    if (!name.ok()) {
      ++load_.torn_dropped;
      continue;
    }

    if (sh.state == kZone) {
      zones.emplace_back(std::move(name).value(), sh.ttl);
      ++load_.zones_loaded;
      continue;
    }

    server::CacheEntry entry;
    entry.negative = sh.negative != 0;
    entry.negative_rcode = static_cast<dns::Rcode>(sh.negative_rcode);
    entry.inserted_at = sh.inserted_at - delta;
    entry.expiry = sh.expiry - delta;
    entry.rrset.name = name.value();
    entry.rrset.type = static_cast<dns::RRType>(sh.rrtype);
    entry.rrset.rrclass = static_cast<dns::RRClass>(sh.rrclass);
    entry.rrset.ttl = sh.ttl;
    if (sh.slab_len > 0) {
      if (sh.slab_off > slab_bytes_ || sh.slab_len > slab_bytes_ ||
          sh.slab_off + sh.slab_len > slab_used_) {
        ++load_.torn_dropped;
        continue;
      }
      std::span<const uint8_t> payload{map_ + slab_off_ + sh.slab_off,
                                       sh.slab_len};
      if (util::crc32(payload) != sh.slab_crc) {
        ++load_.torn_dropped;
        continue;
      }
      dns::ByteReader reader(payload);
      bool bad = false;
      while (!reader.at_end()) {
        auto rr = dns::decode_record(reader);
        if (!rr.ok()) {
          bad = true;
          break;
        }
        entry.rrset.rdatas.push_back(std::move(rr.value().rdata));
      }
      if (bad || entry.rrset.rdatas.empty()) {
        ++load_.torn_dropped;
        continue;
      }
    }
    if (sh.has_lease != 0) {
      const net::SimTime lease_expiry = sh.lease_expiry - delta;
      if (!options_.keep_leases) {
        ++load_.leases_demoted;
      } else if (lease_expiry > options_.now) {
        entry.lease = server::LeaseState{
            lease_expiry, net::Endpoint{sh.lease_ip, sh.lease_port}};
      }
    }
    if (!entry.fresh(options_.now)) {
      ++load_.expired_dropped;
      continue;
    }
    uint64_t tick = 0;
    std::memcpy(&tick, slot + kTickOffset, sizeof tick);
    loaded.push_back(Loaded{
        server::CacheKey{entry.rrset.name, entry.rrset.type},
        std::move(entry), tick});
  }

  // Adopt into the heap structures in LRU-tick order: each adoption
  // becomes the most recent, so ascending-tick order reproduces the
  // pre-restart recency order — and, through the lease index built by
  // reindex(), the pre-restart eviction order.
  std::stable_sort(loaded.begin(), loaded.end(),
                   [](const Loaded& a, const Loaded& b) {
                     return a.tick < b.tick;
                   });
  std::vector<Node*> adopted;
  adopted.reserve(loaded.size());
  for (Loaded& item : loaded) {
    bool inserted = false;
    Node& node = emplace_node(item.key, inserted);
    if (!inserted) continue;  // duplicate image of one key: first wins
    static_cast<server::CacheEntry&>(node) = std::move(item.entry);
    reindex(node);
    adopted.push_back(&node);
  }
  for (auto& [zone, serial] : zones) zone_serials_[zone] = serial;

  load_.cold = false;
  load_.warm_entries = entries_.size();
  load_.downtime_us = delta;
  warm_entries_gauge_.set(static_cast<double>(entries_.size()));

  // Rewrite the image against the new epoch: all later commits stamp
  // new-clock times, so the old-epoch slots must not survive alongside
  // them.  The rewrite also compacts the slab and clears tombstones.
  reset_image(wall_now);
  for (Node* node : adopted) persist_entry(*node, Change::kData);
  for (const auto& [zone, serial] : zone_serials_) {
    persist_zone(zone, serial);
  }
}

bool MmapCacheStore::slab_append(std::span<const uint8_t> payload,
                                 uint64_t* off) {
  if (payload.size() > slab_bytes_) return false;
  if (slab_used_ + payload.size() > slab_bytes_) {
    compact_slab();
    if (slab_used_ + payload.size() > slab_bytes_) return false;
  }
  *off = slab_used_;
  std::memcpy(map_ + slab_off_ + slab_used_, payload.data(), payload.size());
  slab_used_ += payload.size();
  write_header();
  return true;
}

void MmapCacheStore::compact_slab() {
  struct Region {
    std::size_t slot;
    uint64_t off;
    uint32_t len;
  };
  std::vector<Region> regions;
  for (std::size_t i = 0; i < slot_count_; ++i) {
    SlotHeader sh{};
    std::memcpy(&sh, slot_ptr(i), sizeof sh);
    if (sh.state == kUsed && sh.slab_len > 0) {
      regions.push_back(Region{i, sh.slab_off, sh.slab_len});
    }
  }
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) { return a.off < b.off; });
  uint64_t used = 0;
  for (const Region& r : regions) {
    if (r.off != used) {
      std::memmove(map_ + slab_off_ + used, map_ + slab_off_ + r.off, r.len);
      uint8_t* slot = slot_ptr(r.slot);
      std::array<uint8_t, kSlotBytes> image;
      std::memcpy(image.data(), slot, kSlotBytes);
      SlotHeader sh{};
      std::memcpy(&sh, image.data(), sizeof sh);
      sh.slab_off = used;
      std::memcpy(image.data(), &sh, sizeof sh);
      const uint32_t crc = slot_crc(image.data());
      std::memcpy(image.data() + kSlotCrcOffset, &crc, sizeof crc);
      write_slot(r.slot, image);
    }
    used += r.len;
  }
  slab_used_ = used;
  write_header();
  ++compactions_;
}

void MmapCacheStore::write_slot(std::size_t index,
                                std::span<const uint8_t> image) {
  std::memcpy(slot_ptr(index), image.data(), kSlotBytes);
}

void MmapCacheStore::kill_slot(std::size_t index) {
  uint8_t* slot = slot_ptr(index);
  std::array<uint8_t, kSlotBytes> image;
  std::memcpy(image.data(), slot, kSlotBytes);
  SlotHeader sh{};
  std::memcpy(&sh, image.data(), sizeof sh);
  sh.state = kDead;
  std::memcpy(image.data(), &sh, sizeof sh);
  const uint32_t crc = slot_crc(image.data());
  std::memcpy(image.data() + kSlotCrcOffset, &crc, sizeof crc);
  write_slot(index, image);
  free_slots_.push_back(static_cast<uint32_t>(index));
  if (slots_used_ > 0) --slots_used_;
  slots_used_gauge_.set(static_cast<double>(slots_used_));
}

bool MmapCacheStore::take_slot(uint32_t* index) {
  if (free_slots_.empty()) {
    ++persist_failed_table_;
    return false;
  }
  *index = free_slots_.back();
  free_slots_.pop_back();
  ++slots_used_;
  slots_used_gauge_.set(static_cast<double>(slots_used_));
  return true;
}

void MmapCacheStore::persist_entry(Node& node, Change change) {
  if (change == Change::kLease && node.mirror_slot != kNoSlot) {
    // Only lease / expiry metadata moved: rewrite the slot header and its
    // CRC in place, keeping the slab reference (offset, length, CRC) — no
    // re-encode, no slab append.
    uint8_t* slot = slot_ptr(node.mirror_slot);
    SlotHeader sh{};
    std::memcpy(&sh, slot, sizeof sh);
    fill_header(sh, node);
    std::memcpy(slot, &sh, sizeof sh);
    const uint32_t crc = slot_crc(slot);
    std::memcpy(slot + kSlotCrcOffset, &crc, sizeof crc);
    return;
  }

  const server::CacheKey& key = *node.key;
  const std::string text = lower(key.name.to_string());
  if (text.empty() || text.size() > kMaxNameText) return;

  SlotHeader sh{};
  sh.state = kUsed;
  sh.key_hash = server::CacheKeyHash{}(key);
  sh.name_len = static_cast<uint16_t>(text.size());
  sh.rrtype = static_cast<uint16_t>(key.type);
  sh.rrclass = static_cast<uint16_t>(node.rrset.rrclass);
  fill_header(sh, node);

  if (!node.negative && !node.rrset.empty()) {
    dns::ByteWriter writer;
    writer.begin_message();
    dns::encode_rrset(node.rrset, writer);
    const std::span<const uint8_t> payload = writer.message();
    uint64_t off = 0;
    if (!slab_append(payload, &off)) {
      // Slab exhausted even after compaction: the entry stays heap-only.
      // If a previous image of it exists, kill that image — serving a
      // stale persisted copy after a restart would be worse than a miss.
      ++persist_failed_slab_;
      if (node.mirror_slot != kNoSlot) {
        kill_slot(node.mirror_slot);
        node.mirror_slot = kNoSlot;
      }
      return;
    }
    sh.slab_off = off;
    sh.slab_len = static_cast<uint32_t>(payload.size());
    sh.slab_crc = util::crc32(payload);
  }
  if (node.mirror_slot == kNoSlot && !take_slot(&node.mirror_slot)) return;

  std::array<uint8_t, kSlotBytes> image{};
  std::memcpy(image.data(), &sh, sizeof sh);
  std::memcpy(image.data() + kNameOffset, text.data(), text.size());
  std::memcpy(image.data() + kTickOffset, &node.stamp, sizeof node.stamp);
  const uint32_t crc = slot_crc(image.data());
  std::memcpy(image.data() + kSlotCrcOffset, &crc, sizeof crc);
  write_slot(node.mirror_slot, image);
}

void MmapCacheStore::persist_zone(const dns::Name& zone, uint32_t serial) {
  const std::string text = lower(zone.to_string());
  if (text.empty() || text.size() > kMaxNameText) return;

  auto it = zone_slots_.find(zone);
  if (it == zone_slots_.end()) {
    uint32_t index = 0;
    if (!take_slot(&index)) return;
    it = zone_slots_.emplace(zone, index).first;
  }

  SlotHeader sh{};
  sh.state = kZone;
  sh.key_hash = zone_slot_hash(zone);
  sh.ttl = serial;
  sh.name_len = static_cast<uint16_t>(text.size());
  sh.rrtype = kZoneType;

  std::array<uint8_t, kSlotBytes> image{};
  std::memcpy(image.data(), &sh, sizeof sh);
  std::memcpy(image.data() + kNameOffset, text.data(), text.size());
  const uint32_t crc = slot_crc(image.data());
  std::memcpy(image.data() + kSlotCrcOffset, &crc, sizeof crc);
  write_slot(it->second, image);
}

void MmapCacheStore::commit(server::CacheEntry& entry, Change change) {
  HeapCacheStore::commit(entry, change);
  persist_entry(node_of(entry), change);
}

bool MmapCacheStore::erase(const server::CacheKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  const uint32_t slot = it->second.mirror_slot;
  erase_node(it);
  if (slot != kNoSlot) kill_slot(slot);
  return true;
}

void MmapCacheStore::touch(server::CacheEntry& entry) {
  HeapCacheStore::touch(entry);
  const Node& node = node_of(entry);
  if (node.mirror_slot == kNoSlot) return;
  // Outside the CRC-covered range by design: the per-hit cost is one u64
  // store of the entry's new recency stamp, no checksum recomputation.
  std::memcpy(slot_ptr(node.mirror_slot) + kTickOffset, &node.stamp,
              sizeof node.stamp);
}

void MmapCacheStore::put_zone_serial(const dns::Name& zone, uint32_t serial) {
  HeapCacheStore::put_zone_serial(zone, serial);
  persist_zone(zone, serial);
}

void MmapCacheStore::flush() {
  if (map_ != nullptr) ::msync(map_, file_bytes_, MS_ASYNC);
}

}  // namespace dnscup::cachestore
