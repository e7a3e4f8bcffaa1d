// cupbench_trace — the benchmark's traced replay.
//
// Regenerates a workload's inputs from --seed (workload.h) and feeds them
// through each module's public functions in-process, recording a span
// (name, start, end, parent, request id) around every call.  Spans stay in
// memory and are written to --spans-out as JSON lines at the end.  Prints
// one JSON object of per-layer metrics (self time per call, ratios,
// counts) on its last stdout line.
//
// Child spans are separate calls on the same input made right after the
// parent call (the program has no hooks inside its layers), so a layer's
// self time is its span's duration minus the durations of the spans whose
// parent it is.
//
//   auth_query    AuthServer + DnscupAuthority on an in-memory transport:
//                 server.fast_query[_ext] (one datagram in, one answer
//                 out) with children dns.decode, dns.zone_lookup,
//                 dns.encode and core.rate_record / core.grant; plus an
//                 IoBackend pair on loopback for net.*.  Emits the ledger
//                 rows (ledger.self.<layer>, ns per query).
//   cache_read    ResolverCache over the mmap store and over the heap
//                 store on the same lookup/put stream, entries leased as a
//                 DNScup cache holds them.
//   update_churn  RFC 2136 UPDATEs through AuthServer::handle with two
//                 lease holders registered (server.update_apply, child
//                 core.fanout bracketed by change listeners registered
//                 around the authority's), the resulting CACHE-UPDATE
//                 applied by a LeaseClient, push framing of it, planner
//                 observations and LeaseStore appends.
// Metrics of layers a workload does not exercise are reported as 0.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cachestore/mmap_store.h"
#include "core/dnscup_authority.h"
#include "core/lease_client.h"
#include "core/rate_tracker.h"
#include "dns/message.h"
#include "dns/wire.h"
#include "dns/zone.h"
#include "net/event_loop.h"
#include "net/io_backend.h"
#include "planner/lease_planner.h"
#include "push/framing.h"
#include "server/authoritative.h"
#include "server/cache.h"
#include "server/cache_store.h"
#include "server/resolver.h"
#include "server/update.h"
#include "store/lease_store.h"
#include "store/storage.h"
#include "workload.h"

// Allocation counting for server.allocs_per_query and the rate tracker's
// bytes per key.
namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace dnscup;
using Clock = std::chrono::steady_clock;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "cupbench_trace: %s\n", why.c_str());
  std::exit(1);
}

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int32_t parent;
  uint32_t request;
};

class Tracer {
 public:
  int32_t begin(const char* name, int32_t parent, uint32_t request) {
    spans_.push_back({name, now_ns(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void end(int32_t span) { spans_[static_cast<std::size_t>(span)].end = now_ns(); }
  void add(const char* name, int64_t start, int64_t end, int32_t parent,
           uint32_t request) {
    spans_.push_back({name, start, end, parent, request});
  }

  template <class Fn>
  void span(const char* name, int32_t parent, uint32_t request, Fn&& fn) {
    const int32_t s = begin(name, parent, request);
    fn();
    end(s);
  }

  /// name -> (calls, summed self time in ns).
  std::map<std::string, std::pair<uint64_t, double>> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end - s.start);
    }
    std::map<std::string, std::pair<uint64_t, double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& e = out[spans_[i].name];
      ++e.first;
      e.second += static_cast<double>(spans_[i].end - spans_[i].start) - child[i];
    }
    return out;
  }

  double mean_self(const std::string& name) const {
    const auto all = self_times();
    const auto it = all.find(name);
    return it == all.end() || it->second.first == 0
               ? 0.0
               : it->second.second / static_cast<double>(it->second.first);
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      f << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start\":" << s.start
        << ",\"end\":" << s.end << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
    }
  }

  double mean_duration(const std::string& name) const {
    double sum = 0;
    uint64_t n = 0;
    for (const auto& s : spans_) {
      if (name == s.name) {
        sum += static_cast<double>(s.end - s.start);
        ++n;
      }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  }

  std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// In-memory transport: records every datagram sent.
class CaptureTransport final : public net::Transport {
 public:
  explicit CaptureTransport(net::Endpoint local) : local_(local) {}
  const net::Endpoint& local_endpoint() const override { return local_; }
  void send(const net::Endpoint&, std::span<const uint8_t> data) override {
    sent.emplace_back(data.begin(), data.end());
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  void deliver(const net::Endpoint& from, std::span<const uint8_t> data) {
    handler_(from, data);
  }
  std::vector<std::vector<uint8_t>> sent;

 private:
  net::Endpoint local_;
  ReceiveHandler handler_;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  uint32_t hot = 0;
  double ext_fraction = 0;
  std::size_t capacity = 0;
  std::string work_dir;
  std::string spans_out;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

dns::Name make_name(uint32_t i) {
  auto n = dns::Name::parse(cupbench::name_text(i));
  if (!n.ok()) die("bad name");
  return std::move(n).value();
}

dns::Zone make_zone(uint32_t salt) {
  auto origin = dns::Name::parse(cupbench::kZoneOrigin).value();
  dns::SOARdata soa;
  soa.mname = dns::Name::parse(std::string("ns1.") + cupbench::kZoneOrigin).value();
  soa.rname = dns::Name::parse(std::string("admin.") + cupbench::kZoneOrigin).value();
  soa.serial = 1;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 604800;
  soa.minimum = 300;
  dns::Zone zone = dns::Zone::make(origin, soa, cupbench::kRecordTtl,
                                   {soa.mname}, cupbench::kRecordTtl);
  for (uint32_t i = 0; i < cupbench::kNames; ++i) {
    zone.add_record(make_name(i), dns::RRType::kA, cupbench::kRecordTtl,
                    dns::ARdata{dns::Ipv4{cupbench::zone_address(i, salt)}});
  }
  return zone;
}

std::vector<uint8_t> query_wire(const dns::Name& name, bool ext, uint16_t id) {
  dns::Message q;
  q.id = id;
  q.flags.opcode = dns::Opcode::kQuery;
  q.flags.rd = true;
  q.flags.ext = ext;
  q.questions.push_back(dns::Question{name, dns::RRType::kA, dns::RRClass::kIN,
                                      ext ? dns::rrc_from_rate(10.0)
                                          : static_cast<uint16_t>(0)});
  return q.encode();
}

using Metrics = std::map<std::string, double>;

// ------------------------------------------------------------- auth_query

/// IoBackend pair on loopback.  Send cost: send_batch time per datagram.
/// Receive cost: the receiver thread is held inside the batch handler
/// while the sender fills its socket buffer; once released, the time it
/// takes to drain that backlog (recvmmsg batches and handler dispatch),
/// per datagram drained.  Median over rounds.
void net_layer(Metrics& m) {
  net::IoBackend::Options opts;
  opts.rcvbuf_bytes = 8 << 20;
  opts.sndbuf_bytes = 8 << 20;
  auto a = net::bind_io_backend(net::IoBackendKind::kDefault, opts);
  auto b = net::bind_io_backend(net::IoBackendKind::kDefault, opts);
  if (!a.ok() || !b.ok()) die("cannot bind IoBackend");
  std::atomic<bool> hold{false}, held{false};
  std::atomic<uint64_t> drained{0};
  std::atomic<int64_t> last{0};
  b.value()->set_batch_receive_handler([&](std::span<const net::RxPacket> batch) {
    if (hold.load()) {
      held.store(true);
      while (hold.load()) std::this_thread::yield();
      return;
    }
    drained.fetch_add(batch.size());
    last.store(now_ns());
  });
  const auto image = query_wire(make_name(1), false, 1);
  const std::vector<net::TxPacket> one(1, net::TxPacket{b.value()->local_endpoint(), image});
  const std::vector<net::TxPacket> batch(32, net::TxPacket{b.value()->local_endpoint(), image});
  constexpr int kRounds = 30;
  constexpr int kBatchesPerRound = 32;
  int64_t send_ns = 0;
  uint64_t sent = 0;
  std::vector<double> recv_per_pkt;
  for (int r = 0; r < kRounds; ++r) {
    hold.store(true);
    held.store(false);
    a.value()->send_batch(one);
    const int64_t deadline = now_ns() + 1000000000;
    while (!held.load() && now_ns() < deadline) std::this_thread::yield();
    if (!held.load()) die("IoBackend receiver never ran");
    for (int k = 0; k < kBatchesPerRound; ++k) {
      const int64_t t0 = now_ns();
      sent += a.value()->send_batch(batch);
      send_ns += now_ns() - t0;
    }
    drained.store(0);
    const int64_t release = now_ns();
    hold.store(false);
    // The backlog is drained once no datagram arrived for 2 ms.
    uint64_t seen = 0;
    int64_t quiet_since = release;
    while (now_ns() - quiet_since < 2000000) {
      std::this_thread::yield();
      if (drained.load() != seen) {
        seen = drained.load();
        quiet_since = now_ns();
      }
    }
    if (seen > 0) {
      recv_per_pkt.push_back(static_cast<double>(last.load() - release) /
                             static_cast<double>(seen));
    }
  }
  a.value()->stop_receiving();
  b.value()->stop_receiving();
  if (recv_per_pkt.empty()) die("IoBackend received nothing");
  std::sort(recv_per_pkt.begin(), recv_per_pkt.end());
  m["net.send_ns_per_pkt"] = sent ? static_cast<double>(send_ns) / static_cast<double>(sent) : 0;
  m["net.recv_ns_per_pkt"] = recv_per_pkt[recv_per_pkt.size() / 2];
}

void auth_query(const Options& o, Tracer& tr, Metrics& m) {
  const uint32_t salt = cupbench::address_salt(o.seed);
  const auto order = cupbench::popularity_order(cupbench::kNames, o.seed);
  const cupbench::Zipf zipf(cupbench::kNames);
  cupbench::ReadStream stream(o.seed, 0, zipf, order, o.ext_fraction);
  std::vector<dns::Name> names;
  names.reserve(cupbench::kNames);
  for (uint32_t i = 0; i < cupbench::kNames; ++i) names.push_back(make_name(i));

  metrics::MetricsRegistry registry;
  net::EventLoop loop(&registry);
  CaptureTransport transport({net::make_ip(127, 0, 0, 1), 53});
  server::AuthServer auth(transport, loop, server::AuthServer::Role::kMaster, &registry);
  auth.add_zone(make_zone(salt));
  const dns::Zone* zone = auth.find_zone(dns::Name::parse(cupbench::kZoneOrigin).value());
  core::DnscupAuthority::Config dc;
  dc.max_lease = [](const dns::Name&, dns::RRType) { return net::seconds(3600); };
  dc.metrics = &registry;
  core::DnscupAuthority dnscup(auth, loop, dc);
  uint64_t fast = 0;
  auth.set_fast_query_hook([&](const net::Endpoint&, const dns::NameView& qname,
                               dns::RRType qtype) {
    ++fast;
    dnscup.listener().on_query_view(qname, qtype, loop.now());
  });

  constexpr uint32_t kQueries = 20000;
  std::vector<cupbench::Read> reads(kQueries);
  std::vector<std::vector<uint8_t>> wires(kQueries);
  for (uint32_t q = 0; q < kQueries; ++q) {
    reads[q] = stream.next();
    wires[q] = query_wire(names[reads[q].name], reads[q].ext, static_cast<uint16_t>(q));
  }
  const net::Endpoint holder{net::make_ip(127, 0, 0, 1), 40000};

  core::RateTracker tracker;
  dns::MessageView view;
  std::vector<uint8_t> scratch;
  uint64_t allocs = 0;
  for (uint32_t q = 0; q < kQueries; ++q) {
    const bool ext = reads[q].ext;
    const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const int32_t parent = tr.begin(ext ? "server.fast_query_ext" : "server.fast_query", -1, q);
    transport.deliver(holder, wires[q]);
    tr.end(parent);
    allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    tr.span("dns.decode", parent, q, [&] {
      if (!dns::MessageView::parse_into(wires[q], view).ok()) die("decode");
    });
    const dns::RRset* rrset = nullptr;
    tr.span("dns.zone_lookup", parent, q, [&] {
      rrset = zone->lookup_ref(view.questions[0].qname, dns::RRType::kA).rrset;
    });
    if (rrset == nullptr) die("lookup");
    if (ext) {
      tr.span("core.grant", parent, q, [&] {
        (void)dnscup.policy().decide(names[reads[q].name], dns::RRType::kA, holder,
                                     10.0, loop.now());
      });
    } else {
      tr.span("core.rate_record", parent, q, [&] {
        tracker.record_view(view.questions[0].qname, dns::RRType::kA, loop.now());
      });
    }
    tr.span("dns.encode", parent, q, [&] {
      scratch.clear();
      dns::ByteWriter w(scratch);
      w.begin_message();
      w.u16(static_cast<uint16_t>(q));
      w.u16(0x8400);
      w.u16(1);
      w.u16(static_cast<uint16_t>(rrset->size()));
      w.u16(0);
      w.u16(0);
      w.bytes(std::span<const uint8_t>(wires[q]).subspan(12, view.questions[0].qname.wire_length() + 4));
      w.register_name(12);
      dns::encode_rrset(*rrset, w);
    });
  }
  if (transport.sent.size() != kQueries) die("replay lost answers");
  const double fast_ratio = static_cast<double>(fast) / kQueries;
  // Tracing overhead: the same server calls with and without a recorded
  // span around each, alternated over rounds; median difference per query.
  std::vector<double> overheads;
  for (int round = 0; round < 5; ++round) {
    const int64_t off0 = now_ns();
    for (uint32_t q = 0; q < kQueries; ++q) transport.deliver(holder, wires[q]);
    const int64_t off1 = now_ns();
    Tracer overhead;
    for (uint32_t q = 0; q < kQueries; ++q) {
      overhead.span("server", -1, q, [&] { transport.deliver(holder, wires[q]); });
    }
    const int64_t on1 = now_ns();
    overheads.push_back(static_cast<double>((on1 - off1) - (off1 - off0)) / kQueries);
  }
  std::sort(overheads.begin(), overheads.end());

  // Rate tracker memory: heap bytes per tracked key on fresh keys.
  core::RateTracker fresh;
  const uint64_t b0 = g_alloc_bytes.load();
  constexpr uint32_t kKeys = 20000;
  for (uint32_t i = 0; i < kKeys; ++i) fresh.record(names[i], dns::RRType::kA, 0);
  m["core.rate_tracker_bytes_per_key"] =
      static_cast<double>(g_alloc_bytes.load() - b0) / kKeys;

  m["server.fast_path_ratio"] = fast_ratio;
  m["server.allocs_per_query"] = static_cast<double>(allocs) / kQueries;
  m["trace.overhead_ns"] = overheads[overheads.size() / 2];

  const auto self = tr.self_times();
  auto total_ns = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.second;
  };
  m["dns.decode_ns"] = tr.mean_self("dns.decode");
  m["dns.zone_lookup_ns"] = tr.mean_self("dns.zone_lookup");
  m["dns.encode_ns"] = tr.mean_self("dns.encode");
  m["core.grant_ns"] = tr.mean_self("core.grant");
  m["core.rate_record_ns"] = tr.mean_self("core.rate_record");
  // The server spans are whole calls: one datagram in, one answer out.
  m["server.fast_query_ns"] = tr.mean_duration("server.fast_query");
  m["server.fast_query_ext_ns"] = tr.mean_duration("server.fast_query_ext");
  const double server_self_total =
      total_ns("server.fast_query") + total_ns("server.fast_query_ext");
  net_layer(m);
  m["ledger.self.net"] = m["net.send_ns_per_pkt"] + m["net.recv_ns_per_pkt"];
  m["ledger.self.dns"] = (total_ns("dns.decode") + total_ns("dns.zone_lookup") +
                          total_ns("dns.encode")) / kQueries;
  m["ledger.self.core"] = (total_ns("core.grant") + total_ns("core.rate_record")) / kQueries;
  m["ledger.self.server"] = server_self_total / kQueries;
}

// ------------------------------------------------------------- cache_read

void cache_read(const Options& o, Tracer& tr, Metrics& m) {
  const uint32_t salt = cupbench::address_salt(o.seed);
  const auto order = cupbench::popularity_order(cupbench::kNames, o.seed);
  const cupbench::Zipf zipf(cupbench::kNames);
  cupbench::ReadStream stream(o.seed, 0, zipf, order, 0);
  const std::string dir = o.work_dir + "/trace-cachestore";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  cachestore::MmapCacheStore::Options so;
  so.path = dir + "/cache-shard-0";
  auto store = cachestore::MmapCacheStore::open(so);
  if (!store.ok()) die("cannot open mmap store: " + store.error().to_string());
  cachestore::MmapCacheStore* mmap = store.value().get();
  server::ResolverCache mapped(o.capacity, nullptr, std::move(store).value());
  server::ResolverCache heap(o.capacity, nullptr);

  const net::Endpoint authority{net::make_ip(127, 0, 0, 1), 53};
  auto rrset_of = [&](uint32_t i) {
    dns::RRset set{make_name(i), dns::RRType::kA, dns::RRClass::kIN, cupbench::kRecordTtl, {}};
    set.add(dns::ARdata{dns::Ipv4{cupbench::zone_address(i, salt)}});
    return set;
  };
  const server::LeaseState lease{net::seconds(3600), authority};
  auto fill = [&](server::ResolverCache& c, const dns::RRset& set) {
    c.put(set, 0);
    c.set_lease(set.name, dns::RRType::kA, lease);
  };
  for (uint32_t r = 0; r < o.capacity && r < cupbench::kNames; ++r) {
    const auto set = rrset_of(order[r]);
    fill(mapped, set);
    fill(heap, set);
  }

  constexpr uint32_t kReads = 5000;
  uint64_t hits = 0;
  for (uint32_t q = 0; q < kReads; ++q) {
    const uint32_t i = stream.next().name;
    const dns::Name name = make_name(i);
    const auto set = rrset_of(i);
    const net::SimTime now = 1000 + q;
    const server::CacheEntry* found = nullptr;
    tr.span("server.cache_lookup", -1, q, [&] { found = mapped.lookup(name, dns::RRType::kA, now); });
    if (found != nullptr) {
      ++hits;
      tr.span("cachestore.touch", -1, q, [&] { mmap->touch(server::CacheKey{name, dns::RRType::kA}); });
    } else {
      tr.span("cachestore.put", -1, q, [&] { mapped.put(set, now); });
      mapped.set_lease(name, dns::RRType::kA, lease);
    }
    const server::CacheEntry* hfound = nullptr;
    tr.span("cachestore.heap_lookup", -1, q, [&] { hfound = heap.lookup(name, dns::RRType::kA, now); });
    if (hfound == nullptr) {
      tr.span("cachestore.heap_put", -1, q, [&] { heap.put(set, now); });
      heap.set_lease(name, dns::RRType::kA, lease);
    }
  }
  m["server.cache_lookup_ns"] = tr.mean_self("server.cache_lookup");
  m["server.cache_hit_ratio"] = static_cast<double>(hits) / kReads;
  m["cachestore.put_ns"] = tr.mean_self("cachestore.put");
  m["cachestore.touch_ns"] = tr.mean_self("cachestore.touch");
  m["cachestore.heap_put_ns"] = tr.mean_self("cachestore.heap_put");
  m["cachestore.heap_lookup_ns"] = tr.mean_self("cachestore.heap_lookup");
}

// ------------------------------------------------------------- update_churn

void update_churn(const Options& o, Tracer& tr, Metrics& m) {
  const uint32_t salt = cupbench::address_salt(o.seed);
  const auto order = cupbench::popularity_order(cupbench::kNames, o.seed);
  const uint32_t hot = o.hot > 0 ? o.hot : cupbench::kNames;
  const cupbench::Zipf hot_zipf(hot);
  const auto origin = dns::Name::parse(cupbench::kZoneOrigin).value();

  metrics::MetricsRegistry registry;
  net::EventLoop loop(&registry);
  CaptureTransport transport({net::make_ip(127, 0, 0, 1), 53});
  server::AuthServer auth(transport, loop, server::AuthServer::Role::kMaster, &registry);
  auth.add_zone(make_zone(salt));
  int64_t fanout_start = 0;
  std::vector<int64_t> fanout_ns;
  int32_t update_span = -1;
  uint32_t request = 0;
  auth.add_change_listener([&](const dns::Zone&, const std::vector<dns::RRsetChange>&) {
    fanout_start = now_ns();
  });
  core::DnscupAuthority::Config dc;
  dc.max_lease = [](const dns::Name&, dns::RRType) { return net::seconds(3600); };
  dc.metrics = &registry;
  core::DnscupAuthority dnscup(auth, loop, dc);
  auth.add_change_listener([&](const dns::Zone&, const std::vector<dns::RRsetChange>&) {
    const int64_t end = now_ns();
    tr.add("core.fanout", fanout_start, end, update_span, request);
    fanout_ns.push_back(end - fanout_start);
  });

  // Two lease holders take leases on every hot name.
  const net::Endpoint holders[2] = {{net::make_ip(127, 0, 0, 1), 41000},
                                    {net::make_ip(127, 0, 0, 1), 41001}};
  for (uint32_t r = 0; r < hot; ++r) {
    const auto wire = query_wire(make_name(order[r]), true, static_cast<uint16_t>(r));
    for (const auto& h : holders) transport.deliver(h, wire);
  }
  transport.sent.clear();

  // The first holder is a real LeaseClient over a CachingResolver whose
  // cache holds every hot name under a lease from this authority.
  metrics::MetricsRegistry client_registry;
  net::EventLoop client_loop(&client_registry);
  CaptureTransport client_transport(holders[0]);
  server::CachingResolver::Config rc;
  rc.metrics = &client_registry;
  server::CachingResolver resolver(client_transport, client_loop, {transport.local_endpoint()}, rc);
  core::LeaseClient::Config lc;
  lc.metrics = &client_registry;
  core::LeaseClient client(resolver, lc);
  resolver.set_extension(&client);
  for (uint32_t r = 0; r < hot; ++r) {
    dns::RRset set{make_name(order[r]), dns::RRType::kA, dns::RRClass::kIN, cupbench::kRecordTtl, {}};
    set.add(dns::ARdata{dns::Ipv4{cupbench::zone_address(order[r], salt)}});
    resolver.cache().put(set, 0);
    resolver.cache().set_lease(set.name, dns::RRType::kA,
                               server::LeaseState{net::seconds(3600), transport.local_endpoint()});
  }

  constexpr uint32_t kUpdates = 5;
  const auto targets = cupbench::update_names(o.seed, kUpdates, hot_zipf, order);
  const net::Endpoint updater{net::make_ip(127, 0, 0, 1), 42000};
  std::vector<uint8_t> frame;
  int64_t frame_ns = 0;
  uint64_t frames = 0;
  for (uint32_t u = 0; u < kUpdates; ++u) {
    request = u;
    dns::Ipv4 addr;
    addr.addr = cupbench::update_address(u);
    const dns::Message update = server::UpdateBuilder(origin)
                                    .replace_a(make_name(targets[u]), cupbench::kRecordTtl, addr)
                                    .build(static_cast<uint16_t>(u));
    transport.sent.clear();
    update_span = tr.begin("server.update_apply", -1, u);
    const auto reply = auth.handle(updater, update);
    tr.end(update_span);
    if (!reply.has_value() || reply->flags.rcode != dns::Rcode::kNoError) die("UPDATE refused");
    for (const auto& wire : transport.sent) {
      auto msg = dns::Message::decode(wire);
      if (!msg.ok() || msg.value().flags.opcode != dns::Opcode::kCacheUpdate) continue;
      tr.span("core.lease_client_apply", -1, u, [&] {
        client.on_unsolicited(transport.local_endpoint(), msg.value());
      });
      const int64_t t0 = now_ns();
      for (int k = 0; k < 1000; ++k) {
        frame.clear();
        push::encode_frame(push::FrameKind::kPush, wire, frame);
      }
      frame_ns += now_ns() - t0;
      frames += 1000;
    }
  }
  if (client.stats().updates_applied == 0) die("no CACHE-UPDATE was applied");
  m["server.update_apply_us"] = tr.mean_duration("server.update_apply") / 1e3;
  m["core.fanout_us"] = tr.mean_duration("core.fanout") / 1e3;
  m["core.lease_client_apply_ns"] = tr.mean_self("core.lease_client_apply");
  m["push.frame_encode_ns"] = frames ? static_cast<double>(frame_ns) / static_cast<double>(frames) : 0;

  // Planner observations, as a worker hands them over.
  planner::LeasePlanner::Config pc;
  pc.storage_budget = 10000;
  auto planner = planner::LeasePlanner::start(pc);
  core::LeaseAssignmentSource* handle = planner->handle_for_worker(0);
  cupbench::ReadStream stream(o.seed, 0, hot_zipf, order, 0);
  constexpr uint32_t kObservations = 4000;
  for (uint32_t q = 0; q < kObservations; ++q) {
    const dns::Name name = make_name(stream.next().name);
    tr.span("planner.observe", -1, q, [&] {
      handle->observe(holders[q % 2], name, dns::RRType::kA, 10.0, 3600.0);
    });
    if (q % 256 == 255) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  planner->stop();
  m["planner.observe_ns"] = tr.mean_self("planner.observe");

  // LeaseStore: append (no fsync) and fsync timed separately.
  const std::string dir = o.work_dir + "/trace-state";
  std::filesystem::remove_all(dir);
  store::PosixStorage storage;
  store::LeaseStore::Config sc;
  sc.dir = dir;
  sc.fsync = store::FsyncPolicy::kNever;
  core::RecoveredState recovered;
  auto ls = store::LeaseStore::open(&storage, sc, &recovered);
  if (!ls.ok()) die("cannot open lease store: " + ls.error().to_string());
  constexpr uint32_t kAppends = 200;
  for (uint32_t q = 0; q < kAppends; ++q) {
    core::Lease lease{holders[q % 2], make_name(order[q % hot]), dns::RRType::kA, 0,
                      net::seconds(3600)};
    tr.span("store.append", -1, q, [&] { ls.value()->record_grant(lease, false); });
    tr.span("store.fsync", -1, q, [&] { (void)ls.value()->sync(); });
  }
  m["store.append_us"] = tr.mean_self("store.append") / 1e3;
  m["store.fsync_us"] = tr.mean_self("store.fsync") / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i], v = argv[i + 1];
    if (arg == "--workload") o.workload = v;
    else if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--hot") o.hot = static_cast<uint32_t>(std::stoul(v));
    else if (arg == "--ext-fraction") o.ext_fraction = std::stod(v);
    else if (arg == "--capacity") o.capacity = std::stoul(v);
    else if (arg == "--work-dir") o.work_dir = v;
    else if (arg == "--spans-out") o.spans_out = v;
    else die("unknown argument " + arg);
  }
  if (o.work_dir.empty()) die("--work-dir is required");
  const char* layer_metrics[] = {
      "dns.decode_ns", "dns.encode_ns", "dns.zone_lookup_ns", "server.fast_query_ns",
      "server.fast_query_ext_ns", "server.fast_path_ratio", "server.allocs_per_query",
      "server.cache_lookup_ns", "server.cache_hit_ratio", "server.update_apply_us",
      "cachestore.put_ns", "cachestore.touch_ns", "cachestore.heap_put_ns",
      "cachestore.heap_lookup_ns", "core.grant_ns", "core.rate_record_ns",
      "core.rate_tracker_bytes_per_key", "core.fanout_us", "core.lease_client_apply_ns",
      "net.send_ns_per_pkt", "net.recv_ns_per_pkt", "push.frame_encode_ns",
      "planner.observe_ns", "store.append_us", "store.fsync_us", "trace.overhead_ns",
      "ledger.self.net", "ledger.self.dns", "ledger.self.core", "ledger.self.server"};
  Metrics m;
  for (const char* name : layer_metrics) m[name] = 0;
  Tracer tr;
  if (o.workload == "auth_query") auth_query(o, tr, m);
  else if (o.workload == "cache_read") cache_read(o, tr, m);
  else if (o.workload == "update_churn") update_churn(o, tr, m);
  else die("unknown workload " + o.workload);
  if (!o.spans_out.empty()) tr.write(o.spans_out);
  std::fprintf(stderr, "traced replay: %zu spans written to %s\n", tr.size(),
               o.spans_out.c_str());
  std::string json = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + k + "\": " + num(v);
  }
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}
