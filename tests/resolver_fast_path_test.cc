// Cache-hit fast path of the caching resolver: parity and allocation.
//
// 1. Parity: CachingResolver::try_fast_answer must send byte-identical
//    responses to the owning decode/resolve/encode slow path — positive
//    hits with the TTL decremented, NXDOMAIN and NODATA negative hits —
//    with a LeaseClient attached, and leave the same cache counters and
//    client-rate observations behind.  The reference is a twin stack
//    answered through the public resolve() (the slow path's cache lookup
//    and extension call) with the response assembled by make_response()
//    and encode(), as handle_client_query does.
// 2. Fall-through: misses, stale entries, CNAME chases, EXT queries,
//    CACHE-UPDATE and other opcodes, compressed qnames and two-question
//    requests must not be answered by the fast path.  The extension's
//    hook runs after the answer is sent.
// 3. Allocation-freedom: a counting global allocator asserts zero heap
//    allocations per steady-state hit, on the heap and the mmap store.
//    tools/check.sh --bench-smoke runs this binary beside
//    hot_path_alloc_test as the zero-allocation gate.
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cachestore/mmap_store.h"
#include "core/lease_client.h"
#include "dns/message.h"
#include "net/endpoint.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "server/cache_store.h"
#include "server/resolver.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}

// Out of line: inlined into their callers, the malloc/free inside read to
// GCC as a mismatched new/delete pair (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace dnscup::server {
namespace {

using dns::Message;
using dns::Name;
using dns::Question;
using dns::RRClass;
using dns::RRType;

Name mk(const char* text) { return Name::parse(text).value(); }

const net::Endpoint kRoot{net::make_ip(10, 0, 0, 1), 53};
const net::Endpoint kClient{net::make_ip(10, 0, 0, 99), 4000};

/// In-process transport: delivers datagrams synchronously and captures
/// the last datagram sent into a fixed buffer — no allocation on send, so
/// it can sit inside the measured loop.
class CaptureTransport final : public net::Transport {
 public:
  const net::Endpoint& local_endpoint() const override { return local_; }
  void send(const net::Endpoint& to, std::span<const uint8_t> data) override {
    ASSERT_LE(data.size(), last_.size());
    std::memcpy(last_.data(), data.data(), data.size());
    last_len_ = data.size();
    last_to_ = to;
    ++sends_;
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  void deliver(const net::Endpoint& from, std::span<const uint8_t> data) {
    handler_(from, data);
  }
  std::vector<uint8_t> last() const {
    return {last_.begin(), last_.begin() + static_cast<long>(last_len_)};
  }
  const net::Endpoint& last_to() const { return last_to_; }
  uint64_t sends() const { return sends_; }

 private:
  net::Endpoint local_{net::make_ip(10, 0, 0, 53), 53};
  net::Transport::ReceiveHandler handler_;
  std::array<uint8_t, 4096> last_{};
  std::size_t last_len_ = 0;
  net::Endpoint last_to_;
  uint64_t sends_ = 0;
};

std::vector<uint8_t> query_wire(const char* qname, RRType qtype,
                                uint16_t id = 42) {
  Message m;
  m.id = id;
  m.flags.rd = true;
  m.questions.push_back(Question{mk(qname), qtype, RRClass::kIN, 0});
  return m.encode();
}

dns::RRset a_set(const char* name, uint32_t ttl, int count) {
  dns::RRset set{mk(name), RRType::kA, RRClass::kIN, ttl, {}};
  for (int i = 0; i < count; ++i) {
    set.add(dns::ARdata{dns::Ipv4{0xC0000250u + static_cast<uint32_t>(i)}});
  }
  return set;
}

/// One caching stack: resolver + LeaseClient.
struct Stack {
  explicit Stack(std::function<std::unique_ptr<CacheStoreBackend>()> store =
                     nullptr)
      : resolver(transport, loop, {kRoot}, config(std::move(store))),
        lease_client(resolver, lease_config()) {}

  static CachingResolver::Config config(
      std::function<std::unique_ptr<CacheStoreBackend>()> store) {
    CachingResolver::Config c;
    c.cache_store = std::move(store);
    return c;
  }
  static core::LeaseClient::Config lease_config() {
    core::LeaseClient::Config c;
    // Short cooldown: once the clock is past it, every hit runs the whole
    // re-negotiation check (lease meta, rate by view, drift ratio).
    c.renegotiate_min_interval = net::seconds(1);
    return c;
  }

  /// Fills the cache the way the miss path would: a positive A set and
  /// NXDOMAIN / NODATA entries.
  void populate() {
    ResolverCache& cache = resolver.cache();
    cache.put(a_set("www.example.com", 300, 3), loop.now());
    cache.put_negative(mk("gone.example.com"), RRType::kA,
                       dns::Rcode::kNXDomain, 120, loop.now());
    cache.put_negative(mk("www.example.com"), RRType::kAAAA,
                       dns::Rcode::kNoError, 120, loop.now());
  }

  /// A lease on the positive entry, granted by an EXT response.
  void grant() {
    Message grant;
    grant.flags.qr = true;
    grant.flags.ext = true;
    grant.llt = dns::llt_from_seconds(3600);
    grant.questions.push_back(
        Question{mk("www.example.com"), RRType::kA, RRClass::kIN, 0});
    lease_client.on_response(kRoot, grant);
  }

  std::vector<uint8_t> ask(const std::vector<uint8_t>& wire) {
    transport.deliver(kClient, wire);
    return transport.last();
  }

  /// The slow-path reference for a cache hit: decode, resolve() (cache
  /// lookup plus the extension's on_client_query) and the response built
  /// from the Outcome the way handle_client_query builds it.
  std::vector<uint8_t> ask_slow(const std::vector<uint8_t>& wire) {
    const Message request = Message::decode(wire).value();
    const Question& q = request.questions.at(0);
    std::vector<uint8_t> answer;
    resolver.resolve(q.qname, q.qtype,
                     [&](const CachingResolver::Outcome& outcome) {
      EXPECT_TRUE(outcome.from_cache);
      Message resp = dns::make_response(request);
      resp.flags.ra = true;
      switch (outcome.status) {
        case CachingResolver::Outcome::Status::kOk:
          resp.answers = outcome.rrset.to_records();
          break;
        case CachingResolver::Outcome::Status::kNXDomain:
          resp.flags.rcode = dns::Rcode::kNXDomain;
          break;
        case CachingResolver::Outcome::Status::kNoData:
          break;
        default:
          ADD_FAILURE() << "not a cache hit";
      }
      answer = resp.encode();
    });
    return answer;
  }

  net::EventLoop loop;
  CaptureTransport transport;
  CachingResolver resolver;
  core::LeaseClient lease_client;
};

TEST(ResolverFastPathTest, HitsMatchSlowPathByteForByte) {
  Stack fast;
  Stack slow;
  fast.populate();
  slow.populate();
  fast.grant();
  slow.grant();
  ASSERT_EQ(fast.lease_client.stats().leases_registered, 1u);
  // 100 s later the positive entry's TTL reads 200 on both paths.
  fast.loop.run_for(net::seconds(100));
  slow.loop.run_for(net::seconds(100));

  for (const auto& wire :
       {query_wire("www.example.com", RRType::kA),
        query_wire("WWW.Example.COM", RRType::kA, 7),
        query_wire("gone.example.com", RRType::kA),
        query_wire("www.example.com", RRType::kAAAA)}) {
    const auto fast_answer = fast.ask(wire);
    const auto slow_answer = slow.ask_slow(wire);
    EXPECT_EQ(fast_answer, slow_answer);
    EXPECT_EQ(fast.transport.last_to(), kClient);
  }
  EXPECT_EQ(fast.resolver.stats().fast_answers, 4u);
  EXPECT_EQ(slow.resolver.stats().fast_answers, 0u);
  EXPECT_EQ(slow.transport.sends(), 0u);

  auto positive = Message::decode(fast.ask(query_wire("www.example.com",
                                                      RRType::kA)));
  ASSERT_TRUE(positive.ok());
  ASSERT_EQ(positive.value().answers.size(), 3u);
  EXPECT_EQ(positive.value().answers[0].ttl, 200u);
  slow.ask_slow(query_wire("www.example.com", RRType::kA));

  // Same side effects: cache hits and rate observations; every fast
  // answer counts as a client query.
  EXPECT_EQ(fast.resolver.stats().client_queries, 5u);
  EXPECT_EQ(fast.resolver.cache().stats().hits,
            slow.resolver.cache().stats().hits);
  EXPECT_EQ(fast.resolver.cache().stats().misses, 0u);
  const net::SimTime now = fast.loop.now();
  EXPECT_EQ(fast.lease_client.client_rates().count(mk("www.example.com"),
                                                   RRType::kA, now),
            slow.lease_client.client_rates().count(mk("www.example.com"),
                                                   RRType::kA, now));
  EXPECT_EQ(fast.lease_client.client_rates().count(mk("www.example.com"),
                                                   RRType::kA, now),
            3u);
}

TEST(ResolverFastPathTest, FastHitsKeepDrivingRenegotiation) {
  // A lease granted at a low rate: a burst of hits drifts the rate past
  // the factor, and the hit path (not only misses) must notice.
  Stack fast;
  fast.populate();
  fast.ask(query_wire("www.example.com", RRType::kA));  // 1 q/h at grant
  fast.grant();
  fast.loop.run_for(net::seconds(2));  // past the cooldown
  const uint64_t upstream_before = fast.resolver.stats().upstream_queries;
  for (int i = 0; i < 20; ++i) {
    fast.ask(query_wire("www.example.com", RRType::kA));
  }
  EXPECT_EQ(fast.resolver.stats().fast_answers, 21u);
  EXPECT_EQ(fast.lease_client.stats().renegotiations, 1u);
  EXPECT_EQ(fast.resolver.stats().upstream_queries, upstream_before + 1);
}

TEST(ResolverFastPathTest, EverythingElseFallsThrough) {
  Stack fast;
  fast.populate();
  ResolverCache& cache = fast.resolver.cache();
  // A CNAME whose target is cached: answerable, but only by a chase.
  dns::RRset alias{mk("alias.example.com"), RRType::kCNAME, RRClass::kIN,
                   300, {}};
  alias.add(dns::CNAMERdata{mk("www.example.com")});
  cache.put(alias, fast.loop.now());
  // An entry whose TTL ran out and that holds no lease.
  cache.put(a_set("old.example.com", 1, 1), fast.loop.now());
  fast.loop.run_for(net::seconds(5));

  const auto www = query_wire("www.example.com", RRType::kA);
  std::vector<std::vector<uint8_t>> cases = {
      query_wire("missing.example.com", RRType::kA),  // miss
      query_wire("old.example.com", RRType::kA),      // stale
      query_wire("alias.example.com", RRType::kA),    // CNAME chase
  };
  {
    Message ext;  // EXT lease query
    ext.id = 9;
    ext.flags.ext = true;
    ext.questions.push_back(
        Question{mk("www.example.com"), RRType::kA, RRClass::kIN, 10});
    cases.push_back(ext.encode());
  }
  {
    Message push;  // CACHE-UPDATE
    push.id = 10;
    push.flags.opcode = dns::Opcode::kCacheUpdate;
    push.questions.push_back(
        Question{mk("example.com"), RRType::kSOA, RRClass::kIN, 0});
    cases.push_back(push.encode());
  }
  {
    // Compressed qname: "www" + pointer back to the header.
    std::vector<uint8_t> pointered(www.begin(), www.begin() + 12);
    pointered.insert(pointered.end(), {3, 'w', 'w', 'w', 0xC0, 12});
    pointered.insert(pointered.end(), {0x00, 0x01, 0x00, 0x01});
    cases.push_back(pointered);
  }
  {
    std::vector<uint8_t> doubled(www.begin(), www.begin() + 12);
    doubled[5] = 2;  // QDCOUNT = 2
    doubled.insert(doubled.end(), www.begin() + 12, www.end());
    doubled.insert(doubled.end(), www.begin() + 12, www.end());
    cases.push_back(doubled);
  }
  for (const auto& wire : cases) {
    fast.ask(wire);
    EXPECT_EQ(fast.resolver.stats().fast_answers, 0u);
  }
  // The CNAME chase was still answered — by the slow path, from cache.
  EXPECT_GE(fast.resolver.cache().stats().hits, 2u);

  // And the plain hit is fast again.
  fast.ask(www);
  EXPECT_EQ(fast.resolver.stats().fast_answers, 1u);
}

/// Drops the entry it is told about from inside the hit hook, and
/// records how many datagrams had been sent when the hook ran.
class EvictingExtension final : public CachingResolver::Extension {
 public:
  EvictingExtension(CachingResolver& resolver, CaptureTransport& transport)
      : resolver_(&resolver), transport_(&transport) {}
  void on_client_query_view(const dns::NameView& qname, RRType qtype,
                            const CacheEntry&) override {
    ++hooks;
    sends_at_hook = transport_->sends();
    resolver_->cache().invalidate(qname.materialize(), qtype);
  }
  int hooks = 0;
  uint64_t sends_at_hook = 0;

 private:
  CachingResolver* resolver_;
  CaptureTransport* transport_;
};

TEST(ResolverFastPathTest, HookRunsAfterTheAnswerIsSent) {
  net::EventLoop loop;
  CaptureTransport transport;
  CachingResolver resolver(transport, loop, {kRoot});
  EvictingExtension extension(resolver, transport);
  resolver.set_extension(&extension);
  resolver.cache().put(a_set("www.example.com", 300, 1), loop.now());

  const auto www = query_wire("www.example.com", RRType::kA);
  transport.deliver(kClient, www);
  // The answer left before the hook ran, so the hook's eviction cannot
  // reach it.
  EXPECT_EQ(extension.hooks, 1);
  EXPECT_EQ(extension.sends_at_hook, 1u);
  EXPECT_EQ(transport.last_to(), kClient);
  auto answer = Message::decode(transport.last());
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value().answers.size(), 1u);
  EXPECT_EQ(resolver.stats().fast_answers, 1u);
  EXPECT_EQ(resolver.stats().upstream_queries, 0u);

  // The eviction took effect for the next query: a miss, sent upstream.
  transport.deliver(kClient, www);
  EXPECT_EQ(resolver.stats().fast_answers, 1u);
  EXPECT_EQ(resolver.stats().client_queries, 2u);
  EXPECT_EQ(resolver.stats().upstream_queries, 1u);
  EXPECT_EQ(transport.last_to(), kRoot);
}

class FastPathAllocTest : public ::testing::TestWithParam<bool> {
 protected:
  void TearDown() override {
    if (!path_.empty()) ::unlink(path_.c_str());
  }
  std::string path_;
};

TEST_P(FastPathAllocTest, SteadyStateHitsAllocateNothing) {
  const bool mmap = GetParam();
  std::function<std::unique_ptr<CacheStoreBackend>()> store;
  if (mmap) {
    path_ = "resolver_fast_path_" + std::to_string(::getpid());
    ::unlink(path_.c_str());
    store = [this]() -> std::unique_ptr<CacheStoreBackend> {
      cachestore::MmapCacheStore::Options opts;
      opts.path = path_;
      opts.file_bytes = 1ull << 20;
      auto opened = cachestore::MmapCacheStore::open(std::move(opts));
      EXPECT_TRUE(opened.ok());
      return std::move(opened).value();
    };
  }
  Stack fast(store);
  ASSERT_EQ(fast.resolver.cache().store().name(), mmap ? "mmap" : "heap");
  fast.populate();
  fast.grant();
  fast.loop.run_for(net::seconds(2));  // past the re-negotiation cooldown

  const auto positive = query_wire("www.example.com", RRType::kA);
  const auto nxdomain = query_wire("gone.example.com", RRType::kA);
  const auto nodata = query_wire("www.example.com", RRType::kAAAA);
  // Warm every arena and ring: the scratch encode buffer and the rate
  // tracker's per-key sample rings (capacity 256).
  for (int i = 0; i < 600; ++i) {
    fast.ask(positive);
    fast.ask(nxdomain);
    fast.ask(nodata);
  }
  const uint64_t fast_before = fast.resolver.stats().fast_answers;
  const uint64_t allocs_before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    fast.transport.deliver(kClient, positive);
    fast.transport.deliver(kClient, nxdomain);
    fast.transport.deliver(kClient, nodata);
  }
  const uint64_t allocs_after = g_allocs.load();
  EXPECT_EQ(fast.resolver.stats().fast_answers, fast_before + 3000);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state cache hit allocated";
  EXPECT_EQ(fast.lease_client.stats().renegotiations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Stores, FastPathAllocTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "mmap" : "heap";
                         });

}  // namespace
}  // namespace dnscup::server
