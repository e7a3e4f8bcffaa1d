// cupbench_load — the benchmark's open-loop load generator and answer
// checker.
//
// Drives running daemons (dnscupd directly, or dnscached frontends) with
// seeded traffic over many UDP source ports on at most two threads (each
// multiplexing its sockets with epoll + recvmmsg), and checks every
// answer: rcode, and the A value against the zone and the UPDATE history.
//
// Phases, all in one process:
//   warm    closed loop: each warm name once through every frontend, the
//           least popular first, so a cache's LRU order ends hot-first.
//   fixed   open loop at --rate for --fixed-seconds.  Every query has a
//           due time on a fixed schedule and is timed from it, so a stall
//           delays the queries behind it and shows up in their latency.
//           With --update-rate, RFC 2136 UPDATEs go to the authority on
//           their own schedule; each is followed by back-to-back probes to
//           every frontend until all serve the new address.
//   ladder  open-loop steps of rising offered rate (start at
//           --ladder-start, grow by 1.25x, then bisect) for
//           --ladder-seconds, to find the highest rate whose p99 stays
//           under the SLO (kSloUs) without losses or a growing backlog.
//           A step where the generator itself fell behind its schedule is
//           invalid and ends the search (the generator's ceiling).
//
// Failures counted: lost queries (fixed phase), wrong answers (bad rcode,
// missing A, an address that is neither the zone's nor one this run
// wrote), stale answers (an older version served by a query sent after a
// newer version was seen converged at every frontend), UPDATEs that are
// refused, unanswered, or never converge.
//
// Writes one JSON object to --out.  `--self-test` feeds the checker a
// correct, a wrong and a stale answer and exits non-zero unless it
// classifies each one correctly.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dns/message.h"
#include "server/update.h"
#include "workload.h"

namespace {

using cupbench::Read;

int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "cupbench_load: %s\n", why.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------- options

// Settings every workload shares.
constexpr int kSockets = 256;         ///< UDP source ports, split over the threads
constexpr double kSloUs = 20000;      ///< ladder limit on a step's p99
constexpr double kStepSeconds = 1.0;  ///< length of one ladder step

struct Options {
  uint64_t seed = 1;
  std::vector<sockaddr_in> frontends;
  sockaddr_in authority{};
  bool have_authority = false;
  uint32_t hot = 0;  ///< 0: reads over every name; else Zipf over the top
  double ext_fraction = 0;
  int threads = 1;
  std::vector<int> cpus;
  uint32_t warm = 0;
  bool warm_only = false;
  double rate = 10000;
  double fixed_s = 4;
  double window_s = 0.25;
  double ladder_s = 0;
  double max_rate = 400000;
  double ladder_start = 0;
  double update_rate = 0;
  std::vector<int> pids;
  std::string out;
  bool self_test = false;
};

sockaddr_in parse_endpoint(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos) die("bad endpoint " + text);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(std::stoi(text.substr(colon + 1))));
  if (inet_pton(AF_INET, text.substr(0, colon).c_str(), &addr.sin_addr) != 1) {
    die("bad endpoint " + text);
  }
  return addr;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, sep)) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (arg == "--warm-only") {
      o.warm_only = true;
      continue;
    }
    if (i + 1 >= argc) die("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--seed") o.seed = std::stoull(v);
    else if (arg == "--frontends") {
      for (const auto& e : split(v, ',')) o.frontends.push_back(parse_endpoint(e));
    } else if (arg == "--authority") {
      o.authority = parse_endpoint(v);
      o.have_authority = true;
    } else if (arg == "--hot") o.hot = static_cast<uint32_t>(std::stoul(v));
    else if (arg == "--ext-fraction") o.ext_fraction = std::stod(v);
    else if (arg == "--threads") o.threads = std::stoi(v);
    else if (arg == "--cpus") {
      for (const auto& c : split(v, ',')) o.cpus.push_back(std::stoi(c));
    } else if (arg == "--warm") o.warm = static_cast<uint32_t>(std::stoul(v));
    else if (arg == "--rate") o.rate = std::stod(v);
    else if (arg == "--fixed-seconds") o.fixed_s = std::stod(v);
    else if (arg == "--window-seconds") o.window_s = std::stod(v);
    else if (arg == "--ladder-seconds") o.ladder_s = std::stod(v);
    else if (arg == "--max-rate") o.max_rate = std::stod(v);
    else if (arg == "--ladder-start") o.ladder_start = std::stod(v);
    else if (arg == "--update-rate") o.update_rate = std::stod(v);
    else if (arg == "--pids") {
      for (const auto& p : split(v, ',')) o.pids.push_back(std::stoi(p));
    } else if (arg == "--out") o.out = v;
    else die("unknown argument " + arg);
  }
  if (o.self_test) return o;
  if (o.frontends.empty()) die("--frontends is required");
  if (o.threads < 1 || o.threads > 2) die("--threads must be 1 or 2");
  if (o.ladder_s > 0 && o.ladder_start <= 0) die("--ladder-seconds needs --ladder-start");
  if (o.update_rate > 0 && (!o.have_authority || o.threads != 1)) {
    die("--update-rate needs --authority and --threads 1");
  }
  if (o.hot > cupbench::kNames) die("--hot exceeds the zone's names");
  return o;
}

// ---------------------------------------------------------------- checker

/// Judges answers against the zone and the UPDATE history of this run.
/// Versions of a name: -1 is the zone's address, u >= 0 the address
/// written by update u.  A newer version counts as converged once every
/// frontend has served it (or a later one); from then on an older version
/// is a stale answer.
class Checker {
 public:
  enum class Verdict { kOk, kWrong, kStale };

  Checker(uint32_t names, uint32_t salt, std::vector<uint32_t> update_names)
      : salt_(salt),
        update_names_(std::move(update_names)),
        history_(names) {}

  void add_update(uint32_t u) {
    history_[update_names_[u]].push_back({u, kNever});
  }

  void mark_converged(uint32_t u, int64_t t) {
    for (auto& v : history_[update_names_[u]]) {
      if (v.u == u) v.converged_ns = t;
    }
  }

  /// Version an answer carries, or nullopt-equivalent kInvalid.
  static constexpr int64_t kInvalid = std::numeric_limits<int64_t>::min();
  int64_t version_of(uint32_t name, uint32_t addr) const {
    if (addr == cupbench::zone_address(name, salt_)) return -1;
    if ((addr >> 24) == 11) {
      const uint32_t u = addr & 0xFFFFFF;
      if (u < update_names_.size() && update_names_[u] == name) {
        for (const auto& v : history_[name]) {
          if (v.u == u) return u;  // only versions actually sent
        }
      }
    }
    return kInvalid;
  }

  Verdict check(uint32_t name, bool ok_rcode, bool have_a, uint32_t addr,
                int64_t sent_ns) const {
    if (!ok_rcode || !have_a) return Verdict::kWrong;
    const int64_t version = version_of(name, addr);
    if (version == kInvalid) return Verdict::kWrong;
    for (const auto& v : history_[name]) {
      if (static_cast<int64_t>(v.u) > version && v.converged_ns <= sent_ns) {
        return Verdict::kStale;
      }
    }
    return Verdict::kOk;
  }

 private:
  static constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
  struct Version {
    uint32_t u;
    int64_t converged_ns;
  };
  uint32_t salt_;
  std::vector<uint32_t> update_names_;
  std::vector<std::vector<Version>> history_;
};

int self_test() {
  const uint32_t salt = cupbench::address_salt(7);
  Checker checker(16, salt, {3, 5});
  checker.add_update(0);  // name 3 -> 11.0.0.0
  const uint32_t original = cupbench::zone_address(3, salt);
  const uint32_t updated = cupbench::update_address(0);
  struct Case {
    const char* what;
    uint32_t name;
    bool ok_rcode;
    uint32_t addr;
    int64_t sent;
    Checker::Verdict want;
  };
  std::vector<Case> cases = {
      {"zone value before the update converged", 3, true, original, 50,
       Checker::Verdict::kOk},
      {"new value", 3, true, updated, 60, Checker::Verdict::kOk},
      {"address never in the zone", 3, true, 0x0A0B0C0D ^ original, 60,
       Checker::Verdict::kWrong},
      {"another name's address", 3, true, cupbench::zone_address(4, salt), 60,
       Checker::Verdict::kWrong},
      {"SERVFAIL", 5, false, cupbench::zone_address(5, salt), 60,
       Checker::Verdict::kWrong},
      {"update address never sent", 5, true, cupbench::update_address(1), 60,
       Checker::Verdict::kWrong},
  };
  checker.mark_converged(0, 100);
  cases.push_back({"zone value sent before convergence", 3, true, original, 99,
                   Checker::Verdict::kOk});
  cases.push_back({"rollback to the zone value after convergence", 3, true,
                   original, 200, Checker::Verdict::kStale});
  int failures = 0;
  for (const auto& c : cases) {
    const auto got = checker.check(c.name, c.ok_rcode, true, c.addr, c.sent);
    const bool pass = got == c.want;
    std::printf("checker self-test: %-48s %s\n", c.what, pass ? "ok" : "MISSED");
    if (!pass) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- wire

struct Answer {
  uint16_t id = 0;
  bool qr = false;
  uint8_t rcode = 0;
  bool have_a = false;
  uint32_t addr = 0;
};

bool skip_name(const uint8_t* p, std::size_t len, std::size_t& off) {
  while (off < len) {
    const uint8_t l = p[off];
    if ((l & 0xC0) == 0xC0) {
      off += 2;
      return off <= len;
    }
    off += 1;
    if (l == 0) return true;
    off += l;
  }
  return false;
}

/// Minimal response parser: header, questions (with the DNScup RRC field
/// and LLT when the EXT bit is set), then the first A record answer.
bool parse_answer(const uint8_t* p, std::size_t len, uint16_t ext_mask,
                  Answer& out) {
  if (len < 12) return false;
  out.id = static_cast<uint16_t>(p[0] << 8 | p[1]);
  const uint16_t flags = static_cast<uint16_t>(p[2] << 8 | p[3]);
  out.qr = flags & 0x8000;
  out.rcode = flags & 0xF;
  const bool ext = flags & ext_mask;
  const uint16_t qd = static_cast<uint16_t>(p[4] << 8 | p[5]);
  const uint16_t an = static_cast<uint16_t>(p[6] << 8 | p[7]);
  std::size_t off = 12;
  for (uint16_t q = 0; q < qd; ++q) {
    if (!skip_name(p, len, off)) return false;
    off += ext ? 6 : 4;
  }
  if (ext && out.qr) off += 2;
  out.have_a = false;
  for (uint16_t a = 0; a < an && off <= len; ++a) {
    if (!skip_name(p, len, off) || off + 10 > len) return false;
    const uint16_t type = static_cast<uint16_t>(p[off] << 8 | p[off + 1]);
    const uint16_t rdlen = static_cast<uint16_t>(p[off + 8] << 8 | p[off + 9]);
    off += 10;
    if (off + rdlen > len) return false;
    if (type == 1 && rdlen == 4) {
      out.addr = static_cast<uint32_t>(p[off]) << 24 |
                 static_cast<uint32_t>(p[off + 1]) << 16 |
                 static_cast<uint32_t>(p[off + 2]) << 8 | p[off + 3];
      out.have_a = true;
      return true;
    }
    off += rdlen;
  }
  return off <= len;
}

/// Pre-encoded query images (id patched at send time), plain and EXT.
struct Templates {
  std::vector<std::vector<uint8_t>> plain;
  std::vector<std::vector<uint8_t>> ext;
};

Templates make_templates(uint32_t names, bool with_ext) {
  Templates t;
  t.plain.resize(names);
  if (with_ext) t.ext.resize(names);
  for (uint32_t i = 0; i < names; ++i) {
    auto name = dnscup::dns::Name::parse(cupbench::name_text(i));
    if (!name.ok()) die("bad generated name");
    for (const bool ext : {false, true}) {
      if (ext && !with_ext) continue;
      dnscup::dns::Message q;
      q.flags.opcode = dnscup::dns::Opcode::kQuery;
      q.flags.rd = true;
      q.flags.ext = ext;
      // RRC: a nominal 10 q/s report, as a busy caching resolver sends.
      q.questions.push_back(dnscup::dns::Question{
          name.value(), dnscup::dns::RRType::kA, dnscup::dns::RRClass::kIN,
          ext ? dnscup::dns::rrc_from_rate(10.0) : static_cast<uint16_t>(0)});
      (ext ? t.ext : t.plain)[i] = q.encode();
    }
  }
  return t;
}

int open_socket() {
  const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) die("socket: " + std::string(std::strerror(errno)));
  const int buf = 1 << 20;
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  sockaddr_in local{};
  local.sin_family = AF_INET;
  local.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (bind(fd, reinterpret_cast<sockaddr*>(&local), sizeof local) != 0) {
    die("bind: " + std::string(std::strerror(errno)));
  }
  return fd;
}

void send_to(int fd, const sockaddr_in& to, const std::vector<uint8_t>& image,
             uint16_t id) {
  uint8_t buf[512];
  const std::size_t len = std::min<std::size_t>(image.size(), sizeof buf);
  std::memcpy(buf, image.data(), len);
  buf[0] = static_cast<uint8_t>(id >> 8);
  buf[1] = static_cast<uint8_t>(id);
  for (;;) {
    const ssize_t n = sendto(fd, buf, len, 0,
                             reinterpret_cast<const sockaddr*>(&to), sizeof to);
    if (n >= 0 || errno != EINTR) return;  // a full buffer counts as a loss
  }
}

// ---------------------------------------------------------------- stats

struct Bucket {
  std::vector<float> latency_us;
  std::vector<float> late_us;  ///< send time minus due time
  uint64_t sent = 0, answered = 0, lost = 0, wrong = 0, stale = 0;
  int64_t last_answer_ns = 0;

  void merge(const Bucket& b) {
    last_answer_ns = std::max(last_answer_ns, b.last_answer_ns);
    latency_us.insert(latency_us.end(), b.latency_us.begin(), b.latency_us.end());
    late_us.insert(late_us.end(), b.late_us.begin(), b.late_us.end());
    sent += b.sent;
    answered += b.answered;
    lost += b.lost;
    wrong += b.wrong;
    stale += b.stale;
  }
};

double percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------- generator

struct Slot {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  uint32_t name = 0;
  uint16_t id = 0;
  uint16_t bucket = 0;
  bool pending = false;
};

constexpr std::size_t kSlotsPerSocket = 4096;  // power of two
constexpr std::size_t kBatch = 32;

struct Update {
  int64_t sent_ns = 0;
  int64_t last_probe_ns[2] = {0, 0};
  uint16_t probe_id[2] = {0, 0};
  uint8_t converged_mask = 0;
  bool sent = false, acked = false, refused = false, done = false;
};

/// One generator thread: its sockets, outstanding-query table and the
/// per-bucket stats of the phase it is running.
struct Lane {
  int index = 0;
  int epoll_fd = -1;
  std::vector<int> fds;
  std::vector<uint16_t> next_id;
  std::vector<Slot> slots;
  uint64_t outstanding = 0;  ///< pending slots
  std::unique_ptr<cupbench::ReadStream> stream;
  std::vector<Bucket> buckets;
};

class Generator {
 public:
  explicit Generator(const Options& o)
      : o_(o),
        salt_(cupbench::address_salt(o.seed)),
        order_(cupbench::popularity_order(cupbench::kNames, o.seed)),
        zipf_(o.hot > 0 ? o.hot : cupbench::kNames),
        templates_(make_templates(cupbench::kNames, o.ext_fraction > 0)) {
    dnscup::dns::Flags f;
    f.ext = true;
    ext_mask_ = f.pack();
    const auto max_updates = static_cast<uint32_t>(
        std::ceil(o.update_rate * o.fixed_s) + 1);
    update_names_ = cupbench::update_names(o.seed, max_updates, zipf_, order_);
    checker_ = std::make_unique<Checker>(cupbench::kNames, salt_, update_names_);
    updates_.resize(max_updates);
    if (o.update_rate > 0) build_updates();

    const int per_lane = kSockets / o.threads;
    for (int t = 0; t < o.threads; ++t) {
      auto lane = std::make_unique<Lane>();
      lane->index = t;
      lane->epoll_fd = epoll_create1(0);
      for (int s = 0; s < per_lane; ++s) {
        const int fd = open_socket();
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = static_cast<uint32_t>(lane->fds.size());
        epoll_ctl(lane->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
        lane->fds.push_back(fd);
      }
      lane->next_id.assign(lane->fds.size(), 1);
      lane->slots.resize(lane->fds.size() * kSlotsPerSocket);
      lane->stream = std::make_unique<cupbench::ReadStream>(
          o.seed, static_cast<uint32_t>(t), zipf_, order_, o.ext_fraction);
      lanes_.push_back(std::move(lane));
    }
    if (o.update_rate > 0) {
      update_fd_ = open_socket();
      for (std::size_t f = 0; f < o.frontends.size() && f < 2; ++f) {
        probe_fds_.push_back(open_socket());
      }
      Lane& lane0 = *lanes_[0];
      auto add = [&](int fd, uint32_t tag) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = tag;
        epoll_ctl(lane0.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
      };
      add(update_fd_, kUpdateTag);
      for (std::size_t f = 0; f < probe_fds_.size(); ++f) {
        add(probe_fds_[f], kProbeTag | static_cast<uint32_t>(f));
      }
      probe_owner_.assign(probe_fds_.size() * 65536, kNoUpdate);
    }
  }

  /// Closed-loop warm-up of the top `warm` names through every frontend,
  /// in reverse popularity order (the hottest name is sent last and so is
  /// the most recently used entry of an LRU cache);
  /// returns failures.
  uint64_t warm() {
    if (o_.warm == 0) return 0;
    const int fd = lanes_[0]->fds[0];
    uint64_t failures = 0;
    // Warm-up ids run from 0x4000 upwards and must not wrap.
    const uint32_t count = std::min({o_.warm, cupbench::kNames, 0xC000u});
    for (const auto& frontend : o_.frontends) {
      constexpr uint32_t kWindow = 64;
      std::vector<int64_t> sent_at(count, 0);
      std::vector<bool> done(count, false);
      std::vector<int> tries(count, 0);
      uint32_t next = 0, completed = 0;
      std::vector<uint32_t> outstanding;
      uint16_t base_id = 0x4000;
      while (completed < count) {
        const int64_t now = now_ns();
        // Retransmit after 200 ms, give up after 3 tries.
        for (std::size_t k = 0; k < outstanding.size();) {
          const uint32_t r = outstanding[k];
          if (now - sent_at[r] > 200000000) {
            if (++tries[r] >= 3) {
              ++failures;
              done[r] = true;
              ++completed;
              outstanding[k] = outstanding.back();
              outstanding.pop_back();
              continue;
            }
            sent_at[r] = now;
            send_to(fd, frontend, templates_.plain[order_[count - 1 - r]],
                    static_cast<uint16_t>(base_id + r));
          }
          ++k;
        }
        while (outstanding.size() < kWindow && next < count) {
          sent_at[next] = now;
          send_to(fd, frontend, templates_.plain[order_[count - 1 - next]],
                  static_cast<uint16_t>(base_id + next));
          outstanding.push_back(next++);
        }
        uint8_t buf[1500];
        for (;;) {
          const ssize_t n = recv(fd, buf, sizeof buf, MSG_DONTWAIT);
          if (n <= 0) break;
          Answer a;
          if (!parse_answer(buf, static_cast<std::size_t>(n), ext_mask_, a)) continue;
          const uint32_t r = static_cast<uint16_t>(a.id - base_id);
          if (r >= count || done[r]) continue;
          done[r] = true;
          ++completed;
          outstanding.erase(std::find(outstanding.begin(), outstanding.end(), r));
          if (checker_->check(order_[count - 1 - r], a.rcode == 0, a.have_a, a.addr, 0) !=
              Checker::Verdict::kOk) {
            ++failures;
          }
        }
      }
    }
    return failures;
  }

  struct PhaseResult {
    std::vector<Bucket> buckets;
    int64_t start_ns = 0;
    uint64_t scheduled = 0;
  };

  /// Runs every lane on the open-loop schedule [start, start + seconds)
  /// at `rate` total, splitting into buckets of `bucket_s`; updates run on
  /// lane 0 when `with_updates`.  Returns after a drain period.
  PhaseResult run_phase(double rate, double seconds, double bucket_s,
                        bool with_updates) {
    const int64_t start = now_ns() + 20000000;
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    const auto bucket_ns = static_cast<int64_t>(bucket_s * 1e9);
    const std::size_t buckets =
        static_cast<std::size_t>(std::ceil(seconds / bucket_s - 1e-9));
    std::vector<std::thread> threads;
    for (auto& lane : lanes_) {
      lane->buckets.assign(buckets, Bucket{});
      threads.emplace_back([&, l = lane.get()] {
        pin(l->index);
        run_lane(*l, rate, start, end, bucket_ns, with_updates && l->index == 0);
      });
    }
    for (auto& t : threads) t.join();
    PhaseResult r;
    r.buckets.assign(buckets, Bucket{});
    for (auto& lane : lanes_) {
      for (std::size_t b = 0; b < buckets; ++b) r.buckets[b].merge(lane->buckets[b]);
    }
    r.start_ns = start;
    r.scheduled = static_cast<uint64_t>(rate * seconds);
    return r;
  }

  // Update-side results.
  std::vector<double> converge_us;
  uint64_t updates_sent = 0, updates_failed = 0, updates_unconverged = 0;
  uint64_t probe_wrong = 0, probe_stale = 0;

 private:
  static constexpr uint32_t kUpdateTag = 0x80000000u;
  static constexpr uint32_t kProbeTag = 0x40000000u;
  static constexpr uint32_t kNoUpdate = 0xFFFFFFFFu;
  static constexpr int64_t kProbeRetryNs = 50000000;     // 50 ms
  static constexpr int64_t kFinalSweep = std::numeric_limits<int64_t>::max() / 2;
  // Probes of one update follow each other back to back (at most one per
  // frontend every 50 us) for its first 5 ms, then one per millisecond, so
  // a slow convergence cannot flood the frontends the read traffic is
  // measured on.
  static constexpr int64_t kProbeGapNs = 50000;
  static constexpr int64_t kFastProbingNs = 5000000;
  static constexpr int64_t kSlowProbeGapNs = 1000000;
  static constexpr int64_t kConvergeLimitNs = 3000000000;  // 3 s

  void build_updates() {
    auto zone = dnscup::dns::Name::parse(cupbench::kZoneOrigin);
    if (!zone.ok()) die("bad zone origin");
    update_images_.resize(updates_.size());
    for (uint32_t u = 0; u < updates_.size(); ++u) {
      auto name = dnscup::dns::Name::parse(cupbench::name_text(update_names_[u]));
      if (!name.ok()) die("bad update name");
      dnscup::dns::Ipv4 addr;
      addr.addr = cupbench::update_address(u);
      update_images_[u] = dnscup::server::UpdateBuilder(zone.value())
                              .replace_a(name.value(), cupbench::kRecordTtl, addr)
                              .build(static_cast<uint16_t>(u))
                              .encode();
    }
  }

  void pin(int lane) const {
    if (o_.cpus.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(o_.cpus[static_cast<std::size_t>(lane) % o_.cpus.size()], &set);
    sched_setaffinity(0, sizeof set, &set);
  }

  void send_probe(uint32_t u, std::size_t f, int64_t now) {
    Update& up = updates_[u];
    uint16_t id = ++probe_next_id_[f];
    if (id == 0) id = ++probe_next_id_[f];
    probe_owner_[f * 65536 + id] = u;
    up.probe_id[f] = id;
    up.last_probe_ns[f] = now;
    send_to(probe_fds_[f], o_.frontends[f], templates_.plain[update_names_[u]], id);
  }

  void send_update(uint32_t u, int64_t now) {
    Update& up = updates_[u];
    up.sent = true;
    up.sent_ns = now;
    ++updates_sent;
    checker_->add_update(u);
    sendto(update_fd_, update_images_[u].data(), update_images_[u].size(), 0,
           reinterpret_cast<const sockaddr*>(&o_.authority), sizeof o_.authority);
    active_.push_back(u);
    for (std::size_t f = 0; f < probe_fds_.size(); ++f) send_probe(u, f, now);
  }

  void on_update_reply(const uint8_t* p, std::size_t len) {
    Answer a;
    if (!parse_answer(p, len, ext_mask_, a)) return;
    if (a.id >= updates_.size()) return;
    Update& up = updates_[a.id];
    if (!up.sent || up.acked) return;
    up.acked = true;
    if (a.rcode != 0) up.refused = true;
  }

  void on_probe_reply(std::size_t f, const uint8_t* p, std::size_t len,
                      int64_t now) {
    Answer a;
    if (!parse_answer(p, len, ext_mask_, a)) return;
    const uint32_t u = probe_owner_[f * 65536 + a.id];
    if (u == kNoUpdate) return;
    probe_owner_[f * 65536 + a.id] = kNoUpdate;
    Update& up = updates_[u];
    if (up.done || up.probe_id[f] != a.id) return;
    const uint32_t name = update_names_[u];
    const auto verdict = checker_->check(name, a.rcode == 0, a.have_a, a.addr,
                                         up.last_probe_ns[f]);
    if (verdict == Checker::Verdict::kWrong) ++probe_wrong;
    if (verdict == Checker::Verdict::kStale) ++probe_stale;
    const int64_t version =
        verdict == Checker::Verdict::kWrong ? -1 : checker_->version_of(name, a.addr);
    if (version >= static_cast<int64_t>(u)) {
      up.converged_mask |= static_cast<uint8_t>(1u << f);
      if (up.converged_mask == (1u << probe_fds_.size()) - 1) {
        up.done = true;
        checker_->mark_converged(u, now);
        converge_us.push_back(static_cast<double>(now - up.sent_ns) / 1e3);
      }
      return;
    }
    up.probe_id[f] = 0;  // answered with an older value: probe again
  }

  void sweep_updates(int64_t now) {
    for (std::size_t k = 0; k < active_.size();) {
      const uint32_t u = active_[k];
      Update& up = updates_[u];
      const bool final_sweep = now == kFinalSweep;
      if (!up.done && (final_sweep || now - up.sent_ns > kConvergeLimitNs)) {
        up.done = true;
        ++updates_unconverged;
      }
      // The UPDATE's own answer may arrive after the caches already
      // serve the new value; wait for it until the final sweep.
      if (up.done && (up.acked || final_sweep)) {
        if (!up.acked || up.refused) ++updates_failed;
        active_[k] = active_.back();
        active_.pop_back();
        continue;
      }
      for (std::size_t f = 0; f < probe_fds_.size(); ++f) {
        if (up.converged_mask & (1u << f)) continue;
        const int64_t since = now - up.last_probe_ns[f];
        const int64_t gap =
            now - up.sent_ns < kFastProbingNs ? kProbeGapNs : kSlowProbeGapNs;
        if ((up.probe_id[f] == 0 && since >= gap) || since > kProbeRetryNs) {
          send_probe(u, f, now);
        }
      }
      ++k;
    }
  }

  void on_read_reply(Lane& lane, std::size_t sock, const uint8_t* p,
                     std::size_t len, int64_t now) {
    Answer a;
    if (!parse_answer(p, len, ext_mask_, a)) return;
    Slot& slot = lane.slots[sock * kSlotsPerSocket + (a.id & (kSlotsPerSocket - 1))];
    if (!slot.pending || slot.id != a.id) return;  // late reply to a lost query
    slot.pending = false;
    --lane.outstanding;
    Bucket& b = lane.buckets[slot.bucket];
    ++b.answered;
    b.last_answer_ns = std::max(b.last_answer_ns, now);
    b.latency_us.push_back(static_cast<float>(now - slot.due_ns) / 1e3f);
    const auto verdict =
        checker_->check(slot.name, a.rcode == 0, a.have_a, a.addr, slot.sent_ns);
    if (verdict == Checker::Verdict::kWrong) ++b.wrong;
    if (verdict == Checker::Verdict::kStale) ++b.stale;
  }

  void poll(Lane& lane) {
    epoll_event events[64];
    const int n = epoll_wait(lane.epoll_fd, events, 64, 0);
    static thread_local uint8_t bufs[kBatch][1500];
    mmsghdr msgs[kBatch];
    iovec iovs[kBatch];
    for (int e = 0; e < n; ++e) {
      const uint32_t tag = events[e].data.u32;
      int fd;
      if (tag & kUpdateTag) fd = update_fd_;
      else if (tag & kProbeTag) fd = probe_fds_[tag & 0xFF];
      else fd = lane.fds[tag];
      for (;;) {
        for (std::size_t i = 0; i < kBatch; ++i) {
          iovs[i] = {bufs[i], sizeof bufs[i]};
          msgs[i] = {};
          msgs[i].msg_hdr.msg_iov = &iovs[i];
          msgs[i].msg_hdr.msg_iovlen = 1;
        }
        const int got = recvmmsg(fd, msgs, kBatch, MSG_DONTWAIT, nullptr);
        if (got <= 0) break;
        const int64_t now = now_ns();
        for (int i = 0; i < got; ++i) {
          const std::size_t len = msgs[i].msg_len;
          if (tag & kUpdateTag) on_update_reply(bufs[i], len);
          else if (tag & kProbeTag) on_probe_reply(tag & 0xFF, bufs[i], len, now);
          else on_read_reply(lane, tag, bufs[i], len, now);
        }
        if (static_cast<std::size_t>(got) < kBatch) break;
      }
    }
  }

  void run_lane(Lane& lane, double rate, int64_t start, int64_t end,
                int64_t bucket_ns, bool with_updates) {
    const double lane_rate = rate / static_cast<double>(lanes_.size());
    const double interval = 1e9 / lane_rate;
    double due = static_cast<double>(start) + interval * lane.index /
                                                  static_cast<double>(lanes_.size());
    const double update_interval = o_.update_rate > 0 ? 1e9 / o_.update_rate : 0;
    double update_due = static_cast<double>(start) + update_interval / 2;
    const std::size_t socks = lane.fds.size();
    const std::size_t nfront = o_.frontends.size();
    uint64_t k = 0;
    // Drain: long enough for the slowest answer under the SLO, and for
    // every started update to converge or time out.
    const int64_t drain_ns = with_updates ? kConvergeLimitNs + 100000000 : 200000000;
    int64_t last_sweep = 0;
    for (;;) {
      const int64_t now = now_ns();
      int burst = 0;
      while (due <= static_cast<double>(now) && due < static_cast<double>(end) &&
             burst < 64) {
        const Read r = lane.stream->next();
        const std::size_t sock = k % socks;
        const std::size_t front = (k / socks) % nfront;
        const uint16_t id = lane.next_id[sock]++;
        Slot& slot = lane.slots[sock * kSlotsPerSocket + (id & (kSlotsPerSocket - 1))];
        const auto due_ns = static_cast<int64_t>(due);
        const auto bucket = static_cast<uint16_t>(
            std::min<int64_t>((due_ns - start) / bucket_ns,
                              static_cast<int64_t>(lane.buckets.size()) - 1));
        if (slot.pending) {
          ++lane.buckets[slot.bucket].lost;  // id wrapped
        } else {
          ++lane.outstanding;
        }
        const int64_t sent = now_ns();
        slot = Slot{due_ns, sent, r.name, id, bucket, true};
        Bucket& b = lane.buckets[bucket];
        ++b.sent;
        b.late_us.push_back(static_cast<float>(sent - due_ns) / 1e3f);
        send_to(lane.fds[sock], o_.frontends[front],
                r.ext ? templates_.ext[r.name] : templates_.plain[r.name], id);
        ++k;
        ++burst;
        due += interval;
      }
      if (with_updates) {
        while (update_due <= static_cast<double>(now) &&
               update_due < static_cast<double>(end) && next_update_ < updates_.size()) {
          send_update(next_update_++, now);
          update_due += update_interval;
        }
        if (!active_.empty() || now - last_sweep > 1000000) {
          sweep_updates(now);
          last_sweep = now;
        }
      }
      poll(lane);
      if (due >= static_cast<double>(end) && now >= end) {
        if (now >= end + drain_ns) break;
        // Finish early once nothing is outstanding.
        if (lane.outstanding == 0 && (!with_updates || active_.empty())) break;
      }
    }
    for (Slot& s : lane.slots) {
      if (s.pending) {
        s.pending = false;
        ++lane.buckets[s.bucket].lost;
      }
    }
    lane.outstanding = 0;
    if (with_updates) sweep_updates(kFinalSweep);
  }

  Options o_;
  uint32_t salt_;
  std::vector<uint32_t> order_;
  cupbench::Zipf zipf_;
  Templates templates_;
  uint16_t ext_mask_ = 0;
  std::vector<uint32_t> update_names_;
  std::unique_ptr<Checker> checker_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  std::vector<Update> updates_;
  std::vector<std::vector<uint8_t>> update_images_;
  uint32_t next_update_ = 0;
  std::vector<uint32_t> active_;
  int update_fd_ = -1;
  std::vector<int> probe_fds_;
  uint16_t probe_next_id_[2] = {0, 0};
  std::vector<uint32_t> probe_owner_;
};

/// utime + stime of a process, in microseconds.
double process_cpu_us(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  const auto paren = stat.rfind(')');
  if (paren == std::string::npos) die("cannot read /proc/" + std::to_string(pid));
  std::istringstream rest(stat.substr(paren + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15; ++i) {
    rest >> field;
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1e6 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double total_cpu_us(const std::vector<int>& pids) {
  double sum = 0;
  for (int pid : pids) sum += process_cpu_us(pid);
  return sum;
}

struct StepResult {
  double offered = 0, answered_rate = 0, p99_us = 0, late_p99_us = 0;
  double loss = 0;
  bool pass = false, valid = true;
  std::string why;
};

/// Judges one ladder step from its 250 ms sub-windows: p99 and generator
/// lateness are medians over the windows, so a single host stall (a few
/// ms, one window) does not decide the step; losses count over the step.
StepResult judge_step(const Generator::PhaseResult& r, double rate,
                      double seconds) {
  StepResult s;
  s.offered = rate;
  Bucket all;
  std::vector<double> p99s, lates, p50s;
  for (const auto& b : r.buckets) {
    all.merge(b);
    if (b.latency_us.size() < 100) continue;
    p99s.push_back(percentile(b.latency_us, 0.99));
    p50s.push_back(percentile(b.latency_us, 0.5));
    lates.push_back(percentile(b.late_us, 0.99));
  }
  // Delivered rate: answers over the time from the step's first due
  // query to its last answer.
  const double elapsed_s =
      all.last_answer_ns > r.start_ns
          ? static_cast<double>(all.last_answer_ns - r.start_ns) / 1e9
          : seconds;
  s.answered_rate = static_cast<double>(all.answered) / elapsed_s;
  s.p99_us = p99s.empty() ? percentile(all.latency_us, 0.99) : median(p99s);
  s.late_p99_us = lates.empty() ? percentile(all.late_us, 0.99) : median(lates);
  s.loss = all.sent > 0 ? static_cast<double>(all.lost) / static_cast<double>(all.sent) : 1;
  // The generator fell behind its own schedule: the step says nothing
  // about the server.
  if (static_cast<double>(all.sent) < 0.99 * static_cast<double>(r.scheduled) ||
      s.late_p99_us > kSloUs / 4) {
    s.valid = false;
    s.why = "generator behind schedule";
    return s;
  }
  // Backlog growth: the last window's median latency far above the
  // first's (with a floor, so a hit/miss mix at small latencies does not
  // read as a queue).
  const bool growing = p50s.size() >= 2 &&
                       p50s.back() > std::max(2 * p50s.front(), kSloUs / 4);
  if (s.p99_us > kSloUs) s.why = "p99 over SLO";
  else if (s.loss > 0.001) s.why = "loss over 0.1%";
  else if (all.wrong + all.stale > 0) s.why = "wrong or stale answers";
  else if (growing) s.why = "backlog growing";
  s.pass = s.why.empty();
  return s;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  if (o.self_test) return self_test();
  Generator gen(o);

  const int64_t warm_start = now_ns();
  const uint64_t warm_failures = gen.warm();
  const double warm_s = static_cast<double>(now_ns() - warm_start) / 1e9;
  std::string json = "{\"warm_s\": " + json_number(warm_s) +
                     ", \"warm_failures\": " + std::to_string(warm_failures);
  if (o.warm_only) {
    json += "}";
  } else {
    // Fixed-rate phase.
    // The ladder runs on its own deployment (--fixed-seconds 0), so the
    // fixed-phase counters the caller scrapes do not depend on how far the
    // ladder climbed.
    const double cpu0 = o.fixed_s > 0 ? total_cpu_us(o.pids) : 0;
    Generator::PhaseResult fixed;
    if (o.fixed_s > 0) fixed = gen.run_phase(o.rate, o.fixed_s, o.window_s, o.update_rate > 0);
    const double cpu1 = o.fixed_s > 0 ? total_cpu_us(o.pids) : 0;
    Bucket all;
    std::vector<double> p50s, p99s;
    for (const auto& b : fixed.buckets) {
      all.merge(b);
      if (b.latency_us.size() >= 1000) {
        p50s.push_back(percentile(b.latency_us, 0.5));
        p99s.push_back(percentile(b.latency_us, 0.99));
      }
    }
    const double cpu_per_query =
        all.answered > 0 ? (cpu1 - cpu0) / static_cast<double>(all.answered) : 0;

    // Ladder: grow 1.25x until a step fails, then bisect.
    std::vector<StepResult> steps;
    double best = 0, lo = 0, hi = 0;
    uint64_t ladder_sent = 0, ladder_answered = 0;
    bool confirming = false;
    bool generator_limited = false;
    double rate = o.ladder_start;
    double left = o.ladder_s;
    while (left >= kStepSeconds - 1e-9) {
      auto r = gen.run_phase(rate, kStepSeconds, 0.25, false);
      left -= kStepSeconds;
      StepResult s = judge_step(r, rate, kStepSeconds);
      steps.push_back(s);
      for (const auto& b : r.buckets) {
        all.wrong += b.wrong;
        all.stale += b.stale;
        ladder_sent += b.sent;
        ladder_answered += b.answered;
      }
      // A failed or invalid step is repeated once at the same rate, so a
      // lone host stall does not end the climb.
      if (!s.pass && !confirming) {
        confirming = true;
        continue;
      }
      confirming = false;
      if (!s.valid) {
        generator_limited = true;
        hi = rate;
      } else if (s.pass) {
        lo = rate;
        best = std::max(best, s.answered_rate);
      } else {
        hi = rate;
      }
      if (hi == 0) {
        if (rate >= o.max_rate) break;
        rate = std::min(rate * 1.25, o.max_rate);
      } else if (lo == 0) {
        rate = rate / 1.5;
      } else {
        if (hi / lo < 1.02) break;
        rate = std::sqrt(lo * hi);
      }
    }

    std::vector<double> conv = gen.converge_us;
    std::vector<float> convf(conv.begin(), conv.end());
    json += ", \"scheduled\": " + std::to_string(fixed.scheduled);
    json += ", \"sent\": " + std::to_string(all.sent);
    json += ", \"answered\": " + std::to_string(all.answered);
    json += ", \"ladder_sent\": " + std::to_string(ladder_sent);
    json += ", \"ladder_answered\": " + std::to_string(ladder_answered);
    json += ", \"lost\": " + std::to_string(all.lost);
    json += ", \"wrong\": " + std::to_string(all.wrong + gen.probe_wrong);
    json += ", \"stale\": " + std::to_string(all.stale + gen.probe_stale);
    json += ", \"windows\": " + std::to_string(p99s.size());
    json += ", \"query_p50_us\": " + json_number(median(p50s));
    json += ", \"query_p99_us\": " + json_number(median(p99s));
    json += ", \"pooled_p50_us\": " + json_number(percentile(all.latency_us, 0.5));
    json += ", \"pooled_p99_us\": " + json_number(percentile(all.latency_us, 0.99));
    json += ", \"pooled_p999_us\": " + json_number(percentile(all.latency_us, 0.999));
    json += ", \"late_p50_us\": " + json_number(percentile(all.late_us, 0.5));
    json += ", \"late_p99_us\": " + json_number(percentile(all.late_us, 0.99));
    json += ", \"late_max_us\": " + json_number(percentile(all.late_us, 1.0));
    json += ", \"daemon_cpu_us\": " + json_number(cpu1 - cpu0);
    json += ", \"server_cpu_us_per_query\": " + json_number(cpu_per_query);
    json += ", \"query_qps_at_slo\": " + json_number(best);
    json += ", \"generator_limited\": " + std::string(generator_limited ? "true" : "false");
    json += ", \"updates_sent\": " + std::to_string(gen.updates_sent);
    json += ", \"updates_failed\": " + std::to_string(gen.updates_failed);
    json += ", \"updates_unconverged\": " + std::to_string(gen.updates_unconverged);
    json += ", \"converged\": " + std::to_string(conv.size());
    json += ", \"update_converge_p50_us\": " + json_number(percentile(convf, 0.5));
    json += ", \"update_converge_p99_us\": " + json_number(percentile(convf, 0.99));
    json += ", \"converge_us\": [";
    for (std::size_t i = 0; i < conv.size(); ++i) {
      json += (i > 0 ? ", " : "") + json_number(conv[i]);
    }
    json += "]";
    json += ", \"window_p99_us\": [";
    for (std::size_t i = 0; i < p99s.size(); ++i) {
      json += (i > 0 ? ", " : "") + json_number(p99s[i]);
    }
    json += "]";
    json += ", \"steps\": [";
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const auto& s = steps[i];
      if (i > 0) json += ", ";
      json += "{\"offered\": " + json_number(s.offered) +
              ", \"answered_rate\": " + json_number(s.answered_rate) +
              ", \"p99_us\": " + json_number(s.p99_us) +
              ", \"late_p99_us\": " + json_number(s.late_p99_us) +
              ", \"loss\": " + json_number(s.loss) +
              ", \"pass\": " + (s.pass ? "true" : "false") +
              ", \"valid\": " + (s.valid ? "true" : "false") +
              ", \"why\": \"" + s.why + "\"}";
    }
    json += "]}";
  }
  if (o.out.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::ofstream f(o.out);
    f << json << "\n";
    if (!f) die("cannot write " + o.out);
  }
  return 0;
}
