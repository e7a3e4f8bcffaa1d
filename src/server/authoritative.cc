#include "server/authoritative.h"

#include <algorithm>

#include "server/update.h"
#include "util/assert.h"
#include "util/logging.h"

namespace dnscup::server {

using dns::Message;
using dns::Name;
using dns::Opcode;
using dns::Rcode;
using dns::ResourceRecord;
using dns::RRClass;
using dns::RRset;
using dns::RRType;
using dns::Zone;

AuthServer::AuthServer(net::Transport& transport, net::EventLoop& loop,
                       Role role, metrics::MetricsRegistry* metrics)
    : transport_(&transport), loop_(&loop), role_(role) {
  auto& registry = metrics::resolve(metrics);
  const metrics::Labels base{
      {"instance", registry.next_instance("auth_server")}};
  auto labeled = [&](const char* key, const char* value) {
    metrics::Labels labels = base;
    labels.emplace_back(key, value);
    return labels;
  };
  stats_.queries =
      registry.counter("auth_server_requests", labeled("op", "query"));
  stats_.updates =
      registry.counter("auth_server_requests", labeled("op", "update"));
  stats_.notifies_received =
      registry.counter("auth_server_requests", labeled("op", "notify"));
  stats_.notifies_sent = registry.counter("auth_server_notifies_sent", base);
  stats_.axfr_served = registry.counter("auth_server_transfers",
                                        labeled("kind", "axfr_served"));
  stats_.axfr_pulled = registry.counter("auth_server_transfers",
                                        labeled("kind", "axfr_pulled"));
  stats_.ixfr_served = registry.counter("auth_server_transfers",
                                        labeled("kind", "ixfr_served"));
  stats_.ixfr_fallbacks = registry.counter("auth_server_transfers",
                                           labeled("kind", "ixfr_fallback"));
  stats_.ixfr_applied = registry.counter("auth_server_transfers",
                                         labeled("kind", "ixfr_applied"));
  stats_.transfer_aborts =
      registry.counter("auth_server_transfers", labeled("kind", "abort"));
  stats_.refused =
      registry.counter("auth_server_errors", labeled("rcode", "refused"));
  stats_.formerr =
      registry.counter("auth_server_errors", labeled("rcode", "formerr"));
  transport_->set_receive_handler(
      [this](const net::Endpoint& from, std::span<const uint8_t> data) {
        on_datagram(from, data);
      });
}

AuthServer::Stats AuthServer::stats() const {
  return Stats{
      .queries = stats_.queries,
      .updates = stats_.updates,
      .notifies_sent = stats_.notifies_sent,
      .notifies_received = stats_.notifies_received,
      .axfr_served = stats_.axfr_served,
      .axfr_pulled = stats_.axfr_pulled,
      .ixfr_served = stats_.ixfr_served,
      .ixfr_fallbacks = stats_.ixfr_fallbacks,
      .ixfr_applied = stats_.ixfr_applied,
      .transfer_aborts = stats_.transfer_aborts,
      .refused = stats_.refused,
      .formerr = stats_.formerr,
  };
}

void AuthServer::add_zone(Zone zone) {
  DNSCUP_ASSERT(zone.validate().ok());
  Name origin = zone.origin();
  zones_.insert_or_assign(std::move(origin), std::move(zone));
}

std::size_t AuthServer::reload_zone(Zone zone) {
  DNSCUP_ASSERT(zone.validate().ok());
  auto it = zones_.find(zone.origin());
  if (it == zones_.end()) {
    add_zone(std::move(zone));
    return 0;
  }
  const auto changes = dns::diff_zones(it->second, zone);
  if (changes.empty()) {
    if (dns::serial_gt(zone.serial(), it->second.serial())) {
      it->second = std::move(zone);  // adopt the new serial, no data change
    }
    return 0;
  }
  if (!dns::serial_gt(zone.serial(), it->second.serial())) {
    zone.bump_serial();
  }
  record_journal(zone.origin(), it->second.serial(), zone.serial(), changes);
  it->second = std::move(zone);
  fire_change_hooks(it->second, changes);
  notify_slaves(it->second);
  return changes.size();
}

Zone* AuthServer::find_zone(const Name& name) {
  Zone* best = nullptr;
  std::size_t best_labels = 0;
  for (auto& [origin, zone] : zones_) {
    if (name.is_subdomain_of(origin) &&
        (best == nullptr || origin.label_count() >= best_labels)) {
      best = &zone;
      best_labels = origin.label_count();
    }
  }
  return best;
}

const Zone* AuthServer::find_zone(const Name& name) const {
  return const_cast<AuthServer*>(this)->find_zone(name);
}

std::vector<Name> AuthServer::zone_origins() const {
  std::vector<Name> out;
  out.reserve(zones_.size());
  for (const auto& [origin, zone] : zones_) out.push_back(origin);
  return out;
}

void AuthServer::add_slave(const net::Endpoint& slave) {
  slaves_.push_back(slave);
}

void AuthServer::set_master(const net::Endpoint& master) { master_ = master; }

void AuthServer::request_transfer(const Name& origin) {
  DNSCUP_ASSERT(master_.has_value());
  const uint16_t transfer_id = next_id_++;
  transfers_in_progress_[transfer_id] = TransferState{origin, {}, 0, 0};

  Message request;
  request.id = transfer_id;
  request.flags.opcode = Opcode::kQuery;
  auto it = zones_.find(origin);
  if (it != zones_.end()) {
    // Incremental: carry our current SOA so the master can diff from it.
    request.questions.push_back(
        dns::Question{origin, RRType::kIXFR, RRClass::kIN, 0});
    const RRset* soa = it->second.find(origin, RRType::kSOA);
    DNSCUP_ASSERT(soa != nullptr);
    for (auto& rec : soa->to_records()) {
      request.authority.push_back(std::move(rec));
    }
  } else {
    request.questions.push_back(
        dns::Question{origin, RRType::kAXFR, RRClass::kIN, 0});
  }
  transport_->send(*master_, encode_scratch(request));
}

std::size_t AuthServer::journal_size(const Name& origin) const {
  auto it = journals_.find(origin);
  return it == journals_.end() ? 0 : it->second.size();
}

void AuthServer::record_journal(const Name& origin, uint32_t from_serial,
                                uint32_t to_serial,
                                std::vector<dns::RRsetChange> changes) {
  auto& journal = journals_[origin];
  journal.push_back(JournalEntry{from_serial, to_serial, std::move(changes)});
  while (journal.size() > journal_limit_) {
    journal.erase(journal.begin());
  }
}

void AuthServer::add_change_listener(ChangeHook hook) {
  change_hooks_.push_back(std::move(hook));
}

std::span<const uint8_t> AuthServer::encode_scratch(const Message& m) {
  scratch_.clear();
  dns::ByteWriter w(scratch_);
  m.encode_into(w);
  return w.message();
}

void AuthServer::on_datagram(const net::Endpoint& from,
                             std::span<const uint8_t> data) {
  if (try_fast_query(from, data)) return;
  auto decoded = Message::decode(data);
  if (!decoded) {
    ++stats_.formerr;
    DNSCUP_LOG_DEBUG("auth %s: dropping undecodable datagram from %s (%s)",
                     transport_->local_endpoint().to_string().c_str(),
                     from.to_string().c_str(),
                     decoded.error().message.c_str());
    return;
  }
  auto response = handle(from, decoded.value());
  if (response.has_value()) {
    transport_->send(from, encode_scratch(*response));
  }
}

bool AuthServer::try_fast_query(const net::Endpoint& from,
                                std::span<const uint8_t> data) {
  // Preconditions under which the fast path is bit-for-bit equivalent to
  // decode + handle_query + encode.  Anything else falls through.
  if (round_robin_) return false;
  if (query_hook_ && !fast_query_hook_) return false;
  if (extension_handler_ && ext_consumes_queries_) return false;
  dns::PlainQuery query;
  if (!dns::PlainQuery::parse(data, query)) return false;
  const dns::NameView& qname = query.qname;
  const RRType qtype = query.qtype;

  // Longest-match zone, same rule as find_zone but probing with the view.
  const Zone* zone = nullptr;
  std::size_t best_labels = 0;
  for (const auto& [origin, z] : zones_) {
    if (qname.is_subdomain_of(origin) &&
        (zone == nullptr || origin.label_count() >= best_labels)) {
      zone = &z;
      best_labels = origin.label_count();
    }
  }

  const auto send_fast = [&](const dns::Flags& rf, const RRset* answer,
                             const RRset* authority) {
    scratch_.clear();
    dns::ByteWriter w(scratch_);
    w.begin_message();
    w.u16(query.id);
    w.u16(rf.pack());
    w.u16(1);
    w.u16(answer != nullptr ? static_cast<uint16_t>(answer->size()) : 0);
    w.u16(authority != nullptr ? static_cast<uint16_t>(authority->size())
                               : 0);
    w.u16(0);
    // Echo the question bytes verbatim (identical to re-encoding, since the
    // qname is pointer-free) and register the qname labels as compression
    // targets so record owner names compress exactly as on the slow path.
    w.bytes(data.subspan(12, query.question_len));
    w.register_name(12);
    if (answer != nullptr) dns::encode_rrset(*answer, w);
    if (authority != nullptr) dns::encode_rrset(*authority, w);
    transport_->send(from, w.message());
  };

  dns::Flags rf;
  rf.qr = true;
  rf.opcode = Opcode::kQuery;
  rf.rd = query.flags.rd;

  if (zone == nullptr) {
    ++stats_.queries;
    ++stats_.refused;
    rf.rcode = Rcode::kRefused;
    send_fast(rf, nullptr, nullptr);
    // No hook: the slow path returns REFUSED before its QueryHook fires.
    return true;
  }

  const Zone::LookupRef result = zone->lookup_ref(qname, qtype);
  switch (result.status) {
    case Zone::LookupStatus::kSuccess:
      if (result.rrset->type == RRType::kNS ||
          result.rrset->type == RRType::kMX) {
        return false;  // answers that pull glue: slow path
      }
      ++stats_.queries;
      rf.aa = true;
      send_fast(rf, result.rrset, nullptr);
      break;
    case Zone::LookupStatus::kNXDomain:
      ++stats_.queries;
      rf.aa = true;
      rf.rcode = Rcode::kNXDomain;
      send_fast(rf, nullptr, zone->find_apex_soa());
      break;
    case Zone::LookupStatus::kNoData:
      ++stats_.queries;
      rf.aa = true;
      send_fast(rf, nullptr, zone->find_apex_soa());
      break;
    default:
      // CNAME chases, referrals, kNotInZone races: slow path.
      return false;
  }
  if (fast_query_hook_) fast_query_hook_(from, qname, qtype);
  return true;
}

std::optional<Message> AuthServer::handle(const net::Endpoint& from,
                                          const Message& request) {
  if (extension_handler_ && extension_handler_(from, request)) {
    return std::nullopt;
  }
  if (request.flags.qr) {
    // Responses: transfer chunks we are pulling, or NOTIFY acks.
    if (request.flags.opcode == Opcode::kQuery &&
        transfers_in_progress_.count(request.id) > 0) {
      handle_transfer_response(from, request);
    }
    return std::nullopt;
  }
  switch (request.flags.opcode) {
    case Opcode::kQuery:
      if (request.questions.size() == 1 &&
          request.questions[0].qtype == RRType::kAXFR) {
        serve_axfr(from, request);
        return std::nullopt;
      }
      if (request.questions.size() == 1 &&
          request.questions[0].qtype == RRType::kIXFR) {
        serve_ixfr(from, request);
        return std::nullopt;
      }
      return handle_query(from, request);
    case Opcode::kUpdate:
      return handle_update(from, request);
    case Opcode::kNotify:
      return handle_notify(from, request);
    default: {
      Message resp = make_response(request);
      resp.flags.rcode = Rcode::kNotImp;
      return resp;
    }
  }
}

namespace {

/// Adds glue A/AAAA records from the zone for every NS/MX target in
/// `sources` (RFC 1034 §4.3.2 step 6 additional-section processing).
void add_glue(const Zone& zone, const std::vector<ResourceRecord>& sources,
              std::vector<ResourceRecord>& additional) {
  for (const auto& rr : sources) {
    const Name* target = nullptr;
    if (const auto* ns = std::get_if<dns::NSRdata>(&rr.rdata)) {
      target = &ns->nsdname;
    } else if (const auto* mx = std::get_if<dns::MXRdata>(&rr.rdata)) {
      target = &mx->exchange;
    }
    if (target == nullptr || !zone.contains_name(*target)) continue;
    for (RRType t : {RRType::kA, RRType::kAAAA}) {
      if (const RRset* glue = zone.find(*target, t)) {
        for (const auto& rec : glue->to_records()) {
          // Avoid duplicate additional records.
          if (std::find(additional.begin(), additional.end(), rec) ==
              additional.end()) {
            additional.push_back(rec);
          }
        }
      }
    }
  }
}

void append_rrset(const RRset& set, std::vector<ResourceRecord>& out) {
  for (auto& rec : set.to_records()) out.push_back(std::move(rec));
}

}  // namespace

Message AuthServer::handle_query(const net::Endpoint& from,
                                 const Message& request) {
  ++stats_.queries;
  Message resp = make_response(request);
  if (request.questions.size() != 1) {
    ++stats_.formerr;
    resp.flags.rcode = Rcode::kFormErr;
    return resp;
  }
  const auto& q = request.questions[0];
  const Zone* zone = find_zone(q.qname);
  if (zone == nullptr) {
    ++stats_.refused;
    resp.flags.rcode = Rcode::kRefused;
    return resp;
  }

  Name qname = q.qname;
  int cname_hops = 0;
  for (;;) {
    const auto result = zone->lookup(qname, q.qtype);
    switch (result.status) {
      case Zone::LookupStatus::kSuccess:
        resp.flags.aa = true;
        for (const auto& set : result.rrsets) {
          const std::size_t first = resp.answers.size();
          append_rrset(set, resp.answers);
          if (round_robin_ && set.size() > 1) {
            const uint32_t shift = rotation_counters_[set.name]++;
            std::rotate(resp.answers.begin() +
                            static_cast<std::ptrdiff_t>(first),
                        resp.answers.begin() +
                            static_cast<std::ptrdiff_t>(
                                first + shift % set.size()),
                        resp.answers.end());
          }
        }
        add_glue(*zone, resp.answers, resp.additional);
        break;
      case Zone::LookupStatus::kCName: {
        resp.flags.aa = true;
        append_rrset(result.rrsets[0], resp.answers);
        const auto& target =
            std::get<dns::CNAMERdata>(result.rrsets[0].rdatas.front()).target;
        if (zone->contains_name(target) && ++cname_hops <= 8) {
          qname = target;
          continue;  // chase within our authoritative data
        }
        break;
      }
      case Zone::LookupStatus::kDelegation:
        resp.flags.aa = false;
        for (const auto& set : result.rrsets) {
          append_rrset(set, resp.authority);
        }
        add_glue(*zone, resp.authority, resp.additional);
        break;
      case Zone::LookupStatus::kNXDomain: {
        resp.flags.aa = true;
        resp.flags.rcode = Rcode::kNXDomain;
        const RRset* soa = zone->find(zone->origin(), RRType::kSOA);
        if (soa != nullptr) append_rrset(*soa, resp.authority);
        break;
      }
      case Zone::LookupStatus::kNoData: {
        resp.flags.aa = true;
        const RRset* soa = zone->find(zone->origin(), RRType::kSOA);
        if (soa != nullptr) append_rrset(*soa, resp.authority);
        break;
      }
      case Zone::LookupStatus::kNotInZone:
        ++stats_.refused;
        resp.flags.rcode = Rcode::kRefused;
        break;
    }
    break;
  }

  if (query_hook_) query_hook_(from, request, resp);
  return resp;
}

Message AuthServer::handle_update(const net::Endpoint& from,
                                  const Message& request) {
  (void)from;
  ++stats_.updates;
  Message resp = make_response(request);
  resp.answers.clear();  // update responses carry only the zone section
  resp.flags.rcode = apply_update(request);
  return resp;
}

dns::Rcode AuthServer::apply_update(const Message& update) {
  if (role_ != Role::kMaster) return Rcode::kNotAuth;
  if (update.questions.size() != 1 ||
      update.questions[0].qtype != RRType::kSOA) {
    return Rcode::kFormErr;
  }
  auto it = zones_.find(update.questions[0].qname);
  if (it == zones_.end()) return Rcode::kNotAuth;
  Zone& zone = it->second;

  const Rcode prereq = check_prerequisites(zone, update.answers);
  if (prereq != Rcode::kNoError) return prereq;

  const Zone snapshot = zone;  // for diffing
  bool changed = false;
  const Rcode rc = apply_update_section(zone, update.authority, changed);
  if (rc != Rcode::kNoError) return rc;
  if (changed) {
    zone.bump_serial();
    const auto changes = dns::diff_zones(snapshot, zone);
    record_journal(zone.origin(), snapshot.serial(), zone.serial(), changes);
    fire_change_hooks(zone, changes);
    notify_slaves(zone);
  }
  return Rcode::kNoError;
}

std::optional<Message> AuthServer::handle_notify(const net::Endpoint& from,
                                                 const Message& request) {
  ++stats_.notifies_received;
  Message resp = make_response(request);
  if (request.questions.size() != 1) {
    resp.flags.rcode = Rcode::kFormErr;
    return resp;
  }
  if (role_ != Role::kSlave || !master_.has_value() || from != *master_) {
    resp.flags.rcode = Rcode::kRefused;
    return resp;
  }
  // Pull the zone: one AXFR query to the master.
  request_transfer(request.questions[0].qname);
  return resp;
}

namespace {

/// Builds a SOA marker record for IXFR diff streams: the zone's SOA with
/// the serial overridden to mark a journal-step boundary.
ResourceRecord soa_marker(const Zone& zone, uint32_t serial) {
  const RRset* soa_set = zone.find(zone.origin(), RRType::kSOA);
  DNSCUP_ASSERT(soa_set != nullptr);
  ResourceRecord rr = soa_set->to_records().front();
  std::get<dns::SOARdata>(rr.rdata).serial = serial;
  return rr;
}

std::vector<ResourceRecord> full_zone_stream(const Zone& zone) {
  std::vector<ResourceRecord> stream;
  for (const RRset& set : zone.all_rrsets()) {
    for (auto& rec : set.to_records()) stream.push_back(std::move(rec));
  }
  DNSCUP_ASSERT(!stream.empty() && stream.front().type() == RRType::kSOA);
  stream.push_back(stream.front());  // trailing SOA
  return stream;
}

}  // namespace

void AuthServer::send_record_stream(const net::Endpoint& to,
                                    const Message& request,
                                    std::vector<ResourceRecord> stream) {
  // Chunked so every datagram fits in the 512-byte UDP limit.  Real DNS
  // transfers ride TCP, which is ordered and reliable; our UDP substitute
  // numbers the chunks (EXT flag + LLT reused as a sequence counter) so a
  // receiver can detect loss or reordering and abort instead of applying
  // a mis-framed stream.
  uint16_t seq = 0;
  auto fresh_chunk = [&request, &seq] {
    Message chunk = make_response(request);
    chunk.flags.aa = true;
    chunk.flags.ext = true;
    chunk.llt = seq++;
    return chunk;
  };
  Message chunk = fresh_chunk();
  for (auto& rec : stream) {
    chunk.answers.push_back(std::move(rec));
    if (encode_scratch(chunk).size() > dns::kMaxUdpPayload) {
      ResourceRecord overflow = std::move(chunk.answers.back());
      chunk.answers.pop_back();
      DNSCUP_ASSERT(!chunk.answers.empty() &&
                    "single record exceeds datagram size");
      transport_->send(to, encode_scratch(chunk));
      chunk = fresh_chunk();
      chunk.answers.push_back(std::move(overflow));
    }
  }
  if (!chunk.answers.empty()) transport_->send(to, encode_scratch(chunk));
}

void AuthServer::serve_axfr(const net::Endpoint& to, const Message& request) {
  const Name& origin = request.questions[0].qname;
  auto it = zones_.find(origin);
  if (it == zones_.end()) {
    Message resp = make_response(request);
    resp.flags.rcode = Rcode::kNotAuth;
    transport_->send(to, encode_scratch(resp));
    return;
  }
  ++stats_.axfr_served;
  send_record_stream(to, request, full_zone_stream(it->second));
}

void AuthServer::serve_ixfr(const net::Endpoint& to, const Message& request) {
  const Name& origin = request.questions[0].qname;
  auto it = zones_.find(origin);
  if (it == zones_.end()) {
    Message resp = make_response(request);
    resp.flags.rcode = Rcode::kNotAuth;
    transport_->send(to, encode_scratch(resp));
    return;
  }
  const Zone& zone = it->second;

  // The requester's serial rides in the authority-section SOA (RFC 1995).
  std::optional<uint32_t> client_serial;
  for (const auto& rr : request.authority) {
    if (const auto* soa = std::get_if<dns::SOARdata>(&rr.rdata)) {
      client_serial = soa->serial;
    }
  }
  if (!client_serial.has_value()) {
    ++stats_.ixfr_fallbacks;
    send_record_stream(to, request, full_zone_stream(zone));
    return;
  }
  if (*client_serial == zone.serial()) {
    // Up to date: a single SOA says so.
    ++stats_.ixfr_served;
    send_record_stream(to, request, {soa_marker(zone, zone.serial())});
    return;
  }

  // Walk the journal chain from the client's serial to the present.
  std::vector<const JournalEntry*> chain;
  uint32_t cursor = *client_serial;
  const auto journal_it = journals_.find(origin);
  if (journal_it != journals_.end()) {
    bool advanced = true;
    while (cursor != zone.serial() && advanced) {
      advanced = false;
      for (const auto& entry : journal_it->second) {
        if (entry.from_serial == cursor) {
          chain.push_back(&entry);
          cursor = entry.to_serial;
          advanced = true;
          break;
        }
      }
    }
  }
  if (cursor != zone.serial()) {
    // The journal no longer covers the requester: full transfer.
    ++stats_.ixfr_fallbacks;
    send_record_stream(to, request, full_zone_stream(zone));
    return;
  }

  // RFC 1995 diff stream:
  //   SOA(new) { SOA(old_i) deletions SOA(new_i) additions }* SOA(new)
  ++stats_.ixfr_served;
  std::vector<ResourceRecord> stream;
  stream.push_back(soa_marker(zone, zone.serial()));
  for (const JournalEntry* entry : chain) {
    stream.push_back(soa_marker(zone, entry->from_serial));
    for (const auto& change : entry->changes) {
      if (change.before.has_value()) {
        for (auto& rec : change.before->to_records()) {
          stream.push_back(std::move(rec));
        }
      }
    }
    stream.push_back(soa_marker(zone, entry->to_serial));
    for (const auto& change : entry->changes) {
      if (change.after.has_value()) {
        for (auto& rec : change.after->to_records()) {
          stream.push_back(std::move(rec));
        }
      }
    }
  }
  stream.push_back(soa_marker(zone, zone.serial()));
  send_record_stream(to, request, std::move(stream));
}

void AuthServer::handle_transfer_response(const net::Endpoint& from,
                                          const Message& response) {
  (void)from;
  auto it = transfers_in_progress_.find(response.id);
  DNSCUP_ASSERT(it != transfers_in_progress_.end());
  TransferState& state = it->second;

  // Chunk-sequence check: a lost or reordered chunk makes the remaining
  // stream unframeable — abort and let the next NOTIFY/refresh retry.
  if (!response.flags.ext || response.llt != state.next_seq) {
    transfers_in_progress_.erase(it);
    ++stats_.transfer_aborts;
    return;
  }
  ++state.next_seq;

  for (const auto& rr : response.answers) {
    const bool is_soa =
        rr.type() == RRType::kSOA && rr.name == state.origin;
    state.records.push_back(rr);
    if (!is_soa) continue;
    ++state.soa_count;
    const uint32_t serial = std::get<dns::SOARdata>(rr.rdata).serial;
    if (state.soa_count == 1) {
      state.header_serial = serial;
      // Single-SOA "you are up to date" reply.
      auto zit = zones_.find(state.origin);
      if (zit != zones_.end() && serial == zit->second.serial()) {
        transfers_in_progress_.erase(it);
        return;
      }
      continue;
    }
    // Terminal SOA: even-numbered occurrence echoing the header serial
    // (2 for a full transfer, 2k+2 for a k-step diff; old-serial markers
    // land on even positions but can never equal the header serial).
    if (state.soa_count % 2 == 0 && serial == state.header_serial) {
      std::vector<ResourceRecord> records = std::move(state.records);
      const Name origin = state.origin;
      transfers_in_progress_.erase(it);
      finish_transfer(origin, std::move(records));
      return;
    }
  }
}

void AuthServer::finish_transfer(const Name& origin,
                                 std::vector<ResourceRecord> records) {
  DNSCUP_ASSERT(records.size() >= 2);
  const bool incremental =
      records[1].type() == RRType::kSOA && records[1].name == origin &&
      records.size() > 2;
  if (incremental) {
    if (apply_ixfr_stream(origin, records)) return;
    // Diff could not be applied (serial mismatch): fall back to a full
    // transfer so the zone still converges; the current zone keeps
    // serving in the meantime.
    if (master_.has_value()) {
      const uint16_t transfer_id = next_id_++;
      transfers_in_progress_[transfer_id] = TransferState{origin, {}, 0, 0};
      Message full;
      full.id = transfer_id;
      full.flags.opcode = Opcode::kQuery;
      full.questions.push_back(
          dns::Question{origin, RRType::kAXFR, RRClass::kIN, 0});
      transport_->send(*master_, encode_scratch(full));
    }
    return;
  }

  // Full zone: rebuild and swap if newer.
  Zone incoming(origin);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {  // skip trailer
    const auto& rec = records[i];
    incoming.add_record(rec.name, rec.type(), rec.ttl, rec.rdata);
  }
  if (!incoming.validate().ok()) return;

  auto zit = zones_.find(origin);
  if (zit != zones_.end() &&
      !dns::serial_gt(incoming.serial(), zit->second.serial())) {
    return;  // not newer than what we hold
  }
  ++stats_.axfr_pulled;
  std::vector<dns::RRsetChange> changes;
  uint32_t old_serial = 0;
  if (zit != zones_.end()) {
    old_serial = zit->second.serial();
    changes = dns::diff_zones(zit->second, incoming);
    zit->second = incoming;
  } else {
    zones_.emplace(origin, incoming);
  }
  if (!changes.empty()) {
    record_journal(origin, old_serial, incoming.serial(), changes);
  }
  fire_change_hooks(zones_.at(origin), changes);
}

bool AuthServer::apply_ixfr_stream(const Name& origin,
                                   const std::vector<ResourceRecord>& records) {
  auto zit = zones_.find(origin);
  if (zit == zones_.end()) return false;
  const Zone before = zit->second;
  Zone zone = zit->second;

  // records: SOA(new) { SOA(old) dels SOA(new_i) adds }* SOA(new)
  const uint32_t target_serial =
      std::get<dns::SOARdata>(records.front().rdata).serial;
  std::size_t i = 1;
  const std::size_t end = records.size() - 1;  // trailing SOA
  while (i < end) {
    const auto* old_soa = std::get_if<dns::SOARdata>(&records[i].rdata);
    if (old_soa == nullptr || old_soa->serial != zone.serial()) {
      return false;  // chain does not start at our serial
    }
    ++i;
    std::vector<const ResourceRecord*> deletions;
    while (i < end && records[i].type() != RRType::kSOA) {
      deletions.push_back(&records[i]);
      ++i;
    }
    if (i >= end) return false;  // malformed: missing new-serial marker
    const auto* new_soa = std::get_if<dns::SOARdata>(&records[i].rdata);
    if (new_soa == nullptr) return false;
    const uint32_t step_serial = new_soa->serial;
    ++i;
    std::vector<const ResourceRecord*> additions;
    while (i < end && records[i].type() != RRType::kSOA) {
      additions.push_back(&records[i]);
      ++i;
    }

    // Apply the step per affected RRset: new set = (old − dels) ∪ adds.
    // Rewriting whole sets sidesteps ordering hazards (e.g. the apex NS
    // protection rejecting a delete-all-then-add sequence).
    std::map<std::pair<Name, RRType>, RRset> rebuilt;
    auto slot = [&](const ResourceRecord& rec) -> RRset& {
      auto [it2, inserted] =
          rebuilt.try_emplace({rec.name, rec.type()});
      if (inserted) {
        const RRset* current = zone.find(rec.name, rec.type());
        it2->second = current != nullptr
                          ? *current
                          : RRset{rec.name, rec.type(), rec.rrclass, rec.ttl,
                                  {}};
      }
      return it2->second;
    };
    for (const ResourceRecord* rec : deletions) {
      slot(*rec).remove(rec->rdata);
    }
    for (const ResourceRecord* rec : additions) {
      RRset& set = slot(*rec);
      set.add(rec->rdata);
      set.ttl = rec->ttl;
    }
    for (auto& [key, set] : rebuilt) {
      if (set.empty()) {
        zone.remove_rrset(key.first, key.second);
      } else {
        zone.put(std::move(set));
      }
    }
    zone.set_serial(step_serial);
  }
  if (zone.serial() != target_serial) return false;

  ++stats_.ixfr_applied;
  const auto changes = dns::diff_zones(before, zone);
  record_journal(origin, before.serial(), zone.serial(), changes);
  zit->second = std::move(zone);
  fire_change_hooks(zit->second, changes);
  return true;
}

void AuthServer::notify_slaves(const Zone& zone) {
  const RRset* soa = zone.find(zone.origin(), RRType::kSOA);
  for (const auto& slave : slaves_) {
    Message notify;
    notify.id = next_id_++;
    notify.flags.opcode = Opcode::kNotify;
    notify.flags.aa = true;
    notify.questions.push_back(
        dns::Question{zone.origin(), RRType::kSOA, RRClass::kIN, 0});
    if (soa != nullptr) {
      for (auto& rec : soa->to_records()) {
        notify.answers.push_back(std::move(rec));
      }
    }
    transport_->send(slave, encode_scratch(notify));
    ++stats_.notifies_sent;
  }
}

void AuthServer::fire_change_hooks(
    const Zone& zone, const std::vector<dns::RRsetChange>& changes) {
  for (const auto& hook : change_hooks_) hook(zone, changes);
}

}  // namespace dnscup::server
