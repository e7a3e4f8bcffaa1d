#include "dns/message.h"

#include <cmath>
#include <sstream>

#include "dns/wire.h"
#include "util/assert.h"

namespace dnscup::dns {

namespace {
constexpr uint16_t kQrBit = 0x8000;
constexpr uint16_t kAaBit = 0x0400;
constexpr uint16_t kTcBit = 0x0200;
constexpr uint16_t kRdBit = 0x0100;
constexpr uint16_t kRaBit = 0x0080;
constexpr uint16_t kExtBit = 0x0040;  // reserved Z bit carries DNScup EXT
}  // namespace

const char* to_string(Opcode opcode) {
  switch (opcode) {
    case Opcode::kQuery: return "QUERY";
    case Opcode::kIQuery: return "IQUERY";
    case Opcode::kStatus: return "STATUS";
    case Opcode::kNotify: return "NOTIFY";
    case Opcode::kUpdate: return "UPDATE";
    case Opcode::kCacheUpdate: return "CACHE-UPDATE";
  }
  return "OPCODE?";
}

const char* to_string(Rcode rcode) {
  switch (rcode) {
    case Rcode::kNoError: return "NOERROR";
    case Rcode::kFormErr: return "FORMERR";
    case Rcode::kServFail: return "SERVFAIL";
    case Rcode::kNXDomain: return "NXDOMAIN";
    case Rcode::kNotImp: return "NOTIMP";
    case Rcode::kRefused: return "REFUSED";
    case Rcode::kYXDomain: return "YXDOMAIN";
    case Rcode::kYXRRSet: return "YXRRSET";
    case Rcode::kNXRRSet: return "NXRRSET";
    case Rcode::kNotAuth: return "NOTAUTH";
    case Rcode::kNotZone: return "NOTZONE";
  }
  return "RCODE?";
}

uint16_t Flags::pack() const {
  uint16_t raw = 0;
  if (qr) raw |= kQrBit;
  raw |= static_cast<uint16_t>((static_cast<uint16_t>(opcode) & 0xF) << 11);
  if (aa) raw |= kAaBit;
  if (tc) raw |= kTcBit;
  if (rd) raw |= kRdBit;
  if (ra) raw |= kRaBit;
  if (ext) raw |= kExtBit;
  raw |= static_cast<uint16_t>(rcode) & 0xF;
  return raw;
}

Flags Flags::unpack(uint16_t raw) {
  Flags f;
  f.qr = raw & kQrBit;
  f.opcode = static_cast<Opcode>((raw >> 11) & 0xF);
  f.aa = raw & kAaBit;
  f.tc = raw & kTcBit;
  f.rd = raw & kRdBit;
  f.ra = raw & kRaBit;
  f.ext = raw & kExtBit;
  f.rcode = static_cast<Rcode>(raw & 0xF);
  return f;
}

uint16_t llt_from_seconds(uint64_t seconds) {
  const uint64_t units = (seconds + 9) / 10;  // round up: never under-grant
  return units > 0xFFFF ? 0xFFFF : static_cast<uint16_t>(units);
}

uint64_t llt_to_seconds(uint16_t llt) { return static_cast<uint64_t>(llt) * 10; }

uint16_t rrc_from_rate(double queries_per_second) {
  if (queries_per_second <= 0.0) return 0;
  const double per_hour = queries_per_second * 3600.0;
  if (per_hour >= 65535.0) return 0xFFFF;
  const double rounded = std::ceil(per_hour);
  return static_cast<uint16_t>(rounded);
}

double rrc_to_rate(uint16_t rrc) { return static_cast<double>(rrc) / 3600.0; }

std::vector<uint8_t> Message::encode() const {
  ByteWriter w;
  encode_into(w);
  return w.take();
}

void Message::encode_into(ByteWriter& w) const {
  DNSCUP_ASSERT(questions.size() <= 0xFFFF);
  DNSCUP_ASSERT(answers.size() <= 0xFFFF);
  DNSCUP_ASSERT(authority.size() <= 0xFFFF);
  DNSCUP_ASSERT(additional.size() <= 0xFFFF);

  w.begin_message();
  w.u16(id);
  w.u16(flags.pack());
  w.u16(static_cast<uint16_t>(questions.size()));
  w.u16(static_cast<uint16_t>(answers.size()));
  w.u16(static_cast<uint16_t>(authority.size()));
  w.u16(static_cast<uint16_t>(additional.size()));

  for (const auto& q : questions) {
    w.name(q.qname);
    w.u16(static_cast<uint16_t>(q.qtype));
    w.u16(static_cast<uint16_t>(q.qclass));
    if (flags.ext) w.u16(q.rrc);
  }
  // The DNScup LLT field heads the answer section of EXT responses.
  if (flags.ext && flags.qr) w.u16(llt);
  for (const auto& rr : answers) encode_record(rr, w);
  for (const auto& rr : authority) encode_record(rr, w);
  for (const auto& rr : additional) encode_record(rr, w);
}

util::Result<Message> Message::decode(std::span<const uint8_t> wire) {
  DNSCUP_ASSIGN_OR_RETURN(MessageView view, MessageView::parse(wire));
  return view.materialize();
}

Question QuestionView::materialize() const {
  Question q;
  q.qname = qname.materialize();
  q.qtype = qtype;
  q.qclass = qclass;
  q.rrc = rrc;
  return q;
}

util::Result<ResourceRecord> RecordView::materialize(
    std::span<const uint8_t> wire) const {
  // Re-decode from the wire: decode_record is the single source of truth
  // for record semantics (incl. deep RDATA parsing and compression-pointer
  // resolution), so materialized records are byte-identical to the old
  // owning decode.
  ByteReader r(wire);
  DNSCUP_TRY(r.seek(name_offset));
  return decode_record(r);
}

namespace {

// Shared body of MessageView::parse / parse_into.  `m` arrives with empty
// (capacity-preserved) vectors; on error the caller resets it.
util::Status parse_view_body(std::span<const uint8_t> wire, MessageView& m) {
  ByteReader r(wire);
  m.wire = wire;
  DNSCUP_ASSIGN_OR_RETURN(m.id, r.u16());
  DNSCUP_ASSIGN_OR_RETURN(uint16_t raw_flags, r.u16());
  m.flags = Flags::unpack(raw_flags);
  DNSCUP_ASSIGN_OR_RETURN(uint16_t qdcount, r.u16());
  DNSCUP_ASSIGN_OR_RETURN(uint16_t ancount, r.u16());
  DNSCUP_ASSIGN_OR_RETURN(uint16_t nscount, r.u16());
  DNSCUP_ASSIGN_OR_RETURN(uint16_t arcount, r.u16());

  m.questions.reserve(qdcount);
  for (uint16_t i = 0; i < qdcount; ++i) {
    QuestionView q;
    q.qname_offset = r.offset();
    DNSCUP_TRY(r.name_view(q.qname));
    DNSCUP_ASSIGN_OR_RETURN(uint16_t qtype, r.u16());
    DNSCUP_ASSIGN_OR_RETURN(uint16_t qclass, r.u16());
    q.qtype = static_cast<RRType>(qtype);
    q.qclass = static_cast<RRClass>(qclass);
    if (m.flags.ext) {
      DNSCUP_ASSIGN_OR_RETURN(q.rrc, r.u16());
    }
    m.questions.push_back(q);
  }
  if (m.flags.ext && m.flags.qr) {
    DNSCUP_ASSIGN_OR_RETURN(m.llt, r.u16());
  }
  auto read_section = [&r](uint16_t count, std::vector<RecordView>& out)
      -> util::Status {
    out.reserve(count);
    NameView scratch;
    for (uint16_t i = 0; i < count; ++i) {
      RecordView rr;
      rr.name_offset = r.offset();
      DNSCUP_TRY(r.name_view(scratch));
      DNSCUP_ASSIGN_OR_RETURN(uint16_t type_raw, r.u16());
      DNSCUP_ASSIGN_OR_RETURN(uint16_t class_raw, r.u16());
      DNSCUP_ASSIGN_OR_RETURN(rr.ttl, r.u32());
      DNSCUP_ASSIGN_OR_RETURN(uint16_t rdlength, r.u16());
      rr.type = static_cast<RRType>(type_raw);
      rr.rrclass = static_cast<RRClass>(class_raw);
      rr.rdata.offset = r.offset();
      DNSCUP_ASSIGN_OR_RETURN(rr.rdata.bytes, r.bytes(rdlength));
      out.push_back(rr);
    }
    return {};
  };
  DNSCUP_TRY(read_section(ancount, m.answers));
  DNSCUP_TRY(read_section(nscount, m.authority));
  DNSCUP_TRY(read_section(arcount, m.additional));
  if (!r.at_end()) {
    return util::make_error(util::ErrorCode::kMalformed,
                            "trailing bytes after message");
  }
  return {};
}

}  // namespace

util::Result<MessageView> MessageView::parse(std::span<const uint8_t> wire) {
  MessageView m;
  DNSCUP_TRY(parse_into(wire, m));
  return m;
}

util::Status MessageView::parse_into(std::span<const uint8_t> wire,
                                     MessageView& out) {
  out.questions.clear();
  out.answers.clear();
  out.authority.clear();
  out.additional.clear();
  out.llt = 0;
  const util::Status st = parse_view_body(wire, out);
  if (!st.ok()) {
    out.questions.clear();
    out.answers.clear();
    out.authority.clear();
    out.additional.clear();
    out.wire = {};
  }
  return st;
}

util::Result<Message> MessageView::materialize() const {
  Message m;
  m.id = id;
  m.flags = flags;
  m.llt = llt;
  m.questions.reserve(questions.size());
  for (const auto& q : questions) m.questions.push_back(q.materialize());
  auto fill = [this](const std::vector<RecordView>& in,
                     std::vector<ResourceRecord>& out) -> util::Status {
    out.reserve(in.size());
    for (const auto& rv : in) {
      DNSCUP_ASSIGN_OR_RETURN(ResourceRecord rr, rv.materialize(wire));
      out.push_back(std::move(rr));
    }
    return {};
  };
  DNSCUP_TRY(fill(answers, m.answers));
  DNSCUP_TRY(fill(authority, m.authority));
  DNSCUP_TRY(fill(additional, m.additional));
  return m;
}

std::string Message::to_string() const {
  std::ostringstream os;
  os << ";; id " << id << " opcode " << dns::to_string(flags.opcode)
     << " rcode " << dns::to_string(flags.rcode) << " flags";
  if (flags.qr) os << " qr";
  if (flags.aa) os << " aa";
  if (flags.tc) os << " tc";
  if (flags.rd) os << " rd";
  if (flags.ra) os << " ra";
  if (flags.ext) os << " ext";
  os << '\n';
  os << ";; QUESTION (" << questions.size() << ")\n";
  for (const auto& q : questions) {
    os << ";  " << q.qname.to_string() << ' ' << dns::to_string(q.qclass)
       << ' ' << dns::to_string(q.qtype);
    if (flags.ext) os << " rrc=" << q.rrc;
    os << '\n';
  }
  if (flags.ext && flags.qr) os << ";; LLT " << llt_to_seconds(llt) << "s\n";
  auto dump = [&os](const char* label,
                    const std::vector<ResourceRecord>& rrs) {
    os << ";; " << label << " (" << rrs.size() << ")\n";
    for (const auto& rr : rrs) os << rr.to_string() << '\n';
  };
  dump("ANSWER", answers);
  dump("AUTHORITY", authority);
  dump("ADDITIONAL", additional);
  return os.str();
}

bool PlainQuery::parse(std::span<const uint8_t> wire, PlainQuery& out) {
  if (wire.size() < 12) return false;
  const auto be16 = [&wire](std::size_t i) {
    return static_cast<uint16_t>(wire[i] << 8 | wire[i + 1]);
  };
  out.id = be16(0);
  out.flags = Flags::unpack(be16(2));
  if (out.flags.qr || out.flags.ext || out.flags.opcode != Opcode::kQuery) {
    return false;
  }
  if (be16(4) != 1 || be16(6) != 0 || be16(8) != 0 || be16(10) != 0) {
    return false;  // exactly one question, no other sections
  }
  ByteReader r(wire);
  (void)r.seek(12);
  if (!r.name_view(out.qname).ok()) return false;
  if (r.offset() != 12 + out.qname.wire_length()) return false;  // pointer
  const auto qtype = r.u16();
  if (!qtype.ok()) return false;
  if (!r.u16().ok()) return false;  // qclass: echoed with the question
  if (!r.at_end()) return false;    // trailing bytes: the slow path decides
  out.qtype = static_cast<RRType>(qtype.value());
  if (out.qtype == RRType::kANY || out.qtype == RRType::kAXFR ||
      out.qtype == RRType::kIXFR || out.qtype == RRType::kOPT) {
    return false;
  }
  out.question_len = r.offset() - 12;
  return true;
}

Message make_response(const Message& request) {
  Message resp;
  resp.id = request.id;
  resp.flags.qr = true;
  resp.flags.opcode = request.flags.opcode;
  resp.flags.rd = request.flags.rd;
  resp.flags.ext = request.flags.ext;
  resp.questions = request.questions;
  return resp;
}

}  // namespace dnscup::dns
