// DNS messages (RFC 1035 §4) with the DNScup extension fields.
//
// DNScup (paper §5.2) adds to the classic message:
//  * opcode 6, CACHE-UPDATE — authoritative-server-initiated push carrying
//    the changed RRsets (layout identical to an UPDATE message: the zone in
//    the question slot, changed RRsets in the answer section);
//  * RRC ("recent reference counter"), a 16-bit query-rate report appended
//    to each question entry;
//  * LLT ("lease length time"), a 16-bit granted-lease duration heading the
//    answer section of a response.
//
// The extension fields are present if and only if the reserved Z bit in the
// header flags is set (the "EXT" flag below).  Extension-unaware peers are
// never sent EXT messages, so the format stays RFC 1035-compatible — the
// paper's incremental-deployment property.
//
// LLT is expressed in units of 10 seconds, so the 16-bit field covers
// leases up to ~7.6 days, enough for the paper's 6-day maximum for regular
// domains.  LLT = 0 means "no lease granted".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rr.h"
#include "util/result.h"

namespace dnscup::dns {

enum class Opcode : uint8_t {
  kQuery = 0,
  kIQuery = 1,
  kStatus = 2,
  kNotify = 4,
  kUpdate = 5,       // RFC 2136
  kCacheUpdate = 6,  // DNScup
};

enum class Rcode : uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNXDomain = 3,
  kNotImp = 4,
  kRefused = 5,
  // RFC 2136 update result codes:
  kYXDomain = 6,
  kYXRRSet = 7,
  kNXRRSet = 8,
  kNotAuth = 9,
  kNotZone = 10,
};

const char* to_string(Opcode opcode);
const char* to_string(Rcode rcode);

struct Flags {
  bool qr = false;  ///< response
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  ///< authoritative answer
  bool tc = false;  ///< truncated
  bool rd = false;  ///< recursion desired
  bool ra = false;  ///< recursion available
  bool ext = false; ///< DNScup extension fields present (reserved Z bit)
  Rcode rcode = Rcode::kNoError;

  uint16_t pack() const;
  static Flags unpack(uint16_t raw);

  bool operator==(const Flags&) const = default;
};

struct Question {
  Name qname;
  RRType qtype = RRType::kA;
  RRClass qclass = RRClass::kIN;
  /// DNScup RRC: the querying cache's recent query rate for qname, in
  /// queries per hour (saturating).  Only on the wire when flags.ext.
  uint16_t rrc = 0;

  bool operator==(const Question&) const = default;
};

/// Conversion helpers between seconds and the wire LLT unit (10 s),
/// saturating at the field maximum.
uint16_t llt_from_seconds(uint64_t seconds);
uint64_t llt_to_seconds(uint16_t llt);

/// Conversion helpers between queries/sec and the wire RRC unit
/// (queries per hour), saturating.
uint16_t rrc_from_rate(double queries_per_second);
double rrc_to_rate(uint16_t rrc);

struct Message {
  uint16_t id = 0;
  Flags flags;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;
  /// DNScup LLT; meaningful in responses when flags.ext is set.
  uint16_t llt = 0;

  std::vector<uint8_t> encode() const;

  /// Encodes into a caller-supplied writer (typically arena-backed).
  /// Calls writer.begin_message() first, so compression state is fresh and
  /// writer.message() afterwards spans exactly this message's bytes.
  void encode_into(ByteWriter& writer) const;

  static util::Result<Message> decode(std::span<const uint8_t> wire);

  /// Multi-line dig-style rendering for logs and examples.
  std::string to_string() const;

  bool operator==(const Message&) const = default;
};

/// Raw RDATA bytes as they sit in the message.  The span may contain
/// compression pointers (NS/CNAME/SOA/MX targets), so interpret it via
/// RecordView::materialize(), which decodes against the whole message.
/// Valid only while the wire buffer is — one receive batch on the hot path.
struct RdataView {
  std::size_t offset = 0;  ///< wire offset where RDATA starts
  std::span<const uint8_t> bytes;
};

/// One parsed question; qname labels point into the wire buffer.
struct QuestionView {
  NameView qname;
  std::size_t qname_offset = 0;
  RRType qtype = RRType::kA;
  RRClass qclass = RRClass::kIN;
  uint16_t rrc = 0;

  Question materialize() const;
};

/// One structurally validated record.  Stores offsets rather than an
/// inline NameView (records can be numerous; NameView is ~2 KB);
/// materialize() re-reads from the wire, which also deep-parses RDATA.
struct RecordView {
  std::size_t name_offset = 0;  ///< wire offset of NAME
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;
  uint32_t ttl = 0;
  RdataView rdata;

  util::Result<ResourceRecord> materialize(
      std::span<const uint8_t> wire) const;
};

/// Span-backed decoded message: names and RDATA reference the wire buffer
/// instead of owning copies.  parse() validates structure (header,
/// name walks incl. pointer safety, section counts, RDLENGTH bounds,
/// trailing bytes); RDATA interiors are deep-parsed on materialize().
/// Message::decode() == parse() + materialize(), so views materialize
/// byte-identically to the old owning decode.
struct MessageView {
  uint16_t id = 0;
  Flags flags;
  std::vector<QuestionView> questions;
  std::vector<RecordView> answers;
  std::vector<RecordView> authority;
  std::vector<RecordView> additional;
  uint16_t llt = 0;
  std::span<const uint8_t> wire;

  static util::Result<MessageView> parse(std::span<const uint8_t> wire);

  /// Re-parses into an existing view, reusing its vectors' capacity —
  /// a warm view parses with zero heap allocations.  On error `out` is
  /// left cleared.
  static util::Status parse_into(std::span<const uint8_t> wire,
                                 MessageView& out);

  util::Result<Message> materialize() const;
};

/// A plain query parsed in place, as the serve fast paths take it
/// (AuthServer::try_fast_query, CachingResolver::try_fast_answer): not a
/// response, not EXT, opcode QUERY, exactly one question and no other
/// section, a pointer-free qname (so the question bytes can be echoed
/// verbatim), no trailing bytes, and a qtype other than ANY/AXFR/IXFR/OPT.
struct PlainQuery {
  uint16_t id = 0;
  Flags flags;
  NameView qname;  ///< labels point into the wire buffer
  RRType qtype = RRType::kA;
  std::size_t question_len = 0;  ///< the question is wire[12, 12 + len)

  /// False, with `out` unspecified, for anything but a plain query.
  static bool parse(std::span<const uint8_t> wire, PlainQuery& out);
};

/// Builds a response skeleton: copies id, question(s) and opcode, sets QR,
/// mirrors RD, and sets the EXT flag iff the request carried it.
Message make_response(const Message& request);

/// Maximum UDP payload the paper's prototype respects (RFC 1035 §2.3.4).
inline constexpr std::size_t kMaxUdpPayload = 512;

}  // namespace dnscup::dns
