#include "serve/wire.h"

#include <cstring>

#include "util/check.h"

namespace wsnq {
namespace serve {
namespace {

/// Slice-by-8 CRC-32 tables for the reflected IEEE polynomial, built at
/// compile time: entries[0] is the classic byte-wise table, and
/// entries[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups advance the CRC over eight input bytes.
struct Crc32Tables {
  uint32_t entries[8][256] = {};
  constexpr Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFFu];
      }
    }
  }
};

constexpr Crc32Tables kCrc32Tables;

void StoreU32(uint32_t v, uint8_t* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void StoreU64(uint64_t v, uint8_t* p) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  const auto& t = kCrc32Tables.entries;
  uint32_t c = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = c ^ ReadU32(data);
    const uint32_t hi = ReadU32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

bool IsClientOpcode(uint8_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kSubscribe:
    case Opcode::kUnsubscribe:
    case Opcode::kPing:
      return true;
    default:
      return false;
  }
}

void AppendU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(uint32_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + 4);
  StoreU32(v, out->data() + at);
}

void AppendU64(uint64_t v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + 8);
  StoreU64(v, out->data() + at);
}

void AppendI64(int64_t v, std::vector<uint8_t>* out) {
  AppendU64(static_cast<uint64_t>(v), out);
}

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (static_cast<uint16_t>(p[1]) << 8));
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t ReadU64(const uint8_t* p) {
  return static_cast<uint64_t>(ReadU32(p)) |
         (static_cast<uint64_t>(ReadU32(p + 4)) << 32);
}

int64_t ReadI64(const uint8_t* p) {
  return static_cast<int64_t>(ReadU64(p));
}

void AppendFrame(uint64_t request_id, uint8_t opcode,
                 std::span<const uint8_t> payload,
                 std::vector<uint8_t>* out) {
  const size_t body_len = kBodyMinBytes + payload.size();
  WSNQ_CHECK_LE(body_len, kMaxBodyBytes);
  const size_t at = out->size();
  out->resize(at + kLenPrefixBytes + body_len + kCrcBytes);
  uint8_t* p = out->data() + at;
  StoreU32(static_cast<uint32_t>(body_len), p);
  uint8_t* body = p + kLenPrefixBytes;
  StoreU64(request_id, body);
  body[8] = opcode;
  if (!payload.empty()) {
    std::memcpy(body + kBodyMinBytes, payload.data(), payload.size());
  }
  StoreU32(Crc32(body, body_len), body + body_len);
}

void AppendFrame(const Frame& frame, std::vector<uint8_t>* out) {
  AppendFrame(frame.request_id, frame.opcode, frame.payload, out);
}

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out;
  out.reserve(kLenPrefixBytes + kBodyMinBytes + frame.payload.size() +
              kCrcBytes);
  AppendFrame(frame, &out);
  return out;
}

std::vector<uint8_t> EncodeSubscribePayload(const SubscribeRequest& req) {
  WSNQ_CHECK_LE(req.field.size(), kMaxFieldBytes);
  // Pre-sized + std::copy for the variable-length run (see
  // EncodeErrorPayload on GCC 12's array-bounds false positive).
  std::vector<uint8_t> out(2 + req.field.size());
  out[0] = static_cast<uint8_t>(req.field.size());
  out[1] = static_cast<uint8_t>(req.field.size() >> 8);
  std::copy(req.field.begin(), req.field.end(), out.begin() + 2);
  AppendU32(req.rank_permille, &out);
  return out;
}

StatusOr<SubscribeRequest> DecodeSubscribePayload(
    const std::vector<uint8_t>& payload) {
  if (payload.size() < 2) {
    return Status::InvalidArgument("SUBSCRIBE payload shorter than the "
                                   "field length prefix");
  }
  const size_t field_len = ReadU16(payload.data());
  if (field_len == 0 || field_len > kMaxFieldBytes) {
    return Status::InvalidArgument("SUBSCRIBE field length out of [1, 255]");
  }
  if (payload.size() != 2 + field_len + 4) {
    return Status::InvalidArgument("SUBSCRIBE payload size does not match "
                                   "its field length prefix");
  }
  SubscribeRequest req;
  req.field.assign(reinterpret_cast<const char*>(payload.data() + 2),
                   field_len);
  req.rank_permille = ReadU32(payload.data() + 2 + field_len);
  if (req.rank_permille < 1 || req.rank_permille > 1000) {
    return Status::InvalidArgument("SUBSCRIBE rank out of [1, 1000] "
                                   "permille");
  }
  return req;
}

std::vector<uint8_t> EncodeSubscribeAckPayload(const SubscribeAck& ack) {
  std::vector<uint8_t> out;
  AppendU64(ack.sub_id, &out);
  AppendI64(ack.rank, &out);
  AppendI64(ack.round, &out);
  return out;
}

StatusOr<SubscribeAck> DecodeSubscribeAckPayload(
    const std::vector<uint8_t>& payload) {
  if (payload.size() != 24) {
    return Status::InvalidArgument("SUBSCRIBE_ACK payload must be 24 bytes");
  }
  SubscribeAck ack;
  ack.sub_id = ReadU64(payload.data());
  ack.rank = ReadI64(payload.data() + 8);
  ack.round = ReadI64(payload.data() + 16);
  return ack;
}

std::vector<uint8_t> EncodeSubIdPayload(uint64_t sub_id) {
  std::vector<uint8_t> out;
  AppendU64(sub_id, &out);
  return out;
}

StatusOr<uint64_t> DecodeSubIdPayload(const std::vector<uint8_t>& payload) {
  if (payload.size() != 8) {
    return Status::InvalidArgument("subscription-id payload must be 8 bytes");
  }
  return ReadU64(payload.data());
}

std::array<uint8_t, kAnswerPayloadBytes> PackAnswerPayload(
    const AnswerPush& answer) {
  std::array<uint8_t, kAnswerPayloadBytes> out{};
  StoreU64(answer.sub_id, out.data());
  StoreU64(static_cast<uint64_t>(answer.round), out.data() + 8);
  StoreU64(static_cast<uint64_t>(answer.value), out.data() + 16);
  return out;
}

std::vector<uint8_t> EncodeAnswerPayload(const AnswerPush& answer) {
  const std::array<uint8_t, kAnswerPayloadBytes> packed =
      PackAnswerPayload(answer);
  return std::vector<uint8_t>(packed.begin(), packed.end());
}

StatusOr<AnswerPush> DecodeAnswerPayload(const std::vector<uint8_t>& payload) {
  if (payload.size() != kAnswerPayloadBytes) {
    return Status::InvalidArgument("ANSWER payload must be 24 bytes");
  }
  AnswerPush answer;
  answer.sub_id = ReadU64(payload.data());
  answer.round = ReadI64(payload.data() + 8);
  answer.value = ReadI64(payload.data() + 16);
  return answer;
}

std::vector<uint8_t> EncodeErrorPayload(const std::string& message) {
  const size_t len = message.size() > 0xFFFF ? 0xFFFF : message.size();
  // Pre-sized + std::copy (not insert-from-pointer): GCC 12's array-bounds
  // pass misjudges the grow-then-insert form as writing past the 2-byte
  // length prefix.
  std::vector<uint8_t> out(2 + len);
  out[0] = static_cast<uint8_t>(len);
  out[1] = static_cast<uint8_t>(len >> 8);
  std::copy(message.begin(), message.begin() + static_cast<ptrdiff_t>(len),
            out.begin() + 2);
  return out;
}

StatusOr<std::string> DecodeErrorPayload(const std::vector<uint8_t>& payload) {
  if (payload.size() < 2 ||
      payload.size() != 2 + static_cast<size_t>(ReadU16(payload.data()))) {
    return Status::InvalidArgument("ERROR payload size does not match its "
                                   "length prefix");
  }
  return std::string(reinterpret_cast<const char*>(payload.data() + 2),
                     payload.size() - 2);
}

void ByteQueue::Consume(size_t n) {
  WSNQ_DCHECK_LE(n, size());
  head_ += n;
  if (head_ == bytes_.size()) {
    bytes_.clear();
    head_ = 0;
  }
}

std::vector<uint8_t>* ByteQueue::Tail() {
  if (head_ > 4096 && head_ > bytes_.size() / 2) {
    bytes_.erase(bytes_.begin(),
                 bytes_.begin() + static_cast<ptrdiff_t>(head_));
    head_ = 0;
  }
  return &bytes_;
}

void FrameReader::Feed(const uint8_t* data, size_t len) {
  if (malformed_) return;  // stream already condemned; drop the bytes
  std::vector<uint8_t>* tail = buffer_.Tail();
  tail->insert(tail->end(), data, data + len);
}

ReadResult FrameReader::Next(Frame* frame, std::string* error) {
  if (malformed_) {
    if (error != nullptr) *error = "stream already malformed";
    return ReadResult::kMalformed;
  }
  const std::span<const uint8_t> pending = buffer_.pending();
  const size_t avail = pending.size();
  if (avail < kLenPrefixBytes) return ReadResult::kNeedMore;
  const uint8_t* p = pending.data();
  const size_t body_len = ReadU32(p);
  if (body_len < kBodyMinBytes || body_len > kMaxBodyBytes) {
    malformed_ = true;
    if (error != nullptr) {
      *error = body_len < kBodyMinBytes
                   ? "frame length below the 9-byte body minimum"
                   : "frame length above the 1 MiB body cap";
    }
    return ReadResult::kMalformed;
  }
  const size_t total = kLenPrefixBytes + body_len + kCrcBytes;
  if (avail < total) return ReadResult::kNeedMore;
  const uint8_t* body = p + kLenPrefixBytes;
  const uint32_t want_crc = ReadU32(body + body_len);
  const uint32_t got_crc = Crc32(body, body_len);
  if (want_crc != got_crc) {
    malformed_ = true;
    if (error != nullptr) *error = "frame CRC mismatch";
    return ReadResult::kMalformed;
  }
  frame->request_id = ReadU64(body);
  frame->opcode = body[8];
  frame->payload.assign(body + kBodyMinBytes, body + body_len);
  buffer_.Consume(total);
  return ReadResult::kFrame;
}

}  // namespace serve
}  // namespace wsnq
