// Length-prefixed binary wire protocol of the quantile-serving daemon
// (docs/serving.md). Modeled on kivaloo's lib/wire record layer: every
// frame is an explicit length prefix, a body carrying a request ID plus an
// opcode plus an opcode-specific payload, and a trailing CRC-32 over the
// body, so a corrupted or truncated stream is detected at the framing
// layer and never reaches the subscription backend:
//
//   offset  size      field
//   0       4         len       u32 LE; byte length of body (9 .. 2^20)
//   4       len       body      request_id (u64 LE) + opcode (u8) + payload
//   4+len   4         crc32     CRC-32 (IEEE, poly 0xEDB88320) over body
//
// All integers are little-endian. Request IDs are client-chosen and must
// be strictly increasing and non-zero per connection; the server echoes
// them in responses and uses request_id = 0 for server-initiated pushes.
// FrameReader is the incremental decoder: feed it whatever bytes recv()
// produced and pull zero or more complete frames out; it never blocks and
// never over-reads.

#ifndef WSNQ_SERVE_WIRE_H_
#define WSNQ_SERVE_WIRE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace wsnq {
namespace serve {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected, init/final
/// 0xFFFFFFFF). Crc32("123456789") == 0xCBF43926. Table-driven
/// slice-by-8: eight bytes per step, then a byte-wise tail.
uint32_t Crc32(const uint8_t* data, size_t len);

/// Frame opcodes. Client-to-server requests have the high bit clear,
/// server-to-client responses/pushes have it set.
enum class Opcode : uint8_t {
  kSubscribe = 0x01,       ///< field + rank -> continuous quantile stream
  kUnsubscribe = 0x02,     ///< sub_id
  kPing = 0x03,            ///< liveness probe
  kError = 0x7F,           ///< server error reply (message payload)
  kSubscribeAck = 0x81,    ///< sub_id + resolved rank + current round
  kUnsubscribeAck = 0x82,  ///< sub_id
  kPong = 0x83,            ///< ping reply
  kAnswer = 0x84,          ///< per-round push: sub_id + round + value
};

/// True for the opcodes a client may send.
bool IsClientOpcode(uint8_t opcode);

/// One decoded frame: request ID, opcode, raw payload bytes.
struct Frame {
  uint64_t request_id = 0;
  uint8_t opcode = 0;
  std::vector<uint8_t> payload;
};

/// Framing constants (see the layout table above).
constexpr size_t kLenPrefixBytes = 4;
constexpr size_t kBodyMinBytes = 9;  ///< request_id + opcode, empty payload
constexpr size_t kCrcBytes = 4;
constexpr size_t kMaxBodyBytes = static_cast<size_t>(1) << 20;
/// Field names are length-prefixed with a u16 but capped well below it.
constexpr size_t kMaxFieldBytes = 255;

// --- Little-endian primitive append/read helpers --------------------------

void AppendU16(uint16_t v, std::vector<uint8_t>* out);
void AppendU32(uint32_t v, std::vector<uint8_t>* out);
void AppendU64(uint64_t v, std::vector<uint8_t>* out);
void AppendI64(int64_t v, std::vector<uint8_t>* out);
uint16_t ReadU16(const uint8_t* p);
uint32_t ReadU32(const uint8_t* p);
uint64_t ReadU64(const uint8_t* p);
int64_t ReadI64(const uint8_t* p);

/// Serializes one frame (length prefix + body + CRC) onto `out`, growing
/// it once and writing the fields in place. Precondition: payload within
/// kMaxBodyBytes.
void AppendFrame(uint64_t request_id, uint8_t opcode,
                 std::span<const uint8_t> payload, std::vector<uint8_t>* out);
/// The same bytes for a decoded-form Frame.
void AppendFrame(const Frame& frame, std::vector<uint8_t>* out);
std::vector<uint8_t> EncodeFrame(const Frame& frame);

// --- Typed payloads -------------------------------------------------------

/// SUBSCRIBE: u16 field length + field bytes + u32 rank in permille of the
/// field's sensor count (1..1000; 500 = the median).
struct SubscribeRequest {
  std::string field;
  uint32_t rank_permille = 500;
};
std::vector<uint8_t> EncodeSubscribePayload(const SubscribeRequest& req);
StatusOr<SubscribeRequest> DecodeSubscribePayload(
    const std::vector<uint8_t>& payload);

/// SUBSCRIBE_ACK: sub_id + the absolute rank k the permille resolved to +
/// the backend round the subscription starts after.
struct SubscribeAck {
  uint64_t sub_id = 0;
  int64_t rank = 0;
  int64_t round = 0;
};
std::vector<uint8_t> EncodeSubscribeAckPayload(const SubscribeAck& ack);
StatusOr<SubscribeAck> DecodeSubscribeAckPayload(
    const std::vector<uint8_t>& payload);

/// UNSUBSCRIBE / UNSUBSCRIBE_ACK: the subscription ID.
std::vector<uint8_t> EncodeSubIdPayload(uint64_t sub_id);
StatusOr<uint64_t> DecodeSubIdPayload(const std::vector<uint8_t>& payload);

/// ANSWER: one round's quantile for one subscription. The payload is a
/// pure function of (field config, round, rank) plus the deterministic
/// sub_id sequence, which is what makes the byte-identical contract across
/// --shards/--threads testable (docs/serving.md).
struct AnswerPush {
  uint64_t sub_id = 0;
  int64_t round = 0;
  int64_t value = 0;
};
constexpr size_t kAnswerPayloadBytes = 24;
/// The ANSWER payload in a fixed array: the allocation-free form the push
/// path encodes into; EncodeAnswerPayload returns the same bytes.
std::array<uint8_t, kAnswerPayloadBytes> PackAnswerPayload(
    const AnswerPush& answer);
std::vector<uint8_t> EncodeAnswerPayload(const AnswerPush& answer);
StatusOr<AnswerPush> DecodeAnswerPayload(const std::vector<uint8_t>& payload);

/// ERROR: u16 message length + message bytes.
std::vector<uint8_t> EncodeErrorPayload(const std::string& message);
StatusOr<std::string> DecodeErrorPayload(const std::vector<uint8_t>& payload);

// --- Byte FIFO ------------------------------------------------------------

/// A byte FIFO over one vector: appends go to the back, reads drain the
/// front by advancing an offset, and the drained prefix is compacted
/// lazily — only once it exceeds both 4 KiB and half the buffer — so every
/// byte is moved O(1) times amortized. Backs the decoder's input buffer
/// and a session's outbox.
class ByteQueue {
 public:
  /// Unconsumed bytes, oldest first. Invalidated by Tail() and Consume().
  std::span<const uint8_t> pending() const {
    return {bytes_.data() + head_, bytes_.size() - head_};
  }
  size_t size() const { return bytes_.size() - head_; }
  bool empty() const { return head_ == bytes_.size(); }

  /// Drops the oldest `n` pending bytes (n <= size()).
  void Consume(size_t n);

  /// The buffer to append to, with the drained prefix compacted first.
  std::vector<uint8_t>* Tail();

 private:
  std::vector<uint8_t> bytes_;
  size_t head_ = 0;  ///< drained prefix
};

// --- Incremental decoder --------------------------------------------------

/// Outcome of one FrameReader::Next() attempt.
enum class ReadResult {
  kFrame,     ///< a complete, CRC-valid frame was produced
  kNeedMore,  ///< the buffer holds a prefix of a frame; feed more bytes
  kMalformed, ///< framing violated (length bounds / CRC); close the stream
};

/// Incremental frame decoder over a byte stream. Feed() appends received
/// bytes; Next() extracts at most one complete frame per call. Once a
/// stream is malformed the reader stays malformed — resynchronizing inside
/// a corrupted length-prefixed stream is not possible.
class FrameReader {
 public:
  /// Appends `len` received bytes to the internal buffer.
  void Feed(const uint8_t* data, size_t len);

  /// Tries to decode the next frame into `*frame`. On kMalformed, `*error`
  /// (when non-null) describes the violation.
  ReadResult Next(Frame* frame, std::string* error = nullptr);

  size_t buffered() const { return buffer_.size(); }
  bool malformed() const { return malformed_; }

 private:
  ByteQueue buffer_;
  bool malformed_ = false;
};

}  // namespace serve
}  // namespace wsnq

#endif  // WSNQ_SERVE_WIRE_H_
