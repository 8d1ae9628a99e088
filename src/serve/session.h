// Per-connection protocol state machine, socket-free.
//
// A Session consumes raw inbound bytes, frames them (serve/wire.h),
// enforces the connection-level protocol rules, and dispatches valid
// requests to a RequestSink (the broker, behind the server). All output
// — acks, answer pushes, error frames — accumulates in an outbox byte
// buffer the owner drains at its own pace, so the class is directly
// testable against the malformed-frame corpus without a socket
// (tests/serve_wire_test.cc) and reusable by any transport.
//
// Error policy (the hardening contract):
//  * malformed framing — bad length prefix or CRC mismatch — condemns the
//    connection immediately: no error frame is sent (the stream cannot be
//    trusted to carry one) and no sink call is made;
//  * protocol violations on a well-formed frame — zero / non-increasing
//    request id (duplicate ids are a special case), unknown opcode,
//    undecodable payload — enqueue one ERROR frame echoing the offending
//    request id, then close after the outbox flushes; later inbound
//    frames are ignored, and again the sink is never called;
//  * sink rejections (unknown subscription, table full, …) are
//    application errors: an ERROR frame is sent and the connection stays
//    open.

#ifndef WSNQ_SERVE_SESSION_H_
#define WSNQ_SERVE_SESSION_H_

#include <cstdint>
#include <span>
#include <string>

#include "serve/wire.h"
#include "util/status.h"

namespace wsnq {
namespace serve {

/// Backend interface a Session dispatches validated requests into.
/// Implemented by the server over QuantileBroker; tests substitute a
/// counting fake to prove malformed input never reaches it.
class RequestSink {
 public:
  virtual ~RequestSink() = default;
  virtual StatusOr<SubscribeAck> OnSubscribe(
      int64_t session_id, const SubscribeRequest& request) = 0;
  virtual Status OnUnsubscribe(int64_t session_id, uint64_t sub_id) = 0;
};

class Session {
 public:
  Session(int64_t id, RequestSink* sink) : id_(id), sink_(sink) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Consumes inbound bytes and processes every complete frame.
  void OnBytes(const uint8_t* data, size_t len);

  /// Queues one server-initiated answer push (request id 0), encoded in
  /// place at the outbox tail: no Frame, no heap payload.
  void PushAnswer(const AnswerPush& answer);

  /// Pending outbound bytes; the owner writes a prefix and calls
  /// ConsumeOutput with the number actually written. The span is
  /// invalidated by the next queued frame.
  std::span<const uint8_t> outbox() const { return outbox_.pending(); }
  void ConsumeOutput(size_t n) { outbox_.Consume(n); }
  bool has_output() const { return !outbox_.empty(); }

  /// Connection was condemned by malformed framing: drop it now, write
  /// nothing further.
  bool dead() const { return dead_; }
  /// A fatal ERROR frame is queued: close once the outbox drains.
  bool closing() const { return closing_; }

  int64_t id() const { return id_; }
  uint64_t last_request_id() const { return last_request_id_; }

 private:
  void HandleFrame(const Frame& frame);
  /// Appends one frame to the outbox.
  void Send(uint64_t request_id, Opcode opcode,
            std::span<const uint8_t> payload);
  /// Queues an ERROR frame for `request_id`; fatal ones set closing_.
  void SendError(uint64_t request_id, const std::string& message,
                 bool fatal);

  const int64_t id_;
  RequestSink* const sink_;
  FrameReader reader_;
  /// Drained by offset (ConsumeOutput), compacted lazily.
  ByteQueue outbox_;
  /// Highest request id seen; ids must be non-zero, strictly increasing.
  uint64_t last_request_id_ = 0;
  bool dead_ = false;
  bool closing_ = false;
};

}  // namespace serve
}  // namespace wsnq

#endif  // WSNQ_SERVE_SESSION_H_
