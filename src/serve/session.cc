#include "serve/session.h"

namespace wsnq {
namespace serve {

void Session::OnBytes(const uint8_t* data, size_t len) {
  if (dead_ || closing_) return;
  reader_.Feed(data, len);
  Frame frame;
  std::string error;
  for (;;) {
    const ReadResult result = reader_.Next(&frame, &error);
    if (result == ReadResult::kNeedMore) return;
    if (result == ReadResult::kMalformed) {
      // The byte stream itself is broken; an error frame could not be
      // trusted to arrive intact, so condemn the connection silently.
      dead_ = true;
      return;
    }
    HandleFrame(frame);
    if (dead_ || closing_) return;
  }
}

void Session::HandleFrame(const Frame& frame) {
  if (frame.request_id == 0) {
    SendError(0, "request id 0 is reserved for server pushes",
              /*fatal=*/true);
    return;
  }
  if (frame.request_id <= last_request_id_) {
    SendError(frame.request_id,
              frame.request_id == last_request_id_
                  ? "duplicate request id"
                  : "request ids must be strictly increasing",
              /*fatal=*/true);
    return;
  }
  last_request_id_ = frame.request_id;

  switch (static_cast<Opcode>(frame.opcode)) {
    case Opcode::kPing: {
      if (!frame.payload.empty()) {
        SendError(frame.request_id, "PING carries no payload",
                  /*fatal=*/true);
        return;
      }
      Send(frame.request_id, Opcode::kPong, {});
      return;
    }
    case Opcode::kSubscribe: {
      StatusOr<SubscribeRequest> request =
          DecodeSubscribePayload(frame.payload);
      if (!request.ok()) {
        SendError(frame.request_id, request.status().message(),
                  /*fatal=*/true);
        return;
      }
      StatusOr<SubscribeAck> ack = sink_->OnSubscribe(id_, request.value());
      if (!ack.ok()) {
        SendError(frame.request_id, ack.status().message(),
                  /*fatal=*/false);
        return;
      }
      Send(frame.request_id, Opcode::kSubscribeAck,
           EncodeSubscribeAckPayload(ack.value()));
      return;
    }
    case Opcode::kUnsubscribe: {
      StatusOr<uint64_t> sub_id = DecodeSubIdPayload(frame.payload);
      if (!sub_id.ok()) {
        SendError(frame.request_id, sub_id.status().message(),
                  /*fatal=*/true);
        return;
      }
      const Status status = sink_->OnUnsubscribe(id_, sub_id.value());
      if (!status.ok()) {
        SendError(frame.request_id, status.message(), /*fatal=*/false);
        return;
      }
      Send(frame.request_id, Opcode::kUnsubscribeAck,
           EncodeSubIdPayload(sub_id.value()));
      return;
    }
    default:
      SendError(frame.request_id, "unknown opcode", /*fatal=*/true);
      return;
  }
}

void Session::PushAnswer(const AnswerPush& answer) {
  if (dead_ || closing_) return;
  Send(/*request_id=*/0, Opcode::kAnswer, PackAnswerPayload(answer));
}

void Session::SendError(uint64_t request_id, const std::string& message,
                        bool fatal) {
  Send(request_id, Opcode::kError, EncodeErrorPayload(message));
  if (fatal) closing_ = true;
}

void Session::Send(uint64_t request_id, Opcode opcode,
                   std::span<const uint8_t> payload) {
  AppendFrame(request_id, static_cast<uint8_t>(opcode), payload,
              outbox_.Tail());
}

}  // namespace serve
}  // namespace wsnq
