// Wire-protocol hardening: codec round-trips under arbitrary payloads and
// chunked delivery, plus the malformed-frame corpus — truncated length,
// undersized/oversized length, bad CRC, unknown opcode, duplicate request
// id — every case must close or error the connection WITHOUT a single
// call reaching the backend (the counting fake RequestSink is the proof).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/session.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace wsnq {
namespace serve {
namespace {

TEST(Crc32Test, KnownVector) {
  const std::string data = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(data.data()),
                  data.size()),
            0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

/// Bit-at-a-time CRC-32 (reflected IEEE polynomial): the definition the
/// table-driven Crc32 must reproduce.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(5);
  std::vector<uint8_t> data(8 + 300);
  for (auto& b : data) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(Crc32(data.data() + start, len),
                BitwiseCrc32(data.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
}

/// One frame built field by field with the reference CRC, independent of
/// AppendFrame.
std::vector<uint8_t> ReferenceFrame(uint64_t request_id, uint8_t opcode,
                                    const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> body;
  for (int i = 0; i < 8; ++i) {
    body.push_back(static_cast<uint8_t>(request_id >> (8 * i)));
  }
  body.push_back(opcode);
  body.insert(body.end(), payload.begin(), payload.end());
  std::vector<uint8_t> out;
  const auto put_u32 = [&out](uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put_u32(static_cast<uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  put_u32(BitwiseCrc32(body.data(), body.size()));
  return out;
}

TEST(FrameCodecTest, SpanAndFrameEncodingsMatchReferenceForEveryOpcode) {
  SubscribeRequest request;
  request.field = "temp";
  request.rank_permille = 900;
  SubscribeAck ack;
  ack.sub_id = 3;
  ack.rank = 17;
  ack.round = 40;
  const std::vector<std::pair<Opcode, std::vector<uint8_t>>> cases = {
      {Opcode::kSubscribe, EncodeSubscribePayload(request)},
      {Opcode::kUnsubscribe, EncodeSubIdPayload(3)},
      {Opcode::kPing, {}},
      {Opcode::kError, EncodeErrorPayload("request ids must increase")},
      {Opcode::kError, EncodeErrorPayload("")},
      {Opcode::kSubscribeAck, EncodeSubscribeAckPayload(ack)},
      {Opcode::kUnsubscribeAck, EncodeSubIdPayload(3)},
      {Opcode::kPong, {}},
      {Opcode::kAnswer, EncodeAnswerPayload(AnswerPush{3, 40, -12})},
  };
  for (const auto& [opcode, payload] : cases) {
    const uint64_t request_id =
        opcode == Opcode::kAnswer ? 0 : 0x0102030405ull;
    const std::vector<uint8_t> expected =
        ReferenceFrame(request_id, static_cast<uint8_t>(opcode), payload);

    std::vector<uint8_t> span_bytes = {0xAA};  // appends after existing bytes
    AppendFrame(request_id, static_cast<uint8_t>(opcode), payload,
                &span_bytes);
    ASSERT_EQ(span_bytes.front(), 0xAA);
    EXPECT_EQ(std::vector<uint8_t>(span_bytes.begin() + 1, span_bytes.end()),
              expected)
        << "opcode " << static_cast<int>(opcode);

    Frame frame;
    frame.request_id = request_id;
    frame.opcode = static_cast<uint8_t>(opcode);
    frame.payload = payload;
    EXPECT_EQ(EncodeFrame(frame), expected)
        << "opcode " << static_cast<int>(opcode);
  }
}

TEST(FrameCodecTest, RoundTripsRandomFramesUnderChunkedDelivery) {
  Rng rng(11);
  std::vector<Frame> sent;
  std::vector<uint8_t> bytes;
  for (int i = 0; i < 200; ++i) {
    Frame frame;
    frame.request_id = static_cast<uint64_t>(rng.UniformInt(1, 1 << 30));
    frame.opcode = static_cast<uint8_t>(rng.UniformInt(0, 255));
    frame.payload.resize(static_cast<size_t>(rng.UniformInt(0, 300)));
    for (auto& b : frame.payload) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    AppendFrame(frame, &bytes);
    sent.push_back(frame);
  }

  FrameReader reader;
  std::vector<Frame> received;
  size_t at = 0;
  while (at < bytes.size()) {
    const size_t chunk = static_cast<size_t>(
        rng.UniformInt(1, 97));  // deliberately misaligned chunks
    const size_t take = std::min(chunk, bytes.size() - at);
    reader.Feed(bytes.data() + at, take);
    at += take;
    Frame frame;
    for (;;) {
      const ReadResult result = reader.Next(&frame, nullptr);
      if (result != ReadResult::kFrame) {
        ASSERT_EQ(result, ReadResult::kNeedMore);
        break;
      }
      received.push_back(frame);
    }
  }
  ASSERT_EQ(received.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].request_id, sent[i].request_id);
    EXPECT_EQ(received[i].opcode, sent[i].opcode);
    EXPECT_EQ(received[i].payload, sent[i].payload);
  }
  EXPECT_FALSE(reader.malformed());
}

TEST(FrameCodecTest, PayloadCodecsRoundTrip) {
  SubscribeRequest request;
  request.field = "humidity/rack-12";
  request.rank_permille = 500;
  auto request2 = DecodeSubscribePayload(EncodeSubscribePayload(request));
  ASSERT_TRUE(request2.ok());
  EXPECT_EQ(request2.value().field, request.field);
  EXPECT_EQ(request2.value().rank_permille, request.rank_permille);

  SubscribeAck ack;
  ack.sub_id = 77;
  ack.rank = 128;
  ack.round = 41;
  auto ack2 = DecodeSubscribeAckPayload(EncodeSubscribeAckPayload(ack));
  ASSERT_TRUE(ack2.ok());
  EXPECT_EQ(ack2.value().sub_id, ack.sub_id);
  EXPECT_EQ(ack2.value().rank, ack.rank);
  EXPECT_EQ(ack2.value().round, ack.round);

  auto sub_id = DecodeSubIdPayload(EncodeSubIdPayload(0xDEADBEEFull));
  ASSERT_TRUE(sub_id.ok());
  EXPECT_EQ(sub_id.value(), 0xDEADBEEFull);

  AnswerPush push;
  push.sub_id = 9;
  push.round = 12;
  push.value = -345;
  auto push2 = DecodeAnswerPayload(EncodeAnswerPayload(push));
  ASSERT_TRUE(push2.ok());
  EXPECT_EQ(push2.value().sub_id, push.sub_id);
  EXPECT_EQ(push2.value().round, push.round);
  EXPECT_EQ(push2.value().value, push.value);

  auto message = DecodeErrorPayload(EncodeErrorPayload("bad thing"));
  ASSERT_TRUE(message.ok());
  EXPECT_EQ(message.value(), "bad thing");
}

TEST(FrameCodecTest, PayloadCodecsRejectSizeMismatches) {
  EXPECT_FALSE(DecodeSubscribePayload({0x01}).ok());          // truncated
  EXPECT_FALSE(DecodeSubscribePayload({0x00, 0x00}).ok());    // empty field
  std::vector<uint8_t> wrong_len = {0x05, 0x00, 'a', 'b'};    // 5 != 2
  EXPECT_FALSE(DecodeSubscribePayload(wrong_len).ok());
  EXPECT_FALSE(DecodeSubIdPayload({1, 2, 3}).ok());
  EXPECT_FALSE(DecodeSubscribeAckPayload(std::vector<uint8_t>(23)).ok());
  EXPECT_FALSE(DecodeAnswerPayload(std::vector<uint8_t>(25)).ok());
  EXPECT_FALSE(DecodeErrorPayload({0x09, 0x00, 'x'}).ok());
}

/// Fake backend proving malformed input never produces a dispatch.
class CountingSink : public RequestSink {
 public:
  StatusOr<SubscribeAck> OnSubscribe(int64_t session_id,
                                     const SubscribeRequest&) override {
    ++subscribes;
    last_session = session_id;
    if (!subscribe_ok) return Status::FailedPrecondition("table full");
    SubscribeAck ack;
    ack.sub_id = 42;
    ack.rank = 7;
    ack.round = 3;
    return ack;
  }
  Status OnUnsubscribe(int64_t, uint64_t sub_id) override {
    ++unsubscribes;
    last_sub_id = sub_id;
    if (!unsubscribe_ok) return Status::NotFound("unknown subscription id");
    return Status::Ok();
  }

  int64_t subscribes = 0;
  int64_t unsubscribes = 0;
  int64_t last_session = 0;
  uint64_t last_sub_id = 0;
  bool subscribe_ok = true;
  bool unsubscribe_ok = true;
};

std::vector<uint8_t> SubscribeFrame(uint64_t request_id,
                                    const std::string& field,
                                    uint32_t permille) {
  Frame frame;
  frame.request_id = request_id;
  frame.opcode = static_cast<uint8_t>(Opcode::kSubscribe);
  SubscribeRequest request;
  request.field = field;
  request.rank_permille = permille;
  frame.payload = EncodeSubscribePayload(request);
  return EncodeFrame(frame);
}

/// Parses every frame the session queued in its outbox.
std::vector<Frame> DrainOutbox(Session* session) {
  FrameReader reader;
  reader.Feed(session->outbox().data(), session->outbox().size());
  session->ConsumeOutput(session->outbox().size());
  std::vector<Frame> frames;
  Frame frame;
  while (reader.Next(&frame, nullptr) == ReadResult::kFrame) {
    frames.push_back(frame);
  }
  EXPECT_FALSE(reader.malformed());
  return frames;
}

TEST(SessionHardeningTest, TruncatedFrameDispatchesNothing) {
  CountingSink sink;
  Session session(1, &sink);
  const std::vector<uint8_t> bytes = SubscribeFrame(1, "f", 500);
  session.OnBytes(bytes.data(), bytes.size() - 3);  // cut mid-CRC
  EXPECT_EQ(sink.subscribes, 0);
  EXPECT_FALSE(session.dead());  // EOF handling closes it, not the codec
  EXPECT_FALSE(session.has_output());
}

TEST(SessionHardeningTest, UndersizedLengthCondemnsSilently) {
  CountingSink sink;
  Session session(1, &sink);
  std::vector<uint8_t> bytes;
  AppendU32(kBodyMinBytes - 1, &bytes);  // body too short to hold a header
  bytes.resize(bytes.size() + 16, 0);
  session.OnBytes(bytes.data(), bytes.size());
  EXPECT_TRUE(session.dead());
  EXPECT_EQ(sink.subscribes, 0);
  EXPECT_FALSE(session.has_output());  // no error frame on a broken stream
}

TEST(SessionHardeningTest, OversizedLengthCondemnsSilently) {
  CountingSink sink;
  Session session(1, &sink);
  std::vector<uint8_t> bytes;
  AppendU32(kMaxBodyBytes + 1, &bytes);
  session.OnBytes(bytes.data(), bytes.size());
  EXPECT_TRUE(session.dead());
  EXPECT_EQ(sink.subscribes, 0);
  EXPECT_FALSE(session.has_output());
}

TEST(SessionHardeningTest, BadCrcCondemnsSilently) {
  CountingSink sink;
  Session session(1, &sink);
  std::vector<uint8_t> bytes = SubscribeFrame(1, "f", 500);
  bytes.back() ^= 0xFF;  // corrupt the CRC
  session.OnBytes(bytes.data(), bytes.size());
  EXPECT_TRUE(session.dead());
  EXPECT_EQ(sink.subscribes, 0);
  EXPECT_FALSE(session.has_output());
}

TEST(SessionHardeningTest, CorruptPayloadByteFailsCrcNotBackend) {
  CountingSink sink;
  Session session(1, &sink);
  std::vector<uint8_t> bytes = SubscribeFrame(1, "f", 500);
  bytes[kLenPrefixBytes + 10] ^= 0x01;  // flip one payload bit
  session.OnBytes(bytes.data(), bytes.size());
  EXPECT_TRUE(session.dead());
  EXPECT_EQ(sink.subscribes, 0);
}

TEST(SessionHardeningTest, UnknownOpcodeErrorsAndCloses) {
  CountingSink sink;
  Session session(1, &sink);
  Frame frame;
  frame.request_id = 1;
  frame.opcode = 0x55;
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  session.OnBytes(bytes.data(), bytes.size());
  EXPECT_FALSE(session.dead());
  EXPECT_TRUE(session.closing());
  EXPECT_EQ(sink.subscribes, 0);
  const std::vector<Frame> replies = DrainOutbox(&session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].opcode, static_cast<uint8_t>(Opcode::kError));
  EXPECT_EQ(replies[0].request_id, 1u);
}

TEST(SessionHardeningTest, DuplicateRequestIdErrorsWithoutRedispatch) {
  CountingSink sink;
  Session session(1, &sink);
  const std::vector<uint8_t> first = SubscribeFrame(7, "f", 500);
  session.OnBytes(first.data(), first.size());
  EXPECT_EQ(sink.subscribes, 1);
  EXPECT_FALSE(session.closing());
  DrainOutbox(&session);

  const std::vector<uint8_t> dup = SubscribeFrame(7, "g", 400);
  session.OnBytes(dup.data(), dup.size());
  EXPECT_EQ(sink.subscribes, 1);  // the duplicate never reaches the sink
  EXPECT_TRUE(session.closing());
  const std::vector<Frame> replies = DrainOutbox(&session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].opcode, static_cast<uint8_t>(Opcode::kError));
  const auto message = DecodeErrorPayload(replies[0].payload);
  ASSERT_TRUE(message.ok());
  EXPECT_EQ(message.value(), "duplicate request id");
}

TEST(SessionHardeningTest, NonIncreasingAndZeroRequestIdsClose) {
  CountingSink sink;
  Session session(1, &sink);
  const std::vector<uint8_t> first = SubscribeFrame(9, "f", 500);
  session.OnBytes(first.data(), first.size());
  const std::vector<uint8_t> backward = SubscribeFrame(3, "f", 500);
  session.OnBytes(backward.data(), backward.size());
  EXPECT_EQ(sink.subscribes, 1);
  EXPECT_TRUE(session.closing());

  CountingSink sink2;
  Session session2(2, &sink2);
  const std::vector<uint8_t> zero = SubscribeFrame(0, "f", 500);
  session2.OnBytes(zero.data(), zero.size());
  EXPECT_EQ(sink2.subscribes, 0);
  EXPECT_TRUE(session2.closing());
}

TEST(SessionHardeningTest, UndecodablePayloadErrorsWithoutDispatch) {
  CountingSink sink;
  Session session(1, &sink);
  Frame frame;
  frame.request_id = 1;
  frame.opcode = static_cast<uint8_t>(Opcode::kSubscribe);
  frame.payload = {0x01};  // shorter than the field length prefix
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  session.OnBytes(bytes.data(), bytes.size());
  EXPECT_EQ(sink.subscribes, 0);
  EXPECT_TRUE(session.closing());
}

TEST(SessionHardeningTest, BytesAfterFatalErrorAreIgnored) {
  CountingSink sink;
  Session session(1, &sink);
  const std::vector<uint8_t> zero = SubscribeFrame(0, "f", 500);
  session.OnBytes(zero.data(), zero.size());
  EXPECT_TRUE(session.closing());
  const std::vector<uint8_t> valid = SubscribeFrame(1, "f", 500);
  session.OnBytes(valid.data(), valid.size());
  EXPECT_EQ(sink.subscribes, 0);
}

TEST(SessionHardeningTest, FrameReaderMalformedIsSticky) {
  FrameReader reader;
  std::vector<uint8_t> bad;
  AppendU32(kMaxBodyBytes + 1, &bad);
  reader.Feed(bad.data(), bad.size());
  Frame frame;
  EXPECT_EQ(reader.Next(&frame, nullptr), ReadResult::kMalformed);
  const std::vector<uint8_t> good = SubscribeFrame(1, "f", 500);
  reader.Feed(good.data(), good.size());
  EXPECT_EQ(reader.Next(&frame, nullptr), ReadResult::kMalformed);
  EXPECT_TRUE(reader.malformed());
}

TEST(SessionHardeningTest, PingPongAndPayloadfulPingCloses) {
  CountingSink sink;
  Session session(1, &sink);
  Frame ping;
  ping.request_id = 1;
  ping.opcode = static_cast<uint8_t>(Opcode::kPing);
  const std::vector<uint8_t> bytes = EncodeFrame(ping);
  session.OnBytes(bytes.data(), bytes.size());
  EXPECT_FALSE(session.closing());
  std::vector<Frame> replies = DrainOutbox(&session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].opcode, static_cast<uint8_t>(Opcode::kPong));
  EXPECT_EQ(replies[0].request_id, 1u);

  Frame bad_ping;
  bad_ping.request_id = 2;
  bad_ping.opcode = static_cast<uint8_t>(Opcode::kPing);
  bad_ping.payload = {0x00};
  const std::vector<uint8_t> bad_bytes = EncodeFrame(bad_ping);
  session.OnBytes(bad_bytes.data(), bad_bytes.size());
  EXPECT_TRUE(session.closing());
  EXPECT_EQ(sink.subscribes, 0);
}

TEST(SessionTest, SubscribeUnsubscribeHappyPath) {
  CountingSink sink;
  Session session(5, &sink);
  const std::vector<uint8_t> sub = SubscribeFrame(1, "temp", 250);
  session.OnBytes(sub.data(), sub.size());
  EXPECT_EQ(sink.subscribes, 1);
  EXPECT_EQ(sink.last_session, 5);
  std::vector<Frame> replies = DrainOutbox(&session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].opcode, static_cast<uint8_t>(Opcode::kSubscribeAck));
  const auto ack = DecodeSubscribeAckPayload(replies[0].payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().sub_id, 42u);

  Frame unsub;
  unsub.request_id = 2;
  unsub.opcode = static_cast<uint8_t>(Opcode::kUnsubscribe);
  unsub.payload = EncodeSubIdPayload(42);
  const std::vector<uint8_t> bytes = EncodeFrame(unsub);
  session.OnBytes(bytes.data(), bytes.size());
  EXPECT_EQ(sink.unsubscribes, 1);
  EXPECT_EQ(sink.last_sub_id, 42u);
  replies = DrainOutbox(&session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].opcode,
            static_cast<uint8_t>(Opcode::kUnsubscribeAck));
  EXPECT_FALSE(session.closing());
}

TEST(SessionTest, SinkRejectionIsNonFatal) {
  CountingSink sink;
  sink.subscribe_ok = false;
  Session session(1, &sink);
  const std::vector<uint8_t> sub = SubscribeFrame(1, "temp", 250);
  session.OnBytes(sub.data(), sub.size());
  EXPECT_EQ(sink.subscribes, 1);
  EXPECT_FALSE(session.closing());  // application error keeps the conn
  const std::vector<Frame> replies = DrainOutbox(&session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].opcode, static_cast<uint8_t>(Opcode::kError));

  const std::vector<uint8_t> again = SubscribeFrame(2, "temp", 250);
  session.OnBytes(again.data(), again.size());
  EXPECT_EQ(sink.subscribes, 2);  // still dispatching
}

TEST(SessionTest, AnswerPushUsesRequestIdZero) {
  CountingSink sink;
  Session session(1, &sink);
  AnswerPush push;
  push.sub_id = 4;
  push.round = 10;
  push.value = 777;
  session.PushAnswer(push);
  const std::vector<Frame> replies = DrainOutbox(&session);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].request_id, 0u);
  EXPECT_EQ(replies[0].opcode, static_cast<uint8_t>(Opcode::kAnswer));
  const auto decoded = DecodeAnswerPayload(replies[0].payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().value, 777);
}

/// The bytes the generic Frame path gives one answer push.
std::vector<uint8_t> AnswerFrameBytes(const AnswerPush& answer) {
  Frame frame;
  frame.request_id = 0;
  frame.opcode = static_cast<uint8_t>(Opcode::kAnswer);
  frame.payload = EncodeAnswerPayload(answer);
  std::vector<uint8_t> bytes;
  AppendFrame(frame, &bytes);
  return bytes;
}

TEST(SessionTest, PushAnswerBytesMatchFramePathAtExtremes) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<AnswerPush> pushes = {
      {1, 0, kMin},
      {1, 0, kMax},
      {std::numeric_limits<uint64_t>::max(), 0, kMin},
      {std::numeric_limits<uint64_t>::max(), kMax, kMax},
      {0x8000000000000001ull, 1, 0},
  };
  for (const AnswerPush& push : pushes) {
    CountingSink sink;
    Session session(1, &sink);
    session.PushAnswer(push);
    const std::span<const uint8_t> out = session.outbox();
    EXPECT_EQ(std::vector<uint8_t>(out.begin(), out.end()),
              AnswerFrameBytes(push))
        << "sub " << push.sub_id << " value " << push.value;
  }
}

TEST(SessionTest, PartialConsumeKeepsByteOrder) {
  CountingSink sink;
  Session session(1, &sink);
  // Each step pushes 123 bytes and drains about 90 in odd-sized chunks:
  // the backlog grows, yet the drained prefix outgrows it again and again,
  // so the outbox is compacted many times over.
  const size_t chunks[] = {1, 7, 13, 29, 61, 97, 3};
  std::vector<uint8_t> expected;
  std::vector<uint8_t> drained;
  const auto drain = [&](size_t n) {
    const std::span<const uint8_t> out = session.outbox();
    n = std::min(n, out.size());
    drained.insert(drained.end(), out.begin(), out.begin() + n);
    session.ConsumeOutput(n);
  };
  uint64_t request_id = 0;
  for (int step = 0; step < 1500; ++step) {
    for (int k = 0; k < 3; ++k) {
      const AnswerPush push{static_cast<uint64_t>(3 * step + k + 1), step,
                            (step * 7919 + k) % 1000 - 500};
      session.PushAnswer(push);
      const std::vector<uint8_t> frame = AnswerFrameBytes(push);
      expected.insert(expected.end(), frame.begin(), frame.end());
    }
    if (step % 100 == 0) {  // interleave a reply frame with the pushes
      Frame ping;
      ping.request_id = ++request_id;
      ping.opcode = static_cast<uint8_t>(Opcode::kPing);
      const std::vector<uint8_t> bytes = EncodeFrame(ping);
      session.OnBytes(bytes.data(), bytes.size());
      Frame pong;
      pong.request_id = request_id;
      pong.opcode = static_cast<uint8_t>(Opcode::kPong);
      AppendFrame(pong, &expected);
    }
    drain(chunks[step % 7]);
    drain(chunks[(step + 3) % 7]);
    drain(chunks[(step + 5) % 7]);
  }
  EXPECT_GT(session.outbox().size(), size_t{4096});  // a real backlog
  while (session.has_output()) drain(37);
  EXPECT_TRUE(session.outbox().empty());
  EXPECT_EQ(drained, expected);
}

}  // namespace
}  // namespace serve
}  // namespace wsnq
