// serve-churn: the quantile-serving daemon driven in-process.
//
// The main thread runs serve::Server's public loop (Listen, PollOnce,
// TickRound); two client threads own the loopback connections through
// serve::Client, one for the base population and one for the churn
// generator. The broker's shard pool adds a worker only when a CPU is
// left, so the process never runs more threads than nproc.
//
//   set-up     Listen, connect, subscribe the base population (20,000
//              subscriptions drawn as wsnq_loadgen draws them: field and
//              quantile from a seed-keyed hash, quantile uniform in
//              1..1000 permille) and wait for every ACK; repeated, the last
//              server is kept.
//   paced      rounds are scheduled at 20 rounds/s; an open-loop
//              generator sends SUBSCRIBE/UNSUBSCRIBE churn as a Poisson
//              stream (100 requests/s) on its own schedule. On the 64-node
//              deployment the base population already holds every rank of
//              its 16 fields, so churn on those fields could never change
//              a rank set; churn subscribes to four fields of its own,
//              where almost every request adds or drops a rank and so
//              forces a MultiIQ rebuild (or creates or retires a stream).
//   capacity   no pacing and no churn: the next round is ticked as soon
//              as every push of the previous round has reached the client.
//
// Every push is checked against an independent oracle: the client builds
// each field's scenario itself and takes the exact k-th smallest value of
// the round by sorting.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/multi_quantile.h"
#include "core/scenario.h"
#include "serve/broker.h"
#include "serve/client.h"
#include "serve/field_catalog.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wsnq::Status;
using wsnq::StatusOr;
namespace serve = wsnq::serve;

constexpr int kFields = 16;       // base population: fields 0..15
constexpr int kChurnFields = 4;   // churn only: fields 16..19
constexpr int kAllFields = kFields + kChurnFields;
constexpr int64_t kBaseSubs = 20000;
constexpr int kConnections = 16;       // base population
constexpr int kChurnConnections = 2;   // open-loop churn generator
constexpr int kNodes = 64;
// The daemon's deployment is its configuration, not the workload: every
// seed serves the same sensor network; --seed drives the clients.
constexpr uint64_t kDeploymentSeed = 1;
constexpr double kPacedRate = 20.0;    // rounds per second
// Mean SUBSCRIBE + UNSUBSCRIBE per second: five per paced round, so that
// all but e^-5 (< 1 %) of the paced rounds carry a rank-set change; the
// rate sweep behind this choice is in README.md.
constexpr double kChurnRate = 100.0;
constexpr int kWarmChurn = 10;         // churn ops that only subscribe
constexpr int64_t kMaxRounds = 1 << 16;
constexpr int kReplayRounds = 100;
constexpr double kStallSeconds = 5.0;

/// SplitMix64: seed-keyed choices of field, quantile and connection.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string FieldName(int field) { return "field-" + std::to_string(field); }

int64_t ResolveRank(uint32_t permille, int64_t n) {
  return std::clamp<int64_t>((static_cast<int64_t>(permille) * n + 500) /
                                 1000,
                             1, n);
}

struct BaseSub {
  int field = 0;
  uint32_t permille = 0;
};

/// Subscription `i` of the base population; tools/wsnq_loadgen.cc draws
/// its population with the same hash.
BaseSub BaseSubscription(uint64_t seed, int64_t i) {
  const uint64_t h = Mix(seed * 0x51ED2701ull + static_cast<uint64_t>(i));
  return BaseSub{static_cast<int>(h % kFields),
                 static_cast<uint32_t>(1 + (h >> 32) % 1000)};
}

/// Per-round delivery state shared by the server thread (expected) and the
/// client thread (received).
struct RoundBoard {
  std::vector<std::atomic<int64_t>> received;
  RoundBoard() : received(kMaxRounds) {}
  void Add(int64_t round) {
    if (round >= 0 && round < kMaxRounds) {
      received[static_cast<size_t>(round)].fetch_add(
          1, std::memory_order_release);
    }
  }
  int64_t Get(int64_t round) const {
    return received[static_cast<size_t>(round)].load(
        std::memory_order_acquire);
  }
};

/// The exact k-th smallest value of every field and round, from scenarios
/// the client builds on its own (no MultiIQ involved).
class Oracle {
 public:
  explicit Oracle(const wsnq::SimulationConfig& base) {
    for (int f = 0; f < kAllFields; ++f) {
      StatusOr<wsnq::Scenario> scenario =
          wsnq::BuildScenario(serve::ResolveField(base, FieldName(f)), 0);
      if (!scenario.ok()) {
        ok_ = false;
        return;
      }
      scenarios_.push_back(std::move(scenario).value());
    }
  }
  bool ok() const { return ok_; }
  int64_t num_sensors() const {
    return scenarios_.front().network->num_sensors();
  }
  int64_t num_vertices() const {
    return scenarios_.front().network->num_vertices();
  }
  wsnq::Scenario& scenario(int field) {
    return scenarios_[static_cast<size_t>(field)];
  }

  /// Exact rank-`rank` value of `field` in `round`.
  int64_t Kth(int field, int64_t round, int64_t rank) {
    auto it = sorted_.find(round);
    if (it == sorted_.end()) {
      std::vector<std::vector<int64_t>> rows(kAllFields);
      for (int f = 0; f < kAllFields; ++f) {
        const wsnq::Scenario& s = scenarios_[static_cast<size_t>(f)];
        const std::vector<int64_t>& values = s.ValuesView(round);
        for (size_t v = 0; v < values.size(); ++v) {
          if (s.sensor_of_vertex[v] >= 0) rows[f].push_back(values[v]);
        }
        std::sort(rows[f].begin(), rows[f].end());
      }
      it = sorted_.emplace(round, std::move(rows)).first;
      // Keep a short window of rounds; pushes of one round can trail the
      // next round's by a little, never by much.
      while (sorted_.size() > 16) {
        auto victim = sorted_.begin();
        if (victim == it) ++victim;
        sorted_.erase(victim);
      }
    }
    return it->second[static_cast<size_t>(field)]
                     [static_cast<size_t>(rank - 1)];
  }

 private:
  bool ok_ = true;
  std::vector<wsnq::Scenario> scenarios_;
  std::map<int64_t, std::vector<std::vector<int64_t>>> sorted_;
};

/// One churn request as the open-loop generator scheduled it.
struct ChurnRecord {
  bool subscribe = true;
  double scheduled = 0.0;
  double sent = 0.0;
  double acked = -1.0;
  bool traced = false;
  bool ok = false;
};

struct ClientCounters {
  int64_t base_acked = 0;
  int64_t subscribes = 0;
  int64_t unsubscribes = 0;
  int64_t refused = 0;          ///< ERROR replies, rank mismatches
  int64_t incorrect_pushes = 0; ///< wrong value, unknown or retired sub
  int64_t pushes = 0;
  int64_t closed_connections = 0;
  int64_t generator_fallbacks = 0;
};

/// One client thread's loopback connections; Run() is the thread's body.
/// The base client subscribes the base population at start; the churn
/// client runs the open-loop generator, on connections of its own so that
/// reading pushes never delays a scheduled request.
class LoadClient {
 public:
  enum class Role { kBase, kChurn };

  /// `oracle` is used by the client thread only, until it is joined.
  LoadClient(Role role, int port, uint64_t seed, Oracle* oracle,
             RoundBoard* board)
      : role_(role),
        connections_(role == Role::kBase ? kConnections : kChurnConnections),
        port_(port),
        seed_(seed),
        oracle_(oracle),
        board_(board) {}
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  void Run();

  void Stop() { stop_.store(true, std::memory_order_release); }
  /// Starts the open-loop churn schedule at `start` (monotonic seconds).
  void StartChurn(double start) {
    churn_start_.store(start, std::memory_order_relaxed);
    churn_on_.store(true, std::memory_order_release);
  }
  void StopChurn() { churn_on_.store(false, std::memory_order_release); }
  int64_t base_acked() const {
    return base_acked_.load(std::memory_order_acquire);
  }
  bool failed_to_start() const {
    return start_failed_.load(std::memory_order_acquire);
  }

  // Read after the client thread has been joined.
  const ClientCounters& counters() const { return counters_; }
  const std::vector<ChurnRecord>& churn() const { return churn_; }
  const std::vector<double>& last_arrival() const { return last_arrival_; }

 private:
  struct Pending {
    bool subscribe = true;
    bool base = false;
    int field = 0;
    uint32_t permille = 0;
    uint64_t sub_id = 0;     ///< unsubscribe target
    int64_t churn = -1;      ///< index into churn_, or -1
  };
  struct Sub {
    int field = 0;
    int64_t rank = 0;
    int64_t first_round = 0;
    bool live = false;
  };

  void Send(int conn, const serve::Frame& frame, const Pending& pending) {
    conns_[static_cast<size_t>(conn)]->QueueFrame(frame);
    pending_[static_cast<size_t>(conn)][frame.request_id] = pending;
  }
  uint64_t NextId(int conn) { return next_id_[static_cast<size_t>(conn)]++; }
  /// Poisson schedule: offset of churn op `next_churn_` from the start.
  double NextChurnOffset();
  void SendDueChurn(double now);
  void Handle(int conn, const serve::Frame& frame, double now);

  const Role role_;
  const int connections_;
  const int port_;
  const uint64_t seed_;
  Oracle* const oracle_;
  RoundBoard* const board_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> churn_on_{false};
  std::atomic<double> churn_start_{0.0};
  std::atomic<int64_t> base_acked_{0};
  std::atomic<bool> start_failed_{false};

  std::vector<std::unique_ptr<serve::Client>> conns_;
  std::vector<uint64_t> next_id_;
  std::vector<std::map<uint64_t, Pending>> pending_;
  std::vector<Sub> subs_;  ///< indexed by sub_id
  std::vector<int> sub_conn_;
  std::deque<uint64_t> churn_subs_;  ///< acked churn subscriptions, FIFO
  int64_t next_churn_ = 0;
  double next_offset_ = -1.0;  ///< < 0: not drawn yet
  double last_offset_ = 0.0;
  std::vector<ChurnRecord> churn_;
  std::vector<double> last_arrival_ = std::vector<double>(kMaxRounds, -1.0);
  ClientCounters counters_;
};

void LoadClient::Run() {
  conns_.resize(static_cast<size_t>(connections_));
  next_id_.assign(static_cast<size_t>(connections_), 1);
  pending_.resize(static_cast<size_t>(connections_));
  std::vector<serve::Client*> ptrs;
  for (auto& conn : conns_) {
    conn = std::make_unique<serve::Client>();
    if (!conn->Connect(port_).ok()) {
      start_failed_.store(true, std::memory_order_release);
      return;
    }
    ptrs.push_back(conn.get());
  }
  // The base population, pipelined on every connection at once.
  for (int64_t i = 0; role_ == Role::kBase && i < kBaseSubs; ++i) {
    const int conn = static_cast<int>(i % kConnections);
    const BaseSub sub = BaseSubscription(seed_, i);
    serve::Frame frame;
    frame.request_id = NextId(conn);
    frame.opcode = static_cast<uint8_t>(serve::Opcode::kSubscribe);
    frame.payload = serve::EncodeSubscribePayload(
        serve::SubscribeRequest{FieldName(sub.field), sub.permille});
    Pending pending;
    pending.base = true;
    pending.field = sub.field;
    pending.permille = sub.permille;
    Send(conn, frame, pending);
  }

  while (!stop_.load(std::memory_order_acquire)) {
    double now = Now();
    int timeout_ms = 1;
    if (churn_on_.load(std::memory_order_acquire)) {
      SendDueChurn(now);
      // Spin through the last millisecond so requests leave on time.
      const double next =
          churn_start_.load(std::memory_order_relaxed) + NextChurnOffset();
      timeout_ms = std::clamp(static_cast<int>((next - Now()) * 1e3), 0, 1);
    }
    {
      ScopedSpan span("bench.client.pump", ScopedSpan::Charge::kCpu);
      if (!serve::PumpClients(ptrs, timeout_ms).ok()) break;
    }
    ScopedSpan span("bench.client.check");
    now = Now();
    for (int conn = 0; conn < connections_; ++conn) {
      for (const serve::Frame& frame :
           conns_[static_cast<size_t>(conn)]->TakeFrames()) {
        Handle(conn, frame, now);
      }
    }
  }
  for (auto& conn : conns_) {
    if (conn->closed()) ++counters_.closed_connections;
    conn->Close();
  }
}

double LoadClient::NextChurnOffset() {
  if (next_offset_ < 0.0) {
    // Exponential gap, from a seed-keyed uniform draw in (0, 1].
    const uint64_t h = Mix(seed_ * 0x2545F491ull + 0xBEEFull +
                           static_cast<uint64_t>(next_churn_));
    const double u = (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
    next_offset_ = last_offset_ - std::log(u) / kChurnRate;
  }
  return next_offset_;
}

void LoadClient::SendDueChurn(double now) {
  const double start = churn_start_.load(std::memory_order_relaxed);
  while (start + NextChurnOffset() <= now) {
    const int64_t i = next_churn_++;
    last_offset_ = next_offset_;
    next_offset_ = -1.0;
    const uint64_t h = Mix(seed_ * 0x9E3779B1ull + 0xC0FFEEull +
                           static_cast<uint64_t>(i));
    ChurnRecord record;
    record.scheduled = start + last_offset_;
    record.traced = Tracing();
    record.subscribe = i < kWarmChurn || i % 2 == 0;
    if (!record.subscribe && churn_subs_.empty()) {
      ++counters_.generator_fallbacks;
      record.subscribe = true;
    }
    serve::Frame frame;
    Pending pending;
    pending.churn = static_cast<int64_t>(churn_.size());
    int conn = static_cast<int>(h % static_cast<uint64_t>(connections_));
    if (record.subscribe) {
      pending.field = kFields + static_cast<int>((h >> 8) % kChurnFields);
      pending.permille = static_cast<uint32_t>(1 + (h >> 32) % 1000);
      frame.opcode = static_cast<uint8_t>(serve::Opcode::kSubscribe);
      frame.payload = serve::EncodeSubscribePayload(serve::SubscribeRequest{
          FieldName(pending.field), pending.permille});
    } else {
      pending.subscribe = false;
      pending.sub_id = churn_subs_.front();
      churn_subs_.pop_front();
      conn = sub_conn_[static_cast<size_t>(pending.sub_id)];
      frame.opcode = static_cast<uint8_t>(serve::Opcode::kUnsubscribe);
      frame.payload = serve::EncodeSubIdPayload(pending.sub_id);
    }
    frame.request_id = NextId(conn);
    record.sent = Now();
    churn_.push_back(record);
    Send(conn, frame, pending);
  }
}

void LoadClient::Handle(int conn, const serve::Frame& frame, double now) {
  const auto op = static_cast<serve::Opcode>(frame.opcode);
  if (op == serve::Opcode::kAnswer) {
    ++counters_.pushes;
    StatusOr<serve::AnswerPush> push = serve::DecodeAnswerPayload(
        frame.payload);
    if (!push.ok()) {
      ++counters_.incorrect_pushes;
      return;
    }
    const serve::AnswerPush& answer = push.value();
    const bool known = answer.sub_id < subs_.size() &&
                       subs_[static_cast<size_t>(answer.sub_id)].live;
    if (!known || answer.round < 0 || answer.round >= kMaxRounds) {
      ++counters_.incorrect_pushes;
      return;
    }
    const Sub& sub = subs_[static_cast<size_t>(answer.sub_id)];
    if (answer.round < sub.first_round ||
        answer.value != oracle_->Kth(sub.field, answer.round, sub.rank)) {
      ++counters_.incorrect_pushes;
    }
    last_arrival_[static_cast<size_t>(answer.round)] = now;
    board_->Add(answer.round);
    return;
  }

  auto& pending_map = pending_[static_cast<size_t>(conn)];
  auto it = pending_map.find(frame.request_id);
  if (it == pending_map.end()) {
    ++counters_.refused;
    return;
  }
  const Pending pending = it->second;
  pending_map.erase(it);
  bool ok = false;
  if (op == serve::Opcode::kSubscribeAck && pending.subscribe) {
    StatusOr<serve::SubscribeAck> ack =
        serve::DecodeSubscribeAckPayload(frame.payload);
    if (ack.ok() && ack.value().rank == ResolveRank(pending.permille,
                                                    oracle_->num_sensors())) {
      ok = true;
      const uint64_t sub_id = ack.value().sub_id;
      if (subs_.size() <= sub_id) {
        subs_.resize(sub_id + 1);
        sub_conn_.resize(sub_id + 1, 0);
      }
      subs_[static_cast<size_t>(sub_id)] =
          Sub{pending.field, ack.value().rank, ack.value().round, true};
      sub_conn_[static_cast<size_t>(sub_id)] = conn;
      ++counters_.subscribes;
      if (pending.base) {
        ++counters_.base_acked;
        base_acked_.store(counters_.base_acked, std::memory_order_release);
      } else {
        churn_subs_.push_back(sub_id);
      }
    }
  } else if (op == serve::Opcode::kUnsubscribeAck && !pending.subscribe) {
    StatusOr<uint64_t> sub_id = serve::DecodeSubIdPayload(frame.payload);
    if (sub_id.ok() && sub_id.value() == pending.sub_id) {
      ok = true;
      subs_[static_cast<size_t>(pending.sub_id)].live = false;
      ++counters_.unsubscribes;
    }
  }
  if (!ok) ++counters_.refused;
  if (pending.churn >= 0) {
    ChurnRecord& record = churn_[static_cast<size_t>(pending.churn)];
    record.acked = now;
    record.ok = ok;
  }
}

int BrokerThreads() {
  // Main (server loop) + two client threads + broker workers <= nproc.
  return std::clamp(Nproc() - 3, 1, 2);
}

serve::ServerOptions MakeOptions() {
  serve::ServerOptions options;
  options.port = 0;
  options.rounds_per_sec = kPacedRate;
  options.broker.base.num_sensors = kNodes;
  options.broker.base.seed = kDeploymentSeed;
  options.broker.threads = BrokerThreads();
  options.broker.shards = options.broker.threads;
  return options;
}

/// A server plus its two client threads; destruction stops and joins the
/// threads before the sockets and the server go away.
struct Daemon {
  std::unique_ptr<RoundBoard> board = std::make_unique<RoundBoard>();
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<LoadClient> base;
  std::unique_ptr<LoadClient> churn;
  std::vector<std::thread> threads;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Join(); }
  void Start(LoadClient* client) {
    threads.emplace_back([client] { client->Run(); });
  }
  void Join() {
    for (LoadClient* client : {base.get(), churn.get()}) {
      if (client != nullptr) client->Stop();
    }
    for (std::thread& thread : threads) {
      if (thread.joinable()) thread.join();
    }
  }
};

/// Polls the server until `done()` or `timeout` seconds pass; returns
/// whether `done()` held. PollOnce CPU time is added to `*busy_cpu`.
template <typename Done>
bool PollUntil(serve::Server* server, double timeout, Done done,
               double* busy_cpu) {
  const double deadline = Now() + timeout;
  while (!done()) {
    if (Now() >= deadline) return false;
    const double cpu = ThreadCpuSeconds();
    {
      ScopedSpan span("serve.poll_once", ScopedSpan::Charge::kCpu);
      if (!server->PollOnce(1).ok()) return false;
    }
    *busy_cpu += ThreadCpuSeconds() - cpu;
  }
  return true;
}

/// Encodes and decodes a batch of ANSWER frames through the public wire
/// API; returns {encode ns/frame, decode ns/frame}, medians of 5 reps.
std::pair<double, double> WireProbe() {
  constexpr int kFrames = 100000;
  std::vector<double> enc, dec;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<uint8_t> bytes;
    bytes.reserve(static_cast<size_t>(kFrames) * 48);
    double t0 = Now();
    {
      ScopedSpan span("serve.wire.encode");
      for (int i = 0; i < kFrames; ++i) {
        serve::Frame frame;
        frame.opcode = static_cast<uint8_t>(serve::Opcode::kAnswer);
        frame.payload = serve::EncodeAnswerPayload(
            serve::AnswerPush{static_cast<uint64_t>(i + 1), rep, i * 7});
        serve::AppendFrame(frame, &bytes);
      }
    }
    enc.push_back((Now() - t0) * 1e9 / kFrames);
    t0 = Now();
    int64_t decoded = 0;
    {
      ScopedSpan span("serve.wire.decode");
      serve::FrameReader reader;
      reader.Feed(bytes.data(), bytes.size());
      serve::Frame frame;
      while (reader.Next(&frame) == serve::ReadResult::kFrame) {
        decoded += serve::DecodeAnswerPayload(frame.payload).ok() ? 1 : 0;
      }
    }
    dec.push_back((Now() - t0) * 1e9 / static_cast<double>(
                                           std::max<int64_t>(decoded, 1)));
  }
  std::sort(enc.begin(), enc.end());
  std::sort(dec.begin(), dec.end());
  return {enc[2], dec[2]};
}

/// QuantileBroker::AdvanceRound alone, on a fresh broker holding the base
/// population; returns the per-round milliseconds.
std::vector<double> BrokerProbe(const serve::ServerOptions& options,
                                uint64_t seed, int rounds) {
  serve::QuantileBroker broker(options.broker);
  for (int64_t i = 0; i < kBaseSubs; ++i) {
    const BaseSub sub = BaseSubscription(seed, i);
    (void)broker.Subscribe(1 + i % kConnections,
                           serve::SubscribeRequest{FieldName(sub.field),
                                                   sub.permille});
  }
  std::vector<double> ms;
  std::vector<serve::AnswerEvent> events;
  for (int r = 0; r < rounds; ++r) {
    events.clear();
    const double t0 = Now();
    {
      ScopedSpan span("serve.broker.advance_round");
      (void)broker.AdvanceRound(&events);
    }
    ms.push_back((Now() - t0) * 1e3);
  }
  return ms;
}

/// Simulated cost of the base population's streams: each field's MultiIQ
/// over the ranks its base subscriptions hold, replayed on the oracle's own
/// scenarios and checked against the oracle's answers.
struct StreamReplay {
  double hotspot_mj = 0.0;  ///< sum over fields of mean per-round hotspot
  double packets = 0.0;     ///< sum over fields of mean packets per round
  int64_t answers = 0;
  int64_t mismatches = 0;
  std::string digest;
};

StreamReplay ReplayStreams(Oracle* oracle, const wsnq::WireFormat& wire,
                           uint64_t seed) {
  StreamReplay out;
  std::vector<std::vector<int64_t>> field_ranks(kFields);
  for (int64_t i = 0; i < kBaseSubs; ++i) {
    const BaseSub sub = BaseSubscription(seed, i);
    field_ranks[static_cast<size_t>(sub.field)].push_back(
        ResolveRank(sub.permille, oracle->num_sensors()));
  }
  char buf[64];
  uint64_t digest = kFnvOffset;
  for (int f = 0; f < kFields; ++f) {
    std::vector<int64_t>& ranks = field_ranks[static_cast<size_t>(f)];
    std::sort(ranks.begin(), ranks.end());
    ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    wsnq::Scenario& scenario = oracle->scenario(f);
    wsnq::Network* net = scenario.network.get();
    wsnq::MultiIqProtocol protocol(ranks, scenario.source->range_min(),
                                   scenario.source->range_max(), wire,
                                   wsnq::MultiIqProtocol::Options{});
    net->ResetAccounting();
    double energy = 0.0;
    for (int r = 0; r < kReplayRounds; ++r) {
      net->BeginRound();
      protocol.RunRound(net, scenario.ValuesView(r), r);
      energy += net->MaxRoundEnergyOverSensors();
      for (size_t i = 0; i < ranks.size(); ++i) {
        ++out.answers;
        if (protocol.quantile(static_cast<int>(i)) !=
            oracle->Kth(f, r, ranks[i])) {
          ++out.mismatches;
        }
      }
    }
    const double field_energy = energy / kReplayRounds;
    const double field_packets =
        static_cast<double>(net->total_packets()) / kReplayRounds;
    out.hotspot_mj += field_energy;
    out.packets += field_packets;
    std::snprintf(buf, sizeof(buf), "%d|%zu|%a|%a;", f, ranks.size(),
                  field_energy, field_packets);
    digest = Fnv1a(digest, buf);
  }
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, digest);
  out.digest = buf;
  return out;
}

}  // namespace

bool IsServeWorkload(const std::string& name) { return name == "serve-churn"; }

bool RunServeWorkload(const BenchArgs& args, JsonWriter* out) {
  const serve::ServerOptions options = MakeOptions();
  // One oracle per client thread, plus one for the replay below.
  Oracle oracle(options.broker.base);
  Oracle base_oracle(options.broker.base);
  Oracle churn_oracle(options.broker.base);
  if (!oracle.ok() || !base_oracle.ok() || !churn_oracle.ok()) {
    std::fprintf(stderr, "oracle scenarios failed to build\n");
    return false;
  }
  out->Key("config").BeginObject();
  out->Field("fields", kFields);
  out->Field("churn_fields", kChurnFields);
  out->Field("base_subs", kBaseSubs);
  out->Field("connections", kConnections);
  out->Field("churn_connections", kChurnConnections);
  out->Field("deployment_seed", static_cast<int64_t>(kDeploymentSeed));
  out->Field("nodes", kNodes);
  out->Field("paced_rounds_per_s", kPacedRate);
  out->Field("churn_ops_per_s", kChurnRate);
  out->Field("broker_threads", options.broker.threads);
  out->Field("shards", options.broker.shards);
  out->Field("seed", static_cast<int64_t>(args.seed));
  out->EndObject();

  // --- Set-up: listen and subscribe the base population, several times.
  std::unique_ptr<Daemon> daemon;
  const int setups = args.trace ? 26 : 25;
  double unused_cpu = 0.0;
  out->Key("setup").BeginArray();
  for (int rep = 0; rep < setups; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    daemon.reset();
    auto fresh = std::make_unique<Daemon>();
    SetTracing(traced);
    const double t0 = Now();
    bool ok = false;
    {
      ScopedSpan span("bench.setup");
      fresh->server = std::make_unique<serve::Server>(options);
      const bool listening = [&] {
        ScopedSpan listen("serve.listen");
        return fresh->server->Listen().ok();
      }();
      if (listening) {
        const int port = fresh->server->port();
        fresh->base = std::make_unique<LoadClient>(
            LoadClient::Role::kBase, port, args.seed, &base_oracle,
            fresh->board.get());
        fresh->churn = std::make_unique<LoadClient>(
            LoadClient::Role::kChurn, port, args.seed, &churn_oracle,
            fresh->board.get());
        LoadClient* base = fresh->base.get();
        LoadClient* churn = fresh->churn.get();
        fresh->Start(base);
        fresh->Start(churn);
        const auto failed = [base, churn] {
          return base->failed_to_start() || churn->failed_to_start();
        };
        ok = PollUntil(
            fresh->server.get(), 60.0,
            [&] { return base->base_acked() == kBaseSubs || failed(); },
            &unused_cpu);
        ok = ok && !failed();
      }
    }
    const double dt = Now() - t0;
    SetTracing(false);
    if (!ok) {
      std::fprintf(stderr, "set-up failed: base population not acked\n");
      return false;
    }
    out->BeginArray().Value(traced).Value(dt).EndArray();
    daemon = std::move(fresh);
  }
  out->EndArray();

  serve::Server* server = daemon->server.get();
  LoadClient* churn = daemon->churn.get();
  RoundBoard* board = daemon->board.get();
  // Pushes enqueued by each tick, indexed by broker round.
  std::vector<int64_t> expected;
  std::vector<double> scheduled;
  std::vector<bool> traced_round;
  std::vector<double> tick_ms;
  // Intervals of the traced rounds (traced runs alternate round by round).
  std::vector<std::pair<double, double>> traced_windows;
  bool stalled = false;

  auto tick = [&](double when, bool traced) {
    SetTracing(traced);
    const int64_t before = server->broker_stats().pushes;
    const double t0 = Now();
    Status status;
    {
      ScopedSpan span("serve.tick_round");
      status = server->TickRound();
    }
    tick_ms.push_back((Now() - t0) * 1e3);
    expected.push_back(server->broker_stats().pushes - before);
    scheduled.push_back(when);
    traced_round.push_back(traced);
    return status.ok();
  };
  auto delivered = [&](int64_t round) {
    return board->Get(round) >= expected[static_cast<size_t>(round)];
  };

  const serve::BrokerStats broker_before = server->broker_stats();
  const int64_t bytes_before = server->stats().bytes_out;
  const double paced_seconds = 0.6 * args.seconds;
  const double capacity_seconds = args.seconds - paced_seconds;

  // --- Paced phase: 20 rounds/s plus open-loop churn. -----------------
  const double period = 1.0 / kPacedRate;
  const double paced_start = Now() + period;
  const int64_t paced_rounds =
      static_cast<int64_t>(paced_seconds * kPacedRate);
  double paced_busy_cpu = 0.0;
  churn->StartChurn(paced_start);
  const double measure_start = Now();
  for (int64_t r = 0; r < paced_rounds && !stalled; ++r) {
    const double due = paced_start + static_cast<double>(r) * period;
    while (Now() < due) {
      const int timeout_ms =
          std::max(0, static_cast<int>((due - Now()) * 1000.0));
      const double cpu = ThreadCpuSeconds();
      {
        ScopedSpan span("serve.poll_once", ScopedSpan::Charge::kCpu);
        if (!server->PollOnce(timeout_ms).ok()) stalled = true;
      }
      paced_busy_cpu += ThreadCpuSeconds() - cpu;
    }
    const bool traced = args.trace && r % 2 == 1;
    if (traced) traced_windows.emplace_back(due, due + period);
    if (!tick(due, traced)) stalled = true;
  }
  churn->StopChurn();
  SetTracing(false);
  // Drain: every paced round must reach the client before capacity starts.
  const int64_t last_paced = static_cast<int64_t>(expected.size()) - 1;
  stalled = stalled ||
            !PollUntil(
                server, kStallSeconds,
                [&] {
                  for (int64_t r = 0; r <= last_paced; ++r) {
                    if (!delivered(r)) return false;
                  }
                  return true;
                },
                &unused_cpu);
  const serve::BrokerStats broker_paced = server->broker_stats();

  // --- Capacity phase: tick as soon as the previous round arrived. -----
  std::vector<double> capacity_s;
  std::vector<bool> capacity_traced;
  const double capacity_start = Now();
  for (int64_t k = 0; !stalled && Now() - capacity_start < capacity_seconds &&
                      static_cast<int64_t>(expected.size()) < kMaxRounds;
       ++k) {
    const bool traced = args.trace && k % 2 == 1;
    const double t0 = Now();
    if (!tick(t0, traced)) stalled = true;
    const int64_t round = static_cast<int64_t>(expected.size()) - 1;
    stalled = stalled || !PollUntil(
                             server, kStallSeconds,
                             [&] { return delivered(round); },
                             &unused_cpu);
    capacity_s.push_back(Now() - t0);
    capacity_traced.push_back(traced);
    if (traced) traced_windows.emplace_back(t0, t0 + capacity_s.back());
  }
  SetTracing(false);
  const double measure_end = Now();
  const serve::BrokerStats broker_after = server->broker_stats();
  const int64_t bytes_after = server->stats().bytes_out;
  daemon->Join();

  // --- Output checks and raw measurements. ----------------------------
  ClientCounters counters = daemon->base->counters();
  {
    const ClientCounters& c = churn->counters();
    counters.subscribes += c.subscribes;
    counters.unsubscribes += c.unsubscribes;
    counters.refused += c.refused;
    counters.incorrect_pushes += c.incorrect_pushes;
    counters.pushes += c.pushes;
    counters.closed_connections += c.closed_connections;
    counters.generator_fallbacks += c.generator_fallbacks;
  }
  const auto last_arrival = [&](size_t round) {
    return std::max(daemon->base->last_arrival()[round],
                    churn->last_arrival()[round]);
  };
  int64_t expected_total = 0;
  int64_t missing = 0;
  int64_t surplus = 0;
  for (size_t r = 0; r < expected.size(); ++r) {
    const int64_t got = board->Get(static_cast<int64_t>(r));
    expected_total += expected[r];
    missing += std::max<int64_t>(0, expected[r] - got);
    surplus += std::max<int64_t>(0, got - expected[r]);
  }
  out->Key("measure").BeginArray().Value(measure_start).Value(measure_end)
      .EndArray();
  out->Key("rounds").BeginArray();
  for (int64_t r = 0; r <= last_paced; ++r) {
    const size_t i = static_cast<size_t>(r);
    out->BeginArray()
        .Value(scheduled[i])
        .Value(last_arrival(i))
        .Value(expected[i])
        .Value(board->Get(r))
        .Value(static_cast<bool>(traced_round[i]))
        .Value(tick_ms[i])
        .EndArray();
  }
  out->EndArray();
  out->Key("churn").BeginArray();
  for (const ChurnRecord& c : churn->churn()) {
    out->BeginArray()
        .Value(c.subscribe)
        .Value(c.scheduled)
        .Value(c.sent)
        .Value(c.acked)
        .Value(c.traced)
        .Value(c.ok)
        .EndArray();
  }
  out->EndArray();
  out->Key("capacity").BeginArray();
  for (size_t k = 0; k < capacity_s.size(); ++k) {
    out->BeginArray()
        .Value(static_cast<bool>(capacity_traced[k]))
        .Value(capacity_s[k])
        .EndArray();
  }
  out->EndArray();
  out->Key("traced_windows").BeginArray();
  for (const auto& [start, end] : traced_windows) {
    out->BeginArray().Value(start).Value(end).EndArray();
  }
  out->EndArray();
  out->Field("paced_rounds", last_paced + 1);
  out->Field("stream_vertices",
             static_cast<int64_t>(broker_after.streams) *
                 oracle.num_vertices());

  const StreamReplay replay =
      ReplayStreams(&oracle, options.broker.base.wire, args.seed);
  out->Field("replay_hotspot_mj", replay.hotspot_mj);
  out->Field("replay_packets", replay.packets);
  out->Field("replay_rounds", kReplayRounds);
  out->Field("digest", replay.digest);

  out->Key("checks").BeginObject();
  out->Field("pushes_expected", expected_total);
  out->Field("pushes_missing", missing);
  out->Field("pushes_surplus", surplus);
  out->Field("pushes_incorrect", counters.incorrect_pushes);
  out->Field("pushes_received", counters.pushes);
  out->Field("subscribes_ok", counters.subscribes);
  out->Field("unsubscribes_ok", counters.unsubscribes);
  out->Field("requests_refused", counters.refused);
  out->Field("requests_sent",
             kBaseSubs + static_cast<int64_t>(churn->churn().size()));
  out->Field("closed_connections", counters.closed_connections);
  out->Field("generator_fallbacks", counters.generator_fallbacks);
  out->Field("replay_mismatches", replay.mismatches);
  out->Field("replay_answers", replay.answers);
  out->Field("stalled", stalled);
  out->EndObject();

  const int64_t measured_rounds = broker_after.rounds - broker_before.rounds;
  out->Key("layer").BeginObject();
  out->Field("serve.poll_busy_ms_per_round",
             paced_busy_cpu * 1e3 / static_cast<double>(
                                        std::max<int64_t>(1, last_paced + 1)));
  out->Field("serve.broker.convergecasts_per_round",
             static_cast<double>(broker_after.convergecasts -
                                 broker_before.convergecasts) /
                 static_cast<double>(std::max<int64_t>(1, measured_rounds)));
  out->Field("serve.broker.rebuilds",
             broker_paced.protocol_rebuilds - broker_before.protocol_rebuilds);
  out->Field("serve.coalescing_ratio",
             static_cast<double>(broker_after.pushes - broker_before.pushes) /
                 static_cast<double>(std::max<int64_t>(
                     1, broker_after.backend_rounds -
                            broker_before.backend_rounds)));
  out->Field("serve.bytes_out_per_round",
             static_cast<double>(bytes_after - bytes_before) /
                 static_cast<double>(std::max<int64_t>(1, measured_rounds)));
  out->Field("core.scenario_cache_hits", broker_after.cache_hits);
  out->Field("core.scenario_cache_misses", broker_after.cache_misses);
  daemon.reset();  // stop its broker pool before the probes start theirs
  if (args.trace) {
    SetTracing(true);
    ScopedSpan probe("bench.probe");
    const auto [encode_ns, decode_ns] = WireProbe();
    out->Field("serve.wire.encode_ns_per_frame", encode_ns);
    out->Field("serve.wire.decode_ns_per_frame", decode_ns);
    out->Array("serve.broker.advance_ms", BrokerProbe(options, args.seed, 40));
    SetTracing(false);
  }
  out->EndObject();
  return true;
}

}  // namespace perfbench
