#include "util/trace.h"

#include <atomic>
#include <chrono>  // the sanctioned clock-read site (wsnq-lint: raw-clock)
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <utility>

#include "util/check.h"
#include "util/mutex.h"

namespace wsnq {

namespace {

/// Destination of formatted output: a string, or a FILE* written as the
/// text is produced. The trace serializers write through one so that a
/// file TraceSink streams each folded event to disk instead of keeping it;
/// Serialize*() and the file share one formatting body per format.
class Out {
 public:
  explicit Out(std::string* str) : str_(str) {}
  explicit Out(std::FILE* file) : file_(file) {}

  /// printf into one chunk. Truncates a chunk at 255 bytes; callers keep
  /// individual chunks well under that.
  void VPrintf(const char* fmt, va_list ap) {
    char buf[256];
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    WSNQ_CHECK_GE(n, 0);
    Write(buf, static_cast<size_t>(n) < sizeof(buf) ? static_cast<size_t>(n)
                                                    : sizeof(buf) - 1);
  }

  void Printf(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list ap;
    va_start(ap, fmt);
    VPrintf(fmt, ap);
    va_end(ap);
  }

  void Puts(const char* text) { Write(text, std::strlen(text)); }

 private:
  void Write(const char* data, size_t n) {
    if (str_ != nullptr) {
      str_->append(data, n);
    } else {
      std::fwrite(data, 1, n, file_);
    }
  }

  std::string* str_ = nullptr;
  std::FILE* file_ = nullptr;
};

// printf-append helper for the prof reporters below.
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  Out(out).VPrintf(fmt, ap);
  va_end(ap);
}

}  // namespace

namespace trace {

namespace {

const char* KindName(Event::Kind kind) {
  switch (kind) {
    case Event::Kind::kBegin:
      return "begin";
    case Event::Kind::kEnd:
      return "end";
    case Event::Kind::kInstant:
      return "instant";
    case Event::Kind::kCounter:
      return "counter";
  }
  return "?";
}

const char* ChromePh(Event::Kind kind) {
  switch (kind) {
    case Event::Kind::kBegin:
      return "B";
    case Event::Kind::kEnd:
      return "E";
    case Event::Kind::kInstant:
      return "i";
    case Event::Kind::kCounter:
      return "C";
  }
  return "i";
}

thread_local TraceBuffer* t_current = nullptr;

std::unique_ptr<TraceSink> g_sink;  // main-thread lifecycle only

}  // namespace

void TraceBuffer::Push(Event::Kind kind, const char* phase, const char* name,
                       int node, std::initializer_list<Arg> args) {
  Event event;
  event.kind = kind;
  event.phase = phase;
  event.name = name;
  event.proto = proto_;
  event.run = run_;
  event.round = round_;
  event.node = node;
  event.tick = tick_++;
  for (const Arg& arg : args) {
    if (event.num_args >= Event::kMaxArgs) break;
    event.args[event.num_args++] = arg;
  }
  events_.push_back(event);
  if (spill_ != nullptr && events_.size() >= kSpillEvents) {
    // The sink advances its clock by the ticks folded, so restarting this
    // buffer's clock at 0 continues the run's tick sequence seamlessly.
    // SpillTo's contract (the folding thread, the next run) is the claim.
    ScopedSerialPhase fold_phase(FoldPhase());
    spill_->Fold(*this);
    events_.clear();
    tick_ = 0;
  }
}

void TraceBuffer::Begin(const char* phase, const char* name, int node,
                        std::initializer_list<Arg> args) {
  Push(Event::Kind::kBegin, phase, name, node, args);
}

void TraceBuffer::End(const char* phase, const char* name, int node) {
  Push(Event::Kind::kEnd, phase, name, node, {});
}

void TraceBuffer::Instant(const char* phase, const char* name, int node,
                          std::initializer_list<Arg> args) {
  Push(Event::Kind::kInstant, phase, name, node, args);
}

void TraceBuffer::Counter(const char* name, int64_t value) {
  Push(Event::Kind::kCounter, "counter", name, -1, {{name, value}});
}

TraceBuffer* Current() { return t_current; }

RunScope::RunScope(TraceBuffer* buffer) : prev_(t_current) {
  t_current = buffer;
}

RunScope::~RunScope() { t_current = prev_; }

ScopedSpan::ScopedSpan(const char* phase, const char* name, int node,
                       std::initializer_list<Arg> args)
    : buffer_(t_current), phase_(phase), name_(name), node_(node) {
  if (buffer_ != nullptr) buffer_->Begin(phase_, name_, node_, args);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ != nullptr) buffer_->End(phase_, name_, node_);
}

namespace {

/// One event as a JSONL line, stamped with `tick`.
void EmitJsonl(const Event& e, int64_t tick, Out& out) {
  out.Printf("{\"run\":%d,\"tick\":%lld,\"round\":%lld,\"proto\":\"%s\","
             "\"phase\":\"%s\",\"name\":\"%s\",\"node\":%d,\"kind\":\"%s\"",
             e.run, static_cast<long long>(tick),
             static_cast<long long>(e.round), e.proto, e.phase, e.name,
             e.node, KindName(e.kind));
  if (e.num_args > 0) {
    out.Puts(",\"args\":{");
    for (int i = 0; i < e.num_args; ++i) {
      out.Printf("%s\"%s\":%lld", i > 0 ? "," : "", e.args[i].key,
                 static_cast<long long>(e.args[i].value));
    }
    out.Puts("}");
  }
  out.Puts("}\n");
}

/// The Chrome trace_event JSON document is kChromeHead, the event objects
/// separated by kChromeSep, then "\n" if there was any, then kChromeTail.
constexpr const char* kChromeHead = "{\"traceEvents\":[\n";
constexpr const char* kChromeSep = ",\n";
constexpr const char* kChromeTail = "],\"displayTimeUnit\":\"ms\"}\n";

/// One event as a Chrome trace_event object, stamped with `tick`.
void EmitChrome(const Event& e, int64_t tick, Out& out) {
  // pid = run so Perfetto groups one run per process track; tid maps the
  // coordinator (node == -1) to 0 and vertex v to v + 1.
  out.Printf("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%lld,"
             "\"pid\":%d,\"tid\":%d",
             e.name, e.phase, ChromePh(e.kind), static_cast<long long>(tick),
             e.run, e.node + 1);
  if (e.kind == Event::Kind::kInstant) out.Puts(",\"s\":\"t\"");
  if (e.kind == Event::Kind::kCounter) {
    out.Printf(",\"args\":{\"%s\":%lld}", e.args[0].key,
               static_cast<long long>(e.args[0].value));
  } else {
    out.Printf(",\"args\":{\"proto\":\"%s\",\"round\":%lld", e.proto,
               static_cast<long long>(e.round));
    for (int a = 0; a < e.num_args; ++a) {
      out.Printf(",\"%s\":%lld", e.args[a].key,
                 static_cast<long long>(e.args[a].value));
    }
    out.Puts("}");
  }
  out.Puts("}");
}

}  // namespace

// Constructor and destructor run before the sink is shared and after it
// stops being shared, so they touch the fold-phase state without the claim.
TraceSink::TraceSink(std::string path)
    : path_(std::move(path)),
      to_file_(true),
      jsonl_(path_.size() >= 6 &&
             path_.compare(path_.size() - 6, 6, ".jsonl") == 0) {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ != nullptr && !jsonl_) {
    Out out(file_);
    out.Puts(kChromeHead);
  }
}

TraceSink::~TraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void TraceSink::Fold(const TraceBuffer& buffer) {
  if (!to_file_) {
    events_.reserve(events_.size() + buffer.events().size());
    for (Event event : buffer.events()) {
      event.tick += next_tick_;
      events_.push_back(event);
    }
  } else if (file_ != nullptr) {
    Out out(file_);
    int64_t written = event_count_;
    for (const Event& e : buffer.events()) {
      if (jsonl_) {
        EmitJsonl(e, e.tick + next_tick_, out);
      } else {
        if (written++ > 0) out.Puts(kChromeSep);
        EmitChrome(e, e.tick + next_tick_, out);
      }
    }
  }
  event_count_ += static_cast<int64_t>(buffer.events().size());
  next_tick_ += buffer.ticks();
}

std::string TraceSink::SerializeJsonl() const {
  WSNQ_CHECK(!to_file_);  // a file sink keeps no events
  std::string str;
  str.reserve(events_.size() * 96);
  Out out(&str);
  for (const Event& e : events_) EmitJsonl(e, e.tick, out);
  return str;
}

std::string TraceSink::SerializeChromeJson() const {
  WSNQ_CHECK(!to_file_);  // a file sink keeps no events
  std::string str;
  Out out(&str);
  out.Puts(kChromeHead);
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out.Puts(kChromeSep);
    EmitChrome(events_[i], events_[i].tick, out);
  }
  if (!events_.empty()) out.Puts("\n");
  out.Puts(kChromeTail);
  return str;
}

Status TraceSink::WriteFile() {
  if (!to_file_ || closed_) return Status::Ok();
  closed_ = true;
  if (file_ == nullptr) {
    return Status::Internal("cannot open trace file: " + path_);
  }
  if (!jsonl_) {
    Out out(file_);
    if (event_count_ > 0) out.Puts("\n");
    out.Puts(kChromeTail);
  }
  const bool write_failed = std::ferror(file_) != 0;
  const int close_rc = std::fclose(file_);
  file_ = nullptr;
  if (write_failed || close_rc != 0) {
    return Status::Internal("short write to trace file: " + path_);
  }
  return Status::Ok();
}

TraceSink* GlobalSink() { return g_sink.get(); }

void InstallGlobalSink(const std::string& path) {
  g_sink = std::make_unique<TraceSink>(path);
}

void InstallGlobalSink() { g_sink = std::make_unique<TraceSink>(); }

Status FlushGlobalSink() {
  if (g_sink == nullptr) return Status::Ok();
  // Flushing happens on the main thread after every run buffer has been
  // folded; entering the fold phase here is that claim, checked by clang.
  ScopedSerialPhase fold_phase(FoldPhase());
  Status status = g_sink->WriteFile();
  g_sink.reset();
  return status;
}

void ClearGlobalSink() { g_sink.reset(); }

}  // namespace trace

namespace prof {

namespace {

struct StageStat {
  int64_t count = 0;
  double total_s = 0.0;
  double min_s = 0.0;
  double max_s = 0.0;
  double cpu_s = 0.0;
};

std::atomic<bool> g_enabled{false};

/// Guards the profile's stage map (workers call AddSample concurrently).
Mutex& ProfileMu() {
  static Mutex mu;
  return mu;
}

/// The ProfileMu()-guarded stage accumulator: the REQUIRES annotation makes
/// every access point hold the mutex or fail the `analyze` build.
std::map<std::string, StageStat>& Stages() WSNQ_REQUIRES(ProfileMu()) {
  static std::map<std::string, StageStat> stages;
  return stages;
}

/// CPU time consumed by the calling thread [seconds].
double ThreadCpuSeconds() {
  timespec ts{};
  WSNQ_CHECK_EQ(clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts), 0);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Enable() { g_enabled.store(true, std::memory_order_relaxed); }

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void AddSample(const char* stage, double seconds, double cpu_seconds) {
  MutexLock lock(ProfileMu());
  StageStat& stat = Stages()[stage];
  if (stat.count == 0 || seconds < stat.min_s) stat.min_s = seconds;
  if (stat.count == 0 || seconds > stat.max_s) stat.max_s = seconds;
  ++stat.count;
  stat.total_s += seconds;
  stat.cpu_s += cpu_seconds;
}

std::vector<StageReport> Snapshot() {
  std::vector<StageReport> reports;
  MutexLock lock(ProfileMu());
  reports.reserve(Stages().size());
  for (const auto& [stage, stat] : Stages()) {
    StageReport report;
    report.stage = stage;
    report.count = stat.count;
    report.total_s = stat.total_s;
    report.min_s = stat.min_s;
    report.max_s = stat.max_s;
    report.cpu_s = stat.cpu_s;
    reports.push_back(std::move(report));
  }
  return reports;  // std::map iteration: already sorted by stage
}

void ResetForTest() {
  MutexLock lock(ProfileMu());
  Stages().clear();
}

ScopedTimer::ScopedTimer(const char* stage)
    : stage_(stage), start_(Enabled() ? WallSeconds() : -1.0) {
  // The CPU reads nest inside the wall reads, so a span's CPU time never
  // exceeds its wall time by more than the two clocks' granularity.
  if (start_ >= 0.0) cpu_start_ = ThreadCpuSeconds();
}

ScopedTimer::~ScopedTimer() {
  if (start_ < 0.0) return;
  const double cpu_seconds = ThreadCpuSeconds() - cpu_start_;
  AddSample(stage_, WallSeconds() - start_, cpu_seconds);
}

namespace {

/// Shared stderr/JSON field list; `sep` is " " for stderr key=value lines
/// and "," for JSON (where keys are quoted).
void AppendStageFields(std::string* out, const StageStat& stat, bool json) {
  const char* q = json ? "\"" : "";
  const char* kv = json ? "\":" : "=";
  const char* sep = json ? "," : " ";
  AppendF(out,
          "%s%scount%s%lld%s%stotal_s%s%.6f%s%smin_s%s%.6f%s%smax_s%s%.6f"
          "%s%scpu_s%s%.6f",
          sep, q, kv, static_cast<long long>(stat.count), sep, q, kv,
          stat.total_s, sep, q, kv, stat.min_s, sep, q, kv, stat.max_s, sep,
          q, kv, stat.cpu_s);
}

}  // namespace

void ReportToStderr() {
  MutexLock lock(ProfileMu());
  for (const auto& [stage, stat] : Stages()) {
    std::string line;
    AppendF(&line, "# profile stage=%s", stage.c_str());
    AppendStageFields(&line, stat, /*json=*/false);
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

Status WriteJson(const std::string& path) {
  std::string body = "{\"stages\":[\n";
  {
    MutexLock lock(ProfileMu());
    bool first = true;
    for (const auto& [stage, stat] : Stages()) {
      AppendF(&body, "%s{\"stage\":\"%s\"", first ? "" : ",\n",
              stage.c_str());
      AppendStageFields(&body, stat, /*json=*/true);  // leads with ","
      body += "}";
      first = false;
    }
  }
  body += "\n]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open profile file: " + path);
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0) {
    return Status::Internal("short write to profile file: " + path);
  }
  return Status::Ok();
}

}  // namespace prof
}  // namespace wsnq
