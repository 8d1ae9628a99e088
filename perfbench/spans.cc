#include "spans.h"

#include <time.h>

#include <chrono>
#include <deque>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};

struct ThreadBuffer {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<int64_t> open;  ///< stack of open span indices
};

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu
std::deque<std::string> g_names;                       // guarded by g_mu

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<int>(g_buffers.size()) - 1;
    buffer->spans.reserve(1 << 12);
  }
  return buffer;
}

}  // namespace

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

const char* InternName(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const std::string& known : g_names) {
    if (known == name) return known.c_str();
  }
  g_names.push_back(name);
  return g_names.back().c_str();
}

ScopedSpan::ScopedSpan(const char* name, Charge charge) {
  if (!Tracing()) return;
  ThreadBuffer* buffer = LocalBuffer();
  Span span;
  span.name = name;
  span.parent = buffer->open.empty() ? -1 : buffer->open.back();
  span.thread = buffer->thread;
  span.start = Now();
  index_ = static_cast<int64_t>(buffer->spans.size());
  buffer->spans.push_back(span);
  buffer->open.push_back(index_);
  if (charge == Charge::kCpu) cpu_start_ = ThreadCpuSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) return;
  ThreadBuffer* buffer = LocalBuffer();
  Span& span = buffer->spans[static_cast<size_t>(index_)];
  if (cpu_start_ >= 0.0) span.cpu = ThreadCpuSeconds() - cpu_start_;
  span.end = Now();
  buffer->open.pop_back();
}

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> all;
  for (const auto& buffer : g_buffers) {
    // Parents are per-thread indices; rebase them onto the merged list.
    const int64_t base = static_cast<int64_t>(all.size());
    for (Span span : buffer->spans) {
      if (span.parent >= 0) span.parent += base;
      all.push_back(span);
    }
  }
  return all;
}

}  // namespace perfbench
