#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace pdtbench {
namespace {

struct SpanRecord {
  const char* name;
  int64_t detail;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  Clock::time_point start;
  Clock::time_point end;
};

struct ThreadBuffer {
  int tid = 0;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

// Buffers outlive their threads: they are owned here and only read by
// WriteTrace once the load threads have been joined.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint64_t t_current = 0;  // innermost open span on this thread
thread_local uint64_t t_request = 0;  // its request id

ThreadBuffer* LocalBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->tid = static_cast<int>(g_buffers.size());
    t_buffer = g_buffers.back().get();
  }
  return t_buffer;
}

double MicrosSinceEpoch(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, int64_t detail)
    : name_(name), detail_(detail) {
  if (!TracingOn()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  outer_request_ = t_request;
  request_ = parent_ != 0 ? t_request : id_;
  t_current = id_;
  t_request = request_;
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  LocalBuffer()->spans.push_back(
      SpanRecord{name_, detail_, id_, parent_, request_, start_, end});
  t_current = parent_;
  t_request = outer_request_;
}

uint64_t SpanCount() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  uint64_t n = 0;
  for (const auto& b : g_buffers) n += b->spans.size();
  return n;
}

bool WriteTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : g_buffers) {
    for (const SpanRecord& s : b->spans) {
      const double ts = MicrosSinceEpoch(s.start);
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                   "\"detail\": %lld}}",
                   first ? "" : ",\n", s.name, b->tid, ts,
                   MicrosSinceEpoch(s.end) - ts,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.detail));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace pdtbench
