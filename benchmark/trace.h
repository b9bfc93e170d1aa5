// Spans around the benchmark's calls into each engine layer, written as a
// Chrome trace-event file (load it in chrome://tracing or Perfetto).
//
// A span has a name, start, end, the span that encloses it on the same
// thread (its parent), and a request id shared by every span of one
// request (a query, a refresh group, a probe pass). Spans are appended to
// per-thread in-memory buffers and written once, after every load thread
// has been joined, so recording one costs two clock reads and a push.
// Recording is off unless the run is traced; the traced run toggles it in
// alternating windows to measure its own overhead (see workloads.cc).
#ifndef PDTBENCH_TRACE_H_
#define PDTBENCH_TRACE_H_

#include <cstdint>
#include <string>

#include "stats.h"

namespace pdtbench {

/// Turns span recording on or off for every thread.
void SetTracing(bool on);
bool TracingOn();

/// RAII span. Records nothing when tracing is off at construction.
/// `detail` (e.g. the query number) is written to the span's args.
class Span {
 public:
  explicit Span(const char* name, int64_t detail = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Whether this span is being recorded.
  bool active() const { return id_ != 0; }

 private:
  const char* name_;
  int64_t detail_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  uint64_t outer_request_ = 0;
  Clock::time_point start_;
};

/// Writes every recorded span to `path` as Chrome trace-event JSON.
/// Call only when no thread is recording. False if the file could not
/// be written.
bool WriteTrace(const std::string& path);
/// Number of spans recorded so far (same caveat).
uint64_t SpanCount();

}  // namespace pdtbench

#endif  // PDTBENCH_TRACE_H_
