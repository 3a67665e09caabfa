// In-memory span recording for the benchmark's traced run.
//
// A span is one timed call into a layer of the library (or a unit of
// the benchmark's own glue that encloses such calls): name, start,
// end, the enclosing span, and how many items of work it covered.
// Every thread records into its own SpanBuffer, so recording takes no
// lock; the buffers are merged after the threads have joined. The
// untraced run passes null buffers, and a ScopedSpan on a null buffer
// reads no clock.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  // string literal
  int64_t start_ns = 0;   // relative to the buffer's origin
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span in the same buffer
  int64_t items = 1;    // calls, requests or rows the span covers
};

class SpanBuffer {
 public:
  SpanBuffer(Clock::time_point origin, int thread)
      : origin_(origin), thread_(thread) {}

  int32_t Begin(const char* name, int32_t parent, int64_t items);
  void End(int32_t id);
  void SetItems(int32_t id, int64_t items) { spans_[id].items = items; }

  int thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  int thread_;
  std::vector<Span> spans_;
};

// Records one span for its lifetime; a no-op on a null buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, int32_t parent = -1,
             int64_t items = 1)
      : buffer_(buffer),
        id_(buffer == nullptr ? -1 : buffer->Begin(name, parent, items)) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }
  void set_items(int64_t items) {
    if (buffer_ != nullptr) buffer_->SetItems(id_, items);
  }

 private:
  SpanBuffer* buffer_;
  int32_t id_;
};

// Per-name totals over every buffer. Self time is a span's duration
// minus the durations of its direct children.
struct SpanTotals {
  double self_seconds = 0.0;
  int64_t calls = 0;
  int64_t items = 0;
};
std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const SpanBuffer*>& buffers);

// Wall seconds covered by the union, across threads, of the spans
// whose name starts with one of `prefixes`.
double CoveredSeconds(const std::vector<const SpanBuffer*>& buffers,
                      const std::vector<std::string>& prefixes);

// Writes `header` as a comment line, then one CSV row per span —
// thread,id,parent,name,start_ns,end_ns,items — for the first
// `max_per_buffer` spans of each buffer (a parent always precedes its
// children, so the rows written stay a closed tree), and a final
// comment line with the number left out. False on an I/O error.
bool WriteSpans(const std::string& path, const std::string& header,
                const std::vector<const SpanBuffer*>& buffers,
                size_t max_per_buffer);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
