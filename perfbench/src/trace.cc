#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int32_t SpanBuffer::Begin(const char* name, int32_t parent, int64_t items) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.items = items;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanBuffer::End(int32_t id) {
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<const SpanBuffer*>& buffers) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanTotals& t = totals[spans[i].name];
      t.self_seconds +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                              child_ns[i]) *
          1e-9;
      t.calls += 1;
      t.items += spans[i].items;
    }
  }
  return totals;
}

double CoveredSeconds(const std::vector<const SpanBuffer*>& buffers,
                      const std::vector<std::string>& prefixes) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& span : buffer->spans()) {
      const std::string name = span.name;
      for (const std::string& prefix : prefixes) {
        if (name.compare(0, prefix.size(), prefix) == 0) {
          intervals.emplace_back(span.start_ns, span.end_ns);
          break;
        }
      }
    }
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = INT64_MIN;
  for (const auto& [start, end] : intervals) {
    const int64_t from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return static_cast<double>(covered) * 1e-9;
}

bool WriteSpans(const std::string& path, const std::string& header,
                const std::vector<const SpanBuffer*>& buffers,
                size_t max_per_buffer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# %s\nthread,id,parent,name,start_ns,end_ns,items\n",
               header.c_str());
  size_t left_out = 0;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->spans();
    const size_t written = std::min(spans.size(), max_per_buffer);
    left_out += spans.size() - written;
    for (size_t i = 0; i < written; ++i) {
      std::fprintf(f, "%d,%zu,%d,%s,%lld,%lld,%lld\n", buffer->thread(), i,
                   spans[i].parent, spans[i].name,
                   static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns),
                   static_cast<long long>(spans[i].items));
    }
  }
  std::fprintf(f, "# %zu spans left out\n", left_out);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
