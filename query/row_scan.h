// The one conjunctive row scan of query/: every row of a table inside
// every range predicate of a query, in ascending row order. It serves
// the Anatomy estimator (exact QI values, so matching QIT rows are
// found exactly) and the PreciseCounts / PreciseSums /
// PreciseGroupCounts ground truth, which also match on the SA range.
//
// Rows are scanned in blocks. Each predicate turns its column's block
// into a byte mask with one branch-free unsigned compare per row (the
// compiler vectorizes it), the masks are ANDed, and the matching row
// ids are compacted in ascending order before `term` sees any of them.
// A term therefore runs once per matching row, in row order, just as
// in a row-at-a-time loop, so sums built from it keep their bits.
#ifndef BETALIKE_QUERY_ROW_SCAN_H_
#define BETALIKE_QUERY_ROW_SCAN_H_

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "data/table.h"
#include "query/workload.h"

namespace betalike {
namespace row_scan_internal {

constexpr int64_t kBlockRows = 1024;

// mask[i] (&)= lo <= column[i] <= hi for i < count. Shifting by lo in
// unsigned arithmetic sends every value below lo past hi - lo, so one
// compare tests both bounds. Requires lo <= hi: an empty range would
// wrap into a width near 2^32 and match almost everything.
inline void RangeMask(const int32_t* column, int64_t count, int32_t lo,
                      int32_t hi, bool first, uint8_t* mask) {
  const uint32_t base = static_cast<uint32_t>(lo);
  const uint32_t width = static_cast<uint32_t>(hi) - base;
  if (first) {
    for (int64_t i = 0; i < count; ++i) {
      mask[i] = static_cast<uint32_t>(column[i]) - base <= width;
    }
  } else {
    for (int64_t i = 0; i < count; ++i) {
      mask[i] &= static_cast<uint32_t>(column[i]) - base <= width;
    }
  }
}

}  // namespace row_scan_internal

// Calls term(row) for every row of `table` inside every QI predicate of
// `query` — and inside its SA range too when `match_sa` is set and the
// query has one — in ascending row order. A QI predicate with lo > hi
// matches no row. The block's mask and row ids live on the caller's
// stack, so concurrent scans share no scratch.
template <typename Term>
void ForEachMatchingRow(const Table& table, const AggregateQuery& query,
                        bool match_sa, Term&& term) {
  using row_scan_internal::kBlockRows;
  using row_scan_internal::RangeMask;
  for (const QueryPredicate& p : query.predicates) {
    if (p.lo > p.hi) return;
  }
  const bool sa = match_sa && query.has_sa_predicate();
  const int64_t n = table.num_rows();
  uint8_t mask[kBlockRows];
  int64_t rows[kBlockRows];
  for (int64_t begin = 0; begin < n; begin += kBlockRows) {
    const int64_t count = std::min(kBlockRows, n - begin);
    bool first = true;
    for (const QueryPredicate& p : query.predicates) {
      RangeMask(table.qi_column(p.dim).data() + begin, count, p.lo, p.hi,
                first, mask);
      first = false;
    }
    if (sa) {
      RangeMask(table.sa_column().data() + begin, count, query.sa_lo,
                query.sa_hi, first, mask);
      first = false;
    }
    if (first) std::memset(mask, 1, static_cast<size_t>(count));
    // Branch-free compaction: every row id is written, and the cursor
    // only moves past the matching ones.
    int64_t matched = 0;
    for (int64_t i = 0; i < count; ++i) {
      rows[matched] = begin + i;
      matched += mask[i];
    }
    for (int64_t i = 0; i < matched; ++i) term(rows[i]);
  }
}

}  // namespace betalike

#endif  // BETALIKE_QUERY_ROW_SCAN_H_
