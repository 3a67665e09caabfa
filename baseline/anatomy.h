// Anatomy (Xiao & Tao, VLDB 2006) — the l-diversity bucketization
// baseline of the paper's Figure 9. Anatomy does not generalize:
// tuples are partitioned into groups of >= l distinct SA values (each
// value at most once per group), and the publication is two separate
// tables — a quasi-identifier table QIT (every tuple's exact QI values
// plus its group id) and a sensitive table ST (per-group SA histogram,
// kept sparse: the values a group holds, with their counts).
// The QI-SA linkage inside a group is what the recipient loses.
//
// Group formation is the paper's algorithm: hash tuples into per-value
// buckets, then repeatedly draw one (seeded-random) tuple from each of
// the l largest buckets until fewer than l buckets remain; the
// leftover tuples (at most one per bucket) each join a group that does
// not yet contain their value. Eligible iff no SA value exceeds an
// n/l share of the table.
#ifndef BETALIKE_BASELINE_ANATOMY_H_
#define BETALIKE_BASELINE_ANATOMY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "data/table.h"

namespace betalike {

struct AnatomyOptions {
  // Distinct-l-diversity parameter: every group carries at least l
  // distinct SA values, each at most once.
  int l = 4;
  // Seed of the random tuple draws inside buckets (the registry and
  // the golden tests rely on the default).
  uint64_t seed = 1;
};

// Ok iff l >= 2.
Status ValidateAnatomyOptions(const AnatomyOptions& options);

// Partitions `table` into Anatomy groups, returned as a
// GeneralizedTable whose equivalence classes are the groups (the
// registry's uniform publication form; the boxes it derives are what a
// generalization-based release of the same partition would publish).
// Fails on invalid options, an empty table, or an ineligible SA
// distribution (some value more frequent than 1/l).
Result<GeneralizedTable> AnonymizeWithAnatomy(
    std::shared_ptr<const Table> table, const AnatomyOptions& options);

// One ST entry: `count` tuples of a group carry SA value `value`.
struct SaValueCount {
  int32_t value;
  int32_t count;
};

// The separate-table publication built from any group partition: QIT
// (exact QI values + group id per row, via source() and group_of_row)
// and ST (per group, its distinct SA values in ascending order with
// their tuple counts — a sparse histogram, stored CSR-style). A group
// of s tuples holds at most s entries, so the ST costs O(n) memory
// whatever the SA domain size, and a range count, sum or square sum
// visits only the values the group actually holds. This is the view
// the Figure 9 estimator answers from.
class AnatomizedTable {
 public:
  static AnatomizedTable FromGrouping(const GeneralizedTable& grouped);

  const Table& source() const { return *source_; }
  int64_t num_rows() const { return source_->num_rows(); }
  size_t num_groups() const { return group_sizes_.size(); }
  int32_t group_of_row(int64_t row) const { return group_of_row_[row]; }
  int64_t group_size(size_t group) const { return group_sizes_[group]; }

  // `group`'s ST entries: each distinct SA value of the group once, in
  // ascending value order, with its (positive) tuple count.
  Span<SaValueCount> GroupSaValues(size_t group) const {
    return Span<SaValueCount>(st_.data() + st_offsets_[group],
                              st_offsets_[group + 1] - st_offsets_[group]);
  }

  // Tuples of `group` whose SA value lies in [sa_lo, sa_hi]
  // (inclusive; the range is clamped to the SA domain).
  int64_t GroupSaCount(size_t group, int32_t sa_lo, int32_t sa_hi) const {
    return RangeSum(group, sa_lo, sa_hi, [](int64_t count, int64_t) {
      return count;
    });
  }

  // Σ v (resp. Σ v²) over the tuples of `group` with SA value v in
  // [sa_lo, sa_hi] — the ST histogram moments the SUM/AVG estimators
  // spread across a group's rows.
  int64_t GroupSaValueSum(size_t group, int32_t sa_lo, int32_t sa_hi) const {
    return RangeSum(group, sa_lo, sa_hi, [](int64_t count, int64_t v) {
      return count * v;
    });
  }
  int64_t GroupSaValueSquareSum(size_t group, int32_t sa_lo,
                                int32_t sa_hi) const {
    return RangeSum(group, sa_lo, sa_hi, [](int64_t count, int64_t v) {
      return count * v * v;
    });
  }

 private:
  AnatomizedTable() = default;

  // Σ weight(count, value) over `group`'s entries with value in
  // [lo, hi]. Both compares are evaluated and the term is selected, not
  // branched on: groups are visited in random order, so a branch would
  // keep mispredicting.
  template <typename Weight>
  int64_t RangeSum(size_t group, int32_t lo, int32_t hi,
                   Weight weight) const {
    int64_t sum = 0;
    for (const SaValueCount& e : GroupSaValues(group)) {
      const bool in_range = (e.value >= lo) & (e.value <= hi);
      sum += in_range ? weight(int64_t{e.count}, int64_t{e.value}) : 0;
    }
    return sum;
  }

  std::shared_ptr<const Table> source_;
  std::vector<int32_t> group_of_row_;
  std::vector<int64_t> group_sizes_;
  // Group g's entries are st_[st_offsets_[g], st_offsets_[g + 1]).
  std::vector<size_t> st_offsets_;
  std::vector<SaValueCount> st_;
};

}  // namespace betalike

#endif  // BETALIKE_BASELINE_ANATOMY_H_
