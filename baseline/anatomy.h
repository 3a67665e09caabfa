// Anatomy (Xiao & Tao, VLDB 2006) — the l-diversity bucketization
// baseline of the paper's Figure 9. Anatomy does not generalize:
// tuples are partitioned into groups of >= l distinct SA values (each
// value at most once per group), and the publication is two separate
// tables — a quasi-identifier table QIT (every tuple's exact QI values
// plus its group id) and a sensitive table ST (per-group SA histogram).
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
#include <utility>
#include <vector>

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

// The separate-table publication built from any group partition: QIT
// (exact QI values + group id per row, via source() and group_of_row)
// and ST (per-group SA histograms — a data/EcSaIndex over the groups,
// giving O(1) range counts). This is the view the Figure 9 estimator
// answers from.
class AnatomizedTable {
 public:
  static AnatomizedTable FromGrouping(const GeneralizedTable& grouped);

  const Table& source() const { return *source_; }
  int64_t num_rows() const { return source_->num_rows(); }
  size_t num_groups() const { return group_sizes_.size(); }
  int32_t group_of_row(int64_t row) const { return group_of_row_[row]; }
  int64_t group_size(size_t group) const { return group_sizes_[group]; }

  // Tuples of `group` whose SA value lies in [sa_lo, sa_hi]
  // (inclusive; the range is clamped to the SA domain).
  int64_t GroupSaCount(size_t group, int32_t sa_lo, int32_t sa_hi) const {
    return st_.Count(group, sa_lo, sa_hi);
  }

  // Σ v (resp. Σ v²) over the tuples of `group` with SA value v in
  // [sa_lo, sa_hi] — the ST histogram moments the SUM/AVG estimators
  // spread across a group's rows.
  int64_t GroupSaValueSum(size_t group, int32_t sa_lo, int32_t sa_hi) const {
    return st_.ValueSum(group, sa_lo, sa_hi);
  }
  int64_t GroupSaValueSquareSum(size_t group, int32_t sa_lo,
                                int32_t sa_hi) const {
    return st_.ValueSquareSum(group, sa_lo, sa_hi);
  }

  // `group`'s ST count prefix row (EcSaIndex::CountPrefix): value v
  // alone counts row[v + 1] - row[v].
  const int64_t* GroupSaCountPrefix(size_t group) const {
    return st_.CountPrefix(group);
  }

 private:
  explicit AnatomizedTable(EcSaIndex st) : st_(std::move(st)) {}

  std::shared_ptr<const Table> source_;
  std::vector<int32_t> group_of_row_;
  std::vector<int64_t> group_sizes_;
  EcSaIndex st_;
};

}  // namespace betalike

#endif  // BETALIKE_BASELINE_ANATOMY_H_
