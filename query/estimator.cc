#include "query/estimator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "query/row_scan.h"

namespace betalike {
namespace {

// ---------------------------------------------------------------------------
// Box scan shared by the generalized and perturbed estimators (a
// perturbed view publishes the same EC boxes over a noisy SA column):
// flattened per-EC box summaries plus a conservative per-dimension
// overlap prune.
//
// The serving layer answers millions of point queries from one
// publication, so the per-query cost is dominated by the scan over
// equivalence classes. Two precomputed structures cut it down:
//
//   - Box summaries in one contiguous EC-major array (the per-EC
//     vectors of the publication scatter every class across the heap).
//   - Per-dimension overlap bitsets over a fixed 128-cell domain grid:
//     A[d][c] holds the classes whose box can start at or before cell
//     c's upper edge, B[d][c] those whose box can end at or after cell
//     c's lower edge. ANDing the (A, B) pair of every predicate yields
//     a *superset* of the classes overlapping all predicates, so
//     skipping the rest drops only zero-contribution classes.
//
// Surviving classes are visited in ascending class order with their
// exact box fraction, so each estimator's per-class term sees the same
// classes, fractions and addition order as a scan over every class.
// ---------------------------------------------------------------------------

constexpr int kPruneCells = 128;

class GeneralizedBoxIndex {
 public:
  explicit GeneralizedBoxIndex(const GeneralizedTable& published)
      : schema_(published.source().schema()),
        num_dims_(schema_.num_qi()),
        num_ecs_(published.num_ecs()),
        words_((num_ecs_ + 63) / 64) {
    boxes_.resize(num_ecs_ * static_cast<size_t>(num_dims_) * 2);
    sizes_.reserve(num_ecs_);
    for (size_t e = 0; e < num_ecs_; ++e) {
      const EquivalenceClass& ec = published.ec(e);
      sizes_.push_back(static_cast<double>(ec.size()));
      for (int d = 0; d < num_dims_; ++d) {
        boxes_[(e * num_dims_ + d) * 2 + 0] = ec.qi_min[d];
        boxes_[(e * num_dims_ + d) * 2 + 1] = ec.qi_max[d];
      }
    }

    // A-table then B-table per dimension, kPruneCells bitsets each.
    overlap_bits_.assign(
        static_cast<size_t>(num_dims_) * 2 * kPruneCells * words_, 0);
    for (size_t e = 0; e < num_ecs_; ++e) {
      const EquivalenceClass& ec = published.ec(e);
      const uint64_t bit = uint64_t{1} << (e % 64);
      const size_t word = e / 64;
      for (int d = 0; d < num_dims_; ++d) {
        // box_lo <= upper_edge(c) holds for every cell from the one
        // containing box_lo upward; box_hi >= lower_edge(c) for every
        // cell up to the one containing box_hi.
        for (int c = Cell(d, ec.qi_min[d]); c < kPruneCells; ++c) {
          overlap_bits_[TableOffset(d, /*b_table=*/false, c) + word] |= bit;
        }
        for (int c = Cell(d, ec.qi_max[d]); c >= 0; --c) {
          overlap_bits_[TableOffset(d, /*b_table=*/true, c) + word] |= bit;
        }
      }
    }
  }

  const TableSchema& schema() const { return schema_; }
  double size(size_t e) const { return sizes_[e]; }

  // Calls term(e, fraction) for every class e whose box overlaps every
  // QI predicate of `query`, in ascending class order, where fraction
  // = Π_d |box_d ∩ range_d| / |box_d| over the predicates in query
  // order, counting integer points (1 with no QI predicates). Classes
  // some predicate misses contribute nothing and are never visited.
  template <typename Term>
  void ForEachOverlap(const AggregateQuery& query, Term&& term) const {
    const std::vector<uint64_t>& mask = CandidateMask(query);
    for (size_t w = 0; w < words_; ++w) {
      uint64_t bits = mask[w];
      while (bits != 0) {
        const size_t e = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        // Candidates are a superset, so the lo > hi reject below still
        // filters false positives.
        double fraction = 1.0;
        bool overlap = true;
        for (const QueryPredicate& p : query.predicates) {
          const int32_t box_lo = box(e, p.dim)[0];
          const int32_t box_hi = box(e, p.dim)[1];
          const int32_t lo = std::max(box_lo, p.lo);
          const int32_t hi = std::min(box_hi, p.hi);
          if (lo > hi) {
            overlap = false;
            break;
          }
          fraction *= static_cast<double>(hi - lo + 1) /
                      static_cast<double>(box_hi - box_lo + 1);
        }
        if (overlap) term(e, fraction);
      }
    }
  }

 private:
  const int32_t* box(size_t e, int d) const {
    return &boxes_[(e * num_dims_ + d) * 2];
  }

  // A superset of the classes whose box overlaps every predicate of
  // `query` (words_ words); all-ones over the EC range for an
  // unconstrained query. Per-thread scratch: the index is shared across
  // serving threads, so the mask cannot live in the index.
  const std::vector<uint64_t>& CandidateMask(
      const AggregateQuery& query) const {
    thread_local std::vector<uint64_t> mask;
    mask.resize(words_);
    if (query.predicates.empty()) {
      // No QI predicates: every class is a candidate — whole words of
      // ones, with the tail word cut at the last class.
      std::fill(mask.begin(), mask.end(), ~uint64_t{0});
      if (num_ecs_ % 64 != 0) {
        mask.back() = (uint64_t{1} << (num_ecs_ % 64)) - 1;
      }
      return mask;
    }
    bool first = true;
    for (const QueryPredicate& p : query.predicates) {
      const uint64_t* a =
          overlap_bits_.data() + TableOffset(p.dim, false, Cell(p.dim, p.hi));
      const uint64_t* b =
          overlap_bits_.data() + TableOffset(p.dim, true, Cell(p.dim, p.lo));
      if (first) {
        for (size_t w = 0; w < words_; ++w) mask[w] = a[w] & b[w];
        first = false;
      } else {
        for (size_t w = 0; w < words_; ++w) mask[w] &= a[w] & b[w];
      }
    }
    return mask;
  }

  // Cell of `value` on dimension `d`'s grid, with out-of-domain values
  // clamped — clamping keeps the cell's edge on the conservative side
  // of the query bound, so pruned sets stay supersets.
  int Cell(int d, int64_t value) const {
    const QiSpec& spec = schema_.qi[d];
    if (value < spec.lo) value = spec.lo;
    if (value > spec.hi) value = spec.hi;
    const int64_t offset = value - spec.lo;
    return static_cast<int>(offset * kPruneCells / (spec.extent() + 1));
  }

  // First word of dimension d's A (or B) bitset for cell c.
  size_t TableOffset(int d, bool b_table, int c) const {
    return ((static_cast<size_t>(d) * 2 + (b_table ? 1 : 0)) * kPruneCells +
            c) *
           words_;
  }

  TableSchema schema_;
  int num_dims_;
  size_t num_ecs_;
  size_t words_;
  std::vector<int32_t> boxes_;   // EC-major: [e][d][lo, hi]
  std::vector<double> sizes_;
  std::vector<uint64_t> overlap_bits_;
};

// One class's (or row's) uniform-spread term: `matching` tuples (or SA
// mass) spread over the class box, of which `fraction` is covered.
// Clustered-spread variance f(1-f)·m²: a class's matching tuples sit
// in correlated clumps, not independently (Binomial f(1-f)·m covers
// only ~56% of truths at nominal 95% on CENSUS; treating each class as
// one all-or-nothing block lands 0.93–0.96 across the fig8 vary-λ
// panel).
inline void AddSpread(double fraction, double matching, double* estimate,
                      double* variance) {
  *estimate += fraction * matching;
  *variance += fraction * (1.0 - fraction) * matching * matching;
}

// static_cast<double>(count) for 0 <= count < 2^52 — every tuple count
// — in a form the slot loops vectorize: AVX2 has no packed int64 ->
// double conversion, but placing the count in the mantissa of 2^52 and
// subtracting 2^52 is exact in that range.
inline double TupleCount(int64_t count) {
  const uint64_t bits = static_cast<uint64_t>(count) | 0x4330000000000000ULL;
  double biased;
  std::memcpy(&biased, &bits, sizeof biased);
  return biased - 4503599627370496.0;
}

// GROUP-BY accumulators for the slots of SA values lo..hi, kept as
// structure of arrays: a class's loop over the slots then touches two
// independent double lanes, which the compiler can vectorize without
// reordering any one slot's additions.
struct SlotLanes {
  explicit SlotLanes(int32_t lo, int32_t hi)
      : lo(lo),
        width(hi - lo + 1),
        estimate(static_cast<size_t>(width), 0.0),
        variance(static_cast<size_t>(width), 0.0) {}

  void CopyTo(EstimateWithVariance* out) const {
    for (int32_t k = 0; k < width; ++k) out[k] = {estimate[k], variance[k]};
  }

  int32_t lo;
  int32_t width;
  std::vector<double> estimate;
  std::vector<double> variance;
};

class GeneralizedEstimator final : public Estimator {
 public:
  explicit GeneralizedEstimator(
      std::shared_ptr<const GeneralizedTable> published)
      : published_(std::move(published)),
        sa_index_(*published_),
        boxes_(*published_) {}

  std::string Name() const override { return "generalized"; }
  const TableSchema& schema() const override { return boxes_.schema(); }

  EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery& query) const override {
    EstimateWithVariance out;
    boxes_.ForEachOverlap(query, [&](size_t e, double fraction) {
      AddCountTerm(query, e, fraction, &out);
    });
    return out;
  }

  // Uniform spread of each class's exact in-range SA value sum — the
  // SUM analogue of the count path, with the clustered f(1-f)·s²
  // variance per class.
  EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const override {
    const SumRange range = SumRangeOf(query);
    EstimateWithVariance out;
    boxes_.ForEachOverlap(query, [&](size_t e, double fraction) {
      AddSumTerm(range, e, fraction, &out);
    });
    return out;
  }

  // Slot v receives each class's width-1 count term: the class's
  // tuples with SA value v, read off its prefix row.
  void EstimateGroupSlots(const AggregateQuery& query, int32_t lo, int32_t hi,
                          EstimateWithVariance* out) const override {
    SlotLanes lanes(lo, hi);
    boxes_.ForEachOverlap(query, [&](size_t e, double fraction) {
      const int64_t* counts = sa_index_.CountPrefix(e) + lanes.lo;
      for (int32_t k = 0; k < lanes.width; ++k) {
        AddSpread(fraction, TupleCount(counts[k + 1] - counts[k]),
                  &lanes.estimate[k], &lanes.variance[k]);
      }
    });
    lanes.CopyTo(out);
  }

 protected:
  void EstimateCountAndSum(const AggregateQuery& query,
                           EstimateWithVariance* count,
                           EstimateWithVariance* sum) const override {
    const SumRange range = SumRangeOf(query);
    boxes_.ForEachOverlap(query, [&](size_t e, double fraction) {
      AddCountTerm(query, e, fraction, count);
      AddSumTerm(range, e, fraction, sum);
    });
  }

 private:
  // SA range a SUM aggregates over: the query's (EcSaIndex clamps it to
  // the domain), or the whole domain.
  struct SumRange {
    int32_t lo;
    int32_t hi;
  };
  SumRange SumRangeOf(const AggregateQuery& query) const {
    if (query.has_sa_predicate()) return {query.sa_lo, query.sa_hi};
    return {0, sa_num_values() - 1};
  }

  void AddCountTerm(const AggregateQuery& query, size_t e, double fraction,
                    EstimateWithVariance* out) const {
    const double matching =
        query.has_sa_predicate()
            ? static_cast<double>(sa_index_.Count(e, query.sa_lo, query.sa_hi))
            : boxes_.size(e);
    AddSpread(fraction, matching, &out->estimate, &out->variance);
  }

  void AddSumTerm(const SumRange& range, size_t e, double fraction,
                  EstimateWithVariance* out) const {
    const double sum =
        static_cast<double>(sa_index_.ValueSum(e, range.lo, range.hi));
    AddSpread(fraction, sum, &out->estimate, &out->variance);
  }

  std::shared_ptr<const GeneralizedTable> published_;
  EcSaIndex sa_index_;
  GeneralizedBoxIndex boxes_;
};

// The generalized box scan over `perturbed.view`, with each class's SA
// counts reconstructed before they are spread: a range covering w of
// |SA| values reconstructs ĉ = (ñ - n (1 - ρ) w / |SA|) / ρ, clamped to
// [0, n].
class PerturbedEstimator final : public Estimator {
 public:
  explicit PerturbedEstimator(
      std::shared_ptr<const PerturbedPublication> publication)
      : publication_(std::move(publication)),
        retention_(publication_->retention),
        sa_index_(publication_->view),
        boxes_(publication_->view) {}

  std::string Name() const override { return "perturbed"; }
  const TableSchema& schema() const override { return boxes_.schema(); }

  EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery& query) const override {
    SaRange range;
    if (!ClampSaRange(query, &range)) return {};
    EstimateWithVariance out;
    boxes_.ForEachOverlap(query, [&](size_t e, double fraction) {
      AddCountTerm(range, e, fraction, &out);
    });
    return out;
  }

  // Each class's per-value counts are reconstructed independently (the
  // width-1 instance of the count formula, so GROUP-BY slots and this
  // sum agree on the same ĉ_v), value-weighted, then spread like the
  // count estimate.
  EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const override {
    SaRange range;
    if (!ClampSaRange(query, &range)) return {};
    EstimateWithVariance out;
    boxes_.ForEachOverlap(query, [&](size_t e, double fraction) {
      AddSumTerm(range, e, fraction, &out);
    });
    return out;
  }

  // Slot v receives each class's width-1 count term: w = 1, and the
  // class's noisy reports of value v read off its prefix row.
  void EstimateGroupSlots(const AggregateQuery& query, int32_t lo, int32_t hi,
                          EstimateWithVariance* out) const override {
    SlotLanes lanes(lo, hi);
    boxes_.ForEachOverlap(query, [&](size_t e, double fraction) {
      const double size = boxes_.size(e);
      const double expected_noise = ExpectedNoise(size, 1.0);
      const int64_t* counts = sa_index_.CountPrefix(e) + lanes.lo;
      for (int32_t k = 0; k < lanes.width; ++k) {
        AddReconstructedCount(fraction, size,
                              TupleCount(counts[k + 1] - counts[k]),
                              expected_noise, &lanes.estimate[k],
                              &lanes.variance[k]);
      }
    });
    lanes.CopyTo(out);
  }

 protected:
  void EstimateCountAndSum(const AggregateQuery& query,
                           EstimateWithVariance* count,
                           EstimateWithVariance* sum) const override {
    SaRange range;
    if (!ClampSaRange(query, &range)) return;
    boxes_.ForEachOverlap(query, [&](size_t e, double fraction) {
      AddCountTerm(range, e, fraction, count);
      AddSumTerm(range, e, fraction, sum);
    });
  }

 private:
  // A query's SA range clamped to the domain (the whole domain without
  // an SA predicate), and the width w the count formula reads.
  struct SaRange {
    bool has_predicate;
    int32_t lo;
    int32_t hi;
    double width;
  };

  // False when the query's SA range lies wholly outside the domain:
  // COUNT and SUM are then exactly {0, 0}.
  bool ClampSaRange(const AggregateQuery& query, SaRange* range) const {
    const int32_t num_values = sa_num_values();
    range->has_predicate = query.has_sa_predicate();
    range->lo = 0;
    range->hi = num_values - 1;
    range->width = 0.0;
    if (range->has_predicate) {
      range->lo = std::max(query.sa_lo, 0);
      range->hi = std::min(query.sa_hi, num_values - 1);
      if (range->lo > range->hi) return false;
      range->width = static_cast<double>(range->hi - range->lo + 1);
    }
    return true;
  }

  // Reports a class of `size` tuples is expected to place in a range of
  // `width` SA values by randomization alone.
  double ExpectedNoise(double size, double width) const {
    return size * (1.0 - retention_) * width /
           static_cast<double>(sa_num_values());
  }

  double Reconstruct(double noisy, double size, double expected_noise) const {
    return std::clamp((noisy - expected_noise) / retention_, 0.0, size);
  }

  // One class's count term from `noisy` in-range reports. The observed
  // in-range count is a sum of per-tuple Bernoulli reports; its
  // variance (estimated from the observed rate) is inflated by 1/ρ²
  // when the mechanism is inverted, and added before the clustered
  // spread term.
  void AddReconstructedCount(double fraction, double size, double noisy,
                             double expected_noise, double* estimate,
                             double* variance) const {
    const double matching = Reconstruct(noisy, size, expected_noise);
    const double rate = noisy / size;
    *variance += fraction * fraction * size * rate * (1.0 - rate) /
                 (retention_ * retention_);
    AddSpread(fraction, matching, estimate, variance);
  }

  void AddCountTerm(const SaRange& range, size_t e, double fraction,
                    EstimateWithVariance* out) const {
    const double size = boxes_.size(e);
    if (!range.has_predicate) {
      AddSpread(fraction, size, &out->estimate, &out->variance);
      return;
    }
    const int64_t* counts = sa_index_.CountPrefix(e);
    AddReconstructedCount(
        fraction, size,
        static_cast<double>(counts[range.hi + 1] - counts[range.lo]),
        ExpectedNoise(size, range.width), &out->estimate, &out->variance);
  }

  void AddSumTerm(const SaRange& range, size_t e, double fraction,
                  EstimateWithVariance* out) const {
    const double size = boxes_.size(e);
    const double expected_noise = ExpectedNoise(size, 1.0);
    const int64_t* counts = sa_index_.CountPrefix(e);
    // Per chunk of values, the per-value terms (three divisions each)
    // fill two arrays in a loop the compiler vectorizes; a serial loop
    // then adds them in ascending v — the terms and the addition order
    // of one fused loop.
    constexpr int32_t kChunk = 64;
    double sum_terms[kChunk];
    double var_terms[kChunk];
    double class_sum = 0.0;
    double recon_var = 0.0;
    for (int32_t first = range.lo; first <= range.hi; first += kChunk) {
      const int32_t width = std::min(kChunk, range.hi - first + 1);
      for (int32_t k = 0; k < width; ++k) {
        const int32_t v = first + k;
        const double value = static_cast<double>(v);
        const double noisy = TupleCount(counts[v + 1] - counts[v]);
        sum_terms[k] = Reconstruct(noisy, size, expected_noise) * value;
        const double rate = noisy / size;
        var_terms[k] = value * value * size * rate * (1.0 - rate) /
                       (retention_ * retention_);
      }
      for (int32_t k = 0; k < width; ++k) {
        class_sum += sum_terms[k];
        recon_var += var_terms[k];
      }
    }
    out->estimate += fraction * class_sum;
    out->variance += fraction * fraction * recon_var +
                     fraction * (1.0 - fraction) * class_sum * class_sum;
  }

  std::shared_ptr<const PerturbedPublication> publication_;
  double retention_;
  EcSaIndex sa_index_;
  GeneralizedBoxIndex boxes_;
};

// One matching row's share of a COUNT: under the within-group
// uniform-association model the row carries the SA range with
// probability `fraction` — Bernoulli variance per row.
inline void AddShare(double fraction, double* estimate, double* variance) {
  *estimate += fraction;
  *variance += fraction * (1.0 - fraction);
}

// Anatomy publishes exact QI values (the QIT), so rows matching the QI
// predicates are found exactly; the QI-SA linkage is broken, so each
// matching row contributes its group's SA statistics. A COUNT or SUM
// first derives those statistics for every group in one sequential
// pass over the sparse ST, into per-thread scratch that is reused from
// query to query, and each matching row then reads its group's entry.
class AnatomizedEstimator final : public Estimator {
 public:
  explicit AnatomizedEstimator(std::shared_ptr<const AnatomizedTable> view)
      : view_(std::move(view)) {}

  std::string Name() const override { return "anatomized"; }
  const TableSchema& schema() const override {
    return view_->source().schema();
  }

  // Each matching row contributes its group's matching-SA fraction (1
  // without an SA predicate, which makes the estimate exact).
  EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery& query) const override {
    Scratch& scratch = ThreadScratch();
    const double* shares = CountShares(query, &scratch);
    EstimateWithVariance out;
    ForEachMatchingQitRow(query, [&](int64_t row) {
      AddCountRow(shares, row, &out);
    });
    return out;
  }

  // A matching row's SA value is unknown, so it contributes the group's
  // mean masked value E[v·1{v in range}] — which sums to the exact
  // group total when a whole group matches — with per-row variance
  // E[v²·1] - E[v·1]² from the same histogram moments.
  EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const override {
    Scratch& scratch = ThreadScratch();
    SumMoments(query, &scratch);
    EstimateWithVariance out;
    ForEachMatchingQitRow(query, [&](int64_t row) {
      AddSumRow(scratch, row, &out);
    });
    return out;
  }

  // Each matching row adds its group's fraction count_v / size to slot
  // v for every value v the group holds in lo..hi. A value the group
  // lacks would add exactly +0.0 to both lanes, which leaves them
  // unchanged (they start at +0.0 and every term is >= 0), so the ST's
  // missing entries cost nothing.
  void EstimateGroupSlots(const AggregateQuery& query, int32_t lo, int32_t hi,
                          EstimateWithVariance* out) const override {
    SlotLanes lanes(lo, hi);
    ForEachMatchingQitRow(query, [&](int64_t row) {
      const int32_t g = view_->group_of_row(row);
      const int64_t size = view_->group_size(g);
      for (const SaValueCount& e : view_->GroupSaValues(g)) {
        if (e.value < lo || e.value > hi) continue;
        const size_t k = static_cast<size_t>(e.value - lo);
        AddShare(Share(e.count, size), &lanes.estimate[k], &lanes.variance[k]);
      }
    });
    lanes.CopyTo(out);
  }

 protected:
  void EstimateCountAndSum(const AggregateQuery& query,
                           EstimateWithVariance* count,
                           EstimateWithVariance* sum) const override {
    Scratch& scratch = ThreadScratch();
    const double* shares = CountShares(query, &scratch);
    SumMoments(query, &scratch);
    ForEachMatchingQitRow(query, [&](int64_t row) {
      AddCountRow(shares, row, count);
      AddSumRow(scratch, row, sum);
    });
  }

 private:
  // Per-group statistics of one query. The estimator is shared across
  // serving threads, so they live in per-thread scratch, which only
  // grows: a thread allocates once for the largest publication it
  // serves.
  struct Scratch {
    std::vector<double> share;     // matching-SA fraction (COUNT)
    std::vector<double> mean;      // mean masked value (SUM)
    std::vector<double> variance;  // per-row variance (SUM)
  };

  Scratch& ThreadScratch() const {
    thread_local Scratch scratch;
    const size_t groups = view_->num_groups();
    if (scratch.share.size() < groups) {
      scratch.share.resize(groups);
      scratch.mean.resize(groups);
      scratch.variance.resize(groups);
    }
    return scratch;
  }

  // The QIT rows inside `query`'s QI predicates; the SA range is the
  // ST's business.
  template <typename Term>
  void ForEachMatchingQitRow(const AggregateQuery& query, Term&& term) const {
    ForEachMatchingRow(view_->source(), query, /*match_sa=*/false,
                       std::forward<Term>(term));
  }

  static double Share(int64_t matching, int64_t size) {
    return static_cast<double>(matching) / static_cast<double>(size);
  }

  // Fills scratch->share with each group's matching-SA fraction for
  // `query`'s SA range and returns it; nullptr without an SA predicate,
  // where every matching row counts exactly 1.
  const double* CountShares(const AggregateQuery& query,
                            Scratch* scratch) const {
    if (!query.has_sa_predicate()) return nullptr;
    for (size_t g = 0; g < view_->num_groups(); ++g) {
      scratch->share[g] =
          Share(view_->GroupSaCount(g, query.sa_lo, query.sa_hi),
                view_->group_size(g));
    }
    return scratch->share.data();
  }

  void AddCountRow(const double* shares, int64_t row,
                   EstimateWithVariance* out) const {
    if (shares == nullptr) {
      out->estimate += 1.0;
      return;
    }
    AddShare(shares[view_->group_of_row(row)], &out->estimate,
             &out->variance);
  }

  // Fills scratch->mean and scratch->variance over the query's SA range
  // (the ST entries all lie in the domain, which clamps it), or the
  // whole domain without an SA predicate.
  void SumMoments(const AggregateQuery& query, Scratch* scratch) const {
    int32_t lo = 0;
    int32_t hi = sa_num_values() - 1;
    if (query.has_sa_predicate()) {
      lo = query.sa_lo;
      hi = query.sa_hi;
    }
    for (size_t g = 0; g < view_->num_groups(); ++g) {
      const double inv = 1.0 / static_cast<double>(view_->group_size(g));
      const double mean =
          static_cast<double>(view_->GroupSaValueSum(g, lo, hi)) * inv;
      const double second =
          static_cast<double>(view_->GroupSaValueSquareSum(g, lo, hi)) * inv;
      scratch->mean[g] = mean;
      // Non-negative mathematically; the max guards FP rounding only.
      scratch->variance[g] = std::max(0.0, second - mean * mean);
    }
  }

  void AddSumRow(const Scratch& scratch, int64_t row,
                 EstimateWithVariance* out) const {
    const int32_t g = view_->group_of_row(row);
    out->estimate += scratch.mean[g];
    out->variance += scratch.variance[g];
  }

  std::shared_ptr<const AnatomizedTable> view_;
};

}  // namespace

EstimateWithVariance Estimator::EstimateAvgWithUncertainty(
    const AggregateQuery& query) const {
  EstimateWithVariance count;
  EstimateWithVariance sum;
  EstimateCountAndSum(query, &count, &sum);
  if (count.estimate <= 0.0) return {};  // empty selection: AVG is 0
  EstimateWithVariance out;
  out.estimate = sum.estimate / count.estimate;
  // Delta method for the ratio S/C, with the (positive) S-C covariance
  // term dropped — conservative.
  out.variance =
      (sum.variance + out.estimate * out.estimate * count.variance) /
      (count.estimate * count.estimate);
  return out;
}

std::vector<EstimateWithVariance> Estimator::EstimateGroupByWithUncertainty(
    const AggregateQuery& query) const {
  const int32_t num_values = sa_num_values();
  std::vector<EstimateWithVariance> out(static_cast<size_t>(num_values));
  int32_t lo = 0;
  int32_t hi = num_values - 1;
  if (query.has_sa_predicate()) {
    lo = std::max(query.sa_lo, 0);
    hi = std::min(query.sa_hi, num_values - 1);
  }
  if (lo <= hi) EstimateGroupSlots(query, lo, hi, out.data() + lo);
  return out;
}

Result<std::unique_ptr<Estimator>> MakeEstimator(const PublishedView& view) {
  switch (view.kind()) {
    case PublishedView::Kind::kGeneralized:
      if (view.generalized().num_ecs() == 0) {
        return Status::FailedPrecondition(
            "generalized publication has no equivalence classes");
      }
      return std::unique_ptr<Estimator>(
          new GeneralizedEstimator(view.shared_generalized()));
    case PublishedView::Kind::kAnatomized:
      if (view.anatomized().num_groups() == 0) {
        return Status::FailedPrecondition(
            "anatomized publication has no groups");
      }
      return std::unique_ptr<Estimator>(
          new AnatomizedEstimator(view.shared_anatomized()));
    case PublishedView::Kind::kPerturbed: {
      const double retention = view.perturbed().retention;
      if (!(retention > 0.0 && retention <= 1.0)) {
        return Status::InvalidArgument(
            "perturbed publication retention outside (0, 1]");
      }
      if (view.perturbed().view.num_ecs() == 0) {
        return Status::FailedPrecondition(
            "perturbed publication has no equivalence classes");
      }
      return std::unique_ptr<Estimator>(
          new PerturbedEstimator(view.shared_perturbed()));
    }
  }
  return Status::Internal("unreachable PublishedView kind");
}

WorkloadError EvaluateWorkloadWithTruth(
    const std::vector<int64_t>& truth,
    const std::vector<AggregateQuery>& workload, const Estimator& estimator) {
  BETALIKE_CHECK(truth.size() == workload.size())
      << "truth has " << truth.size() << " counts for a workload of "
      << workload.size() << " queries";
  WorkloadError out;
  out.num_queries = static_cast<int>(workload.size());
  if (workload.empty()) return out;

  std::vector<double> errors;
  errors.reserve(workload.size());
  double sum = 0.0;
  for (size_t i = 0; i < workload.size(); ++i) {
    const double actual = static_cast<double>(truth[i]);
    const double estimate = estimator.Estimate(workload[i]);
    const double error =
        100.0 * std::fabs(estimate - actual) / std::max(actual, 1.0);
    errors.push_back(error);
    sum += error;
  }
  out.mean_relative_error = sum / static_cast<double>(errors.size());

  const size_t mid = errors.size() / 2;
  std::nth_element(errors.begin(), errors.begin() + mid, errors.end());
  double median = errors[mid];
  if (errors.size() % 2 == 0) {
    // Lower middle: the largest element left of the nth_element pivot.
    median = 0.5 * (median +
                    *std::max_element(errors.begin(), errors.begin() + mid));
  }
  out.median_relative_error = median;
  return out;
}

}  // namespace betalike
