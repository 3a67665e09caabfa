// Unpruned reference scans for the query/ estimators: every equivalence
// class (or QIT row) visited in ascending order, each class's box
// fraction taken straight from its qi_min/qi_max, and every SA
// statistic recounted from the source rows — no EcSaIndex, no box
// index, no candidate prune, no Anatomy group histogram. Each scan
// applies the per-class (per-row) expressions of the estimator it
// mirrors in the same order, so MakeEstimator's estimators must match
// it bit for bit on estimate *and* variance: the tests compare with
// EXPECT_EQ, and anything the prune or an index changes shows up as a
// differing double. GROUP-BY and AVG are built from the COUNT and SUM
// scans the way their definitions read — one width-1 COUNT per slot,
// and the ratio of SUM to COUNT — independently of the single-scan
// kernels the estimators answer them with.
#ifndef BETALIKE_TESTS_ESTIMATOR_ORACLE_H_
#define BETALIKE_TESTS_ESTIMATOR_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "baseline/anatomy.h"
#include "data/table.h"
#include "perturb/perturbation.h"
#include "query/estimator.h"
#include "query/workload.h"

namespace betalike {
namespace oracle {

// Fraction of `ec`'s box the query's QI predicates cover under uniform
// spread, counting integer points; 0 when any predicate misses the box.
inline double BoxFraction(const EquivalenceClass& ec,
                          const AggregateQuery& query) {
  double fraction = 1.0;
  for (const QueryPredicate& p : query.predicates) {
    const int32_t box_lo = ec.qi_min[p.dim];
    const int32_t box_hi = ec.qi_max[p.dim];
    const int32_t lo = std::max(box_lo, p.lo);
    const int32_t hi = std::min(box_hi, p.hi);
    if (lo > hi) return 0.0;
    fraction *= static_cast<double>(hi - lo + 1) /
                static_cast<double>(box_hi - box_lo + 1);
  }
  return fraction;
}

// Tuples whose SA value lies in [lo, hi], with Σ v and Σ v² over them.
struct SaRecount {
  int64_t count = 0;
  int64_t value_sum = 0;
  int64_t square_sum = 0;

  void Add(int64_t v) {
    ++count;
    value_sum += v;
    square_sum += v * v;
  }
};

inline SaRecount RecountSa(const Table& source, const EquivalenceClass& ec,
                           int32_t lo, int32_t hi) {
  SaRecount out;
  for (int64_t row : ec.rows) {
    const int32_t v = source.sa_value(row);
    if (v >= lo && v <= hi) out.Add(v);
  }
  return out;
}

// SA range a SUM aggregates over: the query's, or the whole domain.
inline void SumRange(const Table& source, const AggregateQuery& query,
                     int32_t* lo, int32_t* hi) {
  *lo = 0;
  *hi = source.sa_spec().num_values - 1;
  if (query.has_sa_predicate()) {
    *lo = query.sa_lo;
    *hi = query.sa_hi;
  }
}

inline EstimateWithVariance GeneralizedCount(const GeneralizedTable& published,
                                             const AggregateQuery& query) {
  EstimateWithVariance out;
  for (const EquivalenceClass& ec : published.ecs()) {
    const double fraction = BoxFraction(ec, query);
    if (fraction == 0.0) continue;
    double matching = static_cast<double>(ec.size());
    if (query.has_sa_predicate()) {
      matching = static_cast<double>(
          RecountSa(published.source(), ec, query.sa_lo, query.sa_hi).count);
    }
    out.estimate += fraction * matching;
    out.variance += fraction * (1.0 - fraction) * matching * matching;
  }
  return out;
}

inline EstimateWithVariance GeneralizedSum(const GeneralizedTable& published,
                                           const AggregateQuery& query) {
  int32_t lo = 0;
  int32_t hi = 0;
  SumRange(published.source(), query, &lo, &hi);
  EstimateWithVariance out;
  for (const EquivalenceClass& ec : published.ecs()) {
    const double fraction = BoxFraction(ec, query);
    if (fraction == 0.0) continue;
    const double sum = static_cast<double>(
        RecountSa(published.source(), ec, lo, hi).value_sum);
    out.estimate += fraction * sum;
    out.variance += fraction * (1.0 - fraction) * sum * sum;
  }
  return out;
}

inline EstimateWithVariance PerturbedCount(
    const PerturbedPublication& perturbed, const AggregateQuery& query) {
  const GeneralizedTable& published = perturbed.view;
  const double retention = perturbed.retention;
  const int32_t num_values = published.source().sa_spec().num_values;
  double width = 0.0;
  if (query.has_sa_predicate()) {
    const int32_t lo = std::max(query.sa_lo, 0);
    const int32_t hi = std::min(query.sa_hi, num_values - 1);
    if (lo > hi) return {};
    width = static_cast<double>(hi - lo + 1);
  }
  EstimateWithVariance out;
  for (const EquivalenceClass& ec : published.ecs()) {
    const double fraction = BoxFraction(ec, query);
    if (fraction == 0.0) continue;
    const double size = static_cast<double>(ec.size());
    double matching = size;
    if (query.has_sa_predicate()) {
      const double noisy = static_cast<double>(
          RecountSa(published.source(), ec, query.sa_lo, query.sa_hi).count);
      const double expected_noise = size * (1.0 - retention) * width /
                                    static_cast<double>(num_values);
      matching = std::clamp((noisy - expected_noise) / retention, 0.0, size);
      const double rate = noisy / size;
      out.variance += fraction * fraction * size * rate * (1.0 - rate) /
                      (retention * retention);
    }
    out.estimate += fraction * matching;
    out.variance += fraction * (1.0 - fraction) * matching * matching;
  }
  return out;
}

inline EstimateWithVariance PerturbedSum(const PerturbedPublication& perturbed,
                                         const AggregateQuery& query) {
  const GeneralizedTable& published = perturbed.view;
  const double retention = perturbed.retention;
  const int32_t num_values = published.source().sa_spec().num_values;
  int32_t lo = 0;
  int32_t hi = num_values - 1;
  if (query.has_sa_predicate()) {
    lo = std::max(query.sa_lo, 0);
    hi = std::min(query.sa_hi, num_values - 1);
    if (lo > hi) return {};
  }
  EstimateWithVariance out;
  for (const EquivalenceClass& ec : published.ecs()) {
    const double fraction = BoxFraction(ec, query);
    if (fraction == 0.0) continue;
    const double size = static_cast<double>(ec.size());
    double class_sum = 0.0;
    double recon_var = 0.0;
    for (int32_t v = lo; v <= hi; ++v) {
      const double noisy =
          static_cast<double>(RecountSa(published.source(), ec, v, v).count);
      const double expected_noise =
          size * (1.0 - retention) / static_cast<double>(num_values);
      const double reconstructed =
          std::clamp((noisy - expected_noise) / retention, 0.0, size);
      class_sum += reconstructed * static_cast<double>(v);
      const double rate = noisy / size;
      recon_var += static_cast<double>(v) * static_cast<double>(v) * size *
                   rate * (1.0 - rate) / (retention * retention);
    }
    out.estimate += fraction * class_sum;
    out.variance += fraction * fraction * recon_var +
                    fraction * (1.0 - fraction) * class_sum * class_sum;
  }
  return out;
}

// True iff `row` of `source` lies inside every QI predicate (the SA
// predicate is ignored: Anatomy's QIT carries no SA).
inline bool QiMatches(const Table& source, const AggregateQuery& query,
                      int64_t row) {
  for (const QueryPredicate& p : query.predicates) {
    const int32_t v = source.qi_value(row, p.dim);
    if (v < p.lo || v > p.hi) return false;
  }
  return true;
}

// Per-group SA recount of an Anatomy view over [lo, hi].
inline std::vector<SaRecount> RecountGroups(const AnatomizedTable& view,
                                            int32_t lo, int32_t hi) {
  std::vector<SaRecount> groups(view.num_groups());
  const Table& source = view.source();
  for (int64_t row = 0; row < source.num_rows(); ++row) {
    const int32_t v = source.sa_value(row);
    if (v >= lo && v <= hi) groups[view.group_of_row(row)].Add(v);
  }
  return groups;
}

inline EstimateWithVariance AnatomizedCount(const AnatomizedTable& view,
                                            const AggregateQuery& query) {
  const Table& source = view.source();
  const std::vector<SaRecount> groups =
      RecountGroups(view, query.sa_lo, query.sa_hi);
  EstimateWithVariance out;
  for (int64_t row = 0; row < source.num_rows(); ++row) {
    if (!QiMatches(source, query, row)) continue;
    if (!query.has_sa_predicate()) {
      out.estimate += 1.0;
      continue;
    }
    const int32_t g = view.group_of_row(row);
    const double fraction = static_cast<double>(groups[g].count) /
                            static_cast<double>(view.group_size(g));
    out.estimate += fraction;
    out.variance += fraction * (1.0 - fraction);
  }
  return out;
}

inline EstimateWithVariance AnatomizedSum(const AnatomizedTable& view,
                                          const AggregateQuery& query) {
  const Table& source = view.source();
  int32_t lo = 0;
  int32_t hi = 0;
  SumRange(source, query, &lo, &hi);
  const std::vector<SaRecount> groups = RecountGroups(view, lo, hi);
  EstimateWithVariance out;
  for (int64_t row = 0; row < source.num_rows(); ++row) {
    if (!QiMatches(source, query, row)) continue;
    const int32_t g = view.group_of_row(row);
    const double inv = 1.0 / static_cast<double>(view.group_size(g));
    const double mean = static_cast<double>(groups[g].value_sum) * inv;
    const double second = static_cast<double>(groups[g].square_sum) * inv;
    out.estimate += mean;
    out.variance += std::max(0.0, second - mean * mean);
  }
  return out;
}

// GROUP-BY reference: the width-1 COUNT loop. Slot v of the query's
// clamped SA range (the whole domain without an SA predicate) is
// count(the query with its SA range replaced by [v, v]); every other
// slot is {0, 0}. `count` is one of the COUNT scans above.
template <typename Count>
std::vector<EstimateWithVariance> GroupBy(int32_t num_values,
                                          const AggregateQuery& query,
                                          Count&& count) {
  std::vector<EstimateWithVariance> out(static_cast<size_t>(num_values));
  int32_t lo = 0;
  int32_t hi = num_values - 1;
  if (query.has_sa_predicate()) {
    lo = std::max(query.sa_lo, 0);
    hi = std::min(query.sa_hi, num_values - 1);
  }
  AggregateQuery point = query;
  for (int32_t v = lo; v <= hi; ++v) {
    point.sa_lo = v;
    point.sa_hi = v;
    out[static_cast<size_t>(v)] = count(point);
  }
  return out;
}

// AVG reference: SUM over COUNT with the delta-method variance
// (varS + avg²·varC) / C², and {0, 0} for an empty selection.
inline EstimateWithVariance Avg(const EstimateWithVariance& count,
                                const EstimateWithVariance& sum) {
  if (count.estimate <= 0.0) return {};
  EstimateWithVariance out;
  out.estimate = sum.estimate / count.estimate;
  out.variance =
      (sum.variance + out.estimate * out.estimate * count.variance) /
      (count.estimate * count.estimate);
  return out;
}

}  // namespace oracle
}  // namespace betalike

#endif  // BETALIKE_TESTS_ESTIMATOR_ORACLE_H_
