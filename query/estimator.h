// Aggregate estimation from anonymized publications (§6.2–6.3): the
// data recipient answers COUNT(*), SUM(SA), AVG(SA) and GROUP-BY-SA
// COUNT queries from what each scheme publishes instead of the raw
// microdata.
//
//   - Generalized tables (BUREL, Mondrian, SABRE): each equivalence
//     class answers with its matching-SA tuple count times the
//     fraction of its QI box the query covers — the standard
//     uniform-spread assumption (Figure 8's estimator, now SA-aware).
//   - Anatomy: exact QI values, group-level SA histograms — matching
//     rows contribute their group's matching-SA fraction (Figure 9).
//   - Perturbed publications: the same EC boxes as generalization,
//     with each class's randomized response inverted in expectation
//     before it is spread (Figure 9).
//
// All three shapes are served through one polymorphic interface:
// MakeEstimator(PublishedView) resolves the shape the way
// MakeAnonymizer resolves a scheme name, and the returned Estimator is
// immutable after construction — its per-publication index is
// precomputed once, so one instance can answer queries from many
// threads concurrently (the serve/ layer relies on this). Generalized
// and perturbed views share one pruned box scan over the equivalence
// classes; Anatomy answers with one scan over the exact QIT rows
// (query/row_scan.h), after one pass over its sparse ST for the
// per-group statistics.
// Every aggregate takes one such scan: AVG accumulates COUNT and SUM
// side by side, and GROUP-BY fills all of its slots from each visited
// class (or row).
//
// Workload-level accuracy is aggregated as median relative error, the
// paper's Figures 8/9 metric.
#ifndef BETALIKE_QUERY_ESTIMATOR_H_
#define BETALIKE_QUERY_ESTIMATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/table.h"
#include "query/published_view.h"
#include "query/workload.h"

namespace betalike {

// A point estimate plus the variance the estimator's own model assigns
// to it. Box-spread terms use a clustered design effect — per class,
// f(1-f)·m² rather than the independent-tuple binomial f(1-f)·m —
// because real tuples land in a class's box in correlated clumps, not
// independently; perturbed shapes add randomized-response
// reconstruction noise. The serving layer turns the variance into a
// confidence interval.
struct EstimateWithVariance {
  double estimate = 0.0;
  double variance = 0.0;
};

// Interface every publication shape's estimator implements.
// Implementations are immutable after construction and safe to share
// across threads. Every method expects a query that passes
// ValidateQuery against schema(); the serving layer checks that before
// it calls in.
class Estimator {
 public:
  virtual ~Estimator() = default;

  // Stable display name ("generalized", "anatomized", "perturbed").
  virtual std::string Name() const = 0;

  // Schema of the source microdata the publication was built from.
  virtual const TableSchema& schema() const = 0;

  // SA domain size of the wrapped publication; GROUP-BY answers carry
  // one slot per value code 0..sa_num_values()-1.
  int32_t sa_num_values() const { return schema().sa.num_values; }

  // COUNT(*) estimate of `query` over the wrapped publication.
  double Estimate(const AggregateQuery& query) const {
    return EstimateWithUncertainty(query).estimate;
  }

  // As Estimate(), plus the model variance of the answer. The estimate
  // accumulates independently of the variance, so it is the same value
  // bit for bit whether or not a caller reads the variance.
  virtual EstimateWithVariance EstimateWithUncertainty(
      const AggregateQuery& query) const = 0;

  // SUM(SA) estimate of `query`: Σ sa over the rows matching every
  // predicate. Shapes answer with the same structure as their COUNT
  // path — uniform spread weights each class's in-range SA value sum
  // (generalized), QIT-matching rows contribute their group's mean
  // masked value (Anatomy), perturbed views reconstruct per-value
  // counts before weighting. Variance uses the same clustered design
  // effect, with f(1-f)·s² per class.
  virtual EstimateWithVariance EstimateSumWithUncertainty(
      const AggregateQuery& query) const = 0;

  // AVG(SA) = SUM/COUNT of the two estimates above, with the
  // delta-method variance (varS + avg²·varC) / C² (the S-C covariance
  // term is dropped — conservative for positively correlated numerator
  // and denominator). An empty selection (count <= 0) answers {0, 0}.
  // COUNT and SUM come from one scan (EstimateCountAndSum), each
  // bitwise equal to its standalone method; the ratio is taken here,
  // so every shape's AVG is its SUM over its COUNT by construction.
  EstimateWithVariance EstimateAvgWithUncertainty(
      const AggregateQuery& query) const;

  // GROUP-BY-SA COUNT: one slot per SA value code, all filled by one
  // EstimateGroupSlots scan over the query's clamped SA range (the
  // whole domain without an SA predicate). Values outside that range
  // are {0, 0}, matching the PreciseGroupCounts convention.
  std::vector<EstimateWithVariance> EstimateGroupByWithUncertainty(
      const AggregateQuery& query) const;

  // The GROUP-BY kernel: writes the slots of SA values lo..hi to
  // out[0..hi-lo] in one scan of the publication. Slot v is bitwise
  // the COUNT of `query` with its SA range replaced by [v, v] — the
  // slot accumulates the same per-class (per-row) terms, in the same
  // order, as that width-1 query would — so the query's own SA range
  // plays no further part. Requires 0 <= lo <= hi < sa_num_values().
  // The serving layer answers each run of GROUP-BY requests with one
  // call.
  virtual void EstimateGroupSlots(const AggregateQuery& query, int32_t lo,
                                  int32_t hi,
                                  EstimateWithVariance* out) const = 0;

 protected:
  // Adds `query`'s COUNT and SUM to *count and *sum (both {0, 0} on
  // entry) in one scan; each accumulates the same terms in the same
  // order as EstimateWithUncertainty / EstimateSumWithUncertainty.
  virtual void EstimateCountAndSum(const AggregateQuery& query,
                                   EstimateWithVariance* count,
                                   EstimateWithVariance* sum) const = 0;
};

// Builds the estimator matching `view`'s shape, precomputing its
// per-publication index once. The estimator shares ownership of the
// underlying publication, so the view may be discarded. Fails on a
// degenerate publication (no equivalence classes / groups, or a
// perturbed view whose retention lies outside (0, 1]).
Result<std::unique_ptr<Estimator>> MakeEstimator(const PublishedView& view);

// Accuracy aggregate of one (publication, workload) evaluation. Errors
// are percentages: 100 * |estimate - truth| / max(truth, 1), with the
// max(·, 1) floor keeping empty-result queries finite.
struct WorkloadError {
  double median_relative_error = 0.0;
  double mean_relative_error = 0.0;
  int num_queries = 0;
};

// Evaluates `estimator`'s COUNT estimate of every workload query
// against the precomputed `truth` counts (from PreciseCounts on the
// raw table); the fig8/fig9 benches evaluate every publication shape
// through it. The median of an even-sized workload is the mean of the
// two middle errors. CHECK-fails if `truth` and `workload` sizes
// differ.
WorkloadError EvaluateWorkloadWithTruth(
    const std::vector<int64_t>& truth,
    const std::vector<AggregateQuery>& workload, const Estimator& estimator);

}  // namespace betalike

#endif  // BETALIKE_QUERY_ESTIMATOR_H_
