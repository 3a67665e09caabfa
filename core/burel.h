// BUREL — the paper's BUcketization-REdistribution aLgorithm for
// publishing microdata under β-likeness (Cao & Karras, PVLDB 2012).
//
// A published table satisfies enhanced β-likeness iff in every
// equivalence class, each SA value v with overall frequency p_v occurs
// with frequency q_v <= p_v * (1 + min(beta, ln(1/p_v))); the basic
// model uses q_v <= p_v * (1 + beta).
//
// The pipeline:
//   1. Bucketization (core/bucket_partition): SA values greedily packed
//      into the minimum number of buckets under their thresholds — the
//      feasibility precondition for redistribution.
//   2. Formation: tuples ordered along a Hilbert curve over the QI
//      space (hilbert/) are split by hybrid bisection — curve cuts at
//      any feasible position plus Mondrian-style axis-median cuts,
//      chosen by box loss. Curve locality keeps the classes' QI
//      bounding boxes tight, which is what gives BUREL its
//      information-loss edge over space-partitioning schemes.
// The paper's ECTree formation and Hilbert-curve retrieval variants are
// follow-up work; bench_ablation_design_choices ablates only the knobs
// BurelOptions carries (model strength, serial vs parallel formation,
// thread count).
#ifndef BETALIKE_CORE_BUREL_H_
#define BETALIKE_CORE_BUREL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/bucket_partition.h"
#include "data/table.h"

namespace betalike {

// Component wall-clock breakdown of one AnonymizeWithBurel call, for
// the micro bench (bench_micro_components) and perf regression tests.
// When the run is parallel (threads > 1), the per-section seconds are
// summed across workers — CPU seconds, not wall-clock; form_seconds is
// the wall-clock of the whole bisection step.
struct BurelProfile {
  double encode_seconds = 0.0;     // bulk Hilbert key computation
  double sort_seconds = 0.0;       // radix sort of the keys
  double gather_seconds = 0.0;     // SoA copies of the QI/SA columns
  double bucketize_seconds = 0.0;  // SA-value bucketization
  double sweep_seconds = 0.0;      // prefix/suffix feasibility sweeps
  double axis_seconds = 0.0;       // axis-median cut evaluation
  double partition_seconds = 0.0;  // applying the winning axis cuts
  double form_seconds = 0.0;       // wall-clock of the full bisection
  int64_t nodes = 0;               // bisection nodes visited
  int64_t leaves = 0;              // equivalence classes emitted
  int threads = 1;                 // formation workers used
  int64_t parallel_tasks = 0;      // subtree tasks handed to the pool
};

// Anonymizes `table` so that the result satisfies β-likeness under
// `options`. Fails on invalid options or an empty table.
Result<GeneralizedTable> AnonymizeWithBurel(
    std::shared_ptr<const Table> table, const BurelOptions& options);

// As above; when `profile` is non-null it is overwritten with the
// component timing breakdown of this call.
Result<GeneralizedTable> AnonymizeWithBurel(
    std::shared_ptr<const Table> table, const BurelOptions& options,
    BurelProfile* profile);

}  // namespace betalike

#endif  // BETALIKE_CORE_BUREL_H_
