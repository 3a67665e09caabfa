// Micro-benchmarks for the component costs behind BUREL's end-to-end
// wall-clock (the CMakeLists TODO's bench_micro_components): bulk
// Hilbert encoding vs the row-wise reference, radix vs comparison key
// sort, SA bucketization, the formation's sweep/axis/partition sections
// (via BurelProfile), and end-to-end anonymization against the
// LMondrian baseline the paper compares times with.
//
// Emits BENCH_micro.json (path override: BENCH_MICRO_JSON) so the perf
// trajectory is machine-readable across PRs. Knobs:
//   BENCH_MICRO_ROWS         table size (default: bench::DefaultRows())
//   BENCH_MICRO_MAX_SECONDS  generous ceiling on BUREL's end-to-end
//                            best time; exceeding it fails the run
//                            (used by the `perf` ctest; 0 = disabled)
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>
#include <vector>

#include "baseline/anatomy.h"
#include "baseline/mondrian.h"
#include "bench_util.h"
#include "common/timer.h"
#include "core/burel.h"
#include "hilbert/hilbert.h"
#include "metrics/info_loss.h"
#include "micro_bench.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "query/workload.h"

namespace betalike {
namespace {

// Strict like bench::ReproScale(): malformed values are rejected with
// an error log instead of silently running a meaningless size.
int64_t MicroRows() {
  const char* env = std::getenv("BENCH_MICRO_ROWS");
  if (env == nullptr || *env == '\0') return bench::DefaultRows();
  char* end = nullptr;
  errno = 0;
  const long long rows = std::strtoll(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || rows < 1) {
    BETALIKE_LOG(ERROR) << "BENCH_MICRO_ROWS=\"" << env
                        << "\" is not a positive integer; using default";
    return bench::DefaultRows();
  }
  return static_cast<int64_t>(rows);
}

// 0 disables the ceiling; a malformed value must NOT silently disable
// it (the perf ctest depends on it), so the run fails instead.
Result<double> MaxSecondsCeiling() {
  const char* env = std::getenv("BENCH_MICRO_MAX_SECONDS");
  if (env == nullptr || *env == '\0') return 0.0;
  char* end = nullptr;
  errno = 0;
  const double ceiling = std::strtod(env, &end);
  if (errno != 0 || end == env || *end != '\0' || ceiling < 0.0) {
    return Status::InvalidArgument(
        StrFormat("BENCH_MICRO_MAX_SECONDS=\"%s\" is not a non-negative "
                  "number",
                  env));
  }
  return ceiling;
}

int Run() {
  // Parse the ceiling up front: a malformed value must fail before the
  // expensive benchmark runs, not after.
  const Result<double> ceiling = MaxSecondsCeiling();
  if (!ceiling.ok()) {
    BETALIKE_LOG(ERROR) << ceiling.status().ToString();
    return 1;
  }
  const int64_t rows = MicroRows();
  bench::PrintHeader(
      "Micro: component costs of BUREL formation",
      "bulk encode beats row-wise; radix sort beats std::sort; "
      "BUREL end-to-end within ~1.5x of LMondrian (paper: fastest)",
      rows);
  auto table = bench::MakeCensus(rows, /*qi_prefix=*/3);
  BurelOptions opts;
  opts.beta = 4.0;

  bench::MicroHarness harness;

  // Encoder: bulk column-major pass vs the per-row reference.
  std::vector<uint64_t> keys;
  harness.Run("hilbert_encode_bulk", rows,
              [&] { keys = ComputeHilbertKeys(*table); });
  harness.Run("hilbert_encode_rowwise", rows, [&] {
    uint64_t sink = 0;
    for (int64_t i = 0; i < rows; ++i) sink ^= HilbertKeyForRow(*table, i);
    if (sink == 0x5a5a5a5a5a5a5a5aULL) std::printf("\n");  // keep `sink`
  });

  // Key sort: stable LSD radix vs comparison sort of (key, row) pairs.
  harness.Run("hilbert_sort_radix", rows,
              [&] { SortRowsByHilbertKey(keys); });
  harness.Run("hilbert_sort_std", rows, [&] {
    std::vector<std::pair<uint64_t, int64_t>> pairs(rows);
    for (int64_t i = 0; i < rows; ++i) pairs[i] = {keys[i], i};
    std::sort(pairs.begin(), pairs.end());
  });

  // Step 1: SA-value bucketization.
  const std::vector<double> freqs = table->SaFrequencies();
  harness.Run("bucketize_sa", table->sa_spec().num_values, [&] {
    auto buckets = BucketizeSaValues(freqs, opts);
    BETALIKE_CHECK(buckets.ok()) << buckets.status().ToString();
  });

  // End-to-end formation, plus its profile sections as separate rows.
  Result<GeneralizedTable> published = Status::InvalidArgument("unset");
  const bench::MicroStat end_to_end = harness.Run(
      "burel_end_to_end", rows,
      [&] { published = AnonymizeWithBurel(table, opts); });
  BETALIKE_CHECK(published.ok()) << published.status().ToString();
  BurelProfile profile;
  auto profiled = AnonymizeWithBurel(table, opts, &profile);
  BETALIKE_CHECK(profiled.ok()) << profiled.status().ToString();
  const std::pair<const char*, double> sections[] = {
      {"burel_sweeps", profile.sweep_seconds},
      {"burel_axis_cuts", profile.axis_seconds},
      {"burel_partition", profile.partition_seconds},
      {"burel_soa_gather", profile.gather_seconds},
  };
  for (const auto& [name, seconds] : sections) {
    bench::MicroStat stat;
    stat.name = name;
    stat.items = rows;
    stat.reps = 1;
    stat.best_seconds = seconds;
    stat.mean_seconds = seconds;
    harness.Record(std::move(stat));
  }

  // Parallel formation at the hardware thread count, against the
  // serial end-to-end above. The combine order is fixed, so the
  // publication must be structurally identical — speedup is the only
  // thing allowed to move.
  BurelOptions par = opts;
  par.num_threads = 0;  // auto: hardware concurrency
  BurelProfile par_profile;
  Result<GeneralizedTable> par_published = Status::InvalidArgument("unset");
  const bench::MicroStat par_end_to_end = harness.Run(
      "burel_parallel_end_to_end", rows,
      [&] { par_published = AnonymizeWithBurel(table, par, &par_profile); });
  BETALIKE_CHECK(par_published.ok()) << par_published.status().ToString();
  BETALIKE_CHECK(par_published->num_ecs() == published->num_ecs())
      << "parallel formation changed the EC count";
  BETALIKE_CHECK(AverageInfoLoss(*par_published) ==
                 AverageInfoLoss(*published))
      << "parallel formation moved the AIL";
  // Auto thread resolution must never cost wall-clock. On a one-CPU
  // host that holds by construction once it resolves to the serial
  // path — no pool, no task queue — so the guard there is structural
  // (timing two runs of the same function under CI load is a coin
  // flip, not a regression check). With real concurrency the fan-out
  // must at least break even on wall-clock: the two paths are
  // re-timed strictly interleaved so background load hits both alike,
  // stopping as soon as a quiet window shows parallel within the 5%
  // slack (a true regression never finds one).
  if (par_profile.threads <= 1) {
    BETALIKE_CHECK(par_profile.parallel_tasks == 0)
        << "num_threads=0 resolved to the serial path but still ran "
        << par_profile.parallel_tasks << " pool tasks";
  } else {
    double serial_best = end_to_end.best_seconds;
    double par_best = par_end_to_end.best_seconds;
    for (int rep = 0; rep < 15 && par_best > serial_best * 1.05; ++rep) {
      WallTimer serial_timer;
      published = AnonymizeWithBurel(table, opts);
      serial_best = std::min(serial_best, serial_timer.ElapsedSeconds());
      BETALIKE_CHECK(published.ok()) << published.status().ToString();
      WallTimer par_timer;
      par_published = AnonymizeWithBurel(table, par);
      par_best = std::min(par_best, par_timer.ElapsedSeconds());
      BETALIKE_CHECK(par_published.ok())
          << par_published.status().ToString();
    }
    BETALIKE_CHECK(par_best <= serial_best * 1.05)
        << "parallel formation (" << par_best
        << "s) is more than 5% behind serial (" << serial_best
        << "s) at threads=" << par_profile.threads;
  }

  // Anatomy's separate-table release: publishing it (groups, then the
  // QIT/ST view), and its per-query COUNT cost on the serving mix's
  // query shape (λ = 2, θ = 0.1, an SA range predicate).
  Result<AnatomizedTable> anatomized = Status::InvalidArgument("unset");
  harness.Run("anatomy_publish", rows, [&] {
    auto groups = AnonymizeWithAnatomy(table, AnatomyOptions{});
    BETALIKE_CHECK(groups.ok()) << groups.status().ToString();
    anatomized = AnatomizedTable::FromGrouping(*groups);
  });
  BETALIKE_CHECK(anatomized.ok()) << anatomized.status().ToString();
  auto anatomy_estimator =
      MakeEstimator(PublishedView::Anatomized(std::move(anatomized).value()));
  BETALIKE_CHECK(anatomy_estimator.ok())
      << anatomy_estimator.status().ToString();
  WorkloadOptions mixed;
  mixed.num_queries = 256;
  mixed.lambda = 2;
  mixed.selectivity = 0.1;
  mixed.include_sa = true;
  const auto workload = GenerateWorkload(table->schema(), mixed);
  BETALIKE_CHECK(workload.ok()) << workload.status().ToString();
  harness.Run("anatomy_count_query", mixed.num_queries, [&] {
    double sink = 0.0;
    for (const AggregateQuery& query : *workload) {
      sink += (*anatomy_estimator)->EstimateWithUncertainty(query).estimate;
    }
    if (sink < 0.0) std::printf("\n");  // keep `sink`
  });

  // The baseline the paper's time plots compare against.
  Result<GeneralizedTable> mondrian = Status::InvalidArgument("unset");
  harness.Run("lmondrian_end_to_end", rows, [&] {
    mondrian = Mondrian::ForBetaLikeness(opts.beta).Anonymize(table);
  });
  BETALIKE_CHECK(mondrian.ok()) << mondrian.status().ToString();

  std::printf("%s\n", harness.ToTable().c_str());
  std::printf("# AIL: BUREL %.4f vs LMondrian %.4f; nodes=%lld ecs=%zu\n",
              AverageInfoLoss(*published), AverageInfoLoss(*mondrian),
              static_cast<long long>(profile.nodes), published->num_ecs());
  std::printf(
      "# parallel: threads=%d tasks=%lld speedup=%.2fx "
      "(serial %.3fms / parallel %.3fms)\n",
      par_profile.threads, static_cast<long long>(par_profile.parallel_tasks),
      end_to_end.best_seconds / par_end_to_end.best_seconds,
      end_to_end.best_seconds * 1e3, par_end_to_end.best_seconds * 1e3);

  const char* json_path_env = std::getenv("BENCH_MICRO_JSON");
  const std::string json_path =
      json_path_env != nullptr && *json_path_env != '\0'
          ? json_path_env
          : "BENCH_micro.json";
  const Status wrote = harness.WriteJson(
      json_path,
      {{"bench", "\"micro_components\""},
       {"rows", StrFormat("%lld", static_cast<long long>(rows))},
       {"repro_scale", StrFormat("%d", bench::ReproScale())},
       {"beta", StrFormat("%.1f", opts.beta)}});
  if (!wrote.ok()) {
    BETALIKE_LOG(ERROR) << wrote.ToString();
    return 1;
  }
  std::printf("# wrote %s\n", json_path.c_str());

  if (*ceiling > 0.0 && end_to_end.best_seconds > *ceiling) {
    BETALIKE_LOG(ERROR) << "burel_end_to_end best "
                        << end_to_end.best_seconds << "s exceeds ceiling "
                        << *ceiling << "s";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace betalike

int main() { return betalike::Run(); }
