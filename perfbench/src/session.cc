#include "session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "baseline/anatomy.h"
#include "census/census.h"
#include "core/bucket_partition.h"
#include "core/burel.h"
#include "core/formation.h"
#include "hilbert/hilbert.h"
#include "metrics/privacy_audit.h"
#include "perturb/perturbation.h"
#include "query/estimator.h"
#include "query/published_view.h"
#include "query/workload.h"
#include "serve/query_server.h"
#include "trace.h"

namespace perfbench {
namespace {

using betalike::AggregateKind;
using betalike::AggregateQuery;
using betalike::AnswerStatus;
using betalike::Estimator;
using betalike::GeneralizedTable;
using betalike::QueryServer;
using betalike::Result;
using betalike::ServedAnswer;
using betalike::ServedRequest;
using betalike::Status;
using betalike::Table;

// The paper's publication parameters and the serving set-up every
// workload shares: 2 closed-loop clients against a 3-worker server,
// whose async path runs 2 pool threads — 4 busy threads on 4 CPUs.
// Formation runs on 2 threads: its parallel path is exercised, and a
// pass waits on one fewer straggler when the host preempts a CPU.
constexpr double kBeta = 4.0;
constexpr double kBetaTolerance = 1e-9;
constexpr double kRetention = 0.8;
constexpr int kAnatomyL = 4;
constexpr int kFormationThreads = 2;
constexpr int kServeWorkers = 3;
constexpr int kClients = 2;
constexpr int kCountBatch = 64;
constexpr int kCountBatches = 64;
constexpr int kMixedQueries = 1024;
constexpr size_t kMixedBatch = 256;
constexpr int kLambda = 2;
constexpr double kTheta = 0.1;
// p99 batch latency is only reported over enough batches to leave ten
// beyond it.
constexpr int64_t kMinLatencySamples = 1000;
// Probe repetitions of the traced run's overhead measurement.
constexpr int kOverheadReps = 3;
// Direct estimator calls per probe span.
constexpr int kProbeBlock = 4;
constexpr double kMaxUntimedShare = 0.10;
constexpr int kRounds = 24;
// Tables the publish phase cycles through: the served one and more
// from seeds derived from the run's seed, so that publish_rows_per_s
// does not hang on how easy one seed's table is to publish.
constexpr int kPublishTables = 8;
// Spans written per thread: the serving threads record a few per
// batch, and the first tens of thousands show the pattern.
constexpr size_t kMaxWrittenSpans = 50000;

enum Shape { kGeneralized = 0, kPerturbed = 1, kAnatomized = 2 };
constexpr int kNumShapes = 3;
constexpr int kStreams = 1 + kNumShapes;
constexpr const char* kShapeNames[kNumShapes] = {"generalized", "perturbed",
                                                 "anatomized"};
// Mixed-stream aggregates, in stream order: query i asks for COUNT,
// SUM, AVG or GROUP-BY as i % 4 is 0, 1, 2 or 3.
constexpr int kNumAggs = 4;
constexpr AggregateKind kMixedKinds[kNumAggs - 1] = {
    AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAvg};

// The module prefixes of the library's layers: spans with these names
// time a public call; the rest is the benchmark's own glue.
const std::vector<std::string> kLayerPrefixes = {
    "census.", "hilbert.", "core.",  "metrics.",
    "perturb.", "baseline.", "query.", "serve."};

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank quantile of sorted values.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

// VmHWM of this process, in KiB; 0 where /proc is unavailable.
int64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  int64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// CPU time the hypervisor gave to other guests ("steal") and total CPU
// time since boot, in clock ticks summed over CPUs; zeros where
// /proc/stat is unavailable. Reported with each run so that a run
// slowed by a busy host can be told from a slow program.
std::pair<int64_t, int64_t> StealAndTotalTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  int64_t total = 0;
  for (long long x : v) total += x;
  return {v[7], total};
}

// FNV-1a over every class's size, member rows and QI box, in emission
// order: equal hashes mean the same publication.
uint64_t EcStructureHash(const GeneralizedTable& published) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](uint64_t x) {
    hash ^= x;
    hash *= 1099511628211ULL;
  };
  for (const betalike::EquivalenceClass& ec : published.ecs()) {
    mix(static_cast<uint64_t>(ec.size()));
    for (int64_t row : ec.rows) mix(static_cast<uint64_t>(row));
    for (size_t d = 0; d < ec.qi_min.size(); ++d) {
      mix(static_cast<uint64_t>(static_cast<uint32_t>(ec.qi_min[d])));
      mix(static_cast<uint64_t>(static_cast<uint32_t>(ec.qi_max[d])));
    }
  }
  return hash;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

betalike::BurelOptions BurelConfig() {
  betalike::BurelOptions options;
  options.beta = kBeta;
  options.enhanced = true;
  options.num_threads = kFormationThreads;
  return options;
}

Result<std::shared_ptr<const Table>> MakeTable(const WorkloadConfig& config,
                                               uint64_t seed,
                                               SpanBuffer* trace,
                                               int32_t parent) {
  ScopedSpan span(trace, "census.generate", parent, config.rows);
  betalike::CensusOptions options;
  options.num_rows = config.rows;
  options.seed = seed;
  Result<Table> table = betalike::GenerateCensus(options);
  if (!table.ok()) return table.status();
  if (config.num_qi < betalike::kCensusNumQi) {
    table = table->WithQiPrefix(config.num_qi);
    if (!table.ok()) return table.status();
  }
  return std::shared_ptr<const Table>(
      std::make_shared<Table>(std::move(table).value()));
}

// The three views of one table and their estimators, plus the facts
// the output checks compare across passes.
struct Publication {
  std::shared_ptr<const Estimator> estimators[kNumShapes];
  size_t num_ecs = 0;
  size_t perturbed_ecs = 0;
  uint64_t ec_hash = 0;
  double max_beta = 0.0;
  betalike::BurelProfile profile;
};

// Table -> three ready estimators: BUREL, its audit, the perturbed
// view, Anatomy, and one estimator per view.
Result<Publication> Publish(const std::shared_ptr<const Table>& table,
                            uint64_t seed, SpanBuffer* trace,
                            int32_t parent) {
  Publication pub;
  const auto build = [&](Shape shape,
                         const betalike::PublishedView& view) -> Status {
    static constexpr const char* kSpans[kNumShapes] = {
        "query.build.generalized", "query.build.perturbed",
        "query.build.anatomized"};
    ScopedSpan span(trace, kSpans[shape], parent);
    auto estimator = betalike::MakeEstimator(view);
    if (!estimator.ok()) return estimator.status();
    pub.estimators[shape] = std::move(estimator).value();
    return Status::Ok();
  };

  Result<GeneralizedTable> burel = Status::Internal("not formed");
  {
    ScopedSpan span(trace, "core.form", parent, table->num_rows());
    burel = betalike::AnonymizeWithBurel(
        table, BurelConfig(), trace != nullptr ? &pub.profile : nullptr);
  }
  if (!burel.ok()) return burel.status();
  pub.num_ecs = burel->num_ecs();
  pub.ec_hash = EcStructureHash(*burel);
  {
    ScopedSpan span(trace, "metrics.audit", parent);
    pub.max_beta = betalike::AuditPrivacy(*burel).max_beta;
  }
  Result<betalike::PerturbedPublication> perturbed =
      Status::Internal("not perturbed");
  {
    ScopedSpan span(trace, "perturb.perturb", parent);
    betalike::PerturbOptions options;
    options.retention = kRetention;
    options.seed = seed;
    perturbed = betalike::PerturbSaWithinEcs(*burel, options);
  }
  if (!perturbed.ok()) return perturbed.status();
  pub.perturbed_ecs = perturbed->view.num_ecs();
  Result<betalike::AnatomizedTable> anatomized =
      Status::Internal("not anatomized");
  {
    ScopedSpan span(trace, "baseline.anatomy", parent);
    betalike::AnatomyOptions options;
    options.l = kAnatomyL;
    options.seed = seed;
    Result<GeneralizedTable> groups =
        betalike::AnonymizeWithAnatomy(table, options);
    if (!groups.ok()) return groups.status();
    anatomized = betalike::AnatomizedTable::FromGrouping(*groups);
  }
  Status status = build(kGeneralized, betalike::PublishedView::Generalized(
                                          std::move(burel).value()));
  if (status.ok()) {
    status = build(kPerturbed, betalike::PublishedView::Perturbed(
                                   std::move(perturbed).value()));
  }
  if (status.ok()) {
    status = build(kAnatomized, betalike::PublishedView::Anatomized(
                                    std::move(anatomized).value()));
  }
  if (!status.ok()) return status;
  return pub;
}

// Every pass of a run must publish the same classes, keep them in the
// perturbed view, and meet the β budget. A class filled exactly to a
// value's cap audits at β plus a rounding error, so the budget gets
// the repository tests' tolerance.
Status CheckPublication(const Publication& pub, size_t num_ecs,
                        uint64_t ec_hash) {
  if (!(pub.max_beta <= kBeta + kBetaTolerance)) {
    return Status::Internal("publication breaks beta-likeness: real beta " +
                            FormatDouble(pub.max_beta));
  }
  if (pub.perturbed_ecs != pub.num_ecs) {
    return Status::Internal("perturbed view changed the EC count");
  }
  if (pub.num_ecs != num_ecs || pub.ec_hash != ec_hash) {
    return Status::Internal("EC structure differs between passes");
  }
  return Status::Ok();
}

// The seeded query streams: COUNT(*) batches without an SA predicate,
// and the SA-carrying mixed stream (COUNT, SUM, AVG and GROUP-BY in
// turn, each GROUP-BY expanded into its slots) cut into batches.
struct Streams {
  std::vector<std::vector<AggregateQuery>> count_batches;
  std::vector<AggregateQuery> mixed_queries;
  std::vector<std::vector<ServedRequest>> mixed_batches;
};

Result<std::vector<AggregateQuery>> MakeQueries(const Table& table, int count,
                                                bool include_sa,
                                                uint64_t seed) {
  betalike::WorkloadOptions options;
  options.num_queries = count;
  options.lambda = kLambda;
  options.selectivity = kTheta;
  options.include_sa = include_sa;
  options.seed = seed;
  return betalike::GenerateWorkload(table.schema(), options);
}

Result<Streams> MakeStreams(const Table& table, uint64_t seed) {
  Streams streams;
  auto counts =
      MakeQueries(table, kCountBatch * kCountBatches, false, seed ^ 0xC0);
  if (!counts.ok()) return counts.status();
  for (int b = 0; b < kCountBatches; ++b) {
    streams.count_batches.emplace_back(
        counts->begin() + b * kCountBatch,
        counts->begin() + (b + 1) * kCountBatch);
  }
  auto mixed = MakeQueries(table, kMixedQueries, true, seed ^ 0x3D);
  if (!mixed.ok()) return mixed.status();
  streams.mixed_queries = std::move(mixed).value();
  std::vector<ServedRequest> requests;
  for (int i = 0; i < kMixedQueries; ++i) {
    const AggregateQuery& query = streams.mixed_queries[i];
    if (i % kNumAggs == kNumAggs - 1) {
      for (ServedRequest& slot :
           betalike::ExpandGroupBy(query, table.sa_spec().num_values)) {
        requests.push_back(std::move(slot));
      }
    } else {
      requests.push_back(ServedRequest{query, kMixedKinds[i % kNumAggs], 0});
    }
  }
  for (size_t at = 0; at < requests.size(); at += kMixedBatch) {
    const size_t end = std::min(requests.size(), at + kMixedBatch);
    streams.mixed_batches.emplace_back(requests.begin() + at,
                                       requests.begin() + end);
  }
  return streams;
}

// The estimate a served request should carry, computed the way the
// server computes it (a GROUP-BY slot is a width-1 COUNT).
double DirectEstimate(const Estimator& estimator, const AggregateQuery& query,
                      AggregateKind kind, int32_t group_value) {
  switch (kind) {
    case AggregateKind::kCount:
      return estimator.EstimateWithUncertainty(query).estimate;
    case AggregateKind::kSum:
      return estimator.EstimateSumWithUncertainty(query).estimate;
    case AggregateKind::kAvg:
      return estimator.EstimateAvgWithUncertainty(query).estimate;
    case AggregateKind::kGroupCount:
      break;
  }
  if (group_value < 0 || group_value >= estimator.sa_num_values() ||
      (query.has_sa_predicate() &&
       (group_value < query.sa_lo || group_value > query.sa_hi))) {
    return 0.0;
  }
  AggregateQuery point = query;
  point.sa_lo = group_value;
  point.sa_hi = group_value;
  return estimator.EstimateWithUncertainty(point).estimate;
}

double DirectEstimate(const Estimator& estimator, const AggregateQuery& query) {
  return DirectEstimate(estimator, query, AggregateKind::kCount, 0);
}
double DirectEstimate(const Estimator& estimator,
                      const ServedRequest& request) {
  return DirectEstimate(estimator, request.query, request.kind,
                        request.group_value);
}

using Answers = std::vector<ServedAnswer>;
using Submitted = Result<std::future<Answers>>;

bool SameQuery(const AggregateQuery& a, const AggregateQuery& b) {
  if (a.sa_lo != b.sa_lo || a.sa_hi != b.sa_hi ||
      a.predicates.size() != b.predicates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    const betalike::QueryPredicate& p = a.predicates[i];
    const betalike::QueryPredicate& q = b.predicates[i];
    if (p.dim != q.dim || p.lo != q.lo || p.hi != q.hi) return false;
  }
  return true;
}

// Checks served estimates bit for bit against the Estimator's own
// methods; GROUP-BY slots against the whole-query
// EstimateGroupByWithUncertainty, computed once per expanded query.
Status VerifyAnswers(const Estimator& estimator,
                     const std::vector<AggregateQuery>& batch,
                     const Answers& answers) {
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!SameBits(answers[i].estimate,
                  estimator.EstimateWithUncertainty(batch[i]).estimate)) {
      return Status::Internal("served COUNT differs from the estimator");
    }
  }
  return Status::Ok();
}

Status VerifyAnswers(const Estimator& estimator,
                     const std::vector<ServedRequest>& batch,
                     const Answers& answers) {
  std::vector<betalike::EstimateWithVariance> groups;
  const AggregateQuery* grouped = nullptr;
  for (size_t i = 0; i < batch.size(); ++i) {
    const ServedRequest& request = batch[i];
    double expected = 0.0;
    if (request.kind == AggregateKind::kGroupCount) {
      if (grouped == nullptr || !SameQuery(*grouped, request.query)) {
        groups = estimator.EstimateGroupByWithUncertainty(request.query);
        grouped = &request.query;
      }
      expected = groups[request.group_value].estimate;
    } else {
      expected = DirectEstimate(estimator, request);
    }
    if (!SameBits(answers[i].estimate, expected)) {
      return Status::Internal("served answer differs from the estimator");
    }
  }
  return Status::Ok();
}

struct ClientStats {
  int64_t requests = 0;
  int64_t batches = 0;
  int64_t rejected = 0;  // requests of batches the server refused
  int64_t shed = 0;      // answers whose status is not kOk
  double seconds = 0.0;
  std::vector<double> latencies_ms;
  size_t sample_batch = 0;  // the client's first batch and its answers
  Answers sample;
  Status status;
};

// One closed-loop client: submit a batch, block on its future, repeat
// until the deadline has passed and at least `min_batches` completed.
// Client c sends batches c, c + kClients, ... of the stream, cycling.
template <typename Request>
void RunClient(int client, const std::vector<std::vector<Request>>& batches,
               Clock::time_point deadline, int64_t min_batches,
               const std::function<Submitted(std::vector<Request>, int)>& submit,
               SpanBuffer* trace, ClientStats* stats) {
  const Clock::time_point start = Clock::now();
  size_t next = client;
  do {
    const size_t index = next % batches.size();
    const std::vector<Request>& batch = batches[index];
    const int64_t size = static_cast<int64_t>(batch.size());
    ScopedSpan span(trace, "bench.batch", -1, size);
    std::vector<Request> copy = batch;
    const Clock::time_point sent = Clock::now();
    Submitted submitted = Status::Internal("not submitted");
    {
      ScopedSpan submit_span(trace, "serve.submit", span.id(), size);
      submitted = submit(std::move(copy), client);
    }
    next += kClients;
    if (!submitted.ok()) {
      // A refused batch fails the run: the server's queue is unbounded,
      // so admission must never shed.
      stats->rejected += size;
      stats->status = submitted.status();
      break;
    }
    Answers answers;
    {
      ScopedSpan wait_span(trace, "serve.wait", span.id(), size);
      answers = submitted->get();
    }
    stats->latencies_ms.push_back(SecondsBetween(sent, Clock::now()) * 1e3);
    for (const ServedAnswer& answer : answers) {
      if (answer.status != AnswerStatus::kOk) ++stats->shed;
    }
    if (stats->batches == 0) {
      stats->sample_batch = index;
      stats->sample = std::move(answers);
    }
    stats->requests += size;
    ++stats->batches;
  } while (Clock::now() < deadline || stats->batches < min_batches);
  stats->seconds = SecondsBetween(start, Clock::now());
}

// One slice of one stream: the clients' summed rate, the work done,
// and the sorted batch latencies.
struct PhaseResult {
  double qps = 0.0;
  int64_t requests = 0;
  int64_t batches = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  std::vector<double> latencies_ms;  // sorted
};

// Runs kClients closed-loop clients for `seconds` (and at least
// `min_batches` batches each). With `verify`, then checks every
// client's first batch against direct estimator calls. Throughput is
// the sum of the clients' own rates, so neither client's last batch
// is counted against the other's idle tail.
template <typename Request>
Result<PhaseResult> RunPhase(
    const std::vector<std::vector<Request>>& batches, double seconds,
    int64_t min_batches, const Estimator& estimator,
    const std::function<Submitted(std::vector<Request>, int)>& submit,
    const std::vector<SpanBuffer*>& client_traces, bool verify,
    SpanBuffer* trace) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<ClientStats> stats(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(RunClient<Request>, c, std::cref(batches), deadline,
                         min_batches, std::cref(submit), client_traces[c],
                         &stats[c]);
  }
  for (std::thread& thread : threads) thread.join();

  PhaseResult result;
  for (ClientStats& client : stats) {
    if (!client.status.ok()) return client.status;
    result.qps += static_cast<double>(client.requests) / client.seconds;
    result.requests += client.requests;
    result.batches += client.batches;
    result.rejected += client.rejected;
    result.shed += client.shed;
    result.latencies_ms.insert(result.latencies_ms.end(),
                               client.latencies_ms.begin(),
                               client.latencies_ms.end());
    if (!verify) continue;
    const std::vector<Request>& batch = batches[client.sample_batch];
    if (client.sample.size() != batch.size()) {
      return Status::Internal("served batch lost answers");
    }
    ScopedSpan span(trace, "query.verify", -1,
                    static_cast<int64_t>(batch.size()));
    if (Status s = VerifyAnswers(estimator, batch, client.sample); !s.ok()) {
      return s;
    }
  }
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());
  return result;
}

// Traced-run probe: direct estimator calls over a stream's leading
// batches — `count` of them, or with count 0 as many as fit `budget`
// seconds.
struct DirectProbe {
  size_t batches = 0;
  int64_t requests = 0;
  double seconds = 0.0;
};

template <typename Request>
DirectProbe TimeDirect(const Estimator& estimator,
                       const std::vector<std::vector<Request>>& batches,
                       size_t count, double budget, SpanBuffer* trace,
                       double* sink) {
  ScopedSpan span(trace, "query.direct");
  DirectProbe probe;
  const Clock::time_point start = Clock::now();
  do {
    const std::vector<Request>& batch = batches[probe.batches % batches.size()];
    for (const Request& request : batch) {
      *sink += DirectEstimate(estimator, request);
    }
    probe.requests += static_cast<int64_t>(batch.size());
    ++probe.batches;
  } while (count == 0 ? SecondsBetween(start, Clock::now()) < budget
                      : probe.batches < count);
  probe.seconds = SecondsBetween(start, Clock::now());
  span.set_items(probe.requests);
  return probe;
}

// Server overhead per request: the same leading batches answered
// inline by a 1-worker server, minus direct calls (the median of
// kOverheadReps alternating pairs), in microseconds.
template <typename Request>
Result<double> ProbeOverheadUs(
    const std::shared_ptr<const Estimator>& estimator,
    const std::vector<std::vector<Request>>& batches, double budget,
    SpanBuffer* trace, double* sink) {
  betalike::QueryServerOptions options;
  options.num_workers = 1;
  auto server = QueryServer::Create(estimator, options);
  if (!server.ok()) return server.status();
  // The calibration pass also warms the caches.
  const DirectProbe calibration =
      TimeDirect(*estimator, batches, 0, budget, trace, sink);
  std::vector<double> diffs;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    const DirectProbe direct = TimeDirect(*estimator, batches,
                                          calibration.batches, budget, trace,
                                          sink);
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(trace, "serve.inline", -1, calibration.requests);
      for (size_t b = 0; b < calibration.batches; ++b) {
        Submitted submitted =
            (*server)->SubmitBatch(batches[b % batches.size()]);
        if (!submitted.ok()) return submitted.status();
        for (const ServedAnswer& answer : submitted->get()) {
          *sink += answer.estimate;
        }
      }
    }
    diffs.push_back(SecondsBetween(start, Clock::now()) - direct.seconds);
  }
  return Median(diffs) / static_cast<double>(calibration.requests) * 1e6;
}

}  // namespace

Result<WorkloadConfig> FindWorkload(const std::string& name, bool tiny) {
  // serve_count: a small table whose cheap COUNT estimates leave the
  // server's own per-request cost at about a third of the time;
  // serve_mixed: SA-carrying mixed aggregates, where estimator cost
  // dominates (the ROADMAP's baseline configuration).
  static const WorkloadConfig kWorkloads[] = {
      {"serve_count", 20000, 5, 0.1, 0.55, 0.35},
      {"serve_mixed", 100000, 3, 0.1, 0.2, 0.7},
  };
  for (const WorkloadConfig& config : kWorkloads) {
    if (config.name != name) continue;
    WorkloadConfig out = config;
    if (tiny) out.rows = std::max<int64_t>(out.rows / 20, 4000);
    return out;
  }
  return Status::NotFound("unknown workload '" + name + "'");
}

RunResult RunSession(const RunOptions& options) {
  const WorkloadConfig& config = options.workload;
  RunResult result;
  const Clock::time_point origin = Clock::now();
  const std::pair<int64_t, int64_t> ticks_at_start = StealAndTotalTicks();
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  for (int thread = 0; thread <= kClients; ++thread) {
    buffers.push_back(std::make_unique<SpanBuffer>(origin, thread));
  }
  SpanBuffer* main_trace = options.traced ? buffers[0].get() : nullptr;
  std::vector<SpanBuffer*> client_traces;
  for (int c = 0; c < kClients; ++c) {
    client_traces.push_back(options.traced ? buffers[c + 1].get() : nullptr);
  }
  const auto fail = [&result](Status status) {
    result.status = std::move(status);
    result.metrics.clear();
    return result;
  };

  // Publication passes must repeat, per table, the first pass's EC
  // structure; table 0 is the one generated from the run's seed.
  std::vector<std::pair<size_t, uint64_t>> refs(kPublishTables);
  std::vector<bool> seen(kPublishTables, false);
  const auto check = [&refs, &seen](size_t t, const Publication& pub) {
    if (!seen[t]) {
      refs[t] = {pub.num_ecs, pub.ec_hash};
      seen[t] = true;
    }
    return CheckPublication(pub, refs[t].first, refs[t].second);
  };

  // One set-up: the table from the seed, its publications and
  // estimators, and a started server. The first serves the run; one
  // more per round is timed and dropped, so that setup_s samples the
  // whole run like every other metric.
  struct SetUp {
    std::shared_ptr<const Table> table;
    Publication pub;
    std::unique_ptr<QueryServer> server;
  };
  std::vector<double> setup_seconds;
  const auto set_up = [&](SetUp* out) -> Status {
    ScopedSpan span(main_trace, "bench.setup");
    const Clock::time_point start = Clock::now();
    auto made = MakeTable(config, options.seed, main_trace, span.id());
    if (!made.ok()) return made.status();
    out->table = std::move(made).value();
    auto published = Publish(out->table, options.seed, main_trace, span.id());
    result.attempted += 1;
    if (!published.ok()) {
      result.failed += 1;
      return published.status();
    }
    out->pub = std::move(published).value();
    if (Status s = check(0, out->pub); !s.ok()) return s;
    betalike::QueryServerOptions server_options;
    server_options.num_workers = kServeWorkers;
    ScopedSpan start_span(main_trace, "serve.start", span.id());
    auto created =
        QueryServer::Create(out->pub.estimators[kGeneralized], server_options);
    if (!created.ok()) return created.status();
    out->server = std::move(created).value();
    setup_seconds.push_back(SecondsBetween(start, Clock::now()));
    return Status::Ok();
  };
  SetUp kept;
  if (Status s = set_up(&kept); !s.ok()) return fail(s);
  const std::shared_ptr<const Table>& table = kept.table;
  Publication& pub = kept.pub;
  QueryServer* srv = kept.server.get();

  // The publish phase's tables, each published once before timing
  // starts; their EC structures identify the run's output.
  std::vector<std::shared_ptr<const Table>> tables = {table};
  std::vector<uint64_t> table_seeds = {options.seed};
  for (int t = 1; t < kPublishTables; ++t) {
    table_seeds.push_back(options.seed + 0x9E3779B97F4A7C15ULL * t);
    auto made = MakeTable(config, table_seeds[t], main_trace, -1);
    if (!made.ok()) return fail(made.status());
    tables.push_back(std::move(made).value());
    ScopedSpan span(main_trace, "bench.publish");
    auto first = Publish(tables[t], table_seeds[t], main_trace, span.id());
    result.attempted += 1;
    if (!first.ok()) {
      result.failed += 1;
      return fail(first.status());
    }
    if (Status s = check(t, *first); !s.ok()) return fail(s);
  }
  uint64_t tables_hash = 1469598103934665603ULL;
  for (const auto& ref : refs) {
    tables_hash = (tables_hash ^ ref.second) * 1099511628211ULL;
  }

  auto made_streams = MakeStreams(*table, options.seed);
  if (!made_streams.ok()) return fail(made_streams.status());
  const Streams& streams = *made_streams;

  // The measured part: kRounds rounds, each spending its slice of
  // every phase's share, so a burst of contention on the host lands in
  // one round of every metric instead of in the whole of one metric.
  // Per-round rates are reduced by their median.
  const std::function<Submitted(std::vector<AggregateQuery>, int)>
      submit_count = [srv](std::vector<AggregateQuery> batch, int client) {
        betalike::SubmitOptions submit;
        submit.client_id = static_cast<uint64_t>(client);
        return srv->SubmitBatch(std::move(batch), submit);
      };
  std::function<Submitted(std::vector<ServedRequest>, int)>
      submit_mixed[kNumShapes];
  for (int shape = 0; shape < kNumShapes; ++shape) {
    submit_mixed[shape] = [srv, estimator = pub.estimators[shape]](
                              std::vector<ServedRequest> batch, int client) {
      betalike::SubmitOptions submit;
      submit.client_id = static_cast<uint64_t>(client);
      return srv->SubmitBatchOn(estimator, std::move(batch), submit);
    };
  }
  const double round_seconds = options.seconds / kRounds;
  // Stream 0 is the COUNT stream, 1 + shape the mixed stream on shape.
  PhaseResult totals[kStreams];
  std::vector<double> round_qps[kStreams];
  std::vector<double> round_p50, round_p99;
  const auto tally = [&](int stream, const PhaseResult& phase) {
    PhaseResult& total = totals[stream];
    total.requests += phase.requests;
    total.batches += phase.batches;
    total.rejected += phase.rejected;
    total.shed += phase.shed;
    round_qps[stream].push_back(phase.qps);
  };
  std::vector<double> pass_seconds;
  size_t passes = 0;
  for (int round = 0; round < kRounds; ++round) {
    {
      SetUp dropped;
      if (Status s = set_up(&dropped); !s.ok()) return fail(s);
    }
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               round_seconds * config.publish_share));
    do {
      const size_t t = passes++ % tables.size();
      ScopedSpan span(main_trace, "bench.publish");
      const Clock::time_point start = Clock::now();
      auto again = Publish(tables[t], table_seeds[t], main_trace, span.id());
      result.attempted += 1;
      if (!again.ok()) {
        result.failed += 1;
        return fail(again.status());
      }
      pass_seconds.push_back(SecondsBetween(start, Clock::now()));
      if (Status s = check(t, *again); !s.ok()) return fail(s);
      if (main_trace != nullptr && t == 0) pub.profile = again->profile;
    } while (Clock::now() < deadline);

    auto count = RunPhase(streams.count_batches,
                          round_seconds * config.count_share,
                          kMinLatencySamples / kClients + 1,
                          *pub.estimators[kGeneralized], submit_count,
                          client_traces, round == 0, main_trace);
    if (!count.ok()) return fail(count.status());
    tally(0, *count);
    round_p50.push_back(Quantile(count->latencies_ms, 0.50));
    round_p99.push_back(Quantile(count->latencies_ms, 0.99));

    for (int shape = 0; shape < kNumShapes; ++shape) {
      auto mixed = RunPhase(
          streams.mixed_batches,
          round_seconds * config.mixed_share / kNumShapes, 1,
          *pub.estimators[shape], submit_mixed[shape], client_traces,
          round == 0, main_trace);
      if (!mixed.ok()) return fail(mixed.status());
      tally(1 + shape, *mixed);
    }
  }

  int64_t requests = 0;
  int64_t batches = 0;
  int64_t rejected = 0;
  int64_t shed = 0;
  for (const PhaseResult& total : totals) {
    requests += total.requests;
    batches += total.batches;
    rejected += total.rejected;
    shed += total.shed;
  }
  result.attempted += requests + rejected;
  result.failed += rejected + shed;
  if (rejected + shed > 0) {
    return fail(Status::Internal("server rejected or shed requests"));
  }

  const std::vector<Metric> end_to_end = {
      {"setup_s", Median(setup_seconds), "s"},
      {"publish_rows_per_s",
       static_cast<double>(config.rows) / Median(pass_seconds), "1/s"},
      {"qps", Median(round_qps[0]), "1/s"},
      {"batch_p50_ms", Median(round_p50), "ms"},
      {"qps_generalized", Median(round_qps[1 + kGeneralized]), "1/s"},
      {"qps_perturbed", Median(round_qps[1 + kPerturbed]), "1/s"},
      {"qps_anatomized", Median(round_qps[1 + kAnatomized]), "1/s"},
      {"peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB"},
  };

  std::string facts =
      "{\"rows\": " + std::to_string(config.rows) +
      ", \"ecs\": " + std::to_string(pub.num_ecs) + ", \"ec_hash\": \"" +
      std::to_string(tables_hash) + "\", \"publish_tables\": " +
      std::to_string(kPublishTables) + ", \"served_ec_hash\": \"" +
      std::to_string(pub.ec_hash) +
      "\", \"real_beta\": " + FormatDouble(pub.max_beta) +
      ", \"setups\": " + std::to_string(setup_seconds.size()) +
      ", \"publish_passes\": " + std::to_string(pass_seconds.size()) +
      ", \"count_batches\": " + std::to_string(totals[0].batches) +
      ", \"mixed_requests\": [" + std::to_string(totals[1].requests) + ", " +
      std::to_string(totals[2].requests) + ", " +
      std::to_string(totals[3].requests) + "]";
  const std::pair<int64_t, int64_t> ticks = StealAndTotalTicks();
  if (ticks.second > ticks_at_start.second) {
    facts += ", \"steal_pct\": " +
             FormatDouble(100.0 *
                          static_cast<double>(ticks.first - ticks_at_start.first) /
                          static_cast<double>(ticks.second - ticks_at_start.second));
  }

  if (!options.traced) {
    result.metrics = end_to_end;
    result.facts_json = facts + "}";
    return result;
  }

  // Traced run only: probes of the layers the session calls only
  // inside other calls, or whose per-request cost the served stream
  // hides.
  double sink = 0.0;
  const double budget = std::max(0.02, 0.005 * options.seconds);
  {
    const betalike::BurelOptions burel = BurelConfig();
    const std::vector<double> freqs = table->SaFrequencies();
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<uint64_t> keys;
      {
        ScopedSpan span(main_trace, "hilbert.encode", -1, table->num_rows());
        keys = betalike::ComputeHilbertKeys(*table);
      }
      std::vector<int64_t> order;
      {
        ScopedSpan span(main_trace, "hilbert.sort", -1, table->num_rows());
        order = betalike::SortRowsByHilbertKey(keys);
      }
      if (order.size() != static_cast<size_t>(table->num_rows())) {
        return fail(Status::Internal("Hilbert order lost rows"));
      }
      ScopedSpan span(main_trace, "core.bucketize");
      auto buckets = betalike::BucketizeSaValues(freqs, burel);
      if (!buckets.ok()) return fail(buckets.status());
    }
  }
  // Direct single-thread estimator calls per shape and aggregate, over
  // the mixed stream's queries of that aggregate.
  static constexpr const char* kQuerySpans[kNumShapes][kNumAggs] = {
      {"query.generalized.count", "query.generalized.sum",
       "query.generalized.avg", "query.generalized.groupby"},
      {"query.perturbed.count", "query.perturbed.sum", "query.perturbed.avg",
       "query.perturbed.groupby"},
      {"query.anatomized.count", "query.anatomized.sum",
       "query.anatomized.avg", "query.anatomized.groupby"}};
  for (int shape = 0; shape < kNumShapes; ++shape) {
    const Estimator& estimator = *pub.estimators[shape];
    for (int agg = 0; agg < kNumAggs; ++agg) {
      const Clock::time_point start = Clock::now();
      size_t i = agg;
      do {
        // One span per block of calls keeps the clock reads out of the
        // per-call figure of the cheapest estimators; a GROUP-BY is a
        // block of point queries already.
        const int block = agg == kNumAggs - 1 ? 1 : kProbeBlock;
        ScopedSpan span(main_trace, kQuerySpans[shape][agg], -1, block);
        for (int call = 0; call < block; ++call, i += kNumAggs) {
          const AggregateQuery& query =
              streams.mixed_queries[i % streams.mixed_queries.size()];
          if (agg == kNumAggs - 1) {
            for (const auto& slot :
                 estimator.EstimateGroupByWithUncertainty(query)) {
              sink += slot.estimate;
            }
          } else {
            sink += DirectEstimate(estimator, query, kMixedKinds[agg], 0);
          }
        }
      } while (SecondsBetween(start, Clock::now()) < budget);
    }
  }
  // Server overhead per request, weighted by the requests the session
  // served on each stream. The COUNT stream has a code path of its own;
  // the mixed path's overhead is measured on the generalized view, whose
  // cheap estimates let it resolve, and holds for every view (the
  // server's per-request work does not depend on the estimator).
  auto count_overhead = ProbeOverheadUs(
      pub.estimators[kGeneralized], streams.count_batches, budget, main_trace,
      &sink);
  if (!count_overhead.ok()) return fail(count_overhead.status());
  auto mixed_overhead = ProbeOverheadUs(pub.estimators[kGeneralized],
                                        streams.mixed_batches, budget,
                                        main_trace, &sink);
  if (!mixed_overhead.ok()) return fail(mixed_overhead.status());
  double overhead_time = 0.0;
  double serve_time = 0.0;
  for (int stream = 0; stream < kStreams; ++stream) {
    const DirectProbe direct =
        stream == 0 ? TimeDirect(*pub.estimators[kGeneralized],
                                 streams.count_batches, 0, budget,
                                 main_trace, &sink)
                    : TimeDirect(*pub.estimators[stream - 1],
                                 streams.mixed_batches, 0, budget,
                                 main_trace, &sink);
    const double overhead_us = stream == 0 ? *count_overhead : *mixed_overhead;
    const double n = static_cast<double>(totals[stream].requests);
    overhead_time += n * overhead_us;
    serve_time += n * (overhead_us + direct.seconds /
                                         static_cast<double>(direct.requests) *
                                         1e6);
  }
  if (!std::isfinite(sink)) {
    return fail(Status::Internal("estimator probe produced a non-finite sum"));
  }

  const double wall = SecondsBetween(origin, Clock::now());
  std::vector<const SpanBuffer*> all;
  for (const auto& buffer : buffers) all.push_back(buffer.get());
  const std::map<std::string, SpanTotals> by_name = TotalsByName(all);
  const auto per_call = [&by_name](const char* name) {
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.calls == 0) return 0.0;
    return it->second.self_seconds / static_cast<double>(it->second.calls);
  };
  const auto per_item = [&by_name](const char* name) {
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.items == 0) return 0.0;
    return it->second.self_seconds / static_cast<double>(it->second.items);
  };
  const double untimed = wall - CoveredSeconds(all, kLayerPrefixes);
  if (untimed > kMaxUntimedShare * wall) {
    return fail(Status::Internal("trace misses " + FormatDouble(untimed) +
                                 " s of " + FormatDouble(wall) + " s"));
  }

  std::vector<Metric>& layers = result.metrics;
  layers = {
      {"census.generate_s", per_call("census.generate"), "s"},
      {"hilbert.encode_s", per_call("hilbert.encode"), "s"},
      {"hilbert.sort_s", per_call("hilbert.sort"), "s"},
      {"core.bucketize_s", per_call("core.bucketize"), "s"},
      {"core.form_s", per_call("core.form"), "s"},
      {"core.form.sweep_cpu_s", pub.profile.sweep_seconds, "s"},
      {"core.form.axis_cpu_s", pub.profile.axis_seconds, "s"},
      {"core.form.partition_cpu_s", pub.profile.partition_seconds, "s"},
      {"core.form.nodes", static_cast<double>(pub.profile.nodes), "count"},
      {"core.form.ecs", static_cast<double>(pub.profile.leaves), "count"},
      {"core.form.tasks", static_cast<double>(pub.profile.parallel_tasks),
       "count"},
      {"metrics.audit_s", per_call("metrics.audit"), "s"},
      {"perturb.perturb_s", per_call("perturb.perturb"), "s"},
      {"baseline.anatomy_s", per_call("baseline.anatomy"), "s"},
  };
  for (int shape = 0; shape < kNumShapes; ++shape) {
    const std::string name = kShapeNames[shape];
    layers.push_back({"query.build." + name + "_s",
                      per_call(("query.build." + name).c_str()), "s"});
  }
  for (int shape = 0; shape < kNumShapes; ++shape) {
    for (int agg = 0; agg < kNumAggs; ++agg) {
      layers.push_back({std::string(kQuerySpans[shape][agg]) + "_us",
                        per_item(kQuerySpans[shape][agg]) * 1e6, "us"});
    }
  }
  const double served = static_cast<double>(requests);
  layers.push_back({"serve.overhead_us", overhead_time / served, "us"});
  layers.push_back(
      {"serve.overhead_pct", 100.0 * overhead_time / serve_time, "%"});
  layers.push_back({"serve.submit_us", per_call("serve.submit") * 1e6, "us"});
  layers.push_back(
      {"serve.service_us",
       static_cast<double>(srv->MergedHistogram().QuantileNanos(0.5)) / 1e3,
       "us"});
  layers.push_back(
      {"serve.batch_server_us",
       static_cast<double>(srv->BatchHistogram().QuantileNanos(0.5)) / 1e3,
       "us"});
  layers.push_back({"serve.requests", served, "count"});
  layers.push_back({"serve.batches", static_cast<double>(batches), "count"});
  layers.push_back({"serve.rejected", static_cast<double>(rejected), "count"});
  layers.push_back({"serve.shed", static_cast<double>(shed), "count"});
  layers.push_back({"trace.wall_s", wall, "s"});
  layers.push_back({"trace.untimed_s", untimed, "s"});
  for (const Metric& metric : end_to_end) {
    if (metric.name == "peak_rss_mb") continue;
    layers.push_back({"trace." + metric.name, metric.value, metric.unit});
  }
  // The p99 swings with the host's preemption of the VM's CPUs far
  // beyond any end-to-end bound, so it is reported here only.
  layers.push_back({"trace.batch_p99_ms", Median(round_p99), "ms"});
  size_t num_spans = 0;
  for (const SpanBuffer* buffer : all) num_spans += buffer->spans().size();
  result.facts_json =
      facts + ", \"spans\": " + std::to_string(num_spans) + "}";
  if (!options.trace_path.empty() &&
      !WriteSpans(options.trace_path, options.trace_header, all,
                  kMaxWrittenSpans)) {
    return fail(Status::Internal("cannot write " + options.trace_path));
  }
  return result;
}

}  // namespace perfbench
