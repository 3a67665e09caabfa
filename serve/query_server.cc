#include "serve/query_server.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace betalike {
namespace {

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point stop) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
}

// RAII around the synchronous-call counter: AnswerBatch borrows the
// caller's storage, so overlapping synchronous calls are a client bug
// caught loudly instead of racing.
class SyncCallGuard {
 public:
  explicit SyncCallGuard(std::atomic<int>* calls) : calls_(calls) {
    const int prev = calls_->fetch_add(1, std::memory_order_acq_rel);
    BETALIKE_CHECK(prev == 0)
        << "QueryServer::AnswerBatch called while another synchronous batch "
           "is in flight; the synchronous path is one-batch-at-a-time — "
           "concurrent clients must use SubmitBatch";
  }
  ~SyncCallGuard() { calls_->fetch_sub(1, std::memory_order_acq_rel); }

 private:
  std::atomic<int>* calls_;
};

// A zero placeholder carrying why the request was not served.
ServedAnswer UnservedAnswer(AnswerStatus status) {
  ServedAnswer answer;
  answer.status = status;
  return answer;
}

bool SameQuery(const AggregateQuery& a, const AggregateQuery& b) {
  if (a.sa_lo != b.sa_lo || a.sa_hi != b.sa_hi ||
      a.predicates.size() != b.predicates.size()) {
    return false;
  }
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    const QueryPredicate& p = a.predicates[i];
    const QueryPredicate& q = b.predicates[i];
    if (p.dim != q.dim || p.lo != q.lo || p.hi != q.hi) return false;
  }
  return true;
}

// True iff `request` is a GROUP-BY slot the estimator computes: inside
// the SA domain [0, sa_num_values) and the query's SA range. Any other
// slot is exactly zero (the ExpandGroupBy convention).
bool IsComputedSlot(const ServedRequest& request, int32_t sa_num_values) {
  if (request.kind != AggregateKind::kGroupCount) return false;
  const int32_t v = request.group_value;
  if (v < 0 || v >= sa_num_values) return false;
  const AggregateQuery& query = request.query;
  return !query.has_sa_predicate() || (v >= query.sa_lo && v <= query.sa_hi);
}

// Length of the slot run starting at requests[0] of the n given: the
// computed slots of one query with consecutive ascending group values.
// 0 when requests[0] is not a computed slot.
size_t SlotRunLength(const ServedRequest* requests, size_t n,
                     int32_t sa_num_values) {
  if (n == 0 || !IsComputedSlot(requests[0], sa_num_values)) return 0;
  size_t length = 1;
  for (; length < n; ++length) {
    const ServedRequest& next = requests[length];
    if (!IsComputedSlot(next, sa_num_values) ||
        next.group_value != requests[length - 1].group_value + 1 ||
        !SameQuery(next.query, requests[0].query)) {
      break;
    }
  }
  return length;
}

}  // namespace

Result<double> NormalCriticalValue(double confidence) {
  // Fixed two-sided z values; shortest decimal round-trips of the
  // exact doubles. Levels are matched within a small absolute
  // tolerance: a confidence that arrives through arithmetic (say
  // 1.0 - 0.05) can sit an ULP away from the literal, and an exact ==
  // would reject it — the three supported levels are far enough apart
  // that the tolerance is unambiguous.
  constexpr double kTolerance = 1e-9;
  const auto matches = [confidence](double level) {
    const double delta = confidence - level;
    return delta < kTolerance && delta > -kTolerance;
  };
  if (matches(0.90)) return 1.6448536269514722;
  if (matches(0.95)) return 1.959963984540054;
  if (matches(0.99)) return 2.5758293035489004;
  return Status::InvalidArgument(
      "unsupported confidence level (use 0.90, 0.95, or 0.99)");
}

std::vector<ServedRequest> ExpandGroupBy(const AggregateQuery& query,
                                         int32_t sa_num_values) {
  std::vector<ServedRequest> requests;
  // A negative domain is a malformed schema, not a range to iterate:
  // expand to nothing (a zero domain already falls out of the clamp
  // below, but keeping the guard explicit documents the contract).
  if (sa_num_values < 0) return requests;
  int32_t lo = 0;
  int32_t hi = sa_num_values - 1;
  if (query.has_sa_predicate()) {
    lo = std::max(query.sa_lo, 0);
    hi = std::min(query.sa_hi, sa_num_values - 1);
  }
  if (lo > hi) return requests;
  requests.reserve(static_cast<size_t>(hi - lo + 1));
  for (int32_t v = lo; v <= hi; ++v) {
    requests.push_back({query, AggregateKind::kGroupCount, v});
  }
  return requests;
}

Result<std::unique_ptr<QueryServer>> QueryServer::Create(
    std::shared_ptr<const Estimator> estimator,
    const QueryServerOptions& options) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("estimator must not be null");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.chunk_size < 1) {
    return Status::InvalidArgument("chunk_size must be >= 1");
  }
  Result<double> z = NormalCriticalValue(options.confidence);
  if (!z.ok()) return z.status();
  return std::unique_ptr<QueryServer>(
      new QueryServer(std::move(estimator), options, *z));
}

QueryServer::QueryServer(std::shared_ptr<const Estimator> estimator,
                         const QueryServerOptions& options, double z)
    : estimator_(std::move(estimator)), options_(options), z_(z) {
  histograms_.reserve(options_.num_workers);
  for (int w = 0; w < options_.num_workers; ++w) {
    histograms_.push_back(std::make_unique<GuardedHistogram>());
  }
  // Worker 0 is the calling thread; spawn the rest of the pool.
  threads_.reserve(options_.num_workers - 1);
  for (int w = 1; w < options_.num_workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

QueryServer::~QueryServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  // Submitters blocked on admission wake and return FailedPrecondition
  // (their batches were never admitted, so there is nothing to drain).
  room_cv_.notify_all();
  // Pool threads only exit once every claimable chunk is claimed, and
  // each finishes the chunks it claimed, so every admitted future
  // completes before the join. Without a pool every job was answered
  // inline at submission and the queues were never used.
  for (std::thread& t : threads_) t.join();
}

std::vector<ServedAnswer> QueryServer::AnswerBatch(
    Span<ServedRequest> batch, const SubmitOptions& options) {
  SyncCallGuard guard(&sync_calls_);
  if (batch.empty()) return {};
  auto job = std::make_shared<BatchJob>();
  job->requests = batch;
  job->estimator = estimator_;
  job->answers.resize(batch.size());
  job->start = std::chrono::steady_clock::now();
  job->deadline = options.deadline;
  std::future<std::vector<ServedAnswer>> done = job->promise.get_future();
  if (!threads_.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    EnqueueLocked(job, options.client_id);
  }
  work_cv_.notify_all();
  // The caller participates as worker 0 (a no-op once the cursor is
  // exhausted), then waits out the pool.
  DrainJob(job, 0);
  return done.get();
}

std::vector<ServedAnswer> QueryServer::AnswerBatch(
    Span<AggregateQuery> batch, const SubmitOptions& options) {
  std::vector<ServedRequest> requests;
  requests.reserve(batch.size());
  for (const AggregateQuery& query : batch) {
    requests.push_back({query, AggregateKind::kCount});
  }
  return AnswerBatch(Span<ServedRequest>(requests), options);
}

Result<std::future<std::vector<ServedAnswer>>> QueryServer::SubmitBatch(
    std::vector<ServedRequest> batch, const SubmitOptions& options) {
  return SubmitBatchOn(estimator_, std::move(batch), options);
}

Result<std::future<std::vector<ServedAnswer>>> QueryServer::SubmitBatch(
    std::vector<AggregateQuery> batch, const SubmitOptions& options) {
  std::vector<ServedRequest> requests;
  requests.reserve(batch.size());
  for (AggregateQuery& query : batch) {
    requests.push_back({std::move(query), AggregateKind::kCount});
  }
  return SubmitBatchOn(estimator_, std::move(requests), options);
}

Result<std::future<std::vector<ServedAnswer>>> QueryServer::SubmitBatchOn(
    std::shared_ptr<const Estimator> estimator,
    std::vector<ServedRequest> batch, const SubmitOptions& options) {
  if (estimator == nullptr) {
    return Status::InvalidArgument("estimator must not be null");
  }
  auto job = std::make_shared<BatchJob>();
  job->owned_requests = std::move(batch);
  job->requests = Span<ServedRequest>(job->owned_requests);
  job->estimator = std::move(estimator);
  std::future<std::vector<ServedAnswer>> done = job->promise.get_future();
  if (job->requests.empty()) {
    job->promise.set_value({});
    return done;
  }
  job->start = std::chrono::steady_clock::now();
  if (options.has_deadline() && job->start >= options.deadline) {
    // Checked before any admission or work: an already-expired batch
    // is rejected identically at every worker count.
    return Status::DeadlineExceeded(
        "batch deadline passed before submission");
  }
  job->answers.resize(job->size());
  job->deadline = options.deadline;
  if (threads_.empty()) {
    // No pool: answer on the submitting thread, completing the job
    // (and its future) before returning. Nothing queues, so admission
    // control does not apply.
    DrainJob(job, 0);
    return done;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    Status admitted = AdmitLocked(lock, job->size());
    if (!admitted.ok()) return admitted;
    job->counted = true;
    queued_requests_ += job->size();
    EnqueueLocked(job, options.client_id);
  }
  work_cv_.notify_all();
  return done;
}

Status QueryServer::AdmitLocked(std::unique_lock<std::mutex>& lock,
                                size_t n) {
  if (shutdown_) {
    return Status::FailedPrecondition("server is shutting down");
  }
  const size_t cap = options_.max_queued_requests;
  if (cap == 0) return Status::Ok();
  if (options_.admission_policy == AdmissionPolicy::kReject) {
    if (queued_requests_ + n > cap) {
      return Status::ResourceExhausted(
          "queue full: admitting the batch would exceed "
          "max_queued_requests");
    }
    return Status::Ok();
  }
  // kBlock: wait for room. An over-cap batch can never fit, so it is
  // admitted alone once the queue fully drains instead of blocking
  // forever.
  room_cv_.wait(lock, [this, cap, n] {
    return shutdown_ || queued_requests_ == 0 ||
           queued_requests_ + n <= cap;
  });
  if (shutdown_) {
    return Status::FailedPrecondition("server is shutting down");
  }
  return Status::Ok();
}

void QueryServer::EnqueueLocked(const std::shared_ptr<BatchJob>& job,
                                uint64_t client_id) {
  ClientState& client = clients_[client_id];
  if (client.jobs.empty()) {
    client.deficit = 0;
    active_ring_.push_back(client_id);
  }
  client.jobs.push_back(job);
}

void QueryServer::ClaimChunkLocked(const std::shared_ptr<BatchJob>& job,
                                   Chunk* chunk) {
  const size_t chunk_size = static_cast<size_t>(options_.chunk_size);
  const bool expired =
      job->deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= job->deadline;
  chunk->job = job;
  chunk->begin = job->next_index;
  // An expired job sheds all remaining requests in one claim — they
  // cost no estimator work, so there is nothing to interleave.
  chunk->end =
      expired ? job->size() : std::min(chunk->begin + chunk_size, job->size());
  chunk->expired = expired;
  job->next_index = chunk->end;
}

bool QueryServer::ClaimNextChunkLocked(Chunk* chunk) {
  while (!active_ring_.empty()) {
    const uint64_t client_id = active_ring_.front();
    auto it = clients_.find(client_id);
    BETALIKE_CHECK(it != clients_.end());
    ClientState& client = it->second;
    // Prune jobs fully claimed elsewhere (a synchronous caller drains
    // its own job without consulting the ring).
    while (!client.jobs.empty() &&
           client.jobs.front()->next_index >= client.jobs.front()->size()) {
      client.jobs.pop_front();
    }
    if (client.jobs.empty()) {
      active_ring_.pop_front();
      clients_.erase(it);
      continue;
    }
    // Deficit round robin, quantum = one chunk of requests: each turn
    // a client claims one chunk (a short tail chunk leaves change for
    // the next turn), then the ring rotates — so a competitor's
    // head-of-line delay is bounded by one chunk per active client,
    // not by a whole batch.
    if (client.deficit <= 0) {
      client.deficit += static_cast<int64_t>(options_.chunk_size);
    }
    // Copies the job into *chunk before any pop below drops the queue's
    // reference.
    ClaimChunkLocked(client.jobs.front(), chunk);
    client.deficit -= static_cast<int64_t>(chunk->end - chunk->begin);
    if (chunk->end >= chunk->job->size()) client.jobs.pop_front();
    if (client.jobs.empty()) {
      active_ring_.pop_front();
      clients_.erase(it);
    } else if (client.deficit <= 0) {
      active_ring_.pop_front();
      active_ring_.push_back(client_id);
    }
    return true;
  }
  return false;
}

ServedAnswer QueryServer::AnswerOne(const Estimator& estimator,
                                    const AggregateQuery& query,
                                    AggregateKind kind) const {
  // Client queries reach the estimator only once their dimensions are
  // known to be in range and distinct: an out-of-range dimension would
  // index past the publication's boxes, and a duplicate would multiply
  // two box fractions instead of intersecting the ranges.
  if (!ValidateQuery(estimator.schema(), query).ok()) {
    return UnservedAnswer(AnswerStatus::kInvalidQuery);
  }
  EstimateWithVariance ev;
  bool integer_valued = true;
  switch (kind) {
    case AggregateKind::kCount:
      ev = estimator.EstimateWithUncertainty(query);
      break;
    case AggregateKind::kSum:
      ev = estimator.EstimateSumWithUncertainty(query);
      break;
    case AggregateKind::kAvg:
      ev = estimator.EstimateAvgWithUncertainty(query);
      integer_valued = false;
      break;
    case AggregateKind::kGroupCount:
      // Only slots outside the publication's SA domain or the query's
      // SA range come here (AnswerSlotRun computes the rest); they are
      // exactly zero — the ExpandGroupBy /
      // EstimateGroupByWithUncertainty convention.
      break;
  }
  return WithInterval(ev, integer_valued);
}

void QueryServer::AnswerSlotRun(const Estimator& estimator,
                                const ServedRequest* run, size_t n,
                                ServedAnswer* out) const {
  if (!ValidateQuery(estimator.schema(), run[0].query).ok()) {
    std::fill(out, out + n, UnservedAnswer(AnswerStatus::kInvalidQuery));
    return;
  }
  std::vector<EstimateWithVariance> slots(n);
  estimator.EstimateGroupSlots(run[0].query, run[0].group_value,
                               run[n - 1].group_value, slots.data());
  for (size_t k = 0; k < n; ++k) {
    out[k] = WithInterval(slots[k], /*integer_valued=*/true);
  }
}

ServedAnswer QueryServer::WithInterval(const EstimateWithVariance& ev,
                                       bool integer_valued) const {
  const double sd = DeterministicSqrt(ev.variance > 0.0 ? ev.variance : 0.0);
  // +0.5 continuity correction: the interval is for an integer-valued
  // aggregate estimated by a continuous model. AVG is a ratio, not an
  // integer, so it takes the plain z·sd half-width.
  const double half = integer_valued ? z_ * sd + 0.5 : z_ * sd;
  ServedAnswer out;
  out.estimate = ev.estimate;
  out.ci_lo = ev.estimate - half > 0.0 ? ev.estimate - half : 0.0;
  // An infinite variance (or any arithmetic that poisons `half`) must
  // widen the interval, never invalidate it: a NaN upper bound fails
  // every coverage comparison, so clamp it to +inf — "no upper
  // bound" — instead.
  const double hi = ev.estimate + half;
  out.ci_hi = hi == hi ? hi : kDoubleInfinity;
  return out;
}

void QueryServer::DrainJob(const std::shared_ptr<BatchJob>& job, int worker) {
  for (;;) {
    Chunk chunk;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (job->next_index >= job->size()) return;
      // The ring entry (if any) is pruned lazily by the pool when it
      // next looks at this client.
      ClaimChunkLocked(job, &chunk);
    }
    AnswerChunk(chunk, worker);
  }
}

void QueryServer::AnswerChunk(const Chunk& chunk, int worker) {
  BatchJob& job = *chunk.job;
  GuardedHistogram& guarded = *histograms_[worker];
  // One latency sample per request; a slot run's service time is split
  // evenly across its slots. The per-worker guard is all but
  // uncontended (only observers ever share it), but it makes
  // concurrent MergedHistogram / ResetHistograms well-defined on the
  // async path, where there is no "between batches" to snapshot in.
  const auto record = [&guarded](uint64_t nanos, size_t requests) {
    std::lock_guard<std::mutex> lock(guarded.mu);
    for (size_t k = 0; k < requests; ++k) {
      guarded.hist.Record(nanos / requests);
    }
  };
  if (chunk.expired) {
    // Shed, not served: zero placeholders with kDeadlineExceeded, no
    // estimator work and no per-query latency samples.
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      job.answers[i] = UnservedAnswer(AnswerStatus::kDeadlineExceeded);
    }
  } else {
    const int32_t sa_num_values = job.estimator->sa_num_values();
    for (size_t i = chunk.begin; i < chunk.end;) {
      const auto start = std::chrono::steady_clock::now();
      // A slot run never reaches past the chunk, so deadline shedding
      // stays chunk-aligned.
      const ServedRequest* request = &job.requests[i];
      size_t served = SlotRunLength(request, chunk.end - i, sa_num_values);
      if (served > 0) {
        AnswerSlotRun(*job.estimator, request, served, &job.answers[i]);
      } else {
        served = 1;
        job.answers[i] =
            AnswerOne(*job.estimator, request->query, request->kind);
      }
      record(ElapsedNanos(start, std::chrono::steady_clock::now()), served);
      i += served;
    }
  }
  // acq_rel: every worker's answer stores happen-before its own
  // fetch_add, so the last finisher (which observes completed == size)
  // sees all of them before moving the vector out.
  const size_t size = job.size();
  const size_t done =
      job.completed.fetch_add(chunk.end - chunk.begin,
                              std::memory_order_acq_rel) +
      (chunk.end - chunk.begin);
  if (done == size) {
    const uint64_t batch_nanos =
        ElapsedNanos(job.start, std::chrono::steady_clock::now());
    bool notify_room = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_histogram_.Record(batch_nanos);
      if (job.counted) {
        queued_requests_ -= size;
        notify_room = true;
      }
    }
    if (notify_room) room_cv_.notify_all();
    job.promise.set_value(std::move(job.answers));
  }
}

void QueryServer::WorkerLoop(int worker) {
  for (;;) {
    Chunk chunk;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (ClaimNextChunkLocked(&chunk)) break;
        if (shutdown_) return;
        work_cv_.wait(lock);
      }
    }
    AnswerChunk(chunk, worker);
  }
}

LatencyHistogram QueryServer::MergedHistogram() const {
  LatencyHistogram merged;
  for (const auto& guarded : histograms_) {
    std::lock_guard<std::mutex> lock(guarded->mu);
    merged.Merge(guarded->hist);
  }
  return merged;
}

LatencyHistogram QueryServer::BatchHistogram() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batch_histogram_;
}

void QueryServer::ResetHistograms() {
  for (const auto& guarded : histograms_) {
    std::lock_guard<std::mutex> lock(guarded->mu);
    guarded->hist.Reset();
  }
  std::lock_guard<std::mutex> lock(mu_);
  batch_histogram_.Reset();
}

size_t QueryServer::queued_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_requests_;
}

}  // namespace betalike
