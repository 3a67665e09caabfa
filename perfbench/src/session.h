// One benchmark run: set up a workload's publications and server, then
// measure publishing and serving for a fixed time, and check every
// output on the way.
//
// Every workload runs the same session — generate a CENSUS table,
// publish it three ways (BUREL β-likeness, its SA-perturbed view,
// Anatomy), then serve COUNT traffic and mixed-aggregate traffic from
// the publications — so every workload reports every metric. The
// workloads differ in their inputs (table size and QI count) and in
// how the run's time is split between the phases, which decides the
// layer that dominates each one.
#ifndef PERFBENCH_SESSION_H_
#define PERFBENCH_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  int64_t rows = 0;
  int num_qi = 5;
  // Shares of the measured seconds spent publishing, serving COUNT
  // batches, and serving mixed batches (split evenly over the three
  // publication shapes).
  double publish_share = 0.0;
  double count_share = 0.0;
  double mixed_share = 0.0;
};

// The named workload, or NotFound. `tiny` shrinks the table for the
// benchmark's self-test.
betalike::Result<WorkloadConfig> FindWorkload(const std::string& name,
                                              bool tiny);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  WorkloadConfig workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  // Where the traced run writes its spans; empty writes nothing.
  std::string trace_path;
  // Printed into the span file's header line.
  std::string trace_header;
};

struct RunResult {
  // Ok, or the first failed output check.
  betalike::Status status;
  int64_t attempted = 0;
  int64_t failed = 0;
  // The end-to-end metrics (untraced run) or the per-layer metrics
  // (traced run).
  std::vector<Metric> metrics;
  // Run facts the result line has no room for: EC count and hash,
  // sample counts. One JSON object.
  std::string facts_json;
};

RunResult RunSession(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SESSION_H_
