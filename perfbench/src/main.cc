// The benchmark binary run.py builds and drives:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <path>] [--git-sha <sha>]
//
// Prints one metadata line ({"meta": {...}}: git SHA, compiler, CPU
// count, workload config, seed and the run's facts), then the result
// line {"correct", "attempted", "failed", "metrics"}. On a failed
// output check the result carries no metrics and the exit code is 1.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/formation.h"
#include "session.h"

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--trace-out <path>] "
               "[--git-sha <sha>]\n",
               why);
  return 2;
}

bool ParseInt(const char* text, long long min, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value < min) return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  long long seconds = -1;
  long long trace = -1;
  bool tiny = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      if (!ParseInt(value, 0, &seed)) return Usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!ParseInt(value, 1, &seconds)) return Usage("bad --seconds");
    } else if (arg == "--trace") {
      if (!ParseInt(value, 0, &trace) || trace > 1) {
        return Usage("bad --trace");
      }
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload.empty() || seed < 0 || seconds < 0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  auto config = perfbench::FindWorkload(workload, tiny);
  if (!config.ok()) return Usage(config.status().ToString().c_str());

  const std::string meta =
      "\"git_sha\": " + JsonString(git_sha) +
      ", \"compiler\": " + JsonString(__VERSION__) +
      ", \"cpus\": " + std::to_string(betalike::AvailableConcurrency()) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"seconds\": " + std::to_string(seconds) +
      ", \"trace\": " + std::to_string(trace) +
      ", \"config\": {\"workload\": " + JsonString(config->name) +
      ", \"rows\": " + std::to_string(config->rows) +
      ", \"num_qi\": " + std::to_string(config->num_qi) +
      ", \"publish_share\": " + Number(config->publish_share) +
      ", \"count_share\": " + Number(config->count_share) +
      ", \"mixed_share\": " + Number(config->mixed_share) +
      ", \"tiny\": " + (tiny ? "true" : "false") + "}";

  perfbench::RunOptions options;
  options.workload = *config;
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = static_cast<double>(seconds);
  options.traced = trace == 1;
  options.trace_path = trace_out;
  options.trace_header = "{" + meta + "}";
  const perfbench::RunResult run = perfbench::RunSession(options);

  std::string facts = run.facts_json.empty() ? "{}" : run.facts_json;
  if (!run.status.ok()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 run.status.ToString().c_str());
  }
  std::printf("{\"meta\": {%s, \"facts\": %s, \"error\": %s}}\n", meta.c_str(),
              facts.c_str(),
              run.status.ok() ? "null"
                              : JsonString(run.status.ToString()).c_str());
  std::string metrics;
  for (const perfbench::Metric& metric : run.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(metric.name) + ": {\"value\": " +
               Number(metric.value) + ", \"unit\": " +
               JsonString(metric.unit) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      run.status.ok() ? "true" : "false",
      static_cast<long long>(run.attempted),
      static_cast<long long>(run.failed), metrics.c_str());
  return run.status.ok() ? 0 : 1;
}
