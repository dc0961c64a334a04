// tensat_perfbench: the end-to-end benchmark of the TENSAT pipeline.
//
//   tensat_perfbench --workload <table1|saturate|serve> --seed <n>
//                    --seconds <s> --trace <0|1> [--trace-out <path>]
//   tensat_perfbench --self-test
//
// Prints a human-readable report on stderr and, as the last line of stdout,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans go to --trace-out as Chrome trace JSON.
// See README.md for what each workload runs and how each metric is made.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: tensat_perfbench --workload <table1|saturate|serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n"
               "       tensat_perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::since_start_s();  // anchors the process-start clock
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return perfbench::self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stoi(value);
      } else if (arg == "--trace") {
        config.trace = value == "1";
      } else if (arg == "--trace-out") {
        config.trace_path = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (config.workload.empty() || config.seconds < 1) return usage();
  if (config.trace_path.empty())
    config.trace_path = "perfbench-trace-" + config.workload + ".json";

  perfbench::RunResult result;
  try {
    if (!perfbench::run_workload(config, result)) return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  for (const std::string& f : result.checks.failures())
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::fprintf(stderr, "attempted %zu, failed %zu, correct %s\n", result.attempted,
               result.failed, result.checks.ok() ? "true" : "false");

  std::string json = "{\"correct\": ";
  json += result.checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : result.metrics.all()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
