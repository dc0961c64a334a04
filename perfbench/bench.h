// Shared declarations of the end-to-end benchmark harness: the metric sink,
// the in-memory span recorder used by traced runs, the output checks, and
// the three workloads (table1, saturate, serve). See README.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "lang/graph.h"
#include "optimizer/optimizer.h"

namespace perfbench {

/// Seconds on the steady clock since the harness process entered main().
double since_start_s();

/// splitmix64: a small seeded generator whose sequence is fixed by the
/// seed alone (std:: distributions are implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform in [0, n).
  size_t below(size_t n) { return static_cast<size_t>(next() % n); }

 private:
  uint64_t state_;
};

// ---- Metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& all() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// ---- Checks ------------------------------------------------------------------

/// Collects failed output checks; a run is `correct` when none failed.
class CheckLog {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// Empty when `candidate` computes the same outputs as `reference` under the
/// reference interpreter seeded with `seed` (same count and shapes; every
/// element within rtol of the reference scale), else a description of the
/// first mismatch. Outputs are the roots with the optimizer's single-rooting
/// noop chain flattened; `merge` nodes feeding a convolution weight are
/// lowered to the block-diagonal weight they denote (the interpreter
/// rejects merge).
std::string compare_outputs(const tensat::Graph& reference,
                            const tensat::Graph& candidate, uint64_t seed,
                            double rtol = 1e-3);

/// Empty when `g` is acyclic and shape-valid: it round-trips through the
/// text format (whose loader re-runs shape inference on every node and
/// rejects forward or dangling references) to the same canonical structure.
std::string structure_error(const tensat::Graph& g);

/// Empty when `reported` equals `recomputed` within a relative 1e-9.
std::string cost_error(double reported, double recomputed);

/// Empty when a served response is byte-identical to the expected bytes,
/// else the offset of the first differing byte.
std::string bytes_error(const std::string& got, const std::string& want);

/// The thread-determinism check of the saturate workload: the N-thread run
/// must have used more than one thread, the reference exactly one, and both
/// must agree on e-node count, applications, and optimized cost.
struct ThreadRun {
  size_t threads{0};
  size_t enodes{0};
  size_t applications{0};
  double cost{0.0};
};
std::string thread_parity_error(const ThreadRun& reference, const ThreadRun& parallel);

// ---- Tracing -----------------------------------------------------------------

/// In-memory span recorder for traced runs: one span per public call the
/// harness makes, nested by a parent index. Written out once at the end.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_us;
    double end_us;
    int parent;        // index into spans(), -1 for a root
    uint64_t request;  // operation id the span belongs to
  };

  int open(const std::string& name, uint64_t request);
  void close(int index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events), loadable in Perfetto.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;
  /// Per-name count, total and self time (duration minus the part of it
  /// covered by direct children), sorted by self time.
  void print_table(FILE* out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null recorder makes it a no-op.
class Scoped {
 public:
  Scoped(Spans* spans, const std::string& name, uint64_t request)
      : spans_(spans), index_(spans ? spans->open(name, request) : -1) {}
  ~Scoped() {
    if (spans_) spans_->close(index_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans* spans_;
  int index_;
};

// ---- Workloads ---------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed{1};
  int seconds{10};
  bool trace{false};
  std::string trace_path;  // Chrome trace output of a traced run
};

struct RunResult {
  CheckLog checks;
  size_t attempted{0};
  size_t failed{0};
  Metrics metrics;
};

/// Runs the named workload; false when the name is unknown.
bool run_workload(const RunConfig& config, RunResult& result);

/// Exercises every check against deliberately broken outputs; 0 on success.
int self_test();

// Helpers shared by the workloads and the self-test.
double median(std::vector<double> v);
double percentile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
double peak_rss_mb();
/// The same graph text with node lines in a seeded random topological
/// order and ids renumbered to match (roots keep their order): a client
/// that serializes the same graph differently.
std::string relabel(const std::string& text, Rng& rng);
/// Certified when the extraction's gap is within the requested rel_gap.
bool certified(const tensat::TensatResult& r, const tensat::TensatOptions& o);

}  // namespace perfbench
