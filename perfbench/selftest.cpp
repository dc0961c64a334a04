// Self-test of the benchmark's checks: each check must accept a correct
// output and reject a deliberately broken one — a graph with one weight
// swapped, a cost off by a small amount, a changed byte in a cache-hit
// response, and a thread-count mismatch.
//
//   python3 perfbench/run.py --self-test     (exit 0 when every case holds)
#include <cstdio>
#include <sstream>

#include "bench.h"
#include "cost/cost.h"
#include "models/models.h"
#include "rewrite/rules.h"
#include "serialize/serialize.h"
#include "service/service.h"

namespace perfbench {

using namespace tensat;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::fprintf(stderr, "%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

/// `text` with the tensor names of two same-shaped weights exchanged (the
/// data the interpreter synthesizes follows the name), or "" if the graph
/// has no such pair.
std::string swap_two_weights(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  for (size_t a = 0; a < lines.size(); ++a) {
    const size_t sa = lines[a].find(" str w");
    if (sa == std::string::npos) continue;
    const std::string dims_a = lines[a].substr(lines[a].find('@'));
    for (size_t b = a + 1; b < lines.size(); ++b) {
      const size_t sb = lines[b].find(" str w");
      if (sb == std::string::npos || lines[b].substr(lines[b].find('@')) != dims_a) continue;
      const std::string head_a = lines[a].substr(0, sa + 5);
      const std::string head_b = lines[b].substr(0, sb + 5);
      const std::string name_a = lines[a].substr(sa + 5);
      lines[a] = head_a + lines[b].substr(sb + 5);
      lines[b] = head_b + name_a;
      std::string out;
      for (const std::string& l : lines) out += l + "\n";
      return out;
    }
  }
  return "";
}

}  // namespace

int self_test() {
  const std::vector<Rewrite>& rules = default_rules();
  const T4CostModel model;
  TensatOptions o;
  o.search_threads = o.apply_threads = o.ilp.core_threads = 1;
  const Graph input = make_inception_v3(1, 8, 8);
  const TensatResult r = optimize(input, rules, model, o);
  const uint64_t seed = 7;

  // 1. A graph with one weight swapped computes another function.
  expect(compare_outputs(input, r.optimized, seed).empty(),
         "interpreter check accepts the optimized graph");
  const std::string swapped = swap_two_weights(save_graph_to_string(r.optimized));
  expect(!swapped.empty(), "the optimized graph has two same-shaped weights");
  if (!swapped.empty()) {
    const Graph bad = load_graph_from_string(swapped);
    expect(structure_error(bad).empty(), "the swapped graph is still well-formed");
    expect(!compare_outputs(input, bad, seed).empty(),
           "interpreter check rejects a graph with one weight swapped");
  }

  // 2. A cost off by a small amount.
  const double cost = graph_cost(r.optimized, model);
  expect(cost_error(r.optimized_cost, cost).empty(), "cost check accepts the reported cost");
  expect(!cost_error(r.optimized_cost + 0.01, cost).empty(),
         "cost check rejects a cost 0.01 us too high");
  expect(!cost_error(r.optimized_cost * (1 - 1e-7), cost).empty(),
         "cost check rejects a cost 1e-7 relative too low");

  // 3. A changed byte in a cache-hit response.
  service::ServiceOptions so;
  so.tensat = o;
  service::OptimizationService svc(rules, model, so);
  const std::string text = save_graph_to_string(input);
  const service::ServiceResponse miss = svc.submit(text);
  const service::ServiceResponse hit = svc.submit(text);
  const std::string fresh = save_graph_to_string(r.optimized);
  expect(!miss.cache_hit && hit.cache_hit, "second submission is a cache hit");
  expect(bytes_error(hit.optimized_text, fresh).empty(),
         "byte check accepts a hit equal to a fresh optimize()");
  std::string changed = hit.optimized_text;
  changed[changed.size() / 2] ^= 1;
  expect(!bytes_error(changed, fresh).empty(),
         "byte check rejects a hit with one changed byte");

  // 4. A thread-count mismatch.
  TensatOptions sat = o;
  sat.extractor = ExtractorKind::kGreedy;
  sat.k_multi = 2;
  const TensatResult one = optimize(input, rules, model, sat);
  sat.search_threads = sat.apply_threads = 2;
  const TensatResult two = optimize(input, rules, model, sat);
  const ThreadRun ref{1, one.explore.enodes_total, one.explore.applications, one.optimized_cost};
  const ThreadRun par{2, two.explore.enodes_total, two.explore.applications, two.optimized_cost};
  expect(thread_parity_error(ref, par).empty(), "parity check accepts 1 vs 2 threads");
  expect(!thread_parity_error(ref, {1, par.enodes, par.applications, par.cost}).empty(),
         "parity check rejects a 'parallel' run made with 1 thread");
  expect(!thread_parity_error({2, ref.enodes, ref.applications, ref.cost}, par).empty(),
         "parity check rejects a reference made with 2 threads");
  expect(!thread_parity_error(ref, {2, par.enodes + 1, par.applications, par.cost}).empty(),
         "parity check rejects an e-node count mismatch");
  expect(!thread_parity_error(ref, {2, par.enodes, par.applications - 1, par.cost}).empty(),
         "parity check rejects an applications mismatch");

  std::fprintf(stderr, "self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
