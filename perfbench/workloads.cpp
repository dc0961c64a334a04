// The model workloads: `table1` (the paper's Table 1 row — default options,
// ILP extraction, one thread) and `saturate` (the paper's exploration
// settings, greedy extraction, a fixed pipeline width above one thread).
//
// Timed phase: every preset optimized once, the fast ones a fixed number
// of extra times, spread over the phase; a preset's time is its fastest
// call. Every operation is bounded by iteration/node counts and B&B
// outcomes; only the ILP time limit of the two table1 presets that never
// certify is a clock. Checks run after the timed phase.
#include <algorithm>
#include <map>

#include "bench.h"
#include "cost/cost.h"
#include "models/models.h"
#include "rewrite/rules.h"
#include "serialize/serialize.h"
#include "support/pool.h"
#include "support/timer.h"

namespace perfbench {

using namespace tensat;

int run_serve(const RunConfig& config, RunResult& result);  // serve.cpp

namespace {

/// Every per-layer metric a traced run reports, with its unit.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"extract.engine_s", "s"},         {"extract.reduce_s", "s"},
    {"extract.solve_s", "s"},          {"extract.largest_core_vars", "count"},
    {"extract.fallback_cores", "count"}, {"extract.certified", "count"},
    {"extract.greedy_s", "s"},         {"ilp.bb_nodes", "count"},
    {"ilp.lp_iterations", "count"},    {"ilp.lp_iterations_per_s", "1/s"},
    {"ilp.warm_start_hits", "count"},  {"ilp.refactorizations", "count"},
    {"explore.run_s", "s"},            {"explore.iterations", "count"},
    {"ematch.search_s", "s"},          {"ematch.matches", "count"},
    {"apply.apply_s", "s"},            {"apply.applications", "count"},
    {"apply.applications_per_match", "ratio"}, {"egraph.seed_s", "s"},
    {"egraph.rebuild_s", "s"},         {"egraph.enodes", "count"},
    {"egraph.eclasses", "count"},      {"cycles.dmap_s", "s"},
    {"cycles.sweep_s", "s"},           {"cycles.filtered", "count"},
    {"pool.explore_speedup", "ratio"}, {"pool.steals", "count"},
    {"service.hit_ms", "ms"},          {"service.miss_ms", "ms"},
    {"service.session_ms", "ms"},      {"service.canonical_us", "us"},
    {"service.hit_ratio", "ratio"},    {"service.sessions_reused", "count"},
    {"serialize.load_us", "us"},       {"serialize.save_us", "us"},
    {"trace.overhead_ratio", "ratio"},
};

/// Pipeline width of the saturate workload (fixed, so runs compare).
constexpr size_t kSaturateThreads = 2;

struct ModelWorkload {
  TensatOptions options;
  /// Extra timed calls per preset at --seconds 10 (absent = one call only):
  /// enough that a fast preset's fastest call is steady. They scale with
  /// --seconds as a count, so every run with the same arguments does the
  /// same work.
  std::map<std::string, int> extra_rounds;
  /// Presets left out of speedup_geomean because the cost they return
  /// depends on where the ILP clock stops (see README.md); they stay in the
  /// timed pass and the failed count.
  std::vector<std::string> clock_dependent_cost;
};

ModelWorkload table1_workload() {
  ModelWorkload w;
  w.options.search_threads = 1;
  w.options.apply_threads = 1;
  w.options.ilp.core_threads = 1;
  w.extra_rounds = {{"ResNeXt-50", 60}, {"NasNet-A", 12}, {"Inception-v3", 20},
                    {"SqueezeNet", 6}};
  w.clock_dependent_cost = {"NasRNN"};
  return w;
}

ModelWorkload saturate_workload(size_t threads) {
  ModelWorkload w;
  w.options.node_limit = 50000;  // the paper's N_max
  w.options.k_max = 15;
  w.options.k_multi = 2;
  w.options.extractor = ExtractorKind::kGreedy;
  w.options.search_threads = threads;
  w.options.apply_threads = threads;
  w.options.ilp.core_threads = threads;
  w.extra_rounds = {{"NasRNN", 7}, {"BERT", 7}, {"ResNeXt-50", 7}, {"NasNet-A", 7},
                    {"SqueezeNet", 7}, {"VGG-19", 7}, {"Inception-v3", 7}};
  return w;
}

/// The public calls optimize() makes, one by one, each under its own span;
/// with the ILP extractor also a greedy extraction of the same e-graph.
struct Decomposed {
  ExploreStats explore;
  EngineExtractionResult ilp;
  ExtractionResult greedy;
  double seed_s{0}, explore_s{0}, engine_s{0}, greedy_s{0};
  double original_cost{0}, optimized_cost{0};
};

Decomposed run_decomposed(const Graph& g, const std::vector<Rewrite>& rules,
                          const CostModel& model, const TensatOptions& o, Spans* spans,
                          uint64_t request, bool run_engine) {
  Decomposed d;
  EGraph eg;
  {
    Scoped whole(spans, "optimize", request);
    {
      Scoped s(spans, "cost.graph_cost", request);
      d.original_cost = graph_cost(g, model);
    }
    Timer t;
    {
      Scoped s(spans, "egraph.seed", request);
      eg = seed_egraph(g);
    }
    d.seed_s = t.seconds();
    t.reset();
    {
      Scoped s(spans, "explore.run", request);
      d.explore = run_exploration(eg, rules, o);
    }
    d.explore_s = t.seconds();
    t.reset();
    if (run_engine) {
      Scoped s(spans, "extract.engine", request);
      d.ilp = extract_engine(eg, model, o.ilp);
      d.engine_s = t.seconds();
    } else {
      Scoped s(spans, "extract.greedy", request);
      d.greedy = extract_greedy(eg, model);
      d.greedy_s = t.seconds();
    }
    Scoped s(spans, "cost.graph_cost", request);
    if (run_engine ? d.ilp.ok : d.greedy.ok)
      d.optimized_cost = graph_cost(run_engine ? d.ilp.graph : d.greedy.graph, model);
  }
  if (run_engine) {
    // Not part of optimize(): the greedy bound the table1 checks compare to.
    Timer t;
    Scoped s(spans, "extract.greedy", request);
    d.greedy = extract_greedy(eg, model);
    d.greedy_s = t.seconds();
  }
  return d;
}

void warm_pool(size_t threads) {
  if (threads < 2) return;
  WorkStealingPool::global().for_each(
      threads, threads, [](void*, size_t) {}, nullptr);
}

int run_models(const RunConfig& config, const ModelWorkload& w, RunResult& result) {
  // ---- Set-up: presets, rules, cost model, pool workers, warm-up. ----------
  const std::vector<ModelInfo> models = paper_models();
  const std::vector<Rewrite>& rules = default_rules();
  const T4CostModel model;
  const bool ilp = w.options.extractor == ExtractorKind::kIlp;
  const size_t threads = w.options.search_threads;
  warm_pool(threads);
  // Lazy set-up finishes before timing: a process's first optimize() calls
  // touch code and allocator state that every later call reuses.
  for (const ModelInfo& tiny : tiny_models())
    if (tiny.name == "ResNeXt-50" || tiny.name == "Inception-v3" || tiny.name == "ResNet-50")
      (void)optimize(tiny.graph, rules, model, w.options);
  const double setup_s = since_start_s();

  // ---- Timed phase. ------------------------------------------------------------
  // Each preset is optimized 1 + extra_rounds times. Its calls are spread
  // evenly over the whole phase (one schedule of `total_rounds` rounds, each
  // preset at its own phase offset), so that the fast presets' samples are
  // interleaved with the long ones rather than bunched in a few seconds,
  // and a preset's time is the fastest of its calls (see README.md, noise).
  const size_t n = models.size();
  // Traced runs skip the extra rounds: their numbers come from one pass.
  auto calls_of = [&](const std::string& name) {
    auto it = w.extra_rounds.find(name);
    if (config.trace || it == w.extra_rounds.end()) return 1;
    return 1 + std::max(1, it->second * config.seconds / 10);
  };
  int total_rounds = 1;
  for (const ModelInfo& mi : models) total_rounds = std::max(total_rounds, calls_of(mi.name));
  std::vector<std::vector<size_t>> schedule(total_rounds);  // presets per round
  for (size_t i = 0; i < n; ++i) {
    const int calls = calls_of(models[i].name);
    const double phase = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    for (int j = 0; j < calls; ++j)
      schedule[static_cast<size_t>((j + phase) * total_rounds / calls)].push_back(i);
  }
  std::vector<TensatResult> first(n);
  std::vector<bool> ran(n, false);
  std::vector<std::vector<double>> secs(n);
  std::vector<double> repeat_costs;
  std::vector<size_t> repeat_model;
  Timer phase_timer;
  for (const std::vector<size_t>& round : schedule) {
    for (size_t i : round) {
      Timer t;
      TensatResult r = optimize(models[i].graph, rules, model, w.options);
      secs[i].push_back(t.seconds());
      if (!ran[i]) {
        ran[i] = true;
        first[i] = std::move(r);
      } else {
        repeat_costs.push_back(r.optimized_cost);
        repeat_model.push_back(i);
      }
    }
  }
  const double rss_mb = peak_rss_mb();
  const double timed_s = phase_timer.seconds();

  // ---- Outcomes. -----------------------------------------------------------------
  result.attempted = n;
  std::vector<double> best, speedups, all_secs;
  for (size_t i = 0; i < n; ++i) {
    const TensatResult& r = first[i];
    const bool ok = ilp ? certified(r, w.options) : r.explore.stop != StopReason::kTimeLimit;
    if (!ok) ++result.failed;
    best.push_back(*std::min_element(secs[i].begin(), secs[i].end()));
    all_secs.insert(all_secs.end(), secs[i].begin(), secs[i].end());
    std::fprintf(stderr,
                 "%-13s %s cost %10.2f -> %10.2f  best %9.4f median %9.4f s of %2zu  "
                 "enodes %6zu  gap %.4g%s\n",
                 models[i].name.c_str(), ok ? "ok    " : "FAILED", r.original_cost,
                 r.optimized_cost, best.back(), median(secs[i]), secs[i].size(),
                 r.explore.enodes_total,
                 r.extract_stats.gap,
                 r.extract_stats.fallback_cores ? "  (LP fallback)" : "");
    if (std::find(w.clock_dependent_cost.begin(), w.clock_dependent_cost.end(),
                  models[i].name) == w.clock_dependent_cost.end())
      speedups.push_back(graph_cost(models[i].graph, model) / graph_cost(r.optimized, model));
  }

  // ---- Checks (untimed). ---------------------------------------------------------
  for (size_t k = 0; k < repeat_costs.size(); ++k) {
    const size_t i = repeat_model[k];
    result.checks.expect(cost_error(repeat_costs[k], first[i].optimized_cost).empty(),
                         models[i].name + ": a repeated run returned another cost");
  }
  std::unique_ptr<Spans> spans = config.trace ? std::make_unique<Spans>() : nullptr;
  TensatOptions serial = w.options;
  serial.search_threads = serial.apply_threads = serial.ilp.core_threads = 1;
  std::vector<Decomposed> traced(n);
  std::vector<double> load_us, save_us;
  const auto steals_before = WorkStealingPool::global().stats().steals;
  double traced_pass_s = 0.0, serial_explore_s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const Graph& g = models[i].graph;
    const TensatResult& r = first[i];
    const std::string who = models[i].name + ": ";
    result.checks.expect(structure_error(r.optimized).empty(),
                         who + structure_error(r.optimized));
    const std::string cost_err = cost_error(r.optimized_cost, graph_cost(r.optimized, model));
    result.checks.expect(cost_err.empty(), who + cost_err);
    result.checks.expect(r.optimized_cost <= graph_cost(g, model) * (1 + 1e-12),
                         who + "optimized cost above the input's");
    const std::string eq = compare_outputs(g, r.optimized, config.seed);
    result.checks.expect(eq.empty(), who + eq);

    // The same pipeline as public calls: timed under spans in traced runs
    // (the traced pass); on table1 also the greedy bound of the checks.
    if (ilp || config.trace) {
      Timer t;
      traced[i] = run_decomposed(g, rules, model, w.options, spans.get(), i + 1,
                                 ilp && config.trace);
      const Decomposed& d = traced[i];
      traced_pass_s += t.seconds() - (ilp ? d.greedy_s : 0.0);
      result.checks.expect(d.explore.enodes_total == r.explore.enodes_total &&
                               d.explore.applications == r.explore.applications,
                           who + "re-exploration differs from optimize()'s");
    }
    if (ilp) {
      const Decomposed& d = traced[i];
      result.checks.expect(!r.ilp.ok || r.ilp.cost <= d.greedy.cost * (1 + 1e-9),
                           who + "ILP cost above greedy on the same e-graph");
      result.checks.expect(!r.ilp.ok || r.ilp.best_bound <= r.ilp.cost * (1 + 1e-9),
                           who + "best bound above the returned cost");
    } else {
      // Thread parity: the same preset at one thread.
      const Decomposed one = run_decomposed(g, rules, model, serial, nullptr, i + 1, false);
      serial_explore_s += one.explore_s;
      const std::string par = thread_parity_error(
          {1, one.explore.enodes_total, one.explore.applications, one.greedy.cost},
          {threads, r.explore.enodes_total, r.explore.applications, r.optimized_cost});
      result.checks.expect(par.empty(), who + par);
    }
    {
      Timer ts;
      std::string text;
      {
        Scoped s(spans.get(), "serialize.save", i + 1);
        text = save_graph_to_string(r.optimized);
      }
      save_us.push_back(ts.seconds() * 1e6);
      ts.reset();
      Scoped s(spans.get(), "serialize.load", i + 1);
      const Graph back = load_graph_from_string(text);
      load_us.push_back(ts.seconds() * 1e6);
    }
  }

  std::fprintf(stderr, "set-up %.3f s, timed phase %.1f s, checks %.1f s\n", setup_s, timed_s,
               phase_timer.seconds() - timed_s);
  Metrics& m = result.metrics;
  if (!config.trace) {
    // One pass that optimizes each preset once, at each preset's best.
    double optimize_s = 0.0;
    for (double s : best) optimize_s += s;
    m.set("setup_s", setup_s, "s");
    m.set("optimize_s", optimize_s, "s");
    m.set("optimize_geomean_s", geomean(best), "s");
    m.set("speedup_geomean", geomean(speedups), "ratio");
    m.set("peak_rss_mb", rss_mb, "MB");
    // A preset's latency is its best optimize() time; the percentiles are
    // over the presets.
    m.set("requests_per_s", static_cast<double>(n) / optimize_s, "1/s");
    m.set("latency_p50_ms", percentile(best, 0.5) * 1e3, "ms");
    m.set("latency_p99_ms", percentile(best, 0.99) * 1e3, "ms");
    std::fprintf(stderr, "latency samples: %zu presets (%zu optimize() calls)\n", n,
                 all_secs.size());
    return 0;
  }

  // ---- Per-layer metrics of the traced pass. -------------------------------
  double engine_s = 0, reduce_s = 0, solve_s = 0, greedy_s = 0, explore_s = 0, seed_s = 0;
  double search_s = 0, apply_s = 0, rebuild_s = 0, dmap_s = 0, sweep_s = 0;
  double largest = 0, fallback = 0, certified_n = 0, bb = 0, lp_it = 0, warm = 0, refac = 0;
  double iters = 0, matches = 0, apps = 0, enodes = 0, eclasses = 0, filtered = 0;
  for (size_t i = 0; i < n; ++i) {
    const Decomposed& d = traced[i];
    const ExploreStats& e = d.explore;
    seed_s += d.seed_s;
    explore_s += d.explore_s;
    greedy_s += d.greedy_s;
    iters += e.iterations;
    search_s += e.search_seconds;
    apply_s += e.apply_seconds;
    rebuild_s += e.rebuild_seconds;
    dmap_s += e.dmap_seconds;
    sweep_s += e.cycle_sweep_seconds;
    matches += static_cast<double>(e.matches_found + e.multi_matches_found);
    apps += static_cast<double>(e.applications);
    enodes += static_cast<double>(e.enodes_total);
    eclasses += static_cast<double>(e.eclasses);
    filtered += static_cast<double>(e.filtered);
    if (ilp) {
      const ExtractStats& x = d.ilp.stats;
      engine_s += d.engine_s;
      reduce_s += x.reduce_seconds;
      solve_s += x.solve_seconds;
      largest = std::max(largest, static_cast<double>(x.largest_core_vars));
      fallback += static_cast<double>(x.fallback_cores);
      certified_n += x.gap <= w.options.ilp.rel_gap ? 1 : 0;
      bb += d.ilp.bb_nodes;
      lp_it += d.ilp.lp_iterations;
      warm += x.warm_start_hits;
      refac += x.refactorizations;
    }
  }
  m.set("extract.engine_s", engine_s, "s");
  m.set("extract.reduce_s", reduce_s, "s");
  m.set("extract.solve_s", solve_s, "s");
  m.set("extract.largest_core_vars", largest, "count");
  m.set("extract.fallback_cores", fallback, "count");
  m.set("extract.certified", certified_n, "count");
  m.set("extract.greedy_s", greedy_s, "s");
  m.set("ilp.bb_nodes", bb, "count");
  m.set("ilp.lp_iterations", lp_it, "count");
  m.set("ilp.lp_iterations_per_s", solve_s > 0 ? lp_it / solve_s : 0.0, "1/s");
  m.set("ilp.warm_start_hits", warm, "count");
  m.set("ilp.refactorizations", refac, "count");
  m.set("explore.run_s", explore_s, "s");
  m.set("explore.iterations", iters, "count");
  m.set("ematch.search_s", search_s, "s");
  m.set("ematch.matches", matches, "count");
  m.set("apply.apply_s", apply_s, "s");
  m.set("apply.applications", apps, "count");
  m.set("apply.applications_per_match", matches > 0 ? apps / matches : 0.0, "ratio");
  m.set("egraph.seed_s", seed_s, "s");
  m.set("egraph.rebuild_s", rebuild_s, "s");
  m.set("egraph.enodes", enodes, "count");
  m.set("egraph.eclasses", eclasses, "count");
  m.set("cycles.dmap_s", dmap_s, "s");
  m.set("cycles.sweep_s", sweep_s, "s");
  m.set("cycles.filtered", filtered, "count");
  m.set("pool.explore_speedup", ilp ? 0.0 : serial_explore_s / explore_s, "ratio");
  m.set("pool.steals",
        static_cast<double>(WorkStealingPool::global().stats().steals - steals_before),
        "count");
  m.set("serialize.load_us", median(load_us), "us");
  m.set("serialize.save_us", median(save_us), "us");
  double pass_s = 0.0;  // the untraced pass: one call per preset in traced runs
  for (double s : best) pass_s += s;
  m.set("trace.overhead_ratio", traced_pass_s / pass_s, "ratio");
  if (!spans->write_chrome_trace(config.trace_path))
    std::fprintf(stderr, "warning: could not write %s\n", config.trace_path.c_str());
  spans->print_table(stderr);
  return 0;
}

}  // namespace

bool run_workload(const RunConfig& config, RunResult& result) {
  if (config.workload == "table1") {
    run_models(config, table1_workload(), result);
  } else if (config.workload == "saturate") {
    run_models(config, saturate_workload(kSaturateThreads), result);
  } else if (config.workload == "serve") {
    run_serve(config, result);
  } else {
    return false;
  }
  if (config.trace) {
    // Every traced run reports every layer; a layer the workload does not
    // exercise reads 0 (README.md lists which workload moves which layer).
    Metrics ordered;
    for (const auto& [name, unit] : kLayerMetrics) {
      double value = 0.0;
      for (const Metric& m : result.metrics.all())
        if (m.name == name) value = m.value;
      ordered.set(name, value, unit);
    }
    result.metrics = ordered;
  }
  return true;
}

}  // namespace perfbench
