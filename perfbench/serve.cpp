// The `serve` workload: one closed-loop client submits a seeded stream of
// requests to one OptimizationService running a one-thread pipeline.
//
// The catalog is a fixed set of small model variants, each of which
// certifies cold in well under a second. Every variant is submitted cold
// exactly once (a cache miss); each session family resubmits a fixed
// sequence of its variants under one session key (perturbed
// resubmissions); all other requests repeat an already-served variant in a
// seeded relabeling — another node order and numbering of the same graph,
// which the service's canonical form maps to a cache hit. The seed picks
// the interleaving, the repeated variants and their relabelings; which
// graphs are optimized cold, and how often, is the same for every seed.
#include <algorithm>
#include <map>
#include <memory>

#include "bench.h"
#include "cost/cost.h"
#include "models/models.h"
#include "rewrite/rules.h"
#include "serialize/serialize.h"
#include "service/fingerprint.h"
#include "service/service.h"
#include "support/timer.h"

namespace perfbench {

using namespace tensat;

namespace {

/// Cache hits per sessionless variant per stream round. The hits of a
/// variant form one cluster of latencies (about 30 us for ResNeXt-50,
/// ResNet-50 and NasRNN, 40 us for SqueezeNet, 60 us for Inception-v3 and
/// NasNet-A); the slow families get more hits so that the stream's median
/// falls in the middle of the SqueezeNet cluster, not on the step between
/// two clusters, where a few microseconds would move it by a fifth. 12
/// variants make 1332 hits, 12 misses and 15 session runs, 1359 requests a
/// round.
size_t hits_per_variant(const std::string& family) {
  return family == "inception" || family == "nasnet" ? 139 : 97;
}

struct Variant {
  std::string family;
  std::string name;
  std::string text;  // the model's own serialization
  bool session;      // submitted only under its family's session key
};

/// Small variants of five Table 1 families plus ResNet-50, each of which
/// certifies cold in under half a second at the service's options. BERT
/// and NasRNN at their smallest default sizes take 3-16 s, so attention is
/// absent and NasRNN appears with two gates per cell.
std::vector<Variant> catalog() {
  std::vector<Variant> out;
  auto add = [&](const std::string& family, const std::string& size, bool session,
                 const Graph& g) {
    out.push_back({family, family + size, save_graph_to_string(g), session});
  };
  for (bool s : {false, true}) {
    for (int c : s ? std::vector<int>{24} : std::vector<int>{8, 16}) {
      const std::string cs = std::to_string(c);
      add("resnext", "(1," + cs + ",8,2)", s, make_resnext50(1, c, 8, 2));
      add("squeezenet", "(1," + cs + ",8)", s, make_squeezenet(1, c, 8));
      add("inception", "(1," + cs + ",8)", s, make_inception_v3(1, c, 8));
      add("resnet", "(1," + cs + ",8)", s, make_resnet50(1, c, 8));
      add("nasnet", "(1," + std::to_string(c / 2) + ",8)", s, make_nasnet_a(1, c / 2, 8));
      add("nasrnn", "(1,2," + cs + ",2)", s, make_nasrnn(1, 2, c, 2));
    }
  }
  add("resnext", "(1,16,8,4)", true, make_resnext50(1, 16, 8, 4));
  add("resnext", "(2,8,8,2)", true, make_resnext50(2, 8, 8, 2));
  add("squeezenet", "(1,8,16)", true, make_squeezenet(1, 8, 16));
  add("inception", "(1,8,16)", true, make_inception_v3(1, 8, 16));
  add("inception", "(2,8,8)", true, make_inception_v3(2, 8, 8));
  add("resnet", "(2,8,8)", true, make_resnet50(2, 8, 8));
  add("nasnet", "(1,4,16)", true, make_nasnet_a(1, 4, 16));
  add("nasnet", "(2,4,8)", true, make_nasnet_a(2, 4, 8));
  add("nasrnn", "(1,4,8,2)", true, make_nasrnn(1, 4, 8, 2));
  return out;
}

enum class Kind { kMiss, kSession, kHit };

struct Request {
  Kind kind;
  size_t variant;
  std::string session;  // non-empty for session runs
  std::string text;
};

/// The seeded stream: every sessionless variant is a cold miss once and a
/// cache hit hits_per_variant() times (the same mix of hit sizes for every
/// seed); each family's session variants come in catalog order under the
/// family's session key. The seed shuffles all of it together; a variant's
/// first appearance is its miss.
std::vector<Request> make_stream(const std::vector<Variant>& vars, Rng& rng) {
  std::vector<size_t> slots;  // variant index per request, before shuffling
  std::map<std::string, std::vector<size_t>> sessions;  // family -> pending
  for (size_t v = 0; v < vars.size(); ++v) {
    const size_t copies = vars[v].session ? 1 : 1 + hits_per_variant(vars[v].family);
    slots.insert(slots.end(), copies, v);
    if (vars[v].session) sessions[vars[v].family].push_back(v);
  }
  for (size_t k = slots.size(); k > 1; --k) std::swap(slots[k - 1], slots[rng.below(k)]);
  std::vector<Request> stream;
  std::vector<bool> served(vars.size(), false);
  for (size_t v : slots) {
    const Variant& var = vars[v];
    if (var.session) {
      // Session runs keep their family's order whatever the shuffle did.
      std::vector<size_t>& pending = sessions[var.family];
      const size_t next = pending.front();
      pending.erase(pending.begin());
      stream.push_back({Kind::kSession, next, var.family, vars[next].text});
    } else if (!served[v]) {
      served[v] = true;
      stream.push_back({Kind::kMiss, v, "", var.text});
    } else {
      stream.push_back({Kind::kHit, v, "", relabel(var.text, rng)});
    }
  }
  return stream;
}

service::ServiceOptions service_options() {
  service::ServiceOptions o;
  o.tensat.search_threads = 1;
  o.tensat.apply_threads = 1;
  o.tensat.ilp.core_threads = 1;
  return o;
}

struct StreamRun {
  std::vector<service::ServiceResponse> responses;
  std::vector<double> latency_s;
  service::ServiceStats stats;
};

StreamRun run_stream(const std::vector<Request>& stream, service::OptimizationService& svc,
                     Spans* spans) {
  StreamRun run;
  for (size_t i = 0; i < stream.size(); ++i) {
    Scoped s(spans, "service.submit", i + 1);
    Timer t;
    run.responses.push_back(svc.submit(stream[i].text, stream[i].session));
    run.latency_s.push_back(t.seconds());
  }
  run.stats = svc.stats();
  return run;
}

/// Rounds of the stream per run: each round replays the whole stream
/// against a service that starts cold, and a request's latency is the
/// fastest of its rounds. A count, never a clock: 4 rounds at
/// --seconds 10, about 12 s on the reference host.
size_t stream_rounds(int seconds) { return std::max(1, (seconds + 2) / 3); }

/// Checks one round's responses; fills the per-variant speedups.
void check_round(const std::vector<Request>& stream, const std::vector<Variant>& vars,
                 const std::vector<std::string>& fresh, const StreamRun& run,
                 const CostModel& model, uint64_t seed, RunResult& result,
                 std::map<std::pair<std::string, std::string>, bool>& checked,
                 std::vector<double>& speedups) {
  for (size_t i = 0; i < stream.size(); ++i) {
    const Request& q = stream[i];
    const service::ServiceResponse& r = run.responses[i];
    const std::string who =
        "request " + std::to_string(i + 1) + " (" + vars[q.variant].name + "): ";
    if (!r.ok) {
      ++result.failed;
      result.checks.expect(false, who + "not ok: " + r.error);
      continue;
    }
    result.checks.expect(r.cache_hit == (q.kind == Kind::kHit), who + "unexpected cache outcome");
    if (q.kind != Kind::kSession) {
      const std::string diff = bytes_error(r.optimized_text, fresh[q.variant]);
      result.checks.expect(diff.empty(), who + "not a fresh optimize()'s bytes: " + diff);
    }
    const Graph request = load_graph_from_string(q.text);
    const double in_cost = graph_cost(request, model);
    result.checks.expect(r.optimized_cost <= in_cost * (1 + 1e-12),
                         who + "response costs more than its input");
    const std::string canon = service::canonical_form(request);
    if (!checked.emplace(std::make_pair(canon, r.optimized_text), true).second) continue;
    Graph out;
    try {
      out = load_graph_from_string(r.optimized_text);  // re-runs shape inference
    } catch (const std::exception& e) {
      result.checks.expect(false, who + "response does not parse: " + e.what());
      continue;
    }
    const double out_cost = graph_cost(out, model);
    const std::string c1 = cost_error(r.optimized_cost, out_cost);
    result.checks.expect(c1.empty(), who + c1);
    const std::string c2 = cost_error(r.original_cost, in_cost);
    result.checks.expect(c2.empty(), who + c2);
    const std::string eq = compare_outputs(request, out, seed);
    result.checks.expect(eq.empty(), who + eq);
    if (speedups[q.variant] == 0.0) speedups[q.variant] = in_cost / out_cost;
  }
}

}  // namespace

int run_serve(const RunConfig& config, RunResult& result) {
  // ---- Set-up: catalog, rules, stream, one cold service per round. --------------
  const std::vector<Rewrite>& rules = default_rules();
  const T4CostModel model;
  const std::vector<Variant> vars = catalog();
  Rng rng(config.seed);
  const std::vector<Request> stream = make_stream(vars, rng);
  const size_t rounds = config.trace ? 1 : stream_rounds(config.seconds);
  std::vector<std::unique_ptr<service::OptimizationService>> services;
  for (size_t k = 0; k < rounds; ++k)
    services.push_back(
        std::make_unique<service::OptimizationService>(rules, model, service_options()));
  const double setup_s = since_start_s();

  // ---- Timed phase. ----------------------------------------------------------------
  std::vector<StreamRun> runs;
  for (size_t k = 0; k < rounds; ++k) {
    runs.push_back(run_stream(stream, *services[k], nullptr));
    services[k].reset();  // a restarted service frees its sessions
  }
  const double rss_mb = peak_rss_mb();

  // A request's latency is the fastest of its rounds: every round replays
  // the same request on a service in the same state (see README.md, noise).
  result.attempted = stream.size() * rounds;
  std::vector<double> latency_s(stream.size());
  std::vector<double> miss_s;  // one per sessionless variant
  for (size_t i = 0; i < stream.size(); ++i) {
    latency_s[i] = runs[0].latency_s[i];
    for (const StreamRun& run : runs) latency_s[i] = std::min(latency_s[i], run.latency_s[i]);
    if (stream[i].kind == Kind::kMiss) miss_s.push_back(latency_s[i]);
  }
  double optimize_s = 0.0, round_s = 0.0;
  for (double s : miss_s) optimize_s += s;
  for (double s : latency_s) round_s += s;

  // ---- Checks (untimed). -------------------------------------------------------------
  // A fresh optimize() of every variant, outside the service.
  const TensatOptions opts = service_options().tensat;
  std::vector<std::string> fresh(vars.size());
  for (size_t v = 0; v < vars.size(); ++v) {
    Timer t;
    const TensatResult r = optimize(load_graph_from_string(vars[v].text), rules, model, opts);
    fresh[v] = save_graph_to_string(r.optimized);
    std::fprintf(stderr, "%-22s cold %.4f s  cost %.2f -> %.2f  gap %.3g\n",
                 vars[v].name.c_str(), t.seconds(), r.original_cost, r.optimized_cost,
                 r.extract_stats.gap);
    result.checks.expect(certified(r, opts), vars[v].name + ": cold run not certified");
  }
  std::vector<double> speedups(vars.size(), 0.0);  // per distinct graph served
  std::map<std::pair<std::string, std::string>, bool> checked;  // (request, response)
  for (const StreamRun& run : runs)
    check_round(stream, vars, fresh, run, model, config.seed, result, checked, speedups);

  Metrics& m = result.metrics;
  size_t hits = 0, sessions = 0, misses = 0;
  for (const Request& q : stream) {
    hits += q.kind == Kind::kHit;
    sessions += q.kind == Kind::kSession;
    misses += q.kind == Kind::kMiss;
  }
  for (size_t v = 0; v < vars.size(); ++v) {
    std::vector<double> hit_us;
    for (size_t i = 0; i < stream.size(); ++i)
      if (stream[i].kind == Kind::kHit && stream[i].variant == v)
        hit_us.push_back(latency_s[i] * 1e6);
    if (!hit_us.empty())
      std::fprintf(stderr, "%-22s %zu hits, median %.1f us\n", vars[v].name.c_str(),
                   hit_us.size(), median(hit_us));
  }
  std::fprintf(stderr,
               "stream: %zu rounds of %zu requests = %zu misses + %zu session runs + %zu hits\n",
               rounds, stream.size(), misses, sessions, hits);
  if (!config.trace) {
    m.set("setup_s", setup_s, "s");
    m.set("optimize_s", optimize_s, "s");
    m.set("optimize_geomean_s", geomean(miss_s), "s");
    m.set("speedup_geomean", geomean(speedups), "ratio");
    m.set("peak_rss_mb", rss_mb, "MB");
    // One round of the stream with every request at its best latency.
    m.set("requests_per_s", static_cast<double>(stream.size()) / round_s, "1/s");
    m.set("latency_p50_ms", percentile(latency_s, 0.5) * 1e3, "ms");
    m.set("latency_p99_ms", percentile(latency_s, 0.99) * 1e3, "ms");
    std::fprintf(stderr, "latency samples: %zu requests, each the fastest of %zu rounds\n",
                 latency_s.size(), rounds);
    return 0;
  }

  // ---- Traced run: the same stream on a fresh service, under spans. ----------
  Spans spans;
  service::OptimizationService traced_svc(rules, model, service_options());
  const StreamRun traced = run_stream(stream, traced_svc, &spans);
  std::vector<double> hit_ms, miss_ms, session_ms, load_us, canon_us, save_us;
  double traced_optimize_s = 0.0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const double ms = traced.latency_s[i] * 1e3;
    switch (stream[i].kind) {
      case Kind::kHit: hit_ms.push_back(ms); break;
      case Kind::kMiss: miss_ms.push_back(ms); traced_optimize_s += ms * 1e-3; break;
      case Kind::kSession: session_ms.push_back(ms); break;
    }
  }
  // The service's parse / canonicalize / serialize steps, as public calls on
  // the same request bytes.
  for (size_t i = 0; i < stream.size(); ++i) {
    Timer t;
    Graph g;
    {
      Scoped s(&spans, "serialize.load", i + 1);
      g = load_graph_from_string(stream[i].text);
    }
    load_us.push_back(t.seconds() * 1e6);
    t.reset();
    {
      Scoped s(&spans, "service.canonical_form", i + 1);
      (void)service::canonical_form(g);
    }
    canon_us.push_back(t.seconds() * 1e6);
    t.reset();
    {
      Scoped s(&spans, "serialize.save", i + 1);
      (void)save_graph_to_string(g);
    }
    save_us.push_back(t.seconds() * 1e6);
  }
  m.set("service.hit_ms", median(hit_ms), "ms");
  m.set("service.miss_ms", median(miss_ms), "ms");
  m.set("service.session_ms", median(session_ms), "ms");
  m.set("service.canonical_us", median(canon_us), "us");
  m.set("service.hit_ratio",
        static_cast<double>(traced.stats.cache_hits) / static_cast<double>(traced.stats.requests),
        "ratio");
  m.set("service.sessions_reused", static_cast<double>(traced.stats.sessions_reused), "count");
  m.set("serialize.load_us", median(load_us), "us");
  m.set("serialize.save_us", median(save_us), "us");
  m.set("trace.overhead_ratio", traced_optimize_s / optimize_s, "ratio");
  if (!spans.write_chrome_trace(config.trace_path))
    std::fprintf(stderr, "warning: could not write %s\n", config.trace_path.c_str());
  spans.print_table(stderr);
  return 0;
}

}  // namespace perfbench
