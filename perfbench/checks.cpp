// Output checks and small shared helpers of the benchmark harness.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "bench.h"
#include "serialize/serialize.h"
#include "support/check.h"
#include "tensor/interp.h"

namespace perfbench {

using namespace tensat;

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

/// Roots with the single-rooting noop chain flattened, left to right.
std::vector<Id> real_roots(const Graph& g) {
  std::vector<Id> out;
  std::vector<Id> stack(g.roots().rbegin(), g.roots().rend());
  while (!stack.empty()) {
    const Id id = stack.back();
    stack.pop_back();
    if (g.node(id).op == Op::kNoop) {
      stack.push_back(g.node(id).children[1]);
      stack.push_back(g.node(id).children[0]);
    } else {
      out.push_back(id);
    }
  }
  return out;
}

bool is_concat(Op op) {
  return op == Op::kConcat2 || op == Op::kConcat3 || op == Op::kConcat4 ||
         op == Op::kConcat5;
}

/// The value of `w` as the weight of a convolution with `groups` groups.
/// A merge(w', count) lays the weight of groups*count groups out block-
/// diagonally: output channel o keeps its own input-channel block, at
/// position (its original group mod count) inside the merged block. An
/// ungrouped weight concatenated over output channels is the concatenation
/// of its parts' values.
Tensor weight_value(const Graph& g, Id w, int64_t groups, Interpreter& interp) {
  const TNode& n = g.node(w);
  if (is_concat(n.op) && g.node(n.children[0]).num == 0 && groups == 1) {
    std::vector<int32_t> dims;
    std::vector<float> data;
    for (size_t k = 1; k < n.children.size(); ++k) {
      const Tensor part = weight_value(g, n.children[k], groups, interp);
      if (dims.empty()) dims = part.dims();
      else dims[0] += part.dims()[0];
      data.insert(data.end(), part.data().begin(), part.data().end());
    }
    return Tensor(dims, std::move(data));
  }
  if (n.op != Op::kMerge) {
    Graph sub = g;
    sub.set_roots({w});
    return interp.run_roots(sub)[0];
  }
  const int64_t count = g.node(n.children[1]).num;
  const Tensor inner = weight_value(g, n.children[0], groups * count, interp);
  const std::vector<int32_t>& d = inner.dims();
  const int32_t cout = d[0], cin = d[1], kh = d[2], kw = d[3];
  const int64_t per_group = cout / (groups * count);
  TENSAT_CHECK(per_group > 0 && cout % (groups * count) == 0,
               "merge: " << cout << " output channels do not split into "
                         << groups * count << " groups");
  Tensor out({cout, static_cast<int32_t>(cin * count), kh, kw});
  for (int32_t o = 0; o < cout; ++o) {
    const auto pos = static_cast<int32_t>((o / per_group) % count);
    for (int32_t c = 0; c < cin; ++c)
      for (int32_t y = 0; y < kh; ++y)
        for (int32_t x = 0; x < kw; ++x)
          out.at4(o, pos * cin + c, y, x) = inner.at4(o, c, y, x);
  }
  return out;
}

/// Copies `g`, replacing each convolution weight that contains a merge by a
/// fed weight leaf holding the tensor it denotes.
Graph lower_merges(const Graph& g, Interpreter& interp) {
  Graph out;
  std::unordered_map<Id, Id> map;
  std::unordered_map<Id, bool> has_merge;
  int fresh = 0;
  for (Id id : g.topo_order()) {
    TNode n = g.node(id);
    bool merged = n.op == Op::kMerge;
    for (Id c : n.children) merged = merged || has_merge[c];
    has_merge[id] = merged;
    if (merged && n.op != Op::kConv) continue;  // materialized by its convolution
    for (size_t i = 0; i < n.children.size(); ++i) {
      const Id c = n.children[i];
      if (!has_merge[c]) {
        n.children[i] = map.at(c);
        continue;
      }
      TENSAT_CHECK(i == 5, "merge outside a convolution weight is not evaluable");
      const int32_t channels = g.info(n.children[4]).shape[1];
      const int32_t cin = g.info(c).shape[1];
      TENSAT_CHECK(cin > 0 && channels % cin == 0, "merge: bad channel split");
      Tensor w = weight_value(g, c, channels / cin, interp);
      const std::string name = "perfbench_merged_" + std::to_string(fresh++);
      n.children[i] = out.weight(name, w.dims());
      interp.feed(name, std::move(w));
    }
    map[id] = out.add(n);
    has_merge[id] = false;
  }
  std::vector<Id> roots;
  for (Id r : real_roots(g)) roots.push_back(map.at(r));
  out.set_roots(roots);
  return out;
}

std::vector<Tensor> evaluate(const Graph& g, uint64_t seed) {
  Interpreter interp(seed);
  return interp.run_roots(lower_merges(g, interp));
}

}  // namespace

double since_start_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

void CheckLog::expect(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

std::string compare_outputs(const Graph& reference, const Graph& candidate,
                            uint64_t seed, double rtol) {
  std::vector<Tensor> a, b;
  try {
    a = evaluate(reference, seed);
    b = evaluate(candidate, seed);
  } catch (const std::exception& e) {
    return std::string("interpreter: ") + e.what();
  }
  if (a.size() != b.size())
    return "output count " + std::to_string(b.size()) + " != " + std::to_string(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dims() != b[i].dims()) return "output " + std::to_string(i) + " shape differs";
    float scale = 1.0f;
    for (float v : a[i].data()) scale = std::max(scale, std::fabs(v));
    const float diff = Tensor::max_abs_diff(a[i], b[i]);
    if (!(diff <= rtol * scale)) {
      std::ostringstream os;
      os << "output " << i << " differs by " << diff << " (scale " << scale << ")";
      return os.str();
    }
  }
  return "";
}

std::string structure_error(const Graph& g) {
  try {
    const Graph reloaded = load_graph_from_string(save_graph_to_string(g));
    if (reloaded.canonical_key() != g.canonical_key()) return "round trip changed the graph";
  } catch (const std::exception& e) {
    return std::string("invalid graph: ") + e.what();
  }
  return "";
}

std::string cost_error(double reported, double recomputed) {
  if (std::fabs(reported - recomputed) <= 1e-9 * std::max(1.0, std::fabs(recomputed)))
    return "";
  std::ostringstream os;
  os.precision(17);
  os << "reported cost " << reported << " != graph_cost " << recomputed;
  return os.str();
}

std::string bytes_error(const std::string& got, const std::string& want) {
  if (got == want) return "";
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return "bytes differ from offset " + std::to_string(at) + " (" +
         std::to_string(got.size()) + " vs " + std::to_string(want.size()) + " bytes)";
}

std::string thread_parity_error(const ThreadRun& reference, const ThreadRun& parallel) {
  std::ostringstream os;
  if (reference.threads != 1 || parallel.threads < 2) {
    os << "thread counts " << reference.threads << " vs " << parallel.threads
       << " do not compare 1 thread against several";
  } else if (reference.enodes != parallel.enodes) {
    os << "e-nodes " << parallel.enodes << " != " << reference.enodes << " at 1 thread";
  } else if (reference.applications != parallel.applications) {
    os << "applications " << parallel.applications << " != " << reference.applications
       << " at 1 thread";
  } else if (!cost_error(parallel.cost, reference.cost).empty()) {
    os << "cost at " << parallel.threads << " threads: "
       << cost_error(parallel.cost, reference.cost);
  }
  return os.str();
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string relabel(const std::string& text, Rng& rng) {
  std::istringstream is(text);
  std::string header, line;
  std::getline(is, header);
  // Parse node lines into (op, payload-or-children) and the roots line.
  struct Line {
    std::string op;
    std::vector<std::string> tail;
  };
  std::vector<Line> lines;
  std::vector<std::string> roots;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    if (tok == "roots") {
      while (ls >> tok) roots.push_back(tok);
      continue;
    }
    Line l;
    ls >> l.op;
    while (ls >> tok) l.tail.push_back(tok);
    lines.push_back(std::move(l));
  }
  auto is_leaf = [](const Line& l) {
    return l.op == "num" || l.op == "str" || l.op == "var";
  };
  // Kahn's algorithm with a seeded choice among ready nodes.
  const size_t n = lines.size();
  std::vector<int> pending(n, 0);
  std::vector<std::vector<size_t>> users(n);
  for (size_t i = 0; i < n; ++i) {
    if (is_leaf(lines[i])) continue;
    for (const std::string& c : lines[i].tail) {
      ++pending[i];
      users[std::stoul(c)].push_back(i);
    }
  }
  std::vector<size_t> ready, order;
  for (size_t i = 0; i < n; ++i)
    if (pending[i] == 0) ready.push_back(i);
  while (!ready.empty()) {
    const size_t pick = rng.below(ready.size());
    const size_t i = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    order.push_back(i);
    for (size_t u : users[i])
      if (--pending[u] == 0) ready.push_back(u);
  }
  std::vector<size_t> new_id(n);
  for (size_t k = 0; k < order.size(); ++k) new_id[order[k]] = k;
  std::ostringstream os;
  os << header << '\n';
  for (size_t k = 0; k < order.size(); ++k) {
    const Line& l = lines[order[k]];
    os << k << ' ' << l.op;
    for (const std::string& t : l.tail)
      os << ' ' << (is_leaf(l) ? t : std::to_string(new_id[std::stoul(t)]));
    os << '\n';
  }
  os << "roots";
  for (const std::string& r : roots) os << ' ' << new_id[std::stoul(r)];
  os << '\n';
  return os.str();
}

bool certified(const TensatResult& r, const TensatOptions& o) {
  return r.extract_stats.gap <= o.ilp.rel_gap;
}

}  // namespace perfbench
