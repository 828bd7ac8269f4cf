#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace perfbench {

bool Csr::has_edge(std::uint64_t src, std::uint64_t dst) const {
  if (src >= num_vertices) return false;
  const auto* begin = targets.data() + offsets[src];
  const auto* end = targets.data() + offsets[src + 1];
  return std::binary_search(begin, end, static_cast<std::uint32_t>(dst));
}

Csr build_csr(const grazelle::EdgeList& list) {
  Csr g;
  g.num_vertices = list.num_vertices();
  g.offsets.assign(g.num_vertices + 1, 0);
  for (const grazelle::Edge& e : list.edges()) ++g.offsets[e.src + 1];
  for (std::uint64_t v = 0; v < g.num_vertices; ++v) {
    g.offsets[v + 1] += g.offsets[v];
  }
  g.targets.resize(list.num_edges());
  std::vector<std::uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const grazelle::Edge& e : list.edges()) {
    g.targets[cursor[e.src]++] = static_cast<std::uint32_t>(e.dst);
  }
  for (std::uint64_t v = 0; v < g.num_vertices; ++v) {
    std::sort(g.targets.begin() + static_cast<std::ptrdiff_t>(g.offsets[v]),
              g.targets.begin() + static_cast<std::ptrdiff_t>(g.offsets[v + 1]));
  }
  return g;
}

std::vector<std::uint64_t> bfs_levels(const Csr& g, std::uint64_t root) {
  std::vector<std::uint64_t> level(g.num_vertices, kUnreached);
  std::vector<std::uint32_t> queue;
  queue.reserve(g.num_vertices);
  level[root] = 0;
  queue.push_back(static_cast<std::uint32_t>(root));
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t u = queue[head];
    for (std::uint64_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
      const std::uint32_t v = g.targets[i];
      if (level[v] == kUnreached) {
        level[v] = level[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return level;
}

std::vector<std::uint64_t> cc_labels(const Csr& g) {
  // Visiting starts in increasing id order, each labelling everything it
  // reaches that is still unlabelled, gives every vertex the smallest
  // id that reaches it: anything reachable from an already labelled
  // vertex was labelled when that vertex was.
  std::vector<std::uint64_t> label(g.num_vertices, kUnreached);
  std::vector<std::uint32_t> stack;
  for (std::uint64_t s = 0; s < g.num_vertices; ++s) {
    if (label[s] != kUnreached) continue;
    label[s] = s;
    stack.push_back(static_cast<std::uint32_t>(s));
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (std::uint64_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
        const std::uint32_t v = g.targets[i];
        if (label[v] == kUnreached) {
          label[v] = s;
          stack.push_back(v);
        }
      }
    }
  }
  return label;
}

std::vector<double> pagerank(const Csr& g, unsigned iterations) {
  constexpr double kDamping = 0.85;
  const std::uint64_t n = g.num_vertices;
  const double nd = static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / nd);
  std::vector<double> contrib(n);
  std::vector<double> sum(n);
  double dangling = 0.0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t d = g.degree(v);
    contrib[v] = d > 0 ? rank[v] / static_cast<double>(d) : 0.0;
    if (d == 0) dangling += rank[v];
  }
  for (unsigned it = 0; it < iterations; ++it) {
    std::fill(sum.begin(), sum.end(), 0.0);
    for (std::uint64_t u = 0; u < n; ++u) {
      for (std::uint64_t i = g.offsets[u]; i < g.offsets[u + 1]; ++i) {
        sum[g.targets[i]] += contrib[u];
      }
    }
    double next_dangling = 0.0;
    for (std::uint64_t v = 0; v < n; ++v) {
      const double r = (1.0 - kDamping) / nd + kDamping * sum[v] +
                       kDamping * dangling / nd;
      rank[v] = r;
      const std::uint64_t d = g.degree(v);
      contrib[v] = d > 0 ? r / static_cast<double>(d) : 0.0;
      if (d == 0) next_dangling += r;
    }
    dangling = next_dangling;
  }
  return rank;
}

std::string check_bfs_parents(const Csr& g,
                              const std::vector<std::uint64_t>& levels,
                              const std::uint64_t* parents, std::uint64_t n,
                              std::uint64_t root) {
  if (n != g.num_vertices) return "bfs: wrong vertex count";
  if (parents[root] != root) return "bfs: root is not its own parent";
  for (std::uint64_t v = 0; v < n; ++v) {
    if (v == root) continue;
    const std::uint64_t p = parents[v];
    if (levels[v] == kUnreached) {
      if (p != grazelle::kInvalidVertex) {
        return "bfs: vertex " + std::to_string(v) + " reached but unreachable";
      }
      continue;
    }
    if (p >= n || levels[p] == kUnreached || levels[p] + 1 != levels[v] ||
        !g.has_edge(p, v)) {
      return "bfs: vertex " + std::to_string(v) + " has a bad parent";
    }
  }
  return {};
}

std::string check_exact(const std::vector<std::uint64_t>& want,
                        const std::uint64_t* got, std::uint64_t n,
                        const char* what) {
  if (n != want.size()) return std::string(what) + ": wrong vertex count";
  for (std::uint64_t v = 0; v < n; ++v) {
    if (want[v] != got[v]) {
      return std::string(what) + ": vertex " + std::to_string(v) + " is " +
             std::to_string(got[v]) + ", want " + std::to_string(want[v]);
    }
  }
  return {};
}

std::string check_pagerank(const std::vector<double>& want, const double* got,
                           std::uint64_t n) {
  if (n != want.size()) return "pr: wrong vertex count";
  for (std::uint64_t v = 0; v < n; ++v) {
    if (!(std::fabs(got[v] - want[v]) <= kPageRankRelTol * want[v])) {
      return "pr: vertex " + std::to_string(v) + " off the reference";
    }
  }
  return {};
}

std::uint64_t hash_bytes(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * 0x100000001b3ull;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

double json_number(std::string_view line, const char* key, std::size_t from) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pat, from);
  if (at == std::string_view::npos) return 0.0;
  std::size_t i = at + pat.size();
  while (i < line.size() && line[i] == ' ') ++i;
  if (line.compare(i, 4, "true") == 0) return 1.0;
  return std::strtod(std::string(line.substr(i, 32)).c_str(), nullptr);
}

std::vector<grazelle::Edge> json_edge_pairs(std::string_view json,
                                            const char* key) {
  std::vector<grazelle::Edge> out;
  const std::string pat = std::string("\"") + key + "\":[";
  std::size_t i = json.find(pat);
  if (i == std::string_view::npos) return out;
  i += pat.size();
  while (i < json.size() && json[i] == '[') {
    const std::string pair(json.substr(i + 1, 48));
    char* end = nullptr;
    const std::uint64_t src = std::strtoull(pair.c_str(), &end, 10);
    const std::uint64_t dst = std::strtoull(end + 1, nullptr, 10);
    out.push_back({src, dst});
    i = json.find(']', i) + 1;
    if (i < json.size() && json[i] == ',') ++i;
  }
  return out;
}

bool parse_values_u64(std::string_view line, std::vector<std::uint64_t>* out) {
  const std::size_t key = line.find("\"values\":");
  if (key == std::string_view::npos) return false;
  std::size_t i = line.find('[', key);
  if (i == std::string_view::npos) return false;
  out->clear();
  ++i;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == ',')) ++i;
    if (i < line.size() && line[i] == ']') return true;
    std::uint64_t v = 0;
    const std::size_t start = i;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9') {
      v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
      ++i;
    }
    if (i == start) return false;
    out->push_back(v);
  }
  return false;
}

}  // namespace perfbench
