// Input generation and the program's set-up path.
//
//   perfbench gen-rmat   --scale S --seed N --out edges.grzb
//   perfbench gen-ingest --edges edges.grzb --seed N --batches B
//                        --inserts I --deletes D --out ingest.jsonl
//   perfbench pack       --edges edges.grzb --out graph.gzg
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "core/graph_context.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/store.h"
#include "tools.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kEdgeFactor = 16;  // sampled edges per vertex

/// Graph500 R-MAT quadrant probabilities with per-level noise, so the
/// graph has a skewed degree distribution but no exact self-similarity.
/// The edges come in kStreams fixed slices, each from its own seeded
/// stream, so the output depends on the seed only, not on threading.
grazelle::EdgeList rmat(unsigned scale, std::uint64_t edge_factor,
                        std::uint64_t seed) {
  constexpr unsigned kStreams = 4;
  const std::uint64_t n = 1ull << scale;
  const std::uint64_t m = edge_factor * n;
  std::vector<std::vector<grazelle::Edge>> slices(kStreams);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kStreams; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(seed * kStreams + t);
      std::vector<grazelle::Edge>& out = slices[t];
      out.reserve(m / kStreams);
      for (std::uint64_t e = m * t / kStreams; e < m * (t + 1) / kStreams;
           ++e) {
        std::uint64_t src = 0;
        std::uint64_t dst = 0;
        for (unsigned level = 0; level < scale; ++level) {
          const double noise = 0.9 + 0.2 * rng.uniform();
          const double a = 0.57 * noise;
          const double b = 0.19 * noise;
          const double c = 0.19 * noise;
          const double r = rng.uniform();  // a + b + c + d == 1
          const unsigned quadrant =
              r < a ? 0 : r < a + b ? 1 : r < a + b + c ? 2 : 3;
          src = (src << 1) | (quadrant >> 1);
          dst = (dst << 1) | (quadrant & 1);
        }
        if (src != dst) out.push_back({src, dst});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<grazelle::Edge> edges;
  edges.reserve(m);
  for (const auto& slice : slices) {
    edges.insert(edges.end(), slice.begin(), slice.end());
  }
  // Canonical form: sorted, without duplicates or self-loops.
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  grazelle::EdgeList list(n);
  list.reserve(edges.size());
  for (const grazelle::Edge& e : edges) list.add_edge(e.src, e.dst);
  return list;
}

}  // namespace

int cmd_gen_rmat(const Args& args) {
  const std::uint64_t t0 = now_ns();
  const grazelle::EdgeList list =
      rmat(static_cast<unsigned>(args.u64("scale")), kEdgeFactor,
           args.u64("seed"));
  const std::string out = args.get("out");
  grazelle::io::save_binary(list, out);
  // Vertices with out-edges: the pool BFS sources are drawn from.
  std::vector<bool> has_out(list.num_vertices(), false);
  for (const grazelle::Edge& e : list.edges()) has_out[e.src] = true;
  std::ofstream sources(out + ".sources");
  for (std::uint64_t v = 0; v < list.num_vertices(); ++v) {
    if (has_out[v]) sources << v << '\n';
  }
  if (!sources) throw std::runtime_error("cannot write " + out + ".sources");
  std::printf("%s\n", JsonOut()
                          .u64("vertices", list.num_vertices())
                          .u64("edges", list.num_edges())
                          .num("gen_s", seconds_since(t0))
                          .done()
                          .c_str());
  return 0;
}

int cmd_gen_ingest(const Args& args) {
  const grazelle::EdgeList base = grazelle::io::load_binary(args.get("edges"));
  const std::vector<grazelle::Edge>& edges = base.edges();  // sorted
  const std::uint64_t n = base.num_vertices();
  const std::uint64_t batches = args.u64("batches");
  const std::uint64_t inserts = args.u64("inserts");
  const std::uint64_t deletes = args.u64("deletes");
  Rng rng(args.u64("seed"));
  // Every op touches a distinct edge, inserts are absent from the base
  // and deletes present in it, so the final graph is exactly
  // base + inserts - deletes whatever order batches publish in.
  std::set<std::pair<std::uint64_t, std::uint64_t>> touched;
  std::ofstream out(args.get("out"));
  for (std::uint64_t b = 0; b < batches; ++b) {
    std::string ins;
    for (std::uint64_t i = 0; i < inserts;) {
      const std::uint64_t s = rng.below(n);
      const std::uint64_t d = rng.below(n);
      const grazelle::Edge e{s, d};
      if (s == d || std::binary_search(edges.begin(), edges.end(), e) ||
          !touched.insert({s, d}).second) {
        continue;
      }
      ins += (i == 0 ? "[" : ",[") + std::to_string(s) + "," +
             std::to_string(d) + "]";
      ++i;
    }
    std::string del;
    for (std::uint64_t i = 0; i < deletes;) {
      const grazelle::Edge& e = edges[rng.below(edges.size())];
      if (!touched.insert({e.src, e.dst}).second) continue;
      del += (i == 0 ? "[" : ",[") + std::to_string(e.src) + "," +
             std::to_string(e.dst) + "]";
      ++i;
    }
    out << "{\"op\":\"ingest\",\"graph\":\"g\",\"edges\":["
        << ins << "],\"deletes\":[" << del << "]}\n";
  }
  if (!out) throw std::runtime_error("cannot write " + args.get("out"));
  return 0;
}

int cmd_pack(const Args& args) {
  // The same steps as `graph_convert <edges> <out> --pack`: read the
  // edge list, build every representation, keep the 8-lane layout only
  // when it packs within 10% of the 4-lane one, pack the container.
  // Then the open a batch caller or the daemon starts with.
  std::uint64_t t = now_ns();
  grazelle::EdgeList list = grazelle::io::load_binary(args.get("edges"));
  const double load_s = seconds_since(t);
  t = now_ns();
  grazelle::Graph graph = grazelle::Graph::build(std::move(list));
  if (graph.vsd512().measured_packing_efficiency() <
      0.9 * graph.vsd().measured_packing_efficiency()) {
    graph.set_vsd512(grazelle::Vsd512Graph{});
  }
  const double build_s = seconds_since(t);
  t = now_ns();
  grazelle::store::pack_graph(graph, args.get("out"));
  const double pack_s = seconds_since(t);
  t = now_ns();
  const auto opened = grazelle::GraphContext::open_shared(args.get("out"));
  const double open_s = seconds_since(t);
  std::printf("%s\n", JsonOut()
                          .num("load_s", load_s)
                          .num("build_s", build_s)
                          .num("pack_s", pack_s)
                          .num("open_s", open_s)
                          .u64("edges", opened->num_edges())
                          .done()
                          .c_str());
  return 0;
}

}  // namespace perfbench
