// Scalar reference computations the benchmark checks the program's
// outputs against. They read only the generated edge list, never the
// program's own graph structures.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/edge_list.h"

namespace perfbench {

inline constexpr std::uint64_t kUnreached = ~0ull;

/// Out-adjacency with sorted targets.
struct Csr {
  std::uint64_t num_vertices = 0;
  std::vector<std::uint64_t> offsets;  // num_vertices + 1
  std::vector<std::uint32_t> targets;

  [[nodiscard]] std::uint64_t degree(std::uint64_t v) const {
    return offsets[v + 1] - offsets[v];
  }
  [[nodiscard]] bool has_edge(std::uint64_t src, std::uint64_t dst) const;
};

/// Builds the CSR of a canonical (sorted, duplicate-free) edge list.
[[nodiscard]] Csr build_csr(const grazelle::EdgeList& list);

/// BFS depth of every vertex from `root` along out-edges (kUnreached
/// when unreachable).
[[nodiscard]] std::vector<std::uint64_t> bfs_levels(const Csr& g,
                                                    std::uint64_t root);

/// Label-propagation connected components as grazelle defines them on a
/// directed graph: each vertex's label is the smallest vertex id that
/// reaches it (itself included).
[[nodiscard]] std::vector<std::uint64_t> cc_labels(const Csr& g);

/// PageRank with the engine's formula (damping 0.85, dangling mass
/// redistributed uniformly), summed in sequential order.
[[nodiscard]] std::vector<double> pagerank(const Csr& g, unsigned iterations);

/// Relative tolerance for PageRank: the engine sums in-edges in a
/// different order, so each rank may differ from the sequential sum by
/// rounding only.
inline constexpr double kPageRankRelTol = 1e-9;

/// Checks a BFS parent array: the root is its own parent, exactly the
/// reference-reachable vertices have a parent (the rest hold
/// grazelle::kInvalidVertex), and every parent is an
/// in-neighbour one level closer to the root. Such a tree has the
/// reference's levels. Returns an empty string when valid.
[[nodiscard]] std::string check_bfs_parents(
    const Csr& g, const std::vector<std::uint64_t>& levels,
    const std::uint64_t* parents, std::uint64_t n, std::uint64_t root);

/// Exact comparison of an integer result; empty string when equal.
[[nodiscard]] std::string check_exact(const std::vector<std::uint64_t>& want,
                                      const std::uint64_t* got,
                                      std::uint64_t n, const char* what);

/// PageRank comparison within kPageRankRelTol; empty string when within.
[[nodiscard]] std::string check_pagerank(const std::vector<double>& want,
                                         const double* got, std::uint64_t n);

/// FNV-1a over 8-byte words: the repeat-identity check.
[[nodiscard]] std::uint64_t hash_bytes(const void* data, std::size_t bytes);

/// Number following `"key":` (spaces allowed) at or after `from`;
/// `true` reads as 1 and a missing key as 0.
[[nodiscard]] double json_number(std::string_view line, const char* key,
                                 std::size_t from = 0);

/// The `[[src,dst],...]` pairs under `key` of an ingest request.
[[nodiscard]] std::vector<grazelle::Edge> json_edge_pairs(std::string_view json,
                                                          const char* key);

/// Parses the "values" array of a reply line into unsigned integers.
/// Returns false when the line has no well-formed array.
bool parse_values_u64(std::string_view line, std::vector<std::uint64_t>* out);

}  // namespace perfbench
