// batch: one-shot analytics through the library's public path.
//
//   perfbench batch --gzg graph.gzg --edges edges.grzb --roots a,b,...
//                   --seconds S --trace 0|1 [--spans f]
//
// Opens the container with GraphContext::open, then runs a closed loop
// of one-shot jobs (PageRank, CC, BFS from each root in turn), each a
// fresh Session with grazelle_run's defaults. After the measured window
// every distinct output is checked against the scalar reference and
// every repeat must be bit-identical to the first. Prints one JSON
// line of raw samples; run.py reduces them.
//
//   perfbench gather --values V --indices N --threads T --seed S
//
// Times a plain index-stream-and-gather loop: the host's bound for the
// pull edge phase.
#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "apps/bfs.h"
#include "apps/connected_components.h"
#include "apps/pagerank.h"
#include "common.h"
#include "core/graph_context.h"
#include "core/session.h"
#include "graph/io.h"
#include "platform/cpu_features.h"
#include "reference.h"
#include "telemetry/telemetry.h"
#include "tools.h"

namespace perfbench {

namespace {

using grazelle::EngineOptions;
using grazelle::GraphContext;
using grazelle::RunStats;
namespace apps = grazelle::apps;
namespace telemetry = grazelle::telemetry;

constexpr unsigned kPageRankIterations = 16;
constexpr unsigned kUnbounded = 1u << 20;

struct Job {
  std::string app;
  bool traced = false;  // telemetry sink attached
  double seconds = 0.0;
  RunStats stats;
  std::uint64_t edges_touched = 0;
  std::uint64_t vectors_visited = 0;
  std::uint64_t vectors_skipped = 0;
  std::uint64_t hash = 0;
};

/// The result array a job leaves behind, for the reference check.
struct Output {
  std::vector<double> ranks;
  std::vector<std::uint64_t> ids;
};

class Runner {
 public:
  Runner(GraphContext& ctx, Tracer& tracer, bool vectorized)
      : ctx_(ctx), tracer_(tracer), vectorized_(vectorized) {}

  Job pr(unsigned threads, bool traced, Output* keep) {
    return vectorized_ ? pr_impl<true>(threads, traced, keep)
                       : pr_impl<false>(threads, traced, keep);
  }
  Job cc(unsigned threads, bool traced, Output* keep) {
    return vectorized_ ? cc_impl<true>(threads, traced, keep)
                       : cc_impl<false>(threads, traced, keep);
  }
  Job bfs(std::uint64_t root, unsigned threads, bool traced, Output* keep) {
    return vectorized_ ? bfs_impl<true>(root, threads, traced, keep)
                       : bfs_impl<false>(root, threads, traced, keep);
  }

 private:
  /// Times one job from program construction to session teardown: what
  /// a caller of the one-shot path waits for.
  template <typename P, bool Vec, typename Make, typename Seed>
  Job run(const char* app, unsigned threads, bool traced, unsigned iters,
          std::optional<P>& prog, Make&& make, Seed&& seed) {
    Job job;
    job.app = app;
    job.traced = traced;
    EngineOptions opts;  // grazelle_run's defaults
    opts.num_threads = threads;
    std::optional<telemetry::Telemetry> telem;
    const std::uint64_t request = ++jobs_started_;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t span =
        tracer_.open(std::string("job.") + app, t0, request);
    prog.emplace(make());
    {
      const std::uint64_t c0 = now_ns();
      grazelle::Session<P, Vec> session(ctx_, opts);
      const std::uint64_t c1 = now_ns();
      if (traced) {
        telem.emplace(session.pool().size());
        session.set_telemetry(&*telem);
      }
      seed(session.frontier(), *prog);
      job.stats = session.run(*prog, iters);
      tracer_.record("Session::Session", c0, c1, span, request);
      tracer_.record("Session::run", c1, now_ns(), span, request);
      if (telem) session.set_telemetry(nullptr);
    }
    job.seconds = seconds_since(t0);
    tracer_.close(span, now_ns());
    if (telem) {
      job.edges_touched = telem->total(telemetry::Counter::kEdgesTouched);
      job.vectors_visited = telem->total(telemetry::Counter::kVectorsVisited);
      job.vectors_skipped = telem->total(telemetry::Counter::kVectorsSkipped);
    }
    return job;
  }

  template <bool Vec>
  Job pr_impl(unsigned threads, bool traced, Output* keep) {
    std::optional<apps::PageRank> prog;
    Job job = run<apps::PageRank, Vec>(
        "pr", threads, traced, kPageRankIterations, prog,
        [&] { return apps::PageRank(ctx_.graph(), threads); },
        [](grazelle::DenseFrontier&, apps::PageRank&) {});
    prog->finalize();
    const auto ranks = prog->ranks();
    job.hash = hash_bytes(ranks.data(), ranks.size_bytes());
    if (keep != nullptr) keep->ranks.assign(ranks.begin(), ranks.end());
    return job;
  }

  template <bool Vec>
  Job cc_impl(unsigned threads, bool traced, Output* keep) {
    std::optional<apps::ConnectedComponents> prog;
    Job job = run<apps::ConnectedComponents, Vec>(
        "cc", threads, traced, kUnbounded, prog,
        [&] { return apps::ConnectedComponents(ctx_.graph()); },
        [](grazelle::DenseFrontier& f, apps::ConnectedComponents&) {
          f.set_all();
        });
    const auto labels = prog->labels();
    job.hash = hash_bytes(labels.data(), labels.size_bytes());
    if (keep != nullptr) keep->ids.assign(labels.begin(), labels.end());
    return job;
  }

  template <bool Vec>
  Job bfs_impl(std::uint64_t root, unsigned threads, bool traced,
               Output* keep) {
    std::optional<apps::BreadthFirstSearch> prog;
    Job job = run<apps::BreadthFirstSearch, Vec>(
        "bfs", threads, traced, kUnbounded, prog,
        [&] { return apps::BreadthFirstSearch(ctx_.graph(), root); },
        [](grazelle::DenseFrontier& f, apps::BreadthFirstSearch& b) {
          b.seed(f);
        });
    const auto parents = prog->parents();
    job.hash = hash_bytes(parents.data(), parents.size_bytes());
    if (keep != nullptr) keep->ids.assign(parents.begin(), parents.end());
    return job;
  }

  GraphContext& ctx_;
  Tracer& tracer_;
  bool vectorized_;
  std::uint64_t jobs_started_ = 0;
};

std::vector<std::uint64_t> parse_roots(const std::string& csv) {
  std::vector<std::uint64_t> roots;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) roots.push_back(std::stoull(item));
  if (roots.empty()) throw std::invalid_argument("--roots is empty");
  return roots;
}

std::string job_json(const Job& j) {
  double pull_s = 0, push_s = 0, vertex_s = 0, fold_s = 0, idle_s = 0;
  std::uint64_t switches = 0;
  for (std::size_t i = 0; i < j.stats.per_iteration.size(); ++i) {
    const grazelle::IterationStats& it = j.stats.per_iteration[i];
    (it.used_pull ? pull_s : push_s) += it.edge_seconds;
    vertex_s += it.vertex_seconds;
    fold_s += it.merge_seconds;
    idle_s += it.idle_seconds;
    if (i > 0 && it.used_pull != j.stats.per_iteration[i - 1].used_pull) {
      ++switches;
    }
  }
  return JsonOut()
      .str("app", j.app)
      .boolean("traced", j.traced)
      .num("seconds", j.seconds)
      .num("pull_s", pull_s)
      .num("push_s", push_s)
      .num("vertex_s", vertex_s)
      .num("fold_s", fold_s)
      .num("idle_s", idle_s)
      .u64("pull_iters", j.stats.pull_iterations)
      .u64("push_iters", j.stats.push_iterations)
      .u64("switches", switches)
      .u64("edges_touched", j.edges_touched)
      .u64("vectors_visited", j.vectors_visited)
      .u64("vectors_skipped", j.vectors_skipped)
      .done();
}

/// Wall nanoseconds per element of a plain index-stream-and-gather loop
/// over a double array of `num_values` entries on `threads` threads
/// (median of five passes).
double gather_ns_per_element(std::uint64_t num_values,
                             std::uint64_t num_indices, unsigned threads,
                             std::uint64_t seed) {
  std::vector<double> values(num_values);
  for (std::uint64_t i = 0; i < num_values; ++i) values[i] = 0.5 * i;
  std::vector<std::uint32_t> index(num_indices);
  Rng rng(seed);
  for (auto& i : index) i = static_cast<std::uint32_t>(rng.below(num_values));
  std::vector<double> passes;
  std::vector<double> sums(threads);
  for (int pass = 0; pass < 5; ++pass) {
    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        const std::uint64_t begin = num_indices * t / threads;
        const std::uint64_t end = num_indices * (t + 1) / threads;
        double sum = 0.0;
        for (std::uint64_t i = begin; i < end; ++i) sum += values[index[i]];
        sums[t] = sum;
      });
    }
    for (auto& th : pool) th.join();
    passes.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(num_indices));
  }
  std::sort(passes.begin(), passes.end());
  volatile double sink = sums[0];
  (void)sink;
  return passes[passes.size() / 2];
}

}  // namespace

int cmd_gather(const Args& args) {
  std::printf("%s\n",
              JsonOut()
                  .num("gather_ns",
                       gather_ns_per_element(
                           args.u64("values"), args.u64("indices"),
                           static_cast<unsigned>(args.u64("threads")),
                           args.u64("seed")))
                  .done()
                  .c_str());
  return 0;
}

int cmd_batch(const Args& args) {
  const std::string gzg = args.get("gzg");
  const std::vector<std::uint64_t> roots = parse_roots(args.get("roots"));
  const double seconds = args.real("seconds");
  constexpr unsigned threads = 4;  // grazelle_run's default
  const bool trace = args.u64("trace", 0) != 0;
  Tracer tracer(trace);

  std::uint64_t t0 = now_ns();
  const std::shared_ptr<GraphContext> ctx =
      GraphContext::open_shared(gzg, "g");
  tracer.record("GraphContext::open", t0, now_ns());
  const std::uint64_t n = ctx->num_vertices();
  for (const std::uint64_t r : roots) {
    if (r >= n) throw std::invalid_argument("root out of range");
  }

  Runner runner(*ctx, tracer, grazelle::vector_kernels_available());
  // One job sequence, repeated: PR, CC, then BFS from the next roots.
  constexpr unsigned kBfsPerCycle = 4;
  std::vector<Job> jobs;
  std::optional<Output> first_pr, first_cc;
  std::vector<std::optional<Output>> first_bfs(roots.size());
  std::vector<std::uint64_t> bfs_hash(roots.size(), 0);
  std::uint64_t pr_hash = 0, cc_hash = 0;
  std::vector<std::string> errors;
  std::uint64_t next_root = 0;

  const auto cycle = [&](bool traced, bool keep_jobs) {
    const auto note = [&](Job&& job, std::uint64_t* want) {
      if (*want == 0) {
        *want = job.hash;
      } else if (job.hash != *want) {
        errors.push_back(job.app + ": output differs between repeats");
      }
      if (keep_jobs) jobs.push_back(std::move(job));
    };
    Output* keep = first_pr ? nullptr : &first_pr.emplace();
    note(runner.pr(threads, traced, keep), &pr_hash);
    keep = first_cc ? nullptr : &first_cc.emplace();
    note(runner.cc(threads, traced, keep), &cc_hash);
    for (unsigned b = 0; b < kBfsPerCycle; ++b) {
      const std::uint64_t k = next_root++ % roots.size();
      keep = first_bfs[k] ? nullptr : &first_bfs[k].emplace();
      note(runner.bfs(roots[k], threads, traced, keep), &bfs_hash[k]);
    }
  };

  // Warm-up cycles (discarded) fault the container in and settle the
  // page cache; then the measured closed loop.
  for (std::size_t w = 0; w < (roots.size() + kBfsPerCycle - 1) / kBfsPerCycle;
       ++w) {
    cycle(false, false);
  }
  const std::uint64_t window_start = now_ns();
  unsigned cycles = 0;
  while (seconds_since(window_start) < seconds) {
    // Traced runs alternate telemetry on/off per cycle, so the sink's
    // overhead is measured under the same conditions.
    cycle(trace && cycles % 2 == 0, true);
    ++cycles;
  }
  const double window_s = seconds_since(window_start);
  const double peak_rss_mb = peak_rss_mb_self();

  // Traced runs add the plain single-thread baseline.
  std::vector<double> pr1_s;
  if (trace) {
    for (int i = 0; i < 3; ++i) {
      pr1_s.push_back(runner.pr(1, false, nullptr).seconds);
    }
  }

  // Reference check of each distinct output.
  const std::uint64_t ref_start = now_ns();
  const Csr g = build_csr(grazelle::io::load_binary(args.get("edges")));
  std::uint64_t checked = 0;
  const auto check = [&](const std::string& why) {
    ++checked;
    if (!why.empty()) errors.push_back(why);
  };
  check(check_pagerank(pagerank(g, kPageRankIterations),
                       first_pr->ranks.data(), first_pr->ranks.size()));
  check(check_exact(cc_labels(g), first_cc->ids.data(), first_cc->ids.size(),
                    "cc"));
  for (std::size_t k = 0; k < roots.size(); ++k) {
    if (!first_bfs[k]) continue;
    check(check_bfs_parents(g, bfs_levels(g, roots[k]), first_bfs[k]->ids.data(),
                            first_bfs[k]->ids.size(), roots[k]));
  }
  tracer.record("reference_check", ref_start, now_ns());
  if (trace && args.has("spans") && !tracer.write(args.get("spans"))) {
    errors.push_back("cannot write spans");
  }

  std::string jobs_json = "[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs_json += (i == 0 ? "" : ",") + job_json(jobs[i]);
  }
  jobs_json += "]";
  std::string errors_json = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    errors_json += (i == 0 ? "\"" : ",\"") + errors[i] + "\"";
  }
  errors_json += "]";
  std::printf("%s\n", JsonOut()
                          .num("window_s", window_s)
                          .num("peak_rss_mb", peak_rss_mb)
                          .u64("num_vertices", n)
                          .u64("num_edges", ctx->num_edges())
                          .raw("jobs", jobs_json)
                          .raw("pr1_s", json_array(pr1_s))
                          .u64("checked", checked)
                          .raw("errors", errors_json)
                          .done()
                          .c_str());
  return 0;
}

}  // namespace perfbench
