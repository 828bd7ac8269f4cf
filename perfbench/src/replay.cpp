// replay-ingest: times the publish path's public steps for each batch
// a run sent, outside the daemon.
//
//   perfbench replay-ingest --gzg pristine.gzg --work copy.gzg
//                           --schedule sched.txt
//
// For every ingest request in the schedule, in order: append it to a
// copy's delta journal (store::append_delta_batch), buffer and drain it
// through a DeltaOverlay, fold it into the current graph (apply_delta)
// and rebuild (Graph::build). The rebuilt graph is the next base, as
// after a publish. Prints per-step seconds as one JSON line.
#include <filesystem>
#include <sstream>

#include "common.h"
#include "graph/delta_overlay.h"
#include "graph/graph.h"
#include "graph/store.h"
#include "reference.h"
#include "tools.h"

namespace perfbench {

int cmd_replay_ingest(const Args& args) {
  const std::string work = args.get("work");
  std::filesystem::copy_file(args.get("gzg"), work,
                             std::filesystem::copy_options::overwrite_existing);
  grazelle::Graph base = grazelle::store::load_graph(work);
  const bool stripped = !base.vsd512().present();
  std::vector<double> journal_s, drain_s, apply_s, rebuild_s;
  for (const std::string& line : read_lines(args.get("schedule"))) {
    std::istringstream in(line);
    std::string due, kind;
    in >> due >> kind;
    if (kind != "ingest") continue;
    // The daemon's op order: inserts, then deletes.
    std::vector<grazelle::store::DeltaOp> ops;
    for (const grazelle::Edge& e : json_edge_pairs(line, "edges")) {
      ops.push_back(grazelle::store::DeltaOp::insert(e.src, e.dst, 0.0));
    }
    for (const grazelle::Edge& e : json_edge_pairs(line, "deletes")) {
      ops.push_back(grazelle::store::DeltaOp::remove(e.src, e.dst));
    }
    std::uint64_t t = now_ns();
    grazelle::store::append_delta_batch(work, ops);
    journal_s.push_back(seconds_since(t));
    t = now_ns();
    grazelle::DeltaOverlay overlay(base.num_vertices());
    overlay.ingest(ops);
    const grazelle::DeltaBatch batch = overlay.drain();
    drain_s.push_back(seconds_since(t));
    t = now_ns();
    grazelle::DeltaEffect effect = grazelle::apply_delta(base, batch.ops);
    apply_s.push_back(seconds_since(t));
    t = now_ns();
    grazelle::Graph next = grazelle::Graph::build(std::move(effect.merged));
    if (stripped) next.set_vsd512(grazelle::Vsd512Graph{});
    rebuild_s.push_back(seconds_since(t));
    base = std::move(next);
  }
  std::filesystem::remove(work);
  std::printf("%s\n", JsonOut()
                          .raw("journal_append_s", json_array(journal_s))
                          .raw("drain_s", json_array(drain_s))
                          .raw("apply_delta_s", json_array(apply_s))
                          .raw("rebuild_s", json_array(rebuild_s))
                          .done()
                          .c_str());
  return 0;
}

}  // namespace perfbench
