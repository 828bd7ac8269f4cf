// loadgen: open-loop load against a running grazelle_serve.
//
//   perfbench loadgen --socket s.sock --schedule sched.txt --out res.json
//                     --edges edges.grzb
//                     [--trace 0|1 --spans f --scrape-prefix p]
//
// One thread and at most four connections. Each schedule line is
//   <due_us> <kind> <phase> <values> <request json without "id">
// with phase w (warm-up), m (measured) or f (final: sent only after
// every earlier reply arrived, and timed from when they are sent).
// Requests are sent when due, whatever is outstanding, and latency runs
// from the due time to the reply.
// The sampled "values" replies are checked against the scalar
// reference built from --edges after the last reply; an ingest schedule's final
// `list` and CC replies are checked against the base graph with every
// sent batch applied. With --trace 1 the daemon's metrics and stats
// are scraped when the measured phase starts, after its last reply and
// after the final phase.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "graph/io.h"
#include "reference.h"
#include "tools.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kScrapeIdBase = 1ull << 40;
constexpr unsigned kConnections = 4;
// With every request sent, the rest count as timed out once no reply
// has arrived for this long.
constexpr double kDrainSeconds = 60.0;

struct Entry {
  std::uint64_t due_us = 0;
  std::string kind;
  char phase = 'm';
  bool values = false;
  std::string json;
};

struct Reply {
  bool done = false;
  bool ok = false;
  bool overloaded = false;
  std::uint64_t sent_ns = 0;
  std::uint64_t recv_ns = 0;
  std::uint64_t due_ns = 0;
  // Fields of the reply's run report (0 when absent).
  double batched = 0, edges = 0, pull_s = 0, push_s = 0, vertex_s = 0,
         fold_s = 0, idle_s = 0, pull_iters = 0, push_iters = 0,
         switches = 0, epoch = 0, num_edges = 0;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to " + path + ": " +
                             std::strerror(errno));
  }
  return fd;
}

void send_all(int fd, const std::string& line) {
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("daemon closed the connection");
    off += static_cast<std::size_t>(n);
  }
}

struct Connection {
  int fd = -1;
  std::string buf;
  std::size_t scanned = 0;
};

}  // namespace

int cmd_loadgen(const Args& args) {
  std::vector<Entry> entries;
  for (const std::string& line : read_lines(args.get("schedule"))) {
    std::istringstream in(line);
    Entry e;
    int values = 0;
    in >> e.due_us >> e.kind >> e.phase >> values;
    e.values = values != 0;
    std::getline(in >> std::ws, e.json);
    if (e.json.empty() || e.json.front() != '{') {
      throw std::invalid_argument("bad schedule line: " + line);
    }
    entries.push_back(std::move(e));
  }
  const bool trace = args.u64("trace", 0) != 0;
  std::vector<Connection> conns(kConnections);
  for (Connection& c : conns) c.fd = connect_unix(args.get("socket"));

  std::vector<Reply> replies(entries.size());
  Tracer tracer(trace);
  std::map<std::uint64_t, std::string> scrapes;  // scrape id -> reply
  std::map<std::size_t, std::vector<std::uint64_t>> values;  // entry -> array
  std::uint64_t scrape_ids = 0;
  std::size_t scrapes_pending = 0;
  const auto scrape = [&] {
    if (!trace) return;
    const std::string ops[2] = {
        std::string("{\"id\":") + std::to_string(kScrapeIdBase + scrape_ids) +
            ",\"op\":\"metrics\",\"format\":\"prometheus\"}\n",
        std::string("{\"id\":") +
            std::to_string(kScrapeIdBase + scrape_ids + 1) +
            ",\"op\":\"stats\"}\n"};
    send_all(conns[0].fd, ops[0]);
    send_all(conns[0].fd, ops[1]);
    scrape_ids += 2;
    scrapes_pending += 2;
  };

  const std::size_t first_measured = static_cast<std::size_t>(
      std::find_if(entries.begin(), entries.end(),
                   [](const Entry& e) { return e.phase == 'm'; }) -
      entries.begin());
  std::size_t measured_left = static_cast<std::size_t>(
      std::count_if(entries.begin(), entries.end(),
                    [](const Entry& e) { return e.phase == 'm'; }));
  bool end_scraped = measured_left == 0;
  bool final_scraped = false;

  const std::uint64_t t0 = now_ns() + 20'000'000;  // 20 ms to settle
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::uint64_t last_progress = now_ns();
  const auto handle = [&](std::string_view line, std::uint64_t recv) {
    const auto id = static_cast<std::uint64_t>(json_number(line, "id"));
    if (id >= kScrapeIdBase) {
      scrapes[id - kScrapeIdBase] = std::string(line);
      --scrapes_pending;
      return;
    }
    if (id == 0 || id > replies.size() || replies[id - 1].done) return;
    const std::size_t k = id - 1;
    Reply& r = replies[k];
    r.done = true;
    r.recv_ns = recv;
    r.ok = json_number(line, "ok") == 1.0;
    r.overloaded = line.find("\"overloaded\"") != std::string_view::npos;
    r.batched = json_number(line, "batched");
    r.epoch = json_number(line, "epoch");
    r.num_edges = json_number(line, "num_edges");
    const std::size_t rep = line.find("\"report\":");
    if (rep != std::string_view::npos) {
      r.edges = json_number(line, "edges_touched", rep);
      r.pull_s = json_number(line, "pull_seconds", rep);
      r.push_s = json_number(line, "push_seconds", rep);
      r.vertex_s = json_number(line, "vertex_seconds", rep);
      r.fold_s = json_number(line, "fold_seconds", rep);
      r.idle_s = json_number(line, "idle_seconds", rep);
      r.pull_iters = json_number(line, "pull_iterations", rep);
      r.push_iters = json_number(line, "push_iterations", rep);
      r.switches = json_number(line, "tuner_direction_switches", rep);
    }
    if (entries[k].values && r.ok) {
      std::vector<std::uint64_t> v;
      if (parse_values_u64(line, &v)) values[k] = std::move(v);
    }
    // Spans of even-numbered requests only, recorded as replies arrive:
    // their latency against the odd ones' is the tracing overhead.
    if (k % 2 == 0) {
      tracer.record("request." + entries[k].kind, r.sent_ns, recv, 0, id);
    }
    --outstanding;
    if (entries[k].phase == 'm' && --measured_left == 0 && !end_scraped) {
      end_scraped = true;
      scrape();
    }
    last_progress = recv;
  };

  std::vector<pollfd> fds(kConnections);
  std::vector<char> chunk(1 << 20);
  for (;;) {
    const std::uint64_t now = now_ns();
    // Release due requests; final ones wait for every earlier reply.
    while (next < entries.size()) {
      const Entry& e = entries[next];
      std::uint64_t due = t0 + e.due_us * 1000;
      if (e.phase == 'f') {
        if (outstanding != 0 || scrapes_pending != 0) break;
        due = now;
      }
      if (due > now) break;
      if (next == first_measured) scrape();
      std::string line = "{\"id\":" + std::to_string(next + 1) + "," +
                         e.json.substr(1) + "\n";
      replies[next].due_ns = due;
      replies[next].sent_ns = now_ns();
      send_all(conns[next % kConnections].fd, line);
      ++outstanding;
      ++next;
    }
    if (next == entries.size() && outstanding == 0 && scrapes_pending == 0) {
      if (final_scraped || !trace) break;
      final_scraped = true;
      scrape();
    }
    if (next == entries.size() &&
        seconds_since(last_progress) > kDrainSeconds) {
      break;
    }
    int timeout_ms = 100;
    if (next < entries.size() && entries[next].phase != 'f') {
      const std::uint64_t due = t0 + entries[next].due_us * 1000;
      const std::uint64_t t = now_ns();
      timeout_ms = due > t ? static_cast<int>((due - t) / 1'000'000) : 0;
    }
    for (unsigned c = 0; c < kConnections; ++c) fds[c] = {conns[c].fd, POLLIN, 0};
    if (::poll(fds.data(), kConnections, std::min(timeout_ms, 100)) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll failed");
    }
    for (unsigned c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = conns[c];
      const ssize_t n = ::read(conn.fd, chunk.data(), chunk.size());
      if (n <= 0) throw std::runtime_error("daemon closed the connection");
      const std::uint64_t recv = now_ns();
      conn.buf.append(chunk.data(), static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = conn.buf.find('\n', std::max(start, conn.scanned));
        if (nl == std::string::npos) break;
        handle(std::string_view(conn.buf).substr(start, nl - start), recv);
        start = nl + 1;
      }
      conn.buf.erase(0, start);
      conn.scanned = conn.buf.size();
    }
  }
  for (Connection& c : conns) ::close(c.fd);

  // Generator health: how late requests left against their due time.
  std::vector<double> late_ms;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    if (entries[k].phase != 'f' && replies[k].sent_ns != 0) {
      late_ms.push_back(
          static_cast<double>(replies[k].sent_ns - replies[k].due_ns) * 1e-6);
    }
  }

  // Output checks.
  std::vector<std::string> errors;
  std::uint64_t checked = 0;
  double expected_edges = 0.0;
  {
    grazelle::EdgeList list = grazelle::io::load_binary(args.get("edges"));
    Csr base = build_csr(list);
    std::map<std::uint64_t, std::vector<std::uint64_t>> levels;
    std::optional<std::vector<std::uint64_t>> labels;
    bool ingested = false;
    std::vector<grazelle::Edge> inserted, deleted;
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (entries[k].kind == "ingest") {
        ingested = true;
        for (const auto& e : json_edge_pairs(entries[k].json, "edges")) {
          inserted.push_back(e);
        }
        for (const auto& e : json_edge_pairs(entries[k].json, "deletes")) {
          deleted.push_back(e);
        }
      }
    }
    Csr final_graph;
    if (ingested) {
      std::sort(deleted.begin(), deleted.end());
      grazelle::EdgeList merged(list.num_vertices());
      for (const grazelle::Edge& e : list.edges()) {
        if (!std::binary_search(deleted.begin(), deleted.end(), e)) {
          merged.add_edge(e.src, e.dst);
        }
      }
      for (const grazelle::Edge& e : inserted) merged.add_edge(e.src, e.dst);
      merged.canonicalize();
      expected_edges = static_cast<double>(merged.num_edges());
      final_graph = build_csr(merged);
    }
    for (auto& [k, v] : values) {
      // Measured reads run on the base graph; the final phase's, after
      // every publish, on the base with every batch applied.
      const bool after_ingest = ingested && entries[k].phase == 'f';
      const Csr& g = after_ingest ? final_graph : base;
      ++checked;
      std::string why;
      if (entries[k].kind == "bfs") {
        const auto src = static_cast<std::uint64_t>(
            json_number(entries[k].json, "source"));
        if (!levels.count(src)) levels[src] = bfs_levels(g, src);
        why = check_bfs_parents(g, levels[src], v.data(), v.size(), src);
      } else if (after_ingest) {
        why = check_exact(cc_labels(g), v.data(), v.size(), "final cc");
      } else {
        if (!labels) labels = cc_labels(g);
        why = check_exact(*labels, v.data(), v.size(), "cc");
      }
      if (!why.empty()) {
        errors.push_back("request " + std::to_string(k + 1) + " " + why);
      }
    }
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (entries[k].kind == "list" && ingested) {
        ++checked;
        if (replies[k].num_edges != expected_edges) {
          errors.push_back("final edge count differs from the reference");
        }
      }
    }
    for (std::size_t k = 0; k < entries.size(); ++k) {
      if (entries[k].values && !values.count(k) && replies[k].ok) {
        errors.push_back("request " + std::to_string(k + 1) +
                         " returned no values");
      }
    }
  }

  if (trace) {
    const std::string prefix = args.get("scrape-prefix");
    for (const auto& [id, line] : scrapes) {
      std::ofstream(prefix + std::to_string(id) + ".txt") << line << "\n";
    }
    if (args.has("spans") && !tracer.write(args.get("spans"))) {
      errors.push_back("cannot write spans");
    }
  }

  std::ofstream out(args.get("out"));
  out << "{\"requests\":[";
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const Reply& r = replies[k];
    const double latency_ms =
        r.done ? static_cast<double>(r.recv_ns - r.due_ns) * 1e-6 : -1.0;
    out << (k == 0 ? "" : ",")
        << JsonOut()
               .str("kind", entries[k].kind)
               .str("phase", std::string(1, entries[k].phase))
               .boolean("values", entries[k].values)
               .num("latency_ms", latency_ms)
               .boolean("ok", r.done && r.ok)
               .boolean("overloaded", r.overloaded)
               .num("batched", r.batched)
               .num("edges", r.edges)
               .num("pull_s", r.pull_s)
               .num("push_s", r.push_s)
               .num("vertex_s", r.vertex_s)
               .num("fold_s", r.fold_s)
               .num("idle_s", r.idle_s)
               .num("pull_iters", r.pull_iters)
               .num("push_iters", r.push_iters)
               .num("switches", r.switches)
               .num("epoch", r.epoch)
               .done();
  }
  std::string errors_json = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    errors_json += (i == 0 ? "\"" : ",\"") + errors[i] + "\"";
  }
  errors_json += "]";
  out << "]," << JsonOut()
                     .raw("late_ms", json_array(late_ms))
                     .u64("checked", checked)
                     .num("expected_edges", expected_edges)
                     .raw("errors", errors_json)
                     .done()
                     .substr(1)
      << "\n";
  if (!out) throw std::runtime_error("cannot write " + args.get("out"));
  return 0;
}

}  // namespace perfbench
