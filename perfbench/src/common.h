// Shared helpers for the perfbench tools: argument parsing, clocks, the
// in-memory span recorder, a seeded RNG and a tiny JSON writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary epoch (steady_clock).
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// `--key value` pairs after the subcommand. Every key must be known
/// to the caller; get() on a missing key without a default is an error.
class Args {
 public:
  Args(int argc, char** argv, int first);
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::uint64_t u64(const std::string& key) const;
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const;
  [[nodiscard]] double real(const std::string& key) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input bit for bit.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// One traced call: what ran, when, and which span caused it. Spans of
/// one request share `request`.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not tied to a request
};

/// In-memory span recorder; a disabled tracer records nothing. Spans
/// are written out once, at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Records a finished span and returns its id (0 when disabled).
  std::uint64_t record(std::string name, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t parent = 0,
                       std::uint64_t request = 0) {
    if (!enabled_) return 0;
    spans_.push_back(Span{std::move(name), start_ns, end_ns,
                          spans_.size() + 1, parent, request});
    return spans_.size();
  }

  /// Opens a span its children can name as parent before it ends;
  /// close() records the end.
  std::uint64_t open(std::string name, std::uint64_t start_ns,
                     std::uint64_t request = 0) {
    return record(std::move(name), start_ns, start_ns, 0, request);
  }
  void close(std::uint64_t id, std::uint64_t end_ns) {
    if (id != 0) spans_[id - 1].end_ns = end_ns;
  }

  /// Writes one JSON object per line. Returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Flat JSON object writer for result lines (numbers at full precision).
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v);
  JsonOut& u64(const std::string& key, std::uint64_t v);
  JsonOut& str(const std::string& key, const std::string& v);
  JsonOut& boolean(const std::string& key, bool v);
  JsonOut& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

/// JSON array of numbers at full precision.
[[nodiscard]] std::string json_array(const std::vector<double>& values);

/// Reads whole lines of a text file; throws on I/O failure.
[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb_self();

}  // namespace perfbench
