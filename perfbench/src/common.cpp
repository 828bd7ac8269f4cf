#include "common.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      throw std::invalid_argument(std::string("bad argument: ") + argv[i]);
    }
    kv_[argv[i] + 2] = argv[i + 1];
  }
}

bool Args::has(const std::string& key) const { return kv_.count(key) != 0; }

std::string Args::get(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

std::uint64_t Args::u64(const std::string& key) const {
  return std::stoull(get(key));
}

std::uint64_t Args::u64(const std::string& key, std::uint64_t fallback) const {
  return has(key) ? u64(key) : fallback;
}

double Args::real(const std::string& key) const { return std::stod(get(key)); }

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

void JsonOut::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + k + "\":";
}

JsonOut& JsonOut::num(const std::string& k, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  key(k);
  body_ += buf;
  return *this;
}

JsonOut& JsonOut::u64(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonOut& JsonOut::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"";
  for (const char c : v) {
    if (c == '"' || c == '\\') body_ += '\\';
    body_ += (c == '\n') ? ' ' : c;
  }
  body_ += "\"";
  return *this;
}

JsonOut& JsonOut::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonOut& JsonOut::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i == 0 ? "" : ",", values[i]);
    out += buf;
  }
  return out + "]";
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

double peak_rss_mb_self() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
