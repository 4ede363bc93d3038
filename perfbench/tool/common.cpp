#include "common.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "serve/json.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected --key value pairs, got " + key);
    }
    kv_[key.substr(2)] = argv[i + 1];
  }
}

std::string Flags::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

std::int64_t Flags::num(const std::string& key) const {
  return std::stoll(str(key));
}

double Flags::real(const std::string& key) const { return std::stod(str(key)); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::vector<float>> make_inputs(std::int64_t numel,
                                            std::int64_t count,
                                            std::uint64_t seed) {
  mixq::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(count));
  for (auto& x : out) {
    x.resize(static_cast<std::size_t>(numel));
    for (float& v : x) v = static_cast<float>(rng.uniform());
  }
  return out;
}

void readdress(std::string_view line, std::int64_t id, std::string& out) {
  if (line.substr(0, kIdPrefix.size()) != kIdPrefix) {
    throw std::runtime_error("generated line lacks the id prefix");
  }
  out.assign("{\"id\":");
  out += std::to_string(id);
  out += ',';
  out.append(line.substr(kIdPrefix.size()));
}

std::int64_t SpanLog::add(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index, std::int64_t t1) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(index)).t1 = t1;
}

void SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Span& s : spans_) {
    out += "{\"name\":";
    mixq::serve::append_json_string(out, s.name);
    out += ",\"t0\":" + std::to_string(s.t0) +
           ",\"t1\":" + std::to_string(s.t1) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"req\":" + std::to_string(s.req) + ",\"value\":";
    mixq::serve::append_json_double(out, s.value);
    out += "}\n";
  }
  write_file(path, out);
}

}  // namespace perfbench
