#include "eval/checkpoint.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace mixq::eval {

namespace {

constexpr std::uint8_t kMagic[8] = {'M', 'I', 'X', 'Q', 'C', 'K', 'P', '1'};

/// Every float array a checkpoint must carry: trainable params plus BN
/// running statistics (not exposed through params()).
std::vector<std::vector<float>*> all_arrays(core::QatModel& model) {
  std::vector<std::vector<float>*> arrays;
  for (auto& p : model.params()) arrays.push_back(p.value);
  for (auto& item : model.chain) {
    if (auto* bn = item.block->bn()) {
      arrays.push_back(&bn->running_mean());
      arrays.push_back(&bn->running_var());
      // Frozen BN drops gamma/beta from params(); carry them explicitly.
      if (bn->frozen()) {
        arrays.push_back(&bn->gamma());
        arrays.push_back(&bn->beta());
      }
    }
  }
  return arrays;
}

}  // namespace

std::vector<std::uint8_t> save_checkpoint(core::QatModel& model) {
  const auto arrays = all_arrays(model);
  // Sized once and filled by memcpy: GCC 12 at -O3 reports false
  // -Wstringop-overflow / -Warray-bounds on a vector grown by insert().
  std::size_t bytes = sizeof(kMagic) + sizeof(std::uint64_t);
  for (const auto* a : arrays) {
    bytes += sizeof(std::uint64_t) + a->size() * sizeof(float);
  }
  std::vector<std::uint8_t> blob(bytes);
  std::size_t pos = 0;
  const auto put = [&](const void* p, std::size_t n) {
    if (n > 0) std::memcpy(blob.data() + pos, p, n);
    pos += n;
  };
  const auto put_u64 = [&](std::uint64_t v) { put(&v, sizeof(v)); };
  put(kMagic, sizeof(kMagic));
  put_u64(arrays.size());
  for (const auto* a : arrays) {
    put_u64(a->size());
    put(a->data(), a->size() * sizeof(float));
  }
  return blob;
}

void load_checkpoint(core::QatModel& model,
                     const std::vector<std::uint8_t>& blob) {
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) {
    if (pos + n > blob.size()) {
      throw std::runtime_error("checkpoint: truncated blob");
    }
  };
  need(sizeof(kMagic));
  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  pos += sizeof(kMagic);
  const auto get_u64 = [&]() {
    need(sizeof(std::uint64_t));
    std::uint64_t v;
    std::memcpy(&v, blob.data() + pos, sizeof(v));
    pos += sizeof(v);
    return v;
  };
  const auto arrays = all_arrays(model);
  const std::uint64_t count = get_u64();
  if (count != arrays.size()) {
    throw std::runtime_error("checkpoint: array count mismatch (got " +
                             std::to_string(count) + ", model has " +
                             std::to_string(arrays.size()) + ")");
  }
  for (auto* a : arrays) {
    const std::uint64_t n = get_u64();
    if (n != a->size()) {
      throw std::runtime_error("checkpoint: array size mismatch");
    }
    need(n * sizeof(float));
    std::memcpy(a->data(), blob.data() + pos, n * sizeof(float));
    pos += n * sizeof(float);
  }
  if (pos != blob.size()) {
    throw std::runtime_error("checkpoint: trailing bytes");
  }
}

void write_checkpoint_file(core::QatModel& model, const std::string& path) {
  const auto blob = save_checkpoint(model);
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("checkpoint: cannot open " + path);
  f.write(reinterpret_cast<const char*>(blob.data()),
          static_cast<std::streamsize>(blob.size()));
  if (!f) throw std::runtime_error("checkpoint: write failed");
}

void read_checkpoint_file(core::QatModel& model, const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("checkpoint: cannot open " + path);
  std::vector<std::uint8_t> blob(static_cast<std::size_t>(f.tellg()));
  f.seekg(0);
  f.read(reinterpret_cast<char*>(blob.data()),
         static_cast<std::streamsize>(blob.size()));
  if (!f) throw std::runtime_error("checkpoint: read failed");
  load_checkpoint(model, blob);
}

}  // namespace mixq::eval
