#include "runtime/entropy.hpp"

#include <algorithm>
#include <stdexcept>

namespace mixq::runtime::entropy {

namespace {

/// Huffman code lengths via the classic two-queue merge over leaves
/// sorted by (count, symbol). Fully deterministic: ties break toward the
/// lower symbol / earlier-created package, so two encoders can never
/// disagree on a table for the same histogram.
std::vector<std::uint8_t> huffman_lengths(const std::uint64_t* hist,
                                          int alphabet) {
  struct Node {
    std::uint64_t weight;
    int left{-1}, right{-1};  ///< -1 marks a leaf
    int sym{-1};
    int depth{0};
  };
  std::vector<int> leaves;
  for (int s = 0; s < alphabet; ++s) {
    if (hist[s] > 0) leaves.push_back(s);
  }
  std::vector<std::uint8_t> lens(static_cast<std::size_t>(alphabet), 0);
  if (leaves.empty()) return lens;
  if (leaves.size() == 1) {
    lens[static_cast<std::size_t>(leaves[0])] = 1;  // degenerate marker
    return lens;
  }

  std::vector<Node> nodes;
  nodes.reserve(leaves.size() * 2);
  for (int s : leaves) nodes.push_back({hist[s], -1, -1, s, 0});
  std::stable_sort(nodes.begin(), nodes.end(),
                   [](const Node& a, const Node& b) {
                     return a.weight != b.weight ? a.weight < b.weight
                                                 : a.sym < b.sym;
                   });
  // Two FIFO queues: sorted leaves and packages in creation order. The
  // front of either queue is always a minimum-weight candidate.
  std::size_t li = 0;           // next leaf
  std::vector<int> pkg;         // indices of package nodes
  std::size_t pi = 0;           // next package
  const std::size_t n_leaves = nodes.size();
  auto take_min = [&]() -> int {
    const bool leaf_ok = li < n_leaves;
    const bool pkg_ok = pi < pkg.size();
    if (leaf_ok &&
        (!pkg_ok || nodes[li].weight <= nodes[pkg[pi]].weight)) {
      return static_cast<int>(li++);
    }
    return pkg[pi++];
  };
  int root = -1;
  for (std::size_t made = 0; made + 1 < n_leaves; ++made) {
    const int a = take_min();
    const int b = take_min();
    Node parent;
    parent.weight = nodes[a].weight + nodes[b].weight;
    parent.left = a;
    parent.right = b;
    nodes.push_back(parent);
    root = static_cast<int>(nodes.size() - 1);
    pkg.push_back(root);
  }
  // Depth sweep from the root (packages were appended in creation order,
  // so iterating from the back visits parents before children... the
  // reverse: parents have larger indices, so walk indices descending).
  nodes[static_cast<std::size_t>(root)].depth = 0;
  for (int i = root; i >= 0; --i) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    if (n.left >= 0) {
      nodes[static_cast<std::size_t>(n.left)].depth = n.depth + 1;
      nodes[static_cast<std::size_t>(n.right)].depth = n.depth + 1;
    }
  }
  for (std::size_t i = 0; i < n_leaves; ++i) {
    lens[static_cast<std::size_t>(nodes[i].sym)] =
        static_cast<std::uint8_t>(nodes[i].depth);
  }
  return lens;
}

/// decode_codes' emit for Q4 bytes and Q2 nibbles: two codes per symbol,
/// low first. Only a bank's last symbols can carry codes past `numel` (Q2
/// pads to whole bytes, up to three codes), so the bounds test is
/// predicted right everywhere else.
template <int kCodeBits>
auto emit_code_pair(std::int32_t* out, std::int64_t numel, std::int64_t& k) {
  return [out, numel, &k](std::uint8_t sym) {
    constexpr std::uint8_t kMask = (1u << kCodeBits) - 1u;
    if (numel - k >= 2) {
      out[k] = sym & kMask;
      out[k + 1] = sym >> kCodeBits;
    } else if (k < numel) {
      out[k] = sym & kMask;
    }
    k += 2;
  };
}

}  // namespace

std::vector<std::uint8_t> build_code_lengths(const std::uint64_t* hist,
                                             int alphabet) {
  // Length-limit by flattening the histogram until the tree fits: halving
  // (rounding up, so no nonzero count vanishes) monotonically shrinks the
  // depth and converges to the all-equal histogram, whose tree depth is
  // ceil(log2(alphabet)) <= 8 <= kMaxCodeLen.
  std::vector<std::uint64_t> h(hist, hist + alphabet);
  for (;;) {
    std::vector<std::uint8_t> lens = huffman_lengths(h.data(), alphabet);
    const int max_len =
        lens.empty() ? 0 : *std::max_element(lens.begin(), lens.end());
    if (max_len <= kMaxCodeLen) return lens;
    for (auto& c : h) {
      if (c > 0) c = (c + 1) / 2;
    }
  }
}

std::optional<EncodedBlob> encode(const PackedBuffer& w) {
  if (w.numel() <= 0 || w.size_bytes() <= 0) return std::nullopt;
  const BitWidth q = w.bitwidth();
  const int sym_bits = symbol_bits(q);
  const int alphabet = alphabet_size(q);
  const std::uint8_t* bytes = w.data();
  const auto n_bytes = static_cast<std::size_t>(w.size_bytes());
  const std::uint64_t n_syms =
      symbol_count(static_cast<std::int64_t>(n_bytes), q);

  std::uint64_t hist[256] = {};
  if (sym_bits == 8) {
    for (std::size_t i = 0; i < n_bytes; ++i) ++hist[bytes[i]];
  } else {
    for (std::size_t i = 0; i < n_bytes; ++i) {
      ++hist[bytes[i] & 0x0F];
      ++hist[bytes[i] >> 4];
    }
  }

  EncodedBlob blob;
  blob.alphabet = alphabet;
  blob.lens = build_code_lengths(hist, alphabet);

  const int nonzero = static_cast<int>(
      std::count_if(blob.lens.begin(), blob.lens.end(),
                    [](std::uint8_t l) { return l > 0; }));
  if (nonzero == 1) {
    // Degenerate single-symbol stream: table carries the marker length,
    // the bitstream is empty (see file comment in entropy.hpp).
    blob.nbits = 0;
    return blob;
  }

  // Canonical code assignment in (length, symbol) order.
  std::uint32_t code_of[256] = {};
  {
    std::uint32_t next[kMaxCodeLen + 2] = {};
    std::uint32_t count[kMaxCodeLen + 1] = {};
    for (int s = 0; s < alphabet; ++s) ++count[blob.lens[s]];
    count[0] = 0;
    std::uint32_t code = 0;
    for (int l = 1; l <= kMaxCodeLen; ++l) {
      code = (code + count[l - 1]) << 1;
      next[l] = code;
    }
    for (int s = 0; s < alphabet; ++s) {
      if (blob.lens[s] > 0) code_of[s] = next[blob.lens[s]]++;
    }
  }

  BitWriter bw(blob.stream);
  auto put_sym = [&](std::uint8_t sym) {
    bw.put(code_of[sym], blob.lens[sym]);
  };
  if (sym_bits == 8) {
    for (std::size_t i = 0; i < n_bytes; ++i) put_sym(bytes[i]);
  } else {
    for (std::size_t i = 0; i < n_bytes; ++i) {
      put_sym(bytes[i] & 0x0F);
      put_sym(bytes[i] >> 4);
    }
  }
  blob.nbits = bw.bit_count();
  bw.flush();
  (void)n_syms;
  return blob;
}

HuffmanDecoder::HuffmanDecoder(const std::uint8_t* lens, int alphabet)
    : alphabet_(alphabet) {
  if (alphabet != 16 && alphabet != 256) {
    throw std::runtime_error("entropy: unsupported alphabet size");
  }
  int nonzero = 0;
  int only = -1;
  for (int s = 0; s < alphabet; ++s) {
    if (lens[s] > kMaxCodeLen) {
      throw std::runtime_error("entropy: code length exceeds cap");
    }
    if (lens[s] > 0) {
      ++nonzero;
      only = s;
      max_len_ = std::max<int>(max_len_, lens[s]);
    }
  }
  if (nonzero == 0) {
    throw std::runtime_error("entropy: empty code-length table");
  }
  if (nonzero == 1) {
    if (lens[only] != 1) {
      throw std::runtime_error(
          "entropy: single-symbol table must use length 1");
    }
    degenerate_ = true;
    degenerate_sym_ = static_cast<std::uint8_t>(only);
    return;
  }

  // Kraft sum must be exactly one: an over-subscribed table is ambiguous,
  // an under-subscribed one has undecodable bit patterns -- both are
  // hostile or corrupt, never produced by the encoder.
  std::uint64_t kraft = 0;
  for (int s = 0; s < alphabet; ++s) {
    if (lens[s] > 0) kraft += std::uint64_t{1} << (kMaxCodeLen - lens[s]);
  }
  if (kraft != (std::uint64_t{1} << kMaxCodeLen)) {
    throw std::runtime_error("entropy: code lengths violate Kraft equality");
  }

  for (int s = 0; s < alphabet; ++s) ++count_[lens[s]];
  count_[0] = 0;
  std::uint32_t code = 0;
  std::uint32_t offset = 0;
  for (int l = 1; l <= kMaxCodeLen; ++l) {
    code = (code + count_[l - 1]) << 1;
    first_code_[l] = code;
    offset_[l] = offset;
    offset += count_[l];
  }
  syms_.resize(offset);
  {
    std::uint32_t next[kMaxCodeLen + 1];
    std::copy(offset_, offset_ + kMaxCodeLen + 1, next);
    for (int s = 0; s < alphabet; ++s) {
      if (lens[s] > 0) {
        syms_[next[lens[s]]++] = static_cast<std::uint8_t>(s);
      }
    }
  }

  lut_.assign(std::size_t{1} << kLutBits, LutEntry{0, 0});
  for (int l = 1; l <= std::min(max_len_, kLutBits); ++l) {
    for (std::uint32_t i = 0; i < count_[l]; ++i) {
      const std::uint32_t c = first_code_[l] + i;
      const std::uint32_t base = c << (kLutBits - l);
      const std::uint32_t span = std::uint32_t{1} << (kLutBits - l);
      for (std::uint32_t k = 0; k < span; ++k) {
        lut_[base + k] = LutEntry{syms_[offset_[l] + i],
                                  static_cast<std::uint8_t>(l)};
      }
    }
  }
}

// Inlined: as a call it costs the bulk loop registers even when not taken.
[[gnu::always_inline]] inline HuffmanDecoder::LutEntry
HuffmanDecoder::long_code(std::uint64_t w) const {
  // Canonical per-length scan. Because every shorter length failed to
  // match, the top l bits are >= first_code_[l] and only the upper bound
  // needs checking.
  for (int l = kLutBits + 1; l <= max_len_; ++l) {
    const auto c = static_cast<std::uint32_t>(w >> (64 - l));
    if (c < first_code_[l] + count_[l]) {
      return {syms_[offset_[l] + (c - first_code_[l])],
              static_cast<std::uint8_t>(l)};
    }
  }
  throw std::runtime_error("entropy: invalid code in stream");
}

template <typename Emit>
void HuffmanDecoder::run(BitReader& r, std::uint64_t n_syms,
                         Emit&& emit) const {
  if (degenerate_) {
    for (std::uint64_t i = 0; i < n_syms; ++i) emit(degenerate_sym_);
    r.finish();
    return;
  }
  // Locals, not members: a byte-typed emit may alias anything `this` holds.
  const LutEntry* const lut = lut_.data();
  const int max_len = max_len_;
  std::uint64_t i = 0;
  // Bulk: a fixed count of codes per refill, as many as the 56 bits a
  // refill guarantees hold at the longest code length.
  const auto per_refill = static_cast<std::uint64_t>(56 / max_len);
  BitReader::Window win(r);
  while (n_syms - i >= per_refill && win.refill()) {
    for (std::uint64_t j = 0; j < per_refill; ++j) {
      LutEntry e = lut[win.bits() >> (64 - kLutBits)];
      if (e.len == 0) e = long_code(win.bits());
      win.skip(e.len);
      emit(e.sym);
    }
    i += per_refill;
  }
  r.advance(win.position() - r.bits_consumed());
  // Tail: the stream's last bytes, through the checked peek/consume.
  for (; i < n_syms; ++i) {
    const std::uint64_t w = std::uint64_t{r.peek(max_len)} << (64 - max_len);
    LutEntry e = lut[w >> (64 - kLutBits)];
    if (e.len == 0) e = long_code(w);
    r.consume(e.len);
    emit(e.sym);
  }
  r.finish();
}

void HuffmanDecoder::decode_packed(BitReader& r, std::uint8_t* out,
                                   std::uint64_t n_syms) const {
  if (alphabet_ == 256) {
    std::uint64_t i = 0;
    run(r, n_syms, [&](std::uint8_t sym) { out[i++] = sym; });
  } else {
    std::uint64_t i = 0;
    run(r, n_syms, [&](std::uint8_t sym) {
      if ((i & 1) == 0) {
        out[i >> 1] = sym;  // low nibble first
      } else {
        out[i >> 1] = static_cast<std::uint8_t>(
            out[i >> 1] | (static_cast<std::uint8_t>(sym) << 4));
      }
      ++i;
    });
  }
}

void HuffmanDecoder::decode_codes(BitReader& r, BitWidth q,
                                  std::int64_t numel,
                                  std::int32_t* out) const {
  const int sym_bits = symbol_bits(q);
  if ((alphabet_ == 256 && sym_bits != 8) ||
      (alphabet_ == 16 && sym_bits != 4)) {
    throw std::runtime_error("entropy: alphabet does not match precision");
  }
  const std::uint64_t n_syms = symbol_count(packed_bytes(numel, q), q);
  std::int64_t k = 0;  // next code slot
  switch (q) {
    case BitWidth::kQ8:
      run(r, n_syms, [&](std::uint8_t sym) { out[k++] = sym; });
      break;
    case BitWidth::kQ4:
      run(r, n_syms, emit_code_pair<4>(out, numel, k));
      break;
    case BitWidth::kQ2:
      run(r, n_syms, emit_code_pair<2>(out, numel, k));
      break;
  }
}

}  // namespace mixq::runtime::entropy
