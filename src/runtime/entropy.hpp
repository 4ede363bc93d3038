// mixq/runtime/entropy.hpp
//
// Canonical-Huffman entropy codec for the flash image's packed weight
// streams (flash_image.hpp, format v2).
//
// Symbols are slices of the *packed* code stream, so one codec covers all
// three precisions without a per-precision alphabet floor problem:
//
//   Qw = 8 -> one packed byte per symbol  (alphabet 256)
//   Qw = 4 -> one packed byte per symbol  (alphabet 256, two 4-bit codes:
//             the joint distribution of adjacent codes, so the coder is
//             not limited to whole-bit costs per 4-bit code)
//   Qw = 2 -> one nibble per symbol       (alphabet 16, two 2-bit codes;
//             low nibble first, matching PackedBuffer's element order)
//
// Codes are canonical (numerically increasing with MSB-first bit order,
// assigned in (length, symbol) order), lengths capped at kMaxCodeLen, and
// the table is serialized as bare lengths -- everything about the stream
// is reproducible from the histogram, which is what makes `quantize
// --compress` deterministic under a pinned seed.
//
// Degenerate single-symbol streams are stored as a table whose only
// nonzero length is 1 and an EMPTY bitstream (nbits = 0): the decoder
// replicates the symbol, paying 0 bits instead of 1 bit per symbol.
//
// The decoder is hardened for hostile tables and streams: it rejects
// over- and under-subscribed length sets (Kraft sum must be exactly 1),
// lengths past the cap, streams that end mid-code, streams with unread or
// nonzero padding bits, and -- via BitReader -- any read past the section.
// It decodes out of 64-bit windows refilled 8 bytes at a time while a
// whole window lies inside the declared bits, and hands the stream's last
// bits to BitReader's checked peek/consume, so every rejection fires on
// the same input whichever part of the stream it sits in.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/bitpack.hpp"
#include "tensor/bitstream.hpp"

namespace mixq::runtime::entropy {

/// Longest admissible canonical code. 15 keeps the per-length decode
/// tables tiny and lets the serialized table pack two lengths per byte.
inline constexpr int kMaxCodeLen = 15;

/// Symbol width in bits for a given packed-code precision (see file
/// comment): 4 for Q2, 8 for Q4/Q8.
constexpr int symbol_bits(BitWidth q) { return q == BitWidth::kQ2 ? 4 : 8; }

/// Alphabet size for a precision (16 or 256).
constexpr int alphabet_size(BitWidth q) { return 1 << symbol_bits(q); }

/// Number of symbols covering `packed` bytes of Q-bit codes.
constexpr std::uint64_t symbol_count(std::int64_t packed_bytes, BitWidth q) {
  return static_cast<std::uint64_t>(packed_bytes) *
         (symbol_bits(q) == 4 ? 2 : 1);
}

/// One entropy-coded weight section, ready for serialization.
struct EncodedBlob {
  int alphabet{0};                   ///< 16 or 256
  std::vector<std::uint8_t> lens;    ///< `alphabet` canonical code lengths
  std::vector<std::uint8_t> stream;  ///< MSB-first bitstream, zero-padded
  std::uint64_t nbits{0};            ///< valid bits in `stream`
};

/// Entropy-code a packed weight bank. Returns nullopt for an empty bank
/// (nothing to code; the caller stores raw). The result always round-trips
/// bit-exactly; whether it is *smaller* than raw is the caller's decision
/// (flash_image records a per-layer raw fallback).
std::optional<EncodedBlob> encode(const PackedBuffer& w);

/// Canonical Huffman decoder built from a serialized length table.
/// Construction validates the table (lengths <= kMaxCodeLen, Kraft sum
/// exactly 1, or the degenerate single-symbol form) and throws
/// std::runtime_error on anything else.
class HuffmanDecoder {
 public:
  HuffmanDecoder(const std::uint8_t* lens, int alphabet);

  /// True for the single-symbol table form (decodes with 0 stream bits).
  [[nodiscard]] bool degenerate() const { return degenerate_; }

  /// Decode `n_syms` symbols back into packed bytes (the inverse of
  /// encode: for alphabet 16 two nibbles re-join low-first). `out` must
  /// hold ceil(n_syms * symbol_bits / 8) bytes. Calls r.finish().
  void decode_packed(BitReader& r, std::uint8_t* out,
                     std::uint64_t n_syms) const;

  /// Streaming decode straight into an UNPACKED int32 code array: each
  /// symbol fans out into its Q-bit codes with no intermediate packed
  /// buffer -- this is the hook ExecutionPlan uses to land mmap-resident
  /// compressed weights directly in its pre-unpacked panels. Decodes
  /// ceil(numel / codes_per_symbol) symbols and calls r.finish().
  void decode_codes(BitReader& r, BitWidth q, std::int64_t numel,
                    std::int32_t* out) const;

 private:
  int alphabet_{0};
  bool degenerate_{false};
  std::uint8_t degenerate_sym_{0};
  int max_len_{0};
  // Canonical per-length tables: codes of length L are
  // [first_code_[L], first_code_[L] + count_[L]) and map to
  // syms_[offset_[L] + (code - first_code_[L])].
  std::uint32_t first_code_[kMaxCodeLen + 1]{};
  std::uint32_t count_[kMaxCodeLen + 1]{};
  std::uint32_t offset_[kMaxCodeLen + 1]{};
  std::vector<std::uint8_t> syms_;
  // Single-level fast LUT for codes up to kLutBits long: on 8-bit banks
  // of real deployments it resolves all but a few in 10^4 symbols.
  static constexpr int kLutBits = 12;
  struct LutEntry {
    std::uint8_t sym;
    std::uint8_t len;  ///< 0 = not resolvable at kLutBits, take slow path
  };
  std::vector<LutEntry> lut_;

  template <typename Emit>
  void run(BitReader& r, std::uint64_t n_syms, Emit&& emit) const;
  /// The code longer than kLutBits at the top of `w` (MSB-aligned, at
  /// least max_len_ bits).
  [[nodiscard]] LutEntry long_code(std::uint64_t w) const;
};

/// Build canonical code lengths (deterministically) from a symbol
/// histogram; exposed for the property tests. All-zero histograms yield
/// all-zero lengths.
std::vector<std::uint8_t> build_code_lengths(const std::uint64_t* hist,
                                             int alphabet);

}  // namespace mixq::runtime::entropy
