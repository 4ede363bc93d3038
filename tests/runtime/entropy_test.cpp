// Property tests for the canonical-Huffman weight codec
// (runtime/entropy.hpp): randomized round-trips across every precision and
// distribution shape, plus hostile-table and hostile-stream rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "runtime/entropy.hpp"
#include "tensor/bitpack.hpp"
#include "tensor/bitstream.hpp"
#include "tensor/rng.hpp"

namespace mixq::runtime::entropy {
namespace {

PackedBuffer pack(const std::vector<std::int32_t>& codes, BitWidth q) {
  PackedBuffer buf(static_cast<std::int64_t>(codes.size()), q);
  if (!codes.empty()) {
    pack_range(buf, 0, buf.numel(), codes.data());
  }
  return buf;
}

/// encode -> decode_packed must reproduce the packed bytes exactly, and
/// decode_codes must reproduce the original codes exactly.
void expect_roundtrip(const std::vector<std::int32_t>& codes, BitWidth q) {
  const PackedBuffer buf = pack(codes, q);
  const auto blob = encode(buf);
  if (codes.empty()) {
    EXPECT_FALSE(blob.has_value());
    return;
  }
  ASSERT_TRUE(blob.has_value());
  ASSERT_EQ(blob->lens.size(), static_cast<std::size_t>(blob->alphabet));

  const HuffmanDecoder dec(blob->lens.data(), blob->alphabet);
  const std::uint64_t n_syms = symbol_count(buf.size_bytes(), q);
  {
    std::vector<std::uint8_t> out(static_cast<std::size_t>(buf.size_bytes()),
                                  0xAA);
    BitReader r(blob->stream.data(), blob->stream.size(), blob->nbits);
    dec.decode_packed(r, out.data(), n_syms);
    EXPECT_EQ(0, std::memcmp(out.data(), buf.data(),
                             static_cast<std::size_t>(buf.size_bytes())));
  }
  {
    // Four sentinel slots past the bank catch a code written past numel.
    std::vector<std::int32_t> out(codes.size() + 4, -7);
    BitReader r(blob->stream.data(), blob->stream.size(), blob->nbits);
    dec.decode_codes(r, q, buf.numel(), out.data());
    for (std::size_t i = codes.size(); i < out.size(); ++i) {
      EXPECT_EQ(out[i], -7) << "code written past numel " << codes.size();
    }
    out.resize(codes.size());
    EXPECT_EQ(out, codes);
  }
}

/// Mostly small codes with a uniform quarter, so code lengths spread from
/// 1-2 bits up to the longest the histogram allows.
std::vector<std::int32_t> skewed_codes(Rng& rng, std::size_t n, BitWidth q) {
  std::vector<std::int32_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<std::int32_t>(
        rng.uniform_int(4) == 0
            ? rng.uniform_int(static_cast<std::uint64_t>(levels(q)))
            : rng.uniform_int(3));
  }
  return codes;
}

TEST(Entropy, RoundTripsRandomStreamsEveryPrecision) {
  Rng rng(0x5EED);
  for (const BitWidth q :
       {BitWidth::kQ2, BitWidth::kQ4, BitWidth::kQ8}) {
    for (const std::size_t n : {1u, 2u, 3u, 7u, 64u, 1000u, 4097u}) {
      std::vector<std::int32_t> codes(n);
      for (auto& c : codes) {
        c = static_cast<std::int32_t>(
            rng.uniform_int(static_cast<std::uint64_t>(levels(q))));
      }
      expect_roundtrip(codes, q);
    }
  }
}

TEST(Entropy, RoundTripsSkewedStreamsAndCompresses) {
  Rng rng(0xD1CE);
  for (const BitWidth q :
       {BitWidth::kQ2, BitWidth::kQ4, BitWidth::kQ8}) {
    std::vector<std::int32_t> codes(8192);
    for (auto& c : codes) {
      // ~94% of codes are 1; a skewed source must beat raw storage.
      c = rng.uniform_int(16) == 0
              ? static_cast<std::int32_t>(
                    rng.uniform_int(static_cast<std::uint64_t>(levels(q))))
              : 1;
    }
    expect_roundtrip(codes, q);
    const PackedBuffer buf = pack(codes, q);
    const auto blob = encode(buf);
    ASSERT_TRUE(blob.has_value());
    EXPECT_LT(blob->stream.size(),
              static_cast<std::size_t>(buf.size_bytes()))
        << "Q" << bits(q);
  }
}

TEST(Entropy, RoundTripsDegenerateSingleSymbolWithEmptyStream) {
  for (const BitWidth q :
       {BitWidth::kQ2, BitWidth::kQ4, BitWidth::kQ8}) {
    // A multiple of every elems-per-byte, so the final packed byte is
    // full and no padding symbol sneaks into the alphabet.
    const std::vector<std::int32_t> codes(800, 1);
    const auto blob = encode(pack(codes, q));
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(blob->nbits, 0u);
    EXPECT_TRUE(blob->stream.empty());
    expect_roundtrip(codes, q);
  }
}

TEST(Entropy, EmptyBankEncodesToNothing) {
  expect_roundtrip({}, BitWidth::kQ8);
  expect_roundtrip({}, BitWidth::kQ2);
}

TEST(Entropy, EncodingIsDeterministic) {
  Rng rng(7);
  std::vector<std::int32_t> codes(2048);
  for (auto& c : codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(256) % 5);
  }
  const auto a = encode(pack(codes, BitWidth::kQ8));
  const auto b = encode(pack(codes, BitWidth::kQ8));
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->lens, b->lens);
  EXPECT_EQ(a->stream, b->stream);
  EXPECT_EQ(a->nbits, b->nbits);
}

TEST(Entropy, CodeLengthsSatisfyKraftEqualityAndCap) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::uint64_t hist[256] = {};
    const int used = 2 + static_cast<int>(rng.uniform_int(255));
    for (int s = 0; s < used; ++s) {
      // Wildly skewed counts to push depth toward (and past) the cap.
      hist[s] = 1 + (std::uint64_t{1} << rng.uniform_int(40));
    }
    const auto lens = build_code_lengths(hist, 256);
    std::uint64_t kraft = 0;
    int nonzero = 0;
    for (int s = 0; s < 256; ++s) {
      EXPECT_LE(lens[s], kMaxCodeLen);
      EXPECT_EQ(lens[s] > 0, hist[s] > 0);
      if (lens[s] > 0) {
        ++nonzero;
        kraft += std::uint64_t{1} << (kMaxCodeLen - lens[s]);
      }
    }
    if (nonzero >= 2) {
      EXPECT_EQ(kraft, std::uint64_t{1} << kMaxCodeLen);
    }
  }
}

TEST(Entropy, RoundTripsCodesOfTheCapLength) {
  // Fibonacci counts over 16 symbols build the deepest tree 16 symbols
  // admit: lengths 1, 2, ..., 15, 15. Symbol value 15 - rank gives the
  // largest count to symbol 0, which absorbs Q2's padding nibble.
  Rng rng(0xF1B);
  std::vector<std::uint8_t> syms;
  std::uint64_t a = 1, b = 1;
  for (int rank = 0; rank < 16; ++rank) {
    syms.insert(syms.end(), a, static_cast<std::uint8_t>(15 - rank));
    const std::uint64_t next = a + b;
    a = b;
    b = next;
  }
  for (std::size_t i = syms.size() - 1; i > 0; --i) {
    std::swap(syms[i], syms[rng.uniform_int(i + 1)]);
  }
  for (const BitWidth q : {BitWidth::kQ2, BitWidth::kQ4, BitWidth::kQ8}) {
    // One symbol per code at Q8; at Q4 and Q2 a symbol is a byte or
    // nibble of two codes, low first.
    std::vector<std::int32_t> codes;
    for (const std::uint8_t s : syms) {
      if (q == BitWidth::kQ8) {
        codes.push_back(s);
      } else {
        const int cb = bits(q);
        codes.push_back(s & ((1 << cb) - 1));
        codes.push_back(s >> cb);
      }
    }
    const auto blob = encode(pack(codes, q));
    ASSERT_TRUE(blob.has_value());
    EXPECT_EQ(*std::max_element(blob->lens.begin(), blob->lens.end()),
              kMaxCodeLen)
        << "Q" << bits(q);
    expect_roundtrip(codes, q);
  }
}

TEST(Entropy, RoundTripsEveryStreamEndAroundTheRefill) {
  // 1-300 symbols per precision (Q4 at odd and even code counts), so the
  // stream ends at every offset from the decoder's 8-byte refills and the
  // checked tail starts at every bit of a window.
  Rng rng(0x300);
  for (const BitWidth q : {BitWidth::kQ2, BitWidth::kQ4, BitWidth::kQ8}) {
    const std::size_t max_codes = q == BitWidth::kQ8 ? 300 : 600;
    for (std::size_t n = 1; n <= max_codes; ++n) {
      expect_roundtrip(skewed_codes(rng, n, q), q);
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile tables and streams.
// ---------------------------------------------------------------------------

TEST(Entropy, RejectsAllZeroTable) {
  std::vector<std::uint8_t> lens(256, 0);
  EXPECT_THROW(HuffmanDecoder(lens.data(), 256), std::runtime_error);
}

TEST(Entropy, RejectsOverAndUnderSubscribedTables) {
  // Over-subscribed: three codes of length 1.
  std::vector<std::uint8_t> over(256, 0);
  over[0] = over[1] = over[2] = 1;
  EXPECT_THROW(HuffmanDecoder(over.data(), 256), std::runtime_error);
  // Under-subscribed: two codes of length 2 (half the code space dangles).
  std::vector<std::uint8_t> under(256, 0);
  under[0] = under[1] = 2;
  EXPECT_THROW(HuffmanDecoder(under.data(), 256), std::runtime_error);
}

TEST(Entropy, RejectsLengthPastCap) {
  std::vector<std::uint8_t> lens(256, 0);
  lens[0] = kMaxCodeLen + 1;
  lens[1] = 1;
  EXPECT_THROW(HuffmanDecoder(lens.data(), 256), std::runtime_error);
}

TEST(Entropy, RejectsDegenerateTableWithWrongLength) {
  std::vector<std::uint8_t> lens(16, 0);
  lens[5] = 2;  // single symbol must use length exactly 1
  EXPECT_THROW(HuffmanDecoder(lens.data(), 16), std::runtime_error);
}

TEST(Entropy, RejectsUnsupportedAlphabet) {
  std::vector<std::uint8_t> lens(64, 0);
  lens[0] = lens[1] = 1;
  EXPECT_THROW(HuffmanDecoder(lens.data(), 64), std::runtime_error);
}

TEST(Entropy, RejectsTruncatedStream) {
  std::vector<std::int32_t> codes(512);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(i % 7);
  }
  const auto blob = encode(pack(codes, BitWidth::kQ8));
  ASSERT_TRUE(blob.has_value());
  const HuffmanDecoder dec(blob->lens.data(), blob->alphabet);
  // Chop bits off the declared count but keep the byte buffer consistent:
  // the decoder must hit the declared end mid-symbol and throw.
  const std::uint64_t cut_bits = blob->nbits / 2;
  const std::size_t cut_bytes = static_cast<std::size_t>((cut_bits + 7) / 8);
  std::vector<std::uint8_t> out(512);
  BitReader r(blob->stream.data(), cut_bytes, cut_bits);
  EXPECT_THROW(dec.decode_packed(r, out.data(), 512), std::runtime_error);
}

TEST(Entropy, RejectsTrailingBitsAfterLastSymbol) {
  std::vector<std::int32_t> codes(512);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(i % 7);
  }
  const auto blob = encode(pack(codes, BitWidth::kQ8));
  ASSERT_TRUE(blob.has_value());
  const HuffmanDecoder dec(blob->lens.data(), blob->alphabet);
  std::vector<std::uint8_t> out(512);
  // Decode fewer symbols than the stream carries: finish() must reject
  // the leftover bits.
  BitReader r(blob->stream.data(), blob->stream.size(), blob->nbits);
  EXPECT_THROW(dec.decode_packed(r, out.data(), 256), std::runtime_error);
}

/// True when `f` throws std::runtime_error.
template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

/// A multi-KB Q8 stream for the cut tests.
struct LongStream {
  std::vector<std::int32_t> codes;
  EncodedBlob blob;
};
LongStream long_stream() {
  Rng rng(0x72);
  LongStream s;
  s.codes = skewed_codes(rng, 16384, BitWidth::kQ8);
  s.blob = *encode(pack(s.codes, BitWidth::kQ8));
  return s;
}

TEST(Entropy, RejectsTruncationAtEachOfTheLast72Bits) {
  const LongStream s = long_stream();
  ASSERT_GT(s.blob.stream.size(), 4096u);
  const HuffmanDecoder dec(s.blob.lens.data(), s.blob.alphabet);
  const std::size_t n = s.codes.size();
  for (std::uint64_t cut = 1; cut <= 72; ++cut) {
    const std::uint64_t bits = s.blob.nbits - cut;
    // The reader gets only the bytes the cut count covers, in a buffer of
    // their own: a read past `size` is a heap overflow under ASan.
    const std::vector<std::uint8_t> bytes(
        s.blob.stream.begin(),
        s.blob.stream.begin() + static_cast<std::ptrdiff_t>((bits + 7) / 8));
    std::vector<std::uint8_t> packed(n);
    EXPECT_TRUE(throws([&] {
      BitReader r(bytes.data(), bytes.size(), bits);
      dec.decode_packed(r, packed.data(), n);
    })) << "cut " << cut;
    std::vector<std::int32_t> codes(n);
    EXPECT_TRUE(throws([&] {
      BitReader r(bytes.data(), bytes.size(), bits);
      dec.decode_codes(r, BitWidth::kQ8, static_cast<std::int64_t>(n),
                       codes.data());
    })) << "cut " << cut;
  }
}

TEST(Entropy, RejectsTrailingBitsAtEachOfTheLast72Bits) {
  const LongStream s = long_stream();
  const HuffmanDecoder dec(s.blob.lens.data(), s.blob.alphabet);
  const std::size_t n = s.codes.size();
  std::vector<std::uint8_t> out(n);
  // Stop short by 1-72 symbols: every symbol is at least one bit, so the
  // decode ends at each symbol boundary in the stream's last 72 bits.
  for (std::size_t k = n - 72; k < n; ++k) {
    EXPECT_TRUE(throws([&] {
      BitReader r(s.blob.stream.data(), s.blob.stream.size(), s.blob.nbits);
      dec.decode_packed(r, out.data(), k);
    })) << "symbols " << k;
  }
  // Declare 1-72 zero bits more than the symbols use.
  for (std::uint64_t extra = 1; extra <= 72; ++extra) {
    const std::uint64_t bits = s.blob.nbits + extra;
    std::vector<std::uint8_t> bytes(s.blob.stream);
    bytes.resize(static_cast<std::size_t>((bits + 7) / 8), 0);
    EXPECT_TRUE(throws([&] {
      BitReader r(bytes.data(), bytes.size(), bits);
      dec.decode_packed(r, out.data(), n);
    })) << "extra " << extra;
  }
}

TEST(Entropy, BitReaderWindowAgreesWithPeekAndConsume) {
  Rng rng(0x64);
  std::vector<std::uint8_t> bytes(40);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const std::uint64_t nbits = bytes.size() * 8 - 3;
  auto bit = [&](std::uint64_t i) -> std::uint32_t {
    return i < bytes.size() * 8 ? (bytes[i >> 3] >> (7 - (i & 7))) & 1u : 0u;
  };
  for (std::uint64_t start = 0; start <= nbits; ++start) {
    BitReader r(bytes.data(), bytes.size(), nbits);
    for (std::uint64_t left = start; left > 0;) {
      const int step = static_cast<int>(std::min<std::uint64_t>(left, 13));
      r.consume(step);
      left -= static_cast<std::uint64_t>(step);
    }
    // Random skips between refills: the window's top 56 bits always track
    // the stream, and it refills until less than two words remain.
    BitReader::Window win(r);
    std::uint64_t pos = start;
    while (win.refill()) {
      ASSERT_EQ(win.position(), pos) << "start " << start;
      const std::uint64_t w = win.bits();
      for (int k = 0; k < 56; ++k) {
        ASSERT_EQ((w >> (63 - k)) & 1u,
                  bit(pos + static_cast<std::uint64_t>(k)))
            << "start " << start << " pos " << pos << " bit " << k;
      }
      const int step = 1 + static_cast<int>(rng.uniform_int(56));
      win.skip(step);
      pos += static_cast<std::uint64_t>(step);
    }
    ASSERT_EQ(win.position(), pos);
    EXPECT_LT(nbits - std::min(pos, nbits), 128u) << "start " << start;
    if (pos > nbits) continue;  // the last skip overran: advance must throw
    // The checked path resumes exactly where the window left off.
    r.advance(pos - r.bits_consumed());
    EXPECT_EQ(r.bits_consumed(), pos);
    const std::uint32_t next = r.peek(11);
    for (int k = 0; k < 11; ++k) {
      EXPECT_EQ((next >> (10 - k)) & 1u,
                bit(pos + static_cast<std::uint64_t>(k)))
          << "start " << start << " pos " << pos << " bit " << k;
    }
  }
}

TEST(Entropy, BitReaderAdvanceRejectsBitsPastDeclaredEnd) {
  const std::vector<std::uint8_t> bytes(13, 0);
  BitReader r(bytes.data(), bytes.size(), 100);
  r.consume(40);
  EXPECT_THROW(r.advance(61), std::runtime_error);
  r.advance(60);
  EXPECT_EQ(r.bits_consumed(), 100u);
  r.finish();
}

TEST(Entropy, BitReaderRejectsDeclaredBitsPastBuffer) {
  const std::uint8_t bytes[2] = {0, 0};
  EXPECT_THROW(BitReader(bytes, 2, 17), std::runtime_error);
}

TEST(Entropy, BitReaderRejectsNonzeroPadding) {
  std::vector<std::uint8_t> bytes = {0xFF};
  BitReader r(bytes.data(), bytes.size(), 4);
  r.consume(4);
  EXPECT_THROW(r.finish(), std::runtime_error);
}

}  // namespace
}  // namespace mixq::runtime::entropy
