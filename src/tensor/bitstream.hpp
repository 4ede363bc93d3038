// mixq/tensor/bitstream.hpp
//
// MSB-first bit-granular writer/reader over byte buffers -- the transport
// layer of the entropy-coded flash image sections (runtime/entropy.hpp).
//
// Bit order: the first bit written is the most significant bit of the
// first byte. Canonical Huffman codes are numerically ordered under this
// convention, which is what makes the per-length first-code decode tables
// work with plain integer comparisons.
//
// The reader is written for hostile inputs: it never reads past the buffer
// it was constructed over, and consuming more bits than the stream holds
// throws instead of yielding zeros -- a truncated section must fail loudly,
// not decode to garbage that happens to parse.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace mixq {

/// Append-only MSB-first bit writer over a caller-owned byte vector.
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  /// Append the `len` low bits of `code`, most significant first.
  /// len must be in [0, 32] and `code` must fit in `len` bits.
  void put(std::uint32_t code, int len) {
    if (len < 0 || len > 32) {
      throw std::logic_error("BitWriter::put: length out of range");
    }
    if (len < 32 && (code >> len) != 0) {
      throw std::logic_error("BitWriter::put: code wider than length");
    }
    acc_ = (acc_ << len) | static_cast<std::uint64_t>(code);
    fill_ += len;
    nbits_ += static_cast<std::uint64_t>(len);
    while (fill_ >= 8) {
      fill_ -= 8;
      out_.push_back(static_cast<std::uint8_t>(acc_ >> fill_));
    }
  }

  /// Total bits written so far (before padding).
  [[nodiscard]] std::uint64_t bit_count() const { return nbits_; }

  /// Flush the final partial byte, padding with ZERO bits. The zero
  /// padding is part of the format contract: readers verify it, so two
  /// encoders cannot produce byte-different streams for the same input.
  void flush() {
    if (fill_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_ << (8 - fill_)));
      fill_ = 0;
    }
    acc_ = 0;
  }

 private:
  std::vector<std::uint8_t>& out_;
  std::uint64_t acc_{0};   ///< staging register, low `fill_` bits valid
  int fill_{0};            ///< bits currently staged in acc_
  std::uint64_t nbits_{0};
};

/// Bounds-checked MSB-first bit reader with a peek/consume interface
/// (what a canonical Huffman decoder wants: peek a window, consume the
/// matched code length), plus a word-refill Window for bulk decoding of
/// everything but a stream's last bytes.
class BitReader {
 public:
  /// Read at most `nbits` bits out of `data[0, size)`. Throws immediately
  /// when the declared bit count does not fit the byte buffer.
  BitReader(const std::uint8_t* data, std::size_t size, std::uint64_t nbits)
      : data_(data), size_(size), nbits_(nbits) {
    if (nbits > static_cast<std::uint64_t>(size) * 8) {
      throw std::runtime_error("bitstream: declared bit count exceeds buffer");
    }
  }

  /// Next `width` bits (MSB-first) without consuming, zero-padded past the
  /// declared end. width must be in [1, 24].
  [[nodiscard]] std::uint32_t peek(int width) {
    while (fill_ < width && byte_pos_ < size_) {
      acc_ = (acc_ << 8) | data_[byte_pos_++];
      fill_ += 8;
    }
    if (fill_ >= width) {
      return static_cast<std::uint32_t>(acc_ >> (fill_ - width)) &
             ((1u << width) - 1u);
    }
    // Past the end of the byte buffer: pad with zeros (consume() still
    // enforces the declared nbits bound, so padding can never be consumed
    // as real payload).
    return static_cast<std::uint32_t>(acc_ << (width - fill_)) &
           ((1u << width) - 1u);
  }

  /// Consume `n` bits. Throws when the stream's declared bit budget is
  /// exhausted: a code that runs past the end means a truncated or lying
  /// section, never silent zero-fill.
  void consume(int n) {
    if (consumed_ + static_cast<std::uint64_t>(n) > nbits_) {
      throw std::runtime_error("bitstream: truncated (read past declared end)");
    }
    while (fill_ < n && byte_pos_ < size_) {
      acc_ = (acc_ << 8) | data_[byte_pos_++];
      fill_ += 8;
    }
    // consumed_ <= nbits_ <= 8*size_ guarantees fill_ >= n here.
    fill_ -= n;
    consumed_ += static_cast<std::uint64_t>(n);
  }

  /// Word-refill cursor for bulk decoders, starting at the reader's
  /// position. bits() is a 64-bit window MSB-aligned at the next unread
  /// bit; refill() tops it up to at least 56 valid bits with one 8-byte
  /// load (Giesen's "lookahead" refill: the load's address does not wait
  /// on the codes being decoded). refill() returns false once those 8
  /// bytes would reach past the last fully declared byte: every bit the
  /// window ever holds is a declared bit, so this one check per refill
  /// stands in for consume()'s check per code. The caller then hands the
  /// position back with BitReader::advance and finishes the stream's last
  /// bytes through the checked peek/consume.
  class Window {
   public:
    explicit Window(const BitReader& r)
        : data_(r.data_),
          p_(r.data_ + (r.consumed_ >> 3)),
          end_(r.data_ + (r.nbits_ >> 3)) {
      if (const int skip = static_cast<int>(r.consumed_ & 7); skip != 0) {
        buf_ = std::uint64_t{*p_++} << (56 + skip);
        count_ = 8 - skip;
      }
    }

    [[nodiscard]] bool refill() {
      if (end_ - p_ < 8) return false;
      std::uint64_t v;  // the 8 bytes as one big-endian word
      std::memcpy(&v, p_, sizeof v);
      if constexpr (std::endian::native == std::endian::little) {
        v = __builtin_bswap64(v);
      }
      buf_ |= v >> count_;
      p_ += (63 - count_) >> 3;
      count_ |= 56;
      return true;
    }
    [[nodiscard]] std::uint64_t bits() const { return buf_; }
    /// Drop `n` bits; at most what the last refill() left valid.
    void skip(int n) {
      buf_ <<= n;
      count_ -= n;
    }
    /// Stream bit position of bits()'s top bit.
    [[nodiscard]] std::uint64_t position() const {
      return 8 * static_cast<std::uint64_t>(p_ - data_) -
             static_cast<std::uint64_t>(count_);
    }

   private:
    const std::uint8_t* data_;
    const std::uint8_t* p_;    ///< next byte a refill loads
    const std::uint8_t* end_;  ///< one past the last fully declared byte
    std::uint64_t buf_{0};
    int count_{0};  ///< valid bits at the top of buf_
  };

  /// Consume `n` bits decoded through a Window and re-seat peek/consume's
  /// byte cache after them.
  void advance(std::uint64_t n) {
    if (n > nbits_ - consumed_) {
      throw std::runtime_error("bitstream: truncated (read past declared end)");
    }
    consumed_ += n;
    byte_pos_ = static_cast<std::size_t>(consumed_ >> 3);
    fill_ = 0;
    acc_ = 0;
    if ((consumed_ & 7) != 0) {
      acc_ = data_[byte_pos_++];
      fill_ = 8 - static_cast<int>(consumed_ & 7);
    }
  }

  [[nodiscard]] std::uint64_t bits_consumed() const { return consumed_; }
  [[nodiscard]] std::uint64_t bits_declared() const { return nbits_; }

  /// Format contract check, called after the last symbol: every declared
  /// bit consumed, and the padding bits of the final byte all zero.
  void finish() const {
    if (consumed_ != nbits_) {
      throw std::runtime_error("bitstream: trailing bits after last symbol");
    }
    const std::size_t used_bytes =
        static_cast<std::size_t>((nbits_ + 7) / 8);
    if (used_bytes != size_) {
      throw std::runtime_error("bitstream: byte length disagrees with bits");
    }
    const int pad = static_cast<int>(used_bytes * 8 - nbits_);
    if (pad > 0) {
      const std::uint8_t last = data_[used_bytes - 1];
      if ((last & ((1u << pad) - 1u)) != 0) {
        throw std::runtime_error("bitstream: nonzero padding bits");
      }
    }
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::uint64_t nbits_;
  std::size_t byte_pos_{0};
  std::uint64_t acc_{0};
  int fill_{0};
  std::uint64_t consumed_{0};
};

}  // namespace mixq
