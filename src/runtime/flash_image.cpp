#include "runtime/flash_image.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "runtime/entropy.hpp"
#include "tensor/bitstream.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define MIXQ_HAVE_MMAP 1
#endif

namespace mixq::runtime {

namespace {

constexpr char kMagic[8] = {'M', 'I', 'X', 'Q', 'I', 'M', 'G', '1'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4 + 8 + 4;
constexpr std::size_t kSectionEntryBytes = 1 + 1 + 2 + 8 + 8 + 8;

/// All loader errors funnel through here: "flash image:
/// <section>:<offset>: <message>", offset payload-relative (header errors
/// use blob-relative offsets, the only bytes outside the payload).
[[noreturn]] void fail_at(const char* section, std::uint64_t offset,
                          const std::string& msg) {
  throw std::runtime_error("flash image: " + std::string(section) + ":" +
                           std::to_string(offset) + ": " + msg);
}

/// Little-endian byte writer.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out_.insert(out_.end(), buf, buf + sizeof(T));
  }
  void put_bytes(const std::uint8_t* data, std::size_t n) {
    out_.insert(out_.end(), data, data + n);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian reader that knows which image section it
/// is walking, so every error carries a normalized section:offset locus.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n, const char* section,
         std::uint64_t base = 0)
      : data_(data), size_(n), section_(section), base_(base) {}

  void set_section(const char* s) { section_ = s; }

  [[noreturn]] void fail(const std::string& msg) const {
    fail_at(section_, base_ + pos_, msg);
  }

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > size_) fail("truncated field");
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void get_bytes(std::uint8_t* dst, std::size_t n) {
    if (pos_ + n > size_) fail("truncated byte array");
    // A zero-weight (pool) layer has no buffer: memcpy to null is UB even
    // for n == 0.
    if (n > 0) std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }
  /// Pointer to the next unread byte (zero-copy weight views).
  [[nodiscard]] const std::uint8_t* cursor() const { return data_ + pos_; }
  void skip(std::size_t n) {
    if (pos_ + n > size_) fail("truncated byte array");
    pos_ += n;
  }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] std::uint64_t offset() const { return base_ + pos_; }

  /// Reject a declared element count before anything is resized/allocated
  /// from it: `count` entries of at least `min_entry_bytes` each must
  /// still fit in the unread payload. This makes every variable-length
  /// field self-limiting -- a crafted count can never drive an allocation
  /// larger than the blob that carries it.
  void check_count(std::uint64_t count, std::size_t min_entry_bytes,
                   const char* what) const {
    if (count > remaining() / min_entry_bytes) {
      fail_at(section_, base_ + pos_, std::string("declared ") + what +
                                          " count exceeds payload size");
    }
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  const char* section_;
  std::uint64_t base_;
  std::size_t pos_{0};
};

void put_shape(Writer& w, const Shape& s) {
  w.put<std::int64_t>(s.n);
  w.put<std::int64_t>(s.h);
  w.put<std::int64_t>(s.w);
  w.put<std::int64_t>(s.c);
}

Shape get_shape(Reader& r) {
  const auto n = r.get<std::int64_t>();
  const auto h = r.get<std::int64_t>();
  const auto ww = r.get<std::int64_t>();
  const auto c = r.get<std::int64_t>();
  if (n < 0 || h < 0 || ww < 0 || c < 0) {
    r.fail("negative shape dimension");
  }
  // Bound each dimension and the element count so Shape::numel() can never
  // overflow int64 downstream (2^14 per dim caps the product at 2^56;
  // every real deployment shape is orders of magnitude smaller).
  constexpr std::int64_t kMaxDim = std::int64_t{1} << 14;
  if (n > kMaxDim || h > kMaxDim || ww > kMaxDim || c > kMaxDim) {
    r.fail("implausible shape dimension");
  }
  return Shape(n, h, ww, c);
}

BitWidth get_bitwidth(Reader& r) {
  const auto q = r.get<std::uint8_t>();
  if (q != 2 && q != 4 && q != 8) r.fail("invalid bit width");
  return core::bitwidth_from_int(q);
}

/// v1 layer fields minus the weight tail -- the part v2 keeps verbatim as
/// its per-layer metadata block.
void put_layer_meta(Writer& w, const QLayer& l) {
  w.put<std::uint8_t>(static_cast<std::uint8_t>(l.kind));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(l.scheme));
  w.put<std::int32_t>(static_cast<std::int32_t>(l.spec.kh));
  w.put<std::int32_t>(static_cast<std::int32_t>(l.spec.kw));
  w.put<std::int32_t>(static_cast<std::int32_t>(l.spec.stride));
  w.put<std::int32_t>(static_cast<std::int32_t>(l.spec.pad));
  put_shape(w, l.in_shape);
  put_shape(w, l.out_shape);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(core::bits(l.qx)));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(core::bits(l.qw)));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(core::bits(l.qy)));
  w.put<std::int64_t>(l.wshape.co);
  w.put<std::int64_t>(l.wshape.kh);
  w.put<std::int64_t>(l.wshape.kw);
  w.put<std::int64_t>(l.wshape.ci);
  w.put<std::int32_t>(l.zx);
  w.put<std::int32_t>(l.zy);
  w.put<std::uint8_t>(l.raw_logits ? 1 : 0);

  w.put<std::uint32_t>(static_cast<std::uint32_t>(l.zw.size()));
  for (auto z : l.zw) w.put<std::int32_t>(z);

  w.put<std::uint32_t>(static_cast<std::uint32_t>(l.icn.size()));
  for (const auto& ch : l.icn) {
    w.put<std::int32_t>(ch.bq);
    w.put<std::int32_t>(ch.m.m0_q31);
    w.put<std::int8_t>(ch.m.n0);
  }

  w.put<std::uint32_t>(static_cast<std::uint32_t>(l.thresholds.size()));
  for (const auto& th : l.thresholds) {
    w.put<std::uint8_t>(th.rising ? 1 : 0);
    w.put<std::uint32_t>(static_cast<std::uint32_t>(th.thr.size()));
    for (auto t : th.thr) w.put<std::int64_t>(t);
  }

  w.put<std::uint32_t>(static_cast<std::uint32_t>(l.out_mult.size()));
  for (auto m : l.out_mult) w.put<double>(m);
}

void put_layer_v1(Writer& w, const QLayer& l) {
  put_layer_meta(w, l);
  w.put<std::int64_t>(l.weights.numel());
  w.put<std::uint8_t>(
      static_cast<std::uint8_t>(core::bits(l.weights.bitwidth())));
  w.put_bytes(l.weights.data(),
              static_cast<std::size_t>(l.weights.size_bytes()));
}

QLayer get_layer_meta(Reader& r) {
  QLayer l;
  const auto kind = r.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(QLayerKind::kGlobalAvgPool)) {
    r.fail("invalid layer kind");
  }
  l.kind = static_cast<QLayerKind>(kind);
  const auto scheme = r.get<std::uint8_t>();
  if (scheme > static_cast<std::uint8_t>(Scheme::kPCThresholds)) {
    r.fail("invalid scheme");
  }
  l.scheme = static_cast<Scheme>(scheme);
  l.spec.kh = r.get<std::int32_t>();
  l.spec.kw = r.get<std::int32_t>();
  l.spec.stride = r.get<std::int32_t>();
  l.spec.pad = r.get<std::int32_t>();
  if (l.spec.kh <= 0 || l.spec.kw <= 0 || l.spec.stride <= 0 ||
      l.spec.pad < 0) {
    r.fail("invalid conv spec");
  }
  l.in_shape = get_shape(r);
  l.out_shape = get_shape(r);
  l.qx = get_bitwidth(r);
  l.qw = get_bitwidth(r);
  l.qy = get_bitwidth(r);
  const auto co = r.get<std::int64_t>();
  const auto kh = r.get<std::int64_t>();
  const auto kw = r.get<std::int64_t>();
  const auto ci = r.get<std::int64_t>();
  if (co <= 0 || kh <= 0 || kw <= 0 || ci <= 0) {
    r.fail("invalid weight shape");
  }
  constexpr std::int64_t kMaxWeightDim = std::int64_t{1} << 14;
  if (co > kMaxWeightDim || kh > kMaxWeightDim || kw > kMaxWeightDim ||
      ci > kMaxWeightDim) {
    r.fail("implausible weight shape");
  }
  l.wshape = WeightShape(co, kh, kw, ci);
  l.zx = r.get<std::int32_t>();
  l.zy = r.get<std::int32_t>();
  l.raw_logits = r.get<std::uint8_t>() != 0;

  const auto zw_count = r.get<std::uint32_t>();
  if (zw_count != 0 && zw_count != 1 &&
      zw_count != static_cast<std::uint32_t>(co)) {
    r.fail("zw count must be 0, 1 or cO");
  }
  r.check_count(zw_count, sizeof(std::int32_t), "zw");
  l.zw.resize(zw_count);
  for (auto& z : l.zw) z = r.get<std::int32_t>();

  const auto icn_count = r.get<std::uint32_t>();
  if (icn_count != 0 && icn_count != static_cast<std::uint32_t>(co)) {
    r.fail("icn count must be 0 or cO");
  }
  r.check_count(icn_count, sizeof(std::int32_t) * 2 + 1, "icn");
  l.icn.resize(icn_count);
  for (auto& ch : l.icn) {
    ch.bq = r.get<std::int32_t>();
    ch.m.m0_q31 = r.get<std::int32_t>();
    ch.m.n0 = r.get<std::int8_t>();
  }

  const auto thr_count = r.get<std::uint32_t>();
  if (thr_count != 0 && thr_count != static_cast<std::uint32_t>(co)) {
    r.fail("threshold count must be 0 or cO");
  }
  r.check_count(thr_count, 1 + sizeof(std::uint32_t), "threshold");
  l.thresholds.resize(thr_count);
  for (auto& th : l.thresholds) {
    th.rising = r.get<std::uint8_t>() != 0;
    const auto n = r.get<std::uint32_t>();
    if (n > static_cast<std::uint32_t>(core::qmax(l.qy))) {
      r.fail("too many thresholds for Qy");
    }
    r.check_count(n, sizeof(std::int64_t), "threshold level");
    th.thr.resize(n);
    for (auto& t : th.thr) t = r.get<std::int64_t>();
  }

  const auto mult_count = r.get<std::uint32_t>();
  if (mult_count != 0 && mult_count != static_cast<std::uint32_t>(co)) {
    r.fail("out_mult count must be 0 or cO");
  }
  r.check_count(mult_count, sizeof(double), "out_mult");
  l.out_mult.resize(mult_count);
  for (auto& m : l.out_mult) m = r.get<double>();
  return l;
}

/// v1 weight tail: inline packed bytes right after the metadata block.
/// Copy mode materializes an owning buffer; zero-copy mode borrows the
/// image bytes (the caller attaches the keepalive).
void get_weights_v1(Reader& r, QLayer& l,
                    const std::shared_ptr<const void>& backing) {
  const auto wnumel = r.get<std::int64_t>();
  if (wnumel < 0) r.fail("negative weights");
  const BitWidth wq = get_bitwidth(r);
  // The packed codes are inline in the payload, so the declared element
  // count can never legitimately imply more bytes than are left to read.
  // Checked BEFORE the PackedBuffer allocation: a crafted wnumel must not
  // be able to drive an arbitrarily large allocation.
  if (wnumel >
      static_cast<std::int64_t>(r.remaining()) * elems_per_byte(wq)) {
    r.fail("declared weight count exceeds payload size");
  }
  const auto nbytes = static_cast<std::size_t>(packed_bytes(wnumel, wq));
  if (backing && wnumel > 0) {
    l.weights = PackedBuffer::borrow(r.cursor(), wnumel, wq);
    l.weights_backing = backing;
    r.skip(nbytes);
  } else {
    l.weights = PackedBuffer(wnumel, wq);
    r.get_bytes(l.weights.data(), nbytes);
  }
}

/// One parsed v2 section-table entry.
struct SectionEntry {
  std::uint8_t codec{0};
  BitWidth q{BitWidth::kQ8};
  std::int64_t wnumel{0};
  std::uint64_t off{0};
  std::uint64_t len{0};
  std::uint64_t table_offset{0};  ///< where this entry lives (errors)
};

/// Parse + validate one v2 entropy-coded weight section and attach it to
/// the layer: copy mode streaming-decodes into an owning packed buffer,
/// zero-copy mode leaves a deferred EncodedWeights view. Table defects
/// are rejected here in BOTH modes; stream defects only where the stream
/// is actually decoded.
void attach_huffman_section(const std::uint8_t* payload,
                            const SectionEntry& s, const char* section,
                            QLayer& l,
                            const std::shared_ptr<const void>& backing) {
  Reader sr(payload + s.off, static_cast<std::size_t>(s.len), section,
            s.off);
  if (s.wnumel <= 0) sr.fail("entropy section for empty weight bank");
  const auto alphabet = sr.get<std::uint32_t>();
  if (alphabet !=
      static_cast<std::uint32_t>(entropy::alphabet_size(s.q))) {
    sr.fail("entropy alphabet does not match weight precision");
  }
  std::vector<std::uint8_t> lens(alphabet, 0);
  for (std::uint32_t i = 0; i < alphabet / 2; ++i) {
    const auto b = sr.get<std::uint8_t>();
    lens[2 * i] = b & 0x0F;          // low nibble = even symbol
    lens[2 * i + 1] = b >> 4;
  }
  const auto nbits = sr.get<std::uint64_t>();
  // Bound nbits by the bytes left before rounding it up: within 7 of 2^64
  // the rounding wraps to 0, which an empty single-symbol stream matches.
  if (nbits > 8 * static_cast<std::uint64_t>(sr.remaining()) ||
      sr.remaining() != (nbits + 7) / 8) {
    sr.fail("entropy stream length disagrees with declared bit count");
  }
  const std::uint64_t stream_bytes = sr.remaining();
  const std::uint8_t* stream = sr.cursor();
  // Zero padding in the final byte is part of the format contract; it is
  // cheap to verify without decoding, so both load modes enforce it.
  const int pad = static_cast<int>(stream_bytes * 8 - nbits);
  if (pad > 0 && (stream[stream_bytes - 1] & ((1u << pad) - 1u)) != 0) {
    sr.fail("nonzero entropy stream padding bits");
  }

  std::shared_ptr<const entropy::HuffmanDecoder> dec;
  try {
    dec = std::make_shared<entropy::HuffmanDecoder>(
        lens.data(), static_cast<int>(alphabet));
  } catch (const std::runtime_error& e) {
    sr.fail(e.what());
  }
  const std::uint64_t n_syms =
      entropy::symbol_count(packed_bytes(s.wnumel, s.q), s.q);
  if (dec->degenerate()) {
    if (nbits != 0) sr.fail("single-symbol section must have empty stream");
  } else if (n_syms > 0 && nbits == 0) {
    sr.fail("empty entropy stream for nonempty weight bank");
  }

  if (backing) {
    auto enc = std::make_shared<EncodedWeights>();
    enc->q = s.q;
    enc->numel = s.wnumel;
    enc->lens = std::move(lens);
    enc->stream = stream;
    enc->stream_bytes = stream_bytes;
    enc->nbits = nbits;
    enc->backing = backing;
    l.enc = std::move(enc);
    return;
  }
  PackedBuffer buf(s.wnumel, s.q);
  try {
    BitReader br(stream, static_cast<std::size_t>(stream_bytes), nbits);
    dec->decode_packed(br, buf.data(), n_syms);
  } catch (const std::runtime_error& e) {
    sr.fail(e.what());
  }
  l.weights = std::move(buf);
}

/// Shared v1/v2 parser. `backing` non-null selects zero-copy mode (raw
/// sections borrowed, entropy sections deferred); the pointer must then
/// keep `data` alive as long as the returned net.
QuantizedNet parse_image(const std::uint8_t* data, std::size_t size,
                         const FlashLoadLimits& limits,
                         const std::shared_ptr<const void>& backing,
                         FlashImageStats* stats) {
  if (size < kHeaderBytes) {
    fail_at("header", 0, "blob smaller than header");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    fail_at("header", 0, "bad magic");
  }
  Reader hr(data + sizeof(kMagic), kHeaderBytes - sizeof(kMagic), "header",
            sizeof(kMagic));
  const auto version = hr.get<std::uint32_t>();
  if (version != 1 && version != 2) {
    fail_at("header", sizeof(kMagic),
            "unsupported version " + std::to_string(version));
  }
  const auto payload_size = hr.get<std::uint64_t>();
  const auto stored_crc = hr.get<std::uint32_t>();
  if (size != kHeaderBytes + payload_size) {
    fail_at("header", sizeof(kMagic) + 4, "payload size mismatch");
  }
  const std::uint8_t* payload = data + kHeaderBytes;
  if (crc32(payload, payload_size) != stored_crc) {
    fail_at("header", sizeof(kMagic) + 12, "CRC mismatch (corrupted image)");
  }

  FlashImageStats st;
  st.version = version;
  st.image_bytes = static_cast<std::int64_t>(size);
  st.payload_bytes = static_cast<std::int64_t>(payload_size);

  Reader r(payload, payload_size, "meta");
  QuantizedNet net;
  net.input_qp.scale = r.get<float>();
  net.input_qp.zero = r.get<std::int32_t>();
  net.input_qp.q = get_bitwidth(r);
  if (net.input_qp.scale <= 0.0f) {
    r.fail("non-positive input scale");
  }
  const auto count = r.get<std::uint32_t>();
  // A serialized layer's fixed fields alone are ~150 bytes (kind/scheme/
  // spec/shapes/precisions/zero-points/counts/weight header); bounding by
  // a conservative 128 (v1) / the 28-byte table entry (v2) keeps
  // reserve() below -- whose per-entry cost is a ~250-byte QLayer -- from
  // amplifying a crafted count.
  r.check_count(count, version == 1 ? 128 : kSectionEntryBytes, "layer");
  net.layers.reserve(count);
  st.layers.reserve(count);

  if (version == 1) {
    for (std::uint32_t i = 0; i < count; ++i) {
      QLayer l = get_layer_meta(r);
      get_weights_v1(r, l, backing);
      FlashLayerStats ls;
      ls.codec = 0;
      ls.wbits = static_cast<std::uint8_t>(core::bits(l.weights.bitwidth()));
      ls.wnumel = l.weights.numel();
      ls.raw_bytes = l.weights.size_bytes();
      ls.stored_bytes = ls.raw_bytes;
      st.layers.push_back(ls);
      net.layers.push_back(std::move(l));
    }
    if (!r.exhausted()) {
      r.fail("trailing bytes after last layer");
    }
  } else {
    // Section table first: fixed-size entries, fully validated before any
    // variable-length metadata is touched.
    r.set_section("table");
    std::vector<SectionEntry> table;
    table.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      SectionEntry s;
      s.table_offset = r.offset();
      s.codec = r.get<std::uint8_t>();
      if (s.codec > 1) r.fail("invalid weight codec");
      s.q = get_bitwidth(r);
      const auto reserved = r.get<std::uint16_t>();
      if (reserved != 0) r.fail("reserved section field must be 0");
      s.wnumel = r.get<std::int64_t>();
      if (s.wnumel < 0) r.fail("negative weight count");
      // Checked here, before packed_bytes() arithmetic and long before
      // any decode allocation: a degenerate entropy stream can declare
      // any element count in zero bits, so unlike raw sections wnumel is
      // not implicitly payload-bounded (and unchecked it would overflow
      // packed_bytes at Q8 around 2^60 elements).
      if (s.wnumel / elems_per_byte(s.q) > limits.max_weight_bytes) {
        r.fail("declared weight count exceeds weight byte limit");
      }
      s.off = r.get<std::uint64_t>();
      s.len = r.get<std::uint64_t>();
      if (s.len > payload_size || s.off > payload_size - s.len) {
        r.fail("weight section escapes payload");
      }
      table.push_back(s);
    }

    // Layer metadata blocks.
    r.set_section("meta");
    for (std::uint32_t i = 0; i < count; ++i) {
      net.layers.push_back(get_layer_meta(r));
    }

    // The weight heap must tile [metadata end, payload end) exactly, in
    // layer order: no gaps, no overlap, no slack a crafted image could
    // hide hostile bytes in.
    std::uint64_t expect = r.offset();
    r.set_section("table");
    for (std::uint32_t i = 0; i < count; ++i) {
      if (table[i].off != expect) {
        fail_at("table", table[i].table_offset,
                "weight sections must be contiguous in layer order");
      }
      expect += table[i].len;
    }
    if (expect != payload_size) {
      fail_at("table", payload_size, "slack bytes after last weight section");
    }

    // Wire every layer's weights from its section.
    for (std::uint32_t i = 0; i < count; ++i) {
      const SectionEntry& s = table[i];
      QLayer& l = net.layers[i];
      const std::string name = "weights[" + std::to_string(i) + "]";
      const std::int64_t raw_bytes = packed_bytes(s.wnumel, s.q);
      if (s.codec == 0) {
        if (s.len != static_cast<std::uint64_t>(raw_bytes)) {
          fail_at(name.c_str(), s.off,
                  "raw section length disagrees with weight count");
        }
        if (backing && s.wnumel > 0) {
          l.weights = PackedBuffer::borrow(payload + s.off, s.wnumel, s.q);
          l.weights_backing = backing;
        } else {
          l.weights = PackedBuffer(s.wnumel, s.q);
          if (s.len > 0) {
            std::memcpy(l.weights.data(), payload + s.off,
                        static_cast<std::size_t>(s.len));
          }
        }
      } else {
        attach_huffman_section(payload, s, name.c_str(), l, backing);
      }
      FlashLayerStats ls;
      ls.codec = s.codec;
      ls.wbits = static_cast<std::uint8_t>(core::bits(s.q));
      ls.wnumel = s.wnumel;
      ls.raw_bytes = raw_bytes;
      ls.stored_bytes = static_cast<std::int64_t>(s.len);
      st.layers.push_back(ls);
    }
  }

  // Field-level parsing succeeded; now check cross-layer consistency so a
  // corrupted-but-parseable image can never reach the kernels.
  net.validate();
  // Finally the resource ceiling: the declared geometry fixes the
  // input+output activation pair every layer needs (Eq. 7). The bound is
  // taken at 4 bytes per element, not on the packed bit-width bytes. That
  // is conservative: the plan's ping-pong arenas hold one u8 byte per
  // element, and no host arena holds INT32 activations any more (the
  // reference executor's packed buffers hold less still). A CRC-valid
  // image whose geometry implies more than the limit is rejected here,
  // before any executor allocates for it.
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    const QLayer& l = net.layers[i];
    const std::int64_t pair_bytes =
        (l.in_shape.numel() + l.out_shape.numel()) *
        static_cast<std::int64_t>(sizeof(std::int32_t));
    if (pair_bytes > limits.max_activation_pair_bytes) {
      fail_at("meta", 0,
              "layer " + std::to_string(i) + " activation pair (" +
                  std::to_string(pair_bytes) +
                  " unpacked bytes) exceeds the load limit of " +
                  std::to_string(limits.max_activation_pair_bytes) +
                  " bytes");
    }
  }

  for (const auto& ls : st.layers) {
    st.weight_raw_bytes += ls.raw_bytes;
    st.weight_stored_bytes += ls.stored_bytes;
  }
  if (stats) *stats = std::move(st);
  return net;
}

void put_header(Writer& h, std::uint32_t version,
                const std::vector<std::uint8_t>& payload) {
  h.put_bytes(reinterpret_cast<const std::uint8_t*>(kMagic), sizeof(kMagic));
  h.put<std::uint32_t>(version);
  h.put<std::uint64_t>(payload.size());
  h.put<std::uint32_t>(crc32(payload.data(), payload.size()));
}

#ifdef MIXQ_HAVE_MMAP
/// RAII PROT_READ mapping of a whole file; the shared_ptr this is held
/// through is the keepalive every borrowed weight view carries.
class Mapping {
 public:
  Mapping(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      throw std::runtime_error("flash image: cannot open " + path);
    }
    struct stat sb {};
    if (::fstat(fd, &sb) != 0 || sb.st_size < 0) {
      ::close(fd);
      throw std::runtime_error("flash image: cannot stat " + path);
    }
    size_ = static_cast<std::size_t>(sb.st_size);
    if (size_ > 0) {
      void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (p == MAP_FAILED) {
        ::close(fd);
        throw std::runtime_error("flash image: mmap failed for " + path);
      }
      addr_ = p;
    }
    ::close(fd);  // the mapping keeps its own reference
  }
  ~Mapping() {
    if (addr_) ::munmap(addr_, size_);
  }
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;

  [[nodiscard]] const std::uint8_t* data() const {
    return static_cast<const std::uint8_t*>(addr_);
  }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  void* addr_{nullptr};
  std::size_t size_{0};
};
#endif  // MIXQ_HAVE_MMAP

/// Slice-by-8 tables for the reflected IEEE polynomial (Kounavis & Berry,
/// "A Systematic Approach to Building High Performance Software-Based
/// CRC Generators", ISCC 2005). t[0] is the classic byte table; t[k][b]
/// is the CRC of byte b followed by k zero bytes, so eight lookups fold
/// eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian u32 from bytes; compiles to one load on LE hosts and
/// keeps the CRC byte-order independent elsewhere.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  // Standard reflected CRC-32 (IEEE 802.3), slice-by-8.
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, data += 8) {
    const std::uint32_t lo = load_le32(data) ^ crc;
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++data) crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  return ~crc;
}

std::vector<std::uint8_t> save_flash_image(const QuantizedNet& net) {
  return save_flash_image(net, FlashSaveOptions{});
}

std::vector<std::uint8_t> save_flash_image(const QuantizedNet& net,
                                           const FlashSaveOptions& opts) {
  std::vector<std::uint8_t> payload;
  if (!opts.compress) {
    // Legacy v1 layout, byte-for-byte what earlier releases wrote.
    Writer w(payload);
    w.put<float>(net.input_qp.scale);
    w.put<std::int32_t>(net.input_qp.zero);
    w.put<std::uint8_t>(
        static_cast<std::uint8_t>(core::bits(net.input_qp.q)));
    w.put<std::uint32_t>(static_cast<std::uint32_t>(net.layers.size()));
    for (const auto& l : net.layers) put_layer_v1(w, l);

    std::vector<std::uint8_t> blob;
    Writer h(blob);
    put_header(h, 1, payload);
    h.put_bytes(payload.data(), payload.size());
    return blob;
  }

  // v2: metadata blocks and per-layer weight sections are built first so
  // the section table can carry final payload-relative offsets.
  std::vector<std::uint8_t> meta;
  {
    Writer w(meta);
    for (const auto& l : net.layers) put_layer_meta(w, l);
  }
  struct PendingSection {
    std::uint8_t codec{0};
    BitWidth q{BitWidth::kQ8};
    std::int64_t wnumel{0};
    std::vector<std::uint8_t> bytes;
  };
  std::vector<PendingSection> sections;
  sections.reserve(net.layers.size());
  for (const auto& l : net.layers) {
    PendingSection s;
    s.q = l.weights.bitwidth();
    s.wnumel = l.weights.numel();
    const auto raw_len = static_cast<std::size_t>(l.weights.size_bytes());
    std::optional<entropy::EncodedBlob> blob = entropy::encode(l.weights);
    if (blob) {
      const std::size_t coded_len = 4 + blob->lens.size() / 2 + 8 +
                                    blob->stream.size();
      if (coded_len < raw_len) {
        s.codec = 1;
        std::vector<std::uint8_t>& out = s.bytes;
        Writer w(out);
        w.put<std::uint32_t>(static_cast<std::uint32_t>(blob->alphabet));
        for (std::size_t i = 0; i < blob->lens.size(); i += 2) {
          w.put<std::uint8_t>(static_cast<std::uint8_t>(
              blob->lens[i] | (blob->lens[i + 1] << 4)));
        }
        w.put<std::uint64_t>(blob->nbits);
        w.put_bytes(blob->stream.data(), blob->stream.size());
      }
    }
    if (s.codec == 0) {
      s.bytes.assign(l.weights.data(), l.weights.data() + raw_len);
    }
    sections.push_back(std::move(s));
  }

  Writer w(payload);
  w.put<float>(net.input_qp.scale);
  w.put<std::int32_t>(net.input_qp.zero);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(core::bits(net.input_qp.q)));
  w.put<std::uint32_t>(static_cast<std::uint32_t>(net.layers.size()));
  const std::uint64_t qp_and_count = 4 + 4 + 1 + 4;
  std::uint64_t off =
      qp_and_count + sections.size() * kSectionEntryBytes + meta.size();
  for (const auto& s : sections) {
    w.put<std::uint8_t>(s.codec);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(core::bits(s.q)));
    w.put<std::uint16_t>(0);
    w.put<std::int64_t>(s.wnumel);
    w.put<std::uint64_t>(off);
    w.put<std::uint64_t>(s.bytes.size());
    off += s.bytes.size();
  }
  w.put_bytes(meta.data(), meta.size());
  for (const auto& s : sections) w.put_bytes(s.bytes.data(), s.bytes.size());

  std::vector<std::uint8_t> blob;
  Writer h(blob);
  put_header(h, 2, payload);
  h.put_bytes(payload.data(), payload.size());
  return blob;
}

QuantizedNet load_flash_image(const std::vector<std::uint8_t>& blob,
                              const FlashLoadLimits& limits,
                              FlashImageStats* stats) {
  return parse_image(blob.data(), blob.size(), limits, nullptr, stats);
}

QuantizedNet load_flash_image_mmap(const std::string& path,
                                   const FlashLoadLimits& limits,
                                   FlashImageStats* stats) {
#ifdef MIXQ_HAVE_MMAP
  auto map = std::make_shared<Mapping>(path);
  return parse_image(map->data(), map->size(), limits, map, stats);
#else
  // No mmap on this platform: one heap read, but the net still borrows
  // from (and keeps alive) that single allocation instead of copying per
  // layer.
  auto owned = std::make_shared<std::vector<std::uint8_t>>();
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f) throw std::runtime_error("flash image: cannot open " + path);
    owned->resize(static_cast<std::size_t>(f.tellg()));
    f.seekg(0);
    f.read(reinterpret_cast<char*>(owned->data()),
           static_cast<std::streamsize>(owned->size()));
    if (!f) throw std::runtime_error("flash image: read failed for " + path);
  }
  return parse_image(owned->data(), owned->size(), limits, owned, stats);
#endif
}

void write_flash_image_file(const QuantizedNet& net, const std::string& path,
                            const FlashSaveOptions& opts) {
  const auto blob = save_flash_image(net, opts);
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("flash image: cannot open " + path);
  f.write(reinterpret_cast<const char*>(blob.data()),
          static_cast<std::streamsize>(blob.size()));
  if (!f) throw std::runtime_error("flash image: write failed for " + path);
}

QuantizedNet read_flash_image_file(const std::string& path,
                                   const FlashLoadLimits& limits,
                                   FlashImageStats* stats) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("flash image: cannot open " + path);
  const auto size = static_cast<std::size_t>(f.tellg());
  f.seekg(0);
  std::vector<std::uint8_t> blob(size);
  f.read(reinterpret_cast<char*>(blob.data()),
         static_cast<std::streamsize>(size));
  if (!f) throw std::runtime_error("flash image: read failed for " + path);
  return load_flash_image(blob, limits, stats);
}

// QLayer storage-form accessors live here (not qgraph) so the graph
// header stays free of the entropy-codec dependency.

void QLayer::weight_codes_to_i32(std::int32_t* out) const {
  if (enc) {
    const entropy::HuffmanDecoder dec(enc->lens.data(),
                                      static_cast<int>(enc->lens.size()));
    BitReader br(enc->stream, static_cast<std::size_t>(enc->stream_bytes),
                 enc->nbits);
    dec.decode_codes(br, enc->q, enc->numel, out);
    return;
  }
  if (weights.numel() > 0) {
    unpack_range(weights, 0, weights.numel(), out);
  }
}

void QLayer::materialize_weights() {
  if (!enc) return;
  PackedBuffer buf(enc->numel, enc->q);
  const entropy::HuffmanDecoder dec(enc->lens.data(),
                                    static_cast<int>(enc->lens.size()));
  BitReader br(enc->stream, static_cast<std::size_t>(enc->stream_bytes),
               enc->nbits);
  dec.decode_packed(br, buf.data(),
                    entropy::symbol_count(buf.size_bytes(), enc->q));
  weights = std::move(buf);
  enc.reset();
  weights_backing.reset();
}

}  // namespace mixq::runtime
