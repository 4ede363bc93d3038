#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>

#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/executor.hpp"
#include "runtime/flash_image.hpp"

namespace mixq::runtime {
namespace {

using core::Granularity;
using core::Scheme;

QuantizedNet make_net(Scheme scheme, std::uint64_t seed,
                      int base_channels = 4, int num_blocks = 1) {
  Rng rng(seed);
  models::SmallCnnConfig cfg;
  cfg.input_hw = 8;
  cfg.base_channels = base_channels;
  cfg.num_blocks = num_blocks;
  cfg.num_classes = 3;
  cfg.qw = core::BitWidth::kQ4;
  cfg.wgran = Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  return convert_qat_model(model, Shape(1, 8, 8, 3), {scheme});
}

TEST(FlashImage, RoundTripPreservesEveryPrediction) {
  const QuantizedNet net = make_net(Scheme::kPCICN, 1);
  const auto blob = save_flash_image(net);
  const QuantizedNet back = load_flash_image(blob);

  ASSERT_EQ(back.layers.size(), net.layers.size());
  Executor a(net), b(back);
  Rng rng(2);
  FloatTensor imgs(Shape(8, 8, 8, 3));
  rng.fill_uniform(imgs.vec(), 0.0, 1.0);
  const auto ra = a.run_batch(imgs);
  const auto rb = b.run_batch(imgs);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i].predicted, rb[i].predicted);
    for (std::size_t k = 0; k < ra[i].logits.size(); ++k) {
      ASSERT_FLOAT_EQ(ra[i].logits[k], rb[i].logits[k]);
    }
  }
}

TEST(FlashImage, RoundTripWithThresholds) {
  const QuantizedNet net = make_net(Scheme::kPCThresholds, 3);
  const QuantizedNet back = load_flash_image(save_flash_image(net));
  ASSERT_EQ(back.layers.size(), net.layers.size());
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    ASSERT_EQ(back.layers[i].thresholds.size(),
              net.layers[i].thresholds.size());
    for (std::size_t c = 0; c < net.layers[i].thresholds.size(); ++c) {
      EXPECT_EQ(back.layers[i].thresholds[c].thr,
                net.layers[i].thresholds[c].thr);
      EXPECT_EQ(back.layers[i].thresholds[c].rising,
                net.layers[i].thresholds[c].rising);
    }
  }
}

TEST(FlashImage, RejectsBadMagic) {
  auto blob = save_flash_image(make_net(Scheme::kPCICN, 4));
  blob[0] = 'X';
  EXPECT_THROW(load_flash_image(blob), std::runtime_error);
}

TEST(FlashImage, RejectsBadVersion) {
  auto blob = save_flash_image(make_net(Scheme::kPCICN, 5));
  blob[8] = 0x7F;  // version field
  EXPECT_THROW(load_flash_image(blob), std::runtime_error);
}

TEST(FlashImage, RejectsTruncation) {
  auto blob = save_flash_image(make_net(Scheme::kPCICN, 6));
  blob.resize(blob.size() - 7);
  EXPECT_THROW(load_flash_image(blob), std::runtime_error);
  std::vector<std::uint8_t> tiny(blob.begin(), blob.begin() + 10);
  EXPECT_THROW(load_flash_image(tiny), std::runtime_error);
}

TEST(FlashImage, CrcCatchesEveryByteFlip) {
  // Flip a sample of payload bytes; the CRC must reject each corruption.
  const auto blob = save_flash_image(make_net(Scheme::kPCICN, 7));
  const std::size_t header = 8 + 4 + 8 + 4;
  int caught = 0, total = 0;
  for (std::size_t pos = header; pos < blob.size();
       pos += std::max<std::size_t>(1, (blob.size() - header) / 50)) {
    auto corrupted = blob;
    corrupted[pos] ^= 0xA5;
    ++total;
    try {
      load_flash_image(corrupted);
    } catch (const std::runtime_error&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, total);
}

TEST(FlashImage, RejectsTrailingGarbage) {
  auto blob = save_flash_image(make_net(Scheme::kPCICN, 8));
  blob.push_back(0);
  EXPECT_THROW(load_flash_image(blob), std::runtime_error);
}

TEST(FlashImage, Crc32KnownVector) {
  // "123456789" -> 0xCBF43926 is the canonical CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(FlashImage, FileRoundTrip) {
  const QuantizedNet net = make_net(Scheme::kPCICN, 9);
  const std::string path = "/tmp/mixq_flash_test.img";
  write_flash_image_file(net, path);
  const QuantizedNet back = read_flash_image_file(path);
  EXPECT_EQ(back.layers.size(), net.layers.size());
  EXPECT_EQ(back.ro_bytes(), net.ro_bytes());
  std::remove(path.c_str());
}

TEST(FlashImage, MissingFileThrows) {
  EXPECT_THROW(read_flash_image_file("/nonexistent/dir/x.img"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Hostile geometry: CRC-valid images whose *declared* shapes would make a
// host allocate absurd amounts of memory must be rejected at load time.
// ---------------------------------------------------------------------------

/// A structurally valid single-conv-layer net whose activation tensors are
/// huge while its weight bank stays tiny (1x1 conv): chain-consistent, so
/// QuantizedNet::validate() alone cannot reject it.
QuantizedNet make_huge_activation_net() {
  QuantizedNet net;
  net.input_qp = core::make_quant_params(0.0f, 1.0f, core::BitWidth::kQ8);
  QLayer l;
  l.kind = QLayerKind::kConv;
  l.scheme = Scheme::kPCICN;
  l.spec.kh = l.spec.kw = 1;
  l.spec.stride = 1;
  l.spec.pad = 0;
  // 16384 x 16384 x 4: 2^30 elements per tensor, so the unpacked INT32
  // arena pair the executor would allocate is 8 GiB -- far over the
  // default 1 GiB load limit (regardless of the packed bit width).
  l.in_shape = Shape(1, 16384, 16384, 4);
  l.out_shape = Shape(1, 16384, 16384, 4);
  l.qx = l.qw = l.qy = core::BitWidth::kQ8;
  l.wshape = WeightShape(4, 1, 1, 4);
  l.weights = PackedBuffer(l.wshape.numel(), l.qw);
  l.zw = {0};
  for (int c = 0; c < 4; ++c) {
    core::IcnChannel ch;
    ch.bq = 0;
    ch.m.m0_q31 = 1 << 30;
    ch.m.n0 = 0;
    l.icn.push_back(ch);
  }
  net.layers.push_back(l);
  net.validate();  // genuinely chain-consistent
  return net;
}

TEST(FlashImage, RejectsActivationGeometryOverLoadLimit) {
  const auto blob = save_flash_image(make_huge_activation_net());
  try {
    load_flash_image(blob);
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("activation pair"),
              std::string::npos);
  }
  // An explicitly raised limit admits the same image (its unpacked arena
  // pair is exactly 8 GiB; loading allocates only the tiny weight bank).
  FlashLoadLimits generous;
  generous.max_activation_pair_bytes = std::int64_t{16} << 30;
  EXPECT_NO_THROW(load_flash_image(blob, generous));
  // A tightened limit models a small device: even ordinary nets fail it.
  FlashLoadLimits tiny;
  tiny.max_activation_pair_bytes = 16;
  EXPECT_THROW(load_flash_image(save_flash_image(make_net(Scheme::kPCICN, 20)),
                                tiny),
               std::runtime_error);
}

/// Little-endian payload writer mirroring the on-disk layout, for crafting
/// adversarial images the reference Writer would never produce.
struct RawWriter {
  std::vector<std::uint8_t> bytes;
  template <typename T>
  void put(T v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(T));
  }
  void put_shape(std::int64_t n, std::int64_t h, std::int64_t w,
                 std::int64_t c) {
    put<std::int64_t>(n);
    put<std::int64_t>(h);
    put<std::int64_t>(w);
    put<std::int64_t>(c);
  }
};

std::vector<std::uint8_t> wrap_payload(const std::vector<std::uint8_t>& p,
                                       std::uint32_t version = 1) {
  std::vector<std::uint8_t> blob;
  const char magic[8] = {'M', 'I', 'X', 'Q', 'I', 'M', 'G', '1'};
  blob.insert(blob.end(), magic, magic + 8);
  RawWriter h;
  h.put<std::uint32_t>(version);
  h.put<std::uint64_t>(p.size());
  h.put<std::uint32_t>(crc32(p.data(), p.size()));
  blob.insert(blob.end(), h.bytes.begin(), h.bytes.end());
  blob.insert(blob.end(), p.begin(), p.end());
  return blob;
}

/// The zero-points of a crafted single-conv image (all 8-bit codes).
struct CraftedZeros {
  std::int32_t input{0};
  std::int32_t zx{0};
  std::int32_t zy{0};
  std::int32_t zw{0};
};

/// One conv layer whose fixed fields are sane; `wnumel`, the trailing
/// weight bytes and the zero-points are the caller's to corrupt.
std::vector<std::uint8_t> craft_single_conv_payload(std::int64_t wnumel,
                                                    std::int64_t weight_bytes,
                                                    std::uint32_t icn_count,
                                                    const CraftedZeros& z = {}) {
  RawWriter w;
  w.put<float>(0.05f);          // input scale
  w.put<std::int32_t>(z.input); // input zero
  w.put<std::uint8_t>(8);       // input bits
  w.put<std::uint32_t>(1);      // layer count
  w.put<std::uint8_t>(0);       // kind = conv
  w.put<std::uint8_t>(2);       // scheme = PC+ICN
  w.put<std::int32_t>(1);       // kh
  w.put<std::int32_t>(1);       // kw
  w.put<std::int32_t>(1);       // stride
  w.put<std::int32_t>(0);       // pad
  w.put_shape(1, 4, 4, 1);      // in_shape
  w.put_shape(1, 4, 4, 1);      // out_shape
  w.put<std::uint8_t>(8);       // qx
  w.put<std::uint8_t>(8);       // qw
  w.put<std::uint8_t>(8);       // qy
  w.put<std::int64_t>(1);       // wshape co
  w.put<std::int64_t>(1);       // wshape kh
  w.put<std::int64_t>(1);       // wshape kw
  w.put<std::int64_t>(1);       // wshape ci
  w.put<std::int32_t>(z.zx);    // zx
  w.put<std::int32_t>(z.zy);    // zy
  w.put<std::uint8_t>(0);       // raw_logits
  w.put<std::uint32_t>(1);      // zw count
  w.put<std::int32_t>(z.zw);    // zw[0]
  w.put<std::uint32_t>(icn_count);
  for (std::uint32_t i = 0; i < std::min<std::uint32_t>(icn_count, 1); ++i) {
    w.put<std::int32_t>(0);           // bq
    w.put<std::int32_t>(1 << 30);     // m0_q31
    w.put<std::int8_t>(0);            // n0
  }
  w.put<std::uint32_t>(0);      // threshold count
  w.put<std::uint32_t>(0);      // out_mult count
  w.put<std::int64_t>(wnumel);  // declared weight elements
  w.put<std::uint8_t>(8);       // weight bits
  for (std::int64_t i = 0; i < weight_bytes; ++i) w.put<std::uint8_t>(0);
  return w.bytes;
}

TEST(FlashImage, SaneCraftedPayloadLoads) {
  // Control: the crafted layout matches the real reader bit for bit.
  const auto blob = wrap_payload(craft_single_conv_payload(1, 1, 1));
  const QuantizedNet net = load_flash_image(blob);
  ASSERT_EQ(net.layers.size(), 1u);
  EXPECT_EQ(net.layers[0].weights.numel(), 1);
}

/// How many of the two loaders (streaming, mmap) accept `blob`.
int loaders_accepting(const std::vector<std::uint8_t>& blob) {
  int accepted = 0;
  try {
    (void)load_flash_image(blob);
    ++accepted;
  } catch (const std::runtime_error&) {
  }
  const std::string path = "/tmp/mixq_flash_crafted.img";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  }
  try {
    (void)load_flash_image_mmap(path);
    ++accepted;
  } catch (const std::runtime_error&) {
  }
  std::remove(path.c_str());
  return accepted;
}

TEST(FlashImage, RejectsZeroPointsOutsideTheirBitWidth) {
  // A CRC-valid image whose zero-points are not codes of their own bit
  // width: the plan's acc32 bounds assume z in [0, qmax], and INT32_MIN
  // would overflow the weight offsetting while the plan compiles.
  for (const std::int32_t bad :
       {std::int32_t{-1}, std::int32_t{256},
        std::numeric_limits<std::int32_t>::min()}) {
    for (int site = 0; site < 4; ++site) {
      CraftedZeros z;
      std::int32_t* fields[] = {&z.input, &z.zx, &z.zy, &z.zw};
      *fields[site] = bad;
      EXPECT_EQ(loaders_accepting(
                    wrap_payload(craft_single_conv_payload(1, 1, 1, z))),
                0)
          << "zero-point " << bad << " at site " << site;
    }
  }
  // qmax(8 bit) = 255 is the top of the legal range at every site.
  const CraftedZeros top{255, 255, 255, 255};
  EXPECT_EQ(loaders_accepting(
                wrap_payload(craft_single_conv_payload(1, 1, 1, top))),
            2);
}

TEST(FlashImage, RejectsWeightCountExceedingPayload) {
  // A CRC-valid image declaring 2^40 weight elements while carrying one
  // byte: the loader must refuse BEFORE sizing a buffer from the field.
  const auto blob = wrap_payload(
      craft_single_conv_payload(std::int64_t{1} << 40, 1, 1));
  try {
    load_flash_image(blob);
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("weight count exceeds payload"),
              std::string::npos);
  }
}

TEST(FlashImage, RejectsImplausibleShapeDimensions) {
  // Shape dims past the 2^14 cap (here 2^40) would overflow numel math;
  // the dimension check fires as the shape is read, before anything else
  // of the layer is even parsed.
  RawWriter w;
  w.put<float>(0.05f);
  w.put<std::int32_t>(0);
  w.put<std::uint8_t>(8);
  w.put<std::uint32_t>(1);
  w.put<std::uint8_t>(0);
  w.put<std::uint8_t>(2);
  w.put<std::int32_t>(1);
  w.put<std::int32_t>(1);
  w.put<std::int32_t>(1);
  w.put<std::int32_t>(0);
  w.put_shape(1, std::int64_t{1} << 40, std::int64_t{1} << 40, 1);
  EXPECT_THROW(load_flash_image(wrap_payload(w.bytes)), std::runtime_error);
}

TEST(FlashImage, RejectsCountFieldExceedingPayload) {
  // icn_count must equal cO; craft cO = 16384 (at the dim cap) with an
  // icn_count to match but a payload holding a single entry.
  RawWriter w;
  w.put<float>(0.05f);
  w.put<std::int32_t>(0);
  w.put<std::uint8_t>(8);
  w.put<std::uint32_t>(1);
  w.put<std::uint8_t>(0);       // conv
  w.put<std::uint8_t>(2);       // PC+ICN
  w.put<std::int32_t>(1);
  w.put<std::int32_t>(1);
  w.put<std::int32_t>(1);
  w.put<std::int32_t>(0);
  w.put_shape(1, 4, 4, 1);
  w.put_shape(1, 4, 4, 16384);
  w.put<std::uint8_t>(8);
  w.put<std::uint8_t>(8);
  w.put<std::uint8_t>(8);
  w.put<std::int64_t>(16384);   // co
  w.put<std::int64_t>(1);
  w.put<std::int64_t>(1);
  w.put<std::int64_t>(1);
  w.put<std::int32_t>(0);
  w.put<std::int32_t>(0);
  w.put<std::uint8_t>(0);
  w.put<std::uint32_t>(16384);  // zw count == co, but ~64 KiB implied
  w.put<std::int32_t>(0);       // ...while only one entry is present
  EXPECT_THROW(load_flash_image(wrap_payload(w.bytes)), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Format v2: entropy-coded weight sections + zero-copy mmap loading.
// ---------------------------------------------------------------------------

/// Recompute the payload CRC after a deliberate payload mutation, so the
/// corruption reaches the structural checks instead of the CRC gate.
void fixup_crc(std::vector<std::uint8_t>& blob) {
  const std::size_t header = 8 + 4 + 8 + 4;
  const std::uint32_t c = crc32(blob.data() + header, blob.size() - header);
  std::memcpy(blob.data() + 8 + 4 + 8, &c, 4);
}

/// Read a little-endian field out of a blob.
template <typename T>
T read_le(const std::vector<std::uint8_t>& blob, std::size_t off) {
  T v;
  std::memcpy(&v, blob.data() + off, sizeof(T));
  return v;
}
template <typename T>
void write_le(std::vector<std::uint8_t>& blob, std::size_t off, T v) {
  std::memcpy(blob.data() + off, &v, sizeof(T));
}

/// Blob offsets of v2 section-table entry `i` (28-byte entries; the table
/// follows the 24-byte header + 9-byte input qp + 4-byte layer count).
struct EntryOffsets {
  std::size_t codec, wbits, reserved, wnumel, off, len;
};
EntryOffsets entry_offsets(std::size_t i) {
  const std::size_t base = 24 + 9 + 4 + i * 28;
  return {base, base + 1, base + 2, base + 4, base + 12, base + 20};
}

/// A net whose weight banks are heavily skewed (mostly one code), so the
/// v2 writer provably picks the Huffman codec for the big layer.
QuantizedNet make_compressible_net() {
  QuantizedNet net = make_net(Scheme::kPCICN, 11, /*base_channels=*/16,
                              /*num_blocks=*/2);
  for (auto& l : net.layers) {
    if (l.kind == QLayerKind::kGlobalAvgPool) continue;
    for (std::int64_t i = 0; i < l.weights.numel(); ++i) {
      // ~87% of codes collapse onto one symbol; the rest keep variety.
      if (i % 8 != 0) l.weights.set(i, 3);
    }
  }
  return net;
}

TEST(FlashImageV2, CompressedRoundTripIsBitExact) {
  const QuantizedNet net = make_compressible_net();
  const auto raw_blob = save_flash_image(net);
  const auto v2_blob = save_flash_image(net, {/*compress=*/true});
  EXPECT_LT(v2_blob.size(), raw_blob.size());

  FlashImageStats stats;
  const QuantizedNet back = load_flash_image(v2_blob, {}, &stats);
  EXPECT_EQ(stats.version, 2u);
  EXPECT_GT(stats.weight_raw_bytes, stats.weight_stored_bytes);
  bool any_coded = false;
  for (const auto& ls : stats.layers) any_coded |= ls.codec == 1;
  EXPECT_TRUE(any_coded);

  // Integer equality of every decoded weight code against the original.
  ASSERT_EQ(back.layers.size(), net.layers.size());
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    EXPECT_EQ(unpack_codes(back.layers[i].weights),
              unpack_codes(net.layers[i].weights))
        << "layer " << i;
  }

  // And the planned engine produces identical results from either image.
  const QuantizedNet raw_back = load_flash_image(raw_blob);
  Executor a(raw_back, /*fast=*/true), b(back, /*fast=*/true);
  Rng rng(4);
  FloatTensor imgs(Shape(4, 8, 8, 3));
  rng.fill_uniform(imgs.vec(), 0.0, 1.0);
  for (std::int64_t n = 0; n < 4; ++n) {
    FloatTensor img(Shape(1, 8, 8, 3));
    std::copy(imgs.data() + n * img.numel(),
              imgs.data() + (n + 1) * img.numel(), img.data());
    const auto ra = a.run_planned(img);
    const auto rb = b.run_planned(img);
    ASSERT_EQ(ra.predicted, rb.predicted);
    ASSERT_EQ(ra.logits, rb.logits);
  }
}

TEST(FlashImageV2, SaveIsDeterministic) {
  const QuantizedNet net = make_compressible_net();
  EXPECT_EQ(save_flash_image(net, {true}), save_flash_image(net, {true}));
}

TEST(FlashImageV2, IncompressibleLayersFallBackToRaw) {
  // Uniform-random codes cannot shrink: every section must record codec 0
  // and the v2 image differs from v1 only by the table overhead.
  QuantizedNet net = make_net(Scheme::kPCICN, 12);
  Rng rng(13);
  for (auto& l : net.layers) {
    for (std::int64_t i = 0; i < l.weights.numel(); ++i) {
      l.weights.set(i, static_cast<std::uint32_t>(rng.uniform_int(
                           core::levels(l.weights.bitwidth()))));
    }
  }
  FlashImageStats stats;
  const QuantizedNet back =
      load_flash_image(save_flash_image(net, {true}), {}, &stats);
  for (const auto& ls : stats.layers) EXPECT_EQ(ls.codec, 0);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    EXPECT_EQ(unpack_codes(back.layers[i].weights),
              unpack_codes(net.layers[i].weights));
  }
}

TEST(FlashImageV2, MmapLoadMatchesStreamingLoad) {
  const QuantizedNet net = make_compressible_net();
  const std::string path = "/tmp/mixq_flash_v2_mmap.img";
  write_flash_image_file(net, path, {/*compress=*/true});

  FlashImageStats stats;
  const QuantizedNet mapped = load_flash_image_mmap(path, {}, &stats);
  EXPECT_EQ(stats.version, 2u);
  // Raw sections are borrowed views, coded sections stay deferred: the
  // zero-copy contract.
  bool any_deferred = false, any_borrowed = false;
  for (const auto& l : mapped.layers) {
    any_deferred |= l.weights_deferred();
    any_borrowed |= l.weights.borrowed();
  }
  EXPECT_TRUE(any_deferred);

  // The planned engine decodes deferred banks natively; results must be
  // identical to the streaming-loaded net.
  const QuantizedNet streamed = read_flash_image_file(path);
  Executor a(streamed, /*fast=*/true), b(mapped, /*fast=*/true);
  Rng rng(5);
  FloatTensor img(Shape(1, 8, 8, 3));
  rng.fill_uniform(img.vec(), 0.0, 1.0);
  const auto ra = a.run_planned(img);
  const auto rb = b.run_planned(img);
  EXPECT_EQ(ra.predicted, rb.predicted);
  EXPECT_EQ(ra.logits, rb.logits);

  // The reference path refuses deferred banks...
  Executor ref(mapped, /*fast=*/false);
  EXPECT_THROW(ref.run(img), std::logic_error);

  // ...until they are materialized, after which it agrees bit for bit.
  QuantizedNet materialized = load_flash_image_mmap(path);
  for (auto& l : materialized.layers) l.materialize_weights();
  for (std::size_t i = 0; i < materialized.layers.size(); ++i) {
    EXPECT_EQ(unpack_codes(materialized.layers[i].weights),
              unpack_codes(streamed.layers[i].weights));
  }
  std::remove(path.c_str());
}

TEST(FlashImageV2, MmapLoadsV1ImagesZeroCopy) {
  const QuantizedNet net = make_net(Scheme::kPCICN, 14);
  const std::string path = "/tmp/mixq_flash_v1_mmap.img";
  write_flash_image_file(net, path);  // v1
  const QuantizedNet mapped = load_flash_image_mmap(path);
  bool any_borrowed = false;
  for (const auto& l : mapped.layers) {
    any_borrowed |= l.weights.borrowed();
  }
  EXPECT_TRUE(any_borrowed);
  for (std::size_t i = 0; i < net.layers.size(); ++i) {
    EXPECT_EQ(unpack_codes(mapped.layers[i].weights),
              unpack_codes(net.layers[i].weights));
  }
  std::remove(path.c_str());
}

TEST(FlashImageV2, ErrorsCarrySectionAndOffset) {
  auto blob = save_flash_image(make_compressible_net(), {true});
  const auto eo = entry_offsets(0);
  write_le<std::uint8_t>(blob, eo.codec, 2);
  fixup_crc(blob);
  try {
    load_flash_image(blob);
    FAIL();
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flash image: table:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("invalid weight codec"), std::string::npos) << msg;
  }
}

TEST(FlashImageV2, RejectsReservedFieldNonZero) {
  auto blob = save_flash_image(make_compressible_net(), {true});
  write_le<std::uint16_t>(blob, entry_offsets(0).reserved, 1);
  fixup_crc(blob);
  EXPECT_THROW(load_flash_image(blob), std::runtime_error);
}

TEST(FlashImageV2, RejectsSectionEscapingPayload) {
  auto blob = save_flash_image(make_compressible_net(), {true});
  write_le<std::uint64_t>(blob, entry_offsets(0).len,
                          std::uint64_t{1} << 40);  // length bomb
  fixup_crc(blob);
  EXPECT_THROW(load_flash_image(blob), std::runtime_error);
}

TEST(FlashImageV2, RejectsOverlappingOrGappySections) {
  {
    auto blob = save_flash_image(make_compressible_net(), {true});
    const auto off = read_le<std::uint64_t>(blob, entry_offsets(1).off);
    write_le<std::uint64_t>(blob, entry_offsets(1).off, off - 1);  // overlap
    fixup_crc(blob);
    EXPECT_THROW(load_flash_image(blob), std::runtime_error);
  }
  {
    auto blob = save_flash_image(make_compressible_net(), {true});
    const auto off = read_le<std::uint64_t>(blob, entry_offsets(1).off);
    write_le<std::uint64_t>(blob, entry_offsets(1).off, off + 1);  // gap
    fixup_crc(blob);
    EXPECT_THROW(load_flash_image(blob), std::runtime_error);
  }
}

TEST(FlashImageV2, RejectsWeightCountMismatchOnRawSection) {
  auto blob = save_flash_image(make_compressible_net(), {true});
  // Find a raw section and inflate its declared element count.
  FlashImageStats stats;
  load_flash_image(blob, {}, &stats);
  for (std::size_t i = 0; i < stats.layers.size(); ++i) {
    if (stats.layers[i].codec != 0 || stats.layers[i].wnumel == 0) continue;
    write_le<std::int64_t>(blob, entry_offsets(i).wnumel,
                           stats.layers[i].wnumel + 8);
    fixup_crc(blob);
    EXPECT_THROW(load_flash_image(blob), std::runtime_error);
    return;
  }
  FAIL() << "fixture has no raw section to corrupt";
}

TEST(FlashImageV2, RejectsWeightCountBombBeforeAllocating) {
  // A degenerate entropy stream encodes any element count in zero bits,
  // so wnumel is not payload-bounded the way raw sections are; the
  // per-layer byte cap must reject the bomb at table parse, before any
  // decode buffer is sized from it.
  auto blob = save_flash_image(make_compressible_net(), {true});
  write_le<std::int64_t>(blob, entry_offsets(0).wnumel,
                         std::int64_t{1} << 45);
  fixup_crc(blob);
  try {
    load_flash_image(blob);
    FAIL() << "weight count bomb was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("weight byte limit"),
              std::string::npos)
        << e.what();
  }
  // Same rejection on the zero-copy path: the cap guards the deferred
  // decode's buffer sizing too.
  const std::string path = "/tmp/mixq_flash_v2_bomb.img";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  }
  EXPECT_THROW(load_flash_image_mmap(path), std::runtime_error);
  std::remove(path.c_str());
}

/// Locate the first huffman section's blob offsets: returns {entry index,
/// section blob offset, section length}.
struct CodedSection {
  std::size_t index, blob_off, len;
};
CodedSection find_coded_section(const std::vector<std::uint8_t>& blob) {
  const auto count = read_le<std::uint32_t>(blob, 24 + 9);
  for (std::size_t i = 0; i < count; ++i) {
    const auto eo = entry_offsets(i);
    if (read_le<std::uint8_t>(blob, eo.codec) == 1) {
      return {i, 24 + static_cast<std::size_t>(
                          read_le<std::uint64_t>(blob, eo.off)),
              static_cast<std::size_t>(read_le<std::uint64_t>(blob, eo.len))};
    }
  }
  throw std::runtime_error("fixture has no coded section");
}

TEST(FlashImageV2, RejectsCorruptHuffmanTable) {
  auto blob = save_flash_image(make_compressible_net(), {true});
  const CodedSection s = find_coded_section(blob);
  // The nibble-packed length table starts after the u32 alphabet; zeroing
  // a populated byte breaks the Kraft equality.
  blob[s.blob_off + 4] ^= 0x0F;
  fixup_crc(blob);
  EXPECT_THROW(load_flash_image(blob), std::runtime_error);
}

TEST(FlashImageV2, RejectsAlphabetMismatch) {
  auto blob = save_flash_image(make_compressible_net(), {true});
  const CodedSection s = find_coded_section(blob);
  write_le<std::uint32_t>(blob, s.blob_off, 16u);  // real alphabet is 256
  fixup_crc(blob);
  EXPECT_THROW(load_flash_image(blob), std::runtime_error);
}

TEST(FlashImageV2, RejectsTruncatedDeclaredBitCount) {
  auto blob = save_flash_image(make_compressible_net(), {true});
  const CodedSection s = find_coded_section(blob);
  // nbits sits after alphabet (4) + 128 length bytes. Inflating it makes
  // the stream length disagree; deflating it strands stream bytes.
  const std::size_t nbits_off = s.blob_off + 4 + 128;
  const auto nbits = read_le<std::uint64_t>(blob, nbits_off);
  for (const std::uint64_t bad : {nbits + 9, nbits - 8}) {
    auto mutated = blob;
    write_le<std::uint64_t>(mutated, nbits_off, bad);
    fixup_crc(mutated);
    EXPECT_THROW(load_flash_image(mutated), std::runtime_error);
  }
}

TEST(FlashImageV2, RejectsCorruptStreamEverywhereItIsDecoded) {
  auto blob = save_flash_image(make_compressible_net(), {true});
  const CodedSection s = find_coded_section(blob);
  // Flip bits in the middle of the entropy stream: the streaming loader
  // must reject at load; the mmap loader at the first decode.
  blob[s.blob_off + s.len - (s.len - 140) / 2] ^= 0xFF;
  fixup_crc(blob);
  EXPECT_THROW(load_flash_image(blob), std::runtime_error);

  const std::string path = "/tmp/mixq_flash_v2_hostile.img";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  }
  bool threw = false;
  try {
    QuantizedNet mapped = load_flash_image_mmap(path);
    for (auto& l : mapped.layers) l.materialize_weights();
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  std::remove(path.c_str());
}

TEST(FlashImageV2, MmapRejectsSameHostileTableInputs) {
  // The structural hostile suite must behave identically under mmap: every
  // table/section defect is a LOAD-time error there too.
  const std::string path = "/tmp/mixq_flash_v2_hostile2.img";
  auto hostile = [&](void (*mutate)(std::vector<std::uint8_t>&)) {
    auto blob = save_flash_image(make_compressible_net(), {true});
    mutate(blob);
    fixup_crc(blob);
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    f.close();
    EXPECT_THROW(load_flash_image_mmap(path), std::runtime_error);
  };
  hostile([](std::vector<std::uint8_t>& b) {
    write_le<std::uint8_t>(b, entry_offsets(0).codec, 2);
  });
  hostile([](std::vector<std::uint8_t>& b) {
    write_le<std::uint64_t>(b, entry_offsets(0).len, std::uint64_t{1} << 40);
  });
  hostile([](std::vector<std::uint8_t>& b) {
    const CodedSection s = find_coded_section(b);
    b[s.blob_off + 4] ^= 0x0F;  // Kraft violation
  });
  std::remove(path.c_str());
}

TEST(FlashImage, ImageSizeTracksRoBytes) {
  // The serialized blob should be within a small overhead of the
  // accounting model's RO bytes (the blob also carries shapes/specs and
  // 8-byte thresholds instead of INT16).
  const QuantizedNet net = make_net(Scheme::kPCICN, 10);
  // The blob additionally carries shapes/specs (fixed ~100 B per layer)
  // and 8-byte thresholds, so allow a constant structural overhead.
  const auto blob = save_flash_image(net);
  EXPECT_GT(static_cast<std::int64_t>(blob.size()), net.ro_bytes());
  EXPECT_LT(static_cast<std::int64_t>(blob.size()),
            net.ro_bytes() * 3 + 1024);
}

}  // namespace
}  // namespace mixq::runtime
