// mixq/runtime/flash_image.hpp
//
// Binary serialization of a QuantizedNet: the "flash image" a deployment
// toolchain would burn into MCU read-only memory. The format is a single
// little-endian blob with a magic/version header and a CRC32 over the
// payload, so a loader can reject truncated or corrupted images before
// running inference on garbage.
//
// Two payload layouts share the 24-byte header:
//
//   [magic "MIXQIMG1" 8B][version u32][payload size u64][crc32 u32][payload]
//
// Version 1 (legacy, still written by the default save and accepted by
// every loader): input quant params, layer count, then each layer's
// fields with its packed weight bytes inline.
//
// Version 2 (written when FlashSaveOptions::compress is set) splits the
// weights out of the metadata into a section heap so they can be
// entropy-coded per layer and memory-mapped:
//
//   payload := [input qp: f32 scale, i32 zero, u8 bits]
//              [u32 layer_count]
//              [section table: layer_count entries]
//              [layer metadata blocks: v1 layer fields minus weight tail]
//              [weight heap: one section per layer, in layer order]
//
//   section table entry (28 bytes):
//     u8  codec      0 = raw packed bytes, 1 = canonical Huffman
//     u8  wbits      weight precision (2/4/8)
//     u16 reserved   must be 0
//     i64 wnumel     weight element count
//     u64 off        section start, payload-relative
//     u64 len        section byte length
//
//   huffman section := [u32 alphabet (16|256)]
//                      [alphabet/2 bytes: nibble-packed code lengths,
//                       low nibble = even symbol]
//                      [u64 nbits][ceil(nbits/8) stream bytes]
//
// The writer codes each layer with runtime/entropy.hpp and keeps the
// SMALLER of the coded and raw forms (codec 0 records the raw fallback),
// so a v2 image is never larger than its v1 payload beyond the 28-byte
// table entries. Sections are contiguous in layer order with no slack:
// the first starts where the metadata ends and the last ends exactly at
// the payload end -- crafted off/len pairs that overlap, reorder, leave
// gaps, or escape the payload are all rejected.
//
// All multi-byte fields little-endian. Loader errors are normalized to
// "flash image: <section>:<offset>: <message>" where <offset> is the
// payload-relative byte offset at which the defect was detected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/qgraph.hpp"

namespace mixq::runtime {

/// Newest format version this build writes/reads. The default save still
/// emits version 1 for compatibility; compress selects version 2.
inline constexpr std::uint32_t kFlashImageVersion = 2;

/// Resource ceilings enforced while *loading* an image, before any
/// executor touches it. A CRC only proves the image is the one its
/// producer wrote -- a hostile or buggy producer can still declare layer
/// geometry whose activation buffers would exhaust host memory the moment
/// a plan is compiled. The loader therefore rejects:
///   * any count/array field implying more bytes than the payload holds
///     (so a crafted length can never drive an allocation; this check is
///     unconditional, not configurable), and
///   * any layer whose input+output activation pair (the Eq. 7 quantity)
///     exceeds `max_activation_pair_bytes`, measured at 4 bytes/element.
///     That is conservative: a compiled plan's ping-pong arenas hold one
///     u8 byte per element (no host arena holds INT32 activations), and
///     the packed bit-width bytes are smaller still.
/// The default is far above every real MCU deployment (the paper's
/// largest target has 512 kB of RAM) while still bounding what a loaded
/// image can make the host allocate.
struct FlashLoadLimits {
  std::int64_t max_activation_pair_bytes{std::int64_t{1} << 30};  ///< 1 GiB
  /// Per-layer cap on the PACKED weight bytes a section may declare. Raw
  /// sections are implicitly payload-bounded, but an entropy-coded
  /// section is not: a degenerate single-symbol stream encodes any
  /// element count in zero bits, so without this cap a 100-byte crafted
  /// image could declare a multi-GB weight tensor and drive the decode
  /// allocation arbitrarily high.
  std::int64_t max_weight_bytes{std::int64_t{1} << 30};  ///< 1 GiB
};

/// Save-time knobs.
struct FlashSaveOptions {
  /// Entropy-code weight sections (emits format v2). Each layer keeps
  /// whichever of {canonical Huffman, raw} is smaller.
  bool compress{false};
};

/// Per-layer storage record of a parsed image (for `mixq inspect` and the
/// image benchmarks).
struct FlashLayerStats {
  std::uint8_t codec{0};          ///< 0 = raw, 1 = huffman
  std::uint8_t wbits{8};          ///< weight precision
  std::int64_t wnumel{0};         ///< weight element count
  std::int64_t raw_bytes{0};      ///< packed (uncompressed) weight bytes
  std::int64_t stored_bytes{0};   ///< bytes the image actually stores
};

/// Whole-image storage summary.
struct FlashImageStats {
  std::uint32_t version{1};
  std::int64_t image_bytes{0};          ///< header + payload
  std::int64_t payload_bytes{0};
  std::int64_t weight_raw_bytes{0};     ///< sum of per-layer raw_bytes
  std::int64_t weight_stored_bytes{0};  ///< sum of per-layer stored_bytes
  std::vector<FlashLayerStats> layers;
};

/// Serialize a deployed network. The single-argument form emits the
/// legacy v1 layout byte-for-byte; pass {.compress = true} for v2.
std::vector<std::uint8_t> save_flash_image(const QuantizedNet& net);
std::vector<std::uint8_t> save_flash_image(const QuantizedNet& net,
                                           const FlashSaveOptions& opts);

/// Parse and validate a flash image (v1 or v2), materializing every
/// weight bank (entropy-coded sections are streaming-decoded straight
/// into their packed form). Throws std::runtime_error with a
/// "flash image: <section>:<offset>: ..." message on bad magic, version
/// mismatch, size mismatch, CRC failure, any field that fails structural
/// validation, or geometry that violates `limits`. Optionally fills
/// `stats` (only on success).
QuantizedNet load_flash_image(const std::vector<std::uint8_t>& blob,
                              const FlashLoadLimits& limits = {},
                              FlashImageStats* stats = nullptr);

/// Zero-copy loader: maps `path` read-only and builds a net whose raw
/// weight banks BORROW the mapped bytes (PackedBuffer::borrow) and whose
/// entropy-coded banks stay compressed as QLayer::enc views -- cold start
/// does no weight copying or decoding. Every structural/hostile-input
/// check of the streaming loader runs here too (including full CRC);
/// entropy STREAM defects (not table defects, which are load-time) are
/// detected when the section is first decoded -- at plan compile or
/// QLayer::materialize_weights. Each layer holds a keepalive on the
/// mapping, so the returned net outlives any handle management.
/// Falls back to a heap read (still borrow-based) where mmap is absent.
QuantizedNet load_flash_image_mmap(const std::string& path,
                                   const FlashLoadLimits& limits = {},
                                   FlashImageStats* stats = nullptr);

/// File helpers.
void write_flash_image_file(const QuantizedNet& net, const std::string& path,
                            const FlashSaveOptions& opts = {});
QuantizedNet read_flash_image_file(const std::string& path,
                                   const FlashLoadLimits& limits = {},
                                   FlashImageStats* stats = nullptr);

/// CRC32 (IEEE, reflected) used by the image format; exposed for tests.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

}  // namespace mixq::runtime
