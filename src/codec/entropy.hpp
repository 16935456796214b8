#pragma once
// Entropy-stage registry: the last step of predict → quantize →
// entropy-code.
//
// Every compressor backend funnels its quantized-code streams through
// one EntropyStage, resolved by name when writing (from
// CompressionConfig::entropy) or by the wire id stored in a packed
// section's leading byte when reading. The stage owns both directions
// of the section payload: one encode_into, one decode_into.
//
// Wire format of a packed codes section:
//
//   [u8 id][payload...]
//
//   id 0-2  "huffman": canonical Huffman + the configured lossless
//           backend. The byte doubles as the LosslessBackend id (0
//           none, 1 lzb, 2 rle+lzb), so blobs written before the
//           registry existed parse bit-exactly — and the default path
//           still emits these exact bytes.
//   id 3    "ans": tabled rANS + an lzb/rle+lzb pass.
//   id 4-5  retired (4 was bwt-mtf, 5 was lzw). Decoding either id
//           throws a CorruptStream naming the retired stage, and the
//           registry refuses to hand them out again.
//
// Stages follow the zero-copy rules: encode appends into a ByteSink,
// decode consumes a span.
//
// Adding a stage = implement EntropyStage, pick a fresh wire id >= 6,
// and register it in the EntropyRegistry constructor (entropy.cpp) or
// via EntropyRegistry::add. See CONTRIBUTING.md for the full recipe.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "codec/lossless.hpp"
#include "common/bytes.hpp"

namespace ocelot {

/// Wire ids of the built-in stages. 1 and 2 are reserved: on the wire
/// they alias the huffman stage's LosslessBackend byte (see above).
inline constexpr std::uint8_t kEntropyHuffmanId = 0;
inline constexpr std::uint8_t kMaxLegacyEntropyId = 2;
inline constexpr std::uint8_t kEntropyAnsId = 3;
/// Wire ids of retired stages. Reserved forever: never reassign them.
inline constexpr std::uint8_t kRetiredBwtMtfId = 4;
inline constexpr std::uint8_t kRetiredLzwId = 5;

/// Throws CorruptStream ("retired entropy stage 5 (lzw)") when `id`
/// names a retired stage; returns otherwise.
void reject_retired_entropy_id(std::uint8_t id);

/// One entropy coder family: turns a quantized-code stream into a
/// packed-section payload and back. The huffman stage's payload is the
/// whole section (its lossless framing byte is the section's id byte);
/// every other stage's payload follows the id byte that
/// entropy_encode_codes writes.
class EntropyStage {
 public:
  virtual ~EntropyStage() = default;

  /// Registry key (stable, lowercase, e.g. "ans").
  [[nodiscard]] virtual std::string name() const = 0;
  /// Wire id written as a packed section's leading byte.
  [[nodiscard]] virtual std::uint8_t wire_id() const = 0;
  [[nodiscard]] virtual std::string description() const = 0;

  /// Encodes `codes` into `out`. `lossless` is the configured lossless
  /// backend; `hist` is the exact symbol-sorted histogram of `codes`
  /// when the caller counted it while quantizing, empty otherwise.
  /// Stages that have no use for either ignore them.
  virtual void encode_into(
      std::span<const std::uint32_t> codes, LosslessBackend lossless,
      std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
      ByteSink& out) const = 0;
  virtual void decode_into(std::span<const std::uint8_t> payload,
                           std::vector<std::uint32_t>& out) const = 0;
};

/// Encodes `codes` as a self-describing packed section. The bytes do
/// not depend on whether `hist` is supplied; it only lets the huffman
/// stage skip its counting pass.
void entropy_encode_codes(
    std::span<const std::uint32_t> codes, const EntropyStage& stage,
    LosslessBackend lossless, ByteSink& out,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist = {});

/// Decodes a packed codes section, dispatching on the leading byte.
/// Throws CorruptStream for empty sections and unknown or retired ids.
void entropy_decode_codes_into(std::span<const std::uint8_t> packed,
                               std::vector<std::uint32_t>& out);

/// Process-wide entropy-stage registry, keyed by name and by wire id.
/// The built-in stages are registered on first access. Mirrors
/// BackendRegistry (backend.hpp) member for member.
class EntropyRegistry {
 public:
  static EntropyRegistry& instance();

  /// Registers a stage. Throws InvalidArgument on a name/wire-id
  /// clash, a reserved legacy id (1, 2) or a retired id (4, 5).
  /// Returns the registered stage.
  const EntropyStage& add(std::unique_ptr<EntropyStage> stage);

  /// Lookup for writers: throws InvalidArgument (listing the
  /// registered names) when `name` is unknown.
  [[nodiscard]] const EntropyStage& by_name(const std::string& name) const;

  /// Lookup for readers: throws CorruptStream when the wire id is
  /// unknown (a foreign or corrupt section) or retired.
  [[nodiscard]] const EntropyStage& by_id(std::uint8_t id) const;

  /// Nullptr instead of throwing.
  [[nodiscard]] const EntropyStage* find(const std::string& name) const;

  /// Nullptr instead of throwing (foreign, corrupt or retired ids).
  [[nodiscard]] const EntropyStage* find_by_id(std::uint8_t id) const;

  /// All registered stages in wire-id order.
  [[nodiscard]] std::vector<const EntropyStage*> list() const;

 private:
  EntropyRegistry();

  mutable std::mutex mu_;
  std::map<std::uint8_t, std::unique_ptr<EntropyStage>> by_id_;
  std::map<std::string, const EntropyStage*> by_name_;
};

/// Built-in stages, defined next to their coders: huffman+lossless
/// (entropy.cpp) and ans (ans.cpp).
std::unique_ptr<EntropyStage> make_huffman_stage();
std::unique_ptr<EntropyStage> make_ans_stage();

}  // namespace ocelot
