#include "codec/entropy.hpp"
#include <sstream>

#include "codec/huffman.hpp"
#include "common/buffer_pool.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace ocelot {

namespace {

/// Name of the retired stage that owned wire id `id`, or nullptr. Kept
/// so sections naming a retired stage fail with a typed error instead
/// of "unknown stage id".
const char* retired_stage_name(std::uint8_t id) {
  switch (id) {
    case kRetiredBwtMtfId:
      return "bwt-mtf";
    case kRetiredLzwId:
      return "lzw";
    default:
      return nullptr;
  }
}

/// Stage 0: canonical Huffman + the configured lossless backend. Its
/// payload is the lossless framing, whose leading byte is the
/// LosslessBackend id — which is exactly why ids 1-2 are reserved: a
/// legacy section is a stage-0 section whose first byte happens to be
/// the lossless id.
class HuffmanLzbStage final : public EntropyStage {
 public:
  [[nodiscard]] std::string name() const override { return "huffman"; }
  [[nodiscard]] std::uint8_t wire_id() const override {
    return kEntropyHuffmanId;
  }
  [[nodiscard]] std::string description() const override {
    return "canonical Huffman + lossless chain (legacy default)";
  }

  void encode_into(
      std::span<const std::uint32_t> codes, LosslessBackend lossless,
      std::span<const std::pair<std::uint32_t, std::uint64_t>> hist,
      ByteSink& out) const override {
    PooledBuffer huff(BufferPool::shared());
    ByteSink huff_sink(*huff);
    {
      OCELOT_SPAN("codec.huffman");
      if (hist.empty()) {
        huffman_encode(codes, huff_sink);
      } else {
        huffman_encode(codes, hist, huff_sink);
      }
    }
    OCELOT_SPAN("codec.lossless");
    lossless_compress(*huff, lossless, out);
  }

  void decode_into(std::span<const std::uint8_t> payload,
                   std::vector<std::uint32_t>& out) const override {
    PooledBuffer huff(BufferPool::shared());
    lossless_decompress_into(payload, *huff);
    huffman_decode_into(*huff, out);
  }
};

}  // namespace

void reject_retired_entropy_id(std::uint8_t id) {
  if (const char* name = retired_stage_name(id))
    throw CorruptStream("retired entropy stage " + std::to_string(id) + " (" +
                        name + ")");
}

std::unique_ptr<EntropyStage> make_huffman_stage() {
  return std::make_unique<HuffmanLzbStage>();
}

// --- packed-section dispatch -----------------------------------------

void entropy_encode_codes(
    std::span<const std::uint32_t> codes, const EntropyStage& stage,
    LosslessBackend lossless, ByteSink& out,
    std::span<const std::pair<std::uint32_t, std::uint64_t>> hist) {
  // The huffman stage's lossless framing byte is the section's id byte.
  if (stage.wire_id() != kEntropyHuffmanId) out.put(stage.wire_id());
  stage.encode_into(codes, lossless, hist, out);
}

void entropy_decode_codes_into(std::span<const std::uint8_t> packed,
                               std::vector<std::uint32_t>& out) {
  if (packed.empty()) throw CorruptStream("entropy: empty codes section");
  const EntropyRegistry& registry = EntropyRegistry::instance();
  const std::uint8_t id = packed[0];
  if (id <= kMaxLegacyEntropyId) {
    // The id byte is the huffman stage's lossless backend id, so the
    // whole span is its payload.
    registry.by_id(kEntropyHuffmanId).decode_into(packed, out);
    return;
  }
  registry.by_id(id).decode_into(packed.subspan(1), out);
}

// --- registry --------------------------------------------------------

EntropyRegistry::EntropyRegistry() {
  add(make_huffman_stage());
  add(make_ans_stage());
}

EntropyRegistry& EntropyRegistry::instance() {
  static EntropyRegistry registry;
  return registry;
}

const EntropyStage& EntropyRegistry::add(std::unique_ptr<EntropyStage> stage) {
  require(stage != nullptr, "EntropyRegistry: null stage");
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string name = stage->name();
  const std::uint8_t id = stage->wire_id();
  require(!name.empty(), "EntropyRegistry: empty stage name");
  if (id != kEntropyHuffmanId && id <= kMaxLegacyEntropyId)
    throw InvalidArgument(
        "EntropyRegistry: wire ids 1-2 are reserved for the legacy "
        "lossless chain (" +
        name + ")");
  if (const char* retired = retired_stage_name(id))
    throw InvalidArgument("EntropyRegistry: wire id " + std::to_string(id) +
                          " belongs to the retired entropy stage " + retired +
                          " (" + name + ")");
  if (by_name_.count(name) > 0)
    throw InvalidArgument("EntropyRegistry: duplicate stage name " + name);
  if (by_id_.count(id) > 0)
    throw InvalidArgument("EntropyRegistry: duplicate stage wire id " +
                          std::to_string(id) + " (" + name + ")");
  const EntropyStage* raw = stage.get();
  by_id_[id] = std::move(stage);
  by_name_[name] = raw;
  return *raw;
}

const EntropyStage& EntropyRegistry::by_name(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    std::ostringstream msg;
    msg << "unknown entropy stage: " << name << " (registered:";
    for (const auto& [id, stage] : by_id_) msg << " " << stage->name();
    msg << ")";
    throw InvalidArgument(msg.str());
  }
  return *it->second;
}

const EntropyStage& EntropyRegistry::by_id(std::uint8_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    reject_retired_entropy_id(id);
    throw CorruptStream("entropy: unknown stage id " + std::to_string(id));
  }
  return *it->second;
}

const EntropyStage* EntropyRegistry::find(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const EntropyStage* EntropyRegistry::find_by_id(std::uint8_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second.get();
}

std::vector<const EntropyStage*> EntropyRegistry::list() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const EntropyStage*> stages;
  stages.reserve(by_id_.size());
  for (const auto& [id, stage] : by_id_) stages.push_back(stage.get());
  return stages;
}

}  // namespace ocelot
