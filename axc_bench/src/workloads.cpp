// Seeded traffic of the four workloads.
//
// The configuration mix of every workload is a fixed cycle over the
// request index, so two seeds send the same mix of endpoints, widths and
// variants and differ only in seeds and selection thresholds. That keeps
// the per-run cost mix, and with it the run-to-run spread, independent of
// the seed while the request bytes (and so the cache keys) stay unique.
#include <array>
#include <iterator>
#include <set>

#include "axc/arith/gear.hpp"
#include "axc/common/rng.hpp"
#include "bench.hpp"

namespace axc_bench {

namespace svc = axc::service;
using axc::arith::FullAdderKind;
using axc::arith::GeArConfig;
using axc::arith::Mul2x2Kind;

namespace {

/// Per-seed salt: XOR-ed with a request index it gives a seed field that is
/// distinct for every index.
std::uint64_t salt(std::uint64_t seed, std::uint64_t stream) {
  axc::Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng();
}

/// A selection threshold in [60, 99) that is distinct for every index.
double unique_threshold(std::uint64_t seed, std::uint64_t index) {
  axc::Rng rng(salt(seed, 7) ^ index);
  return 60.0 + static_cast<double>(rng.below(3900)) / 100.0 +
         static_cast<double>(index) * 1e-9;
}

FullAdderKind cell_kind(std::uint64_t k) {
  return static_cast<FullAdderKind>(k % axc::arith::kFullAdderKindCount);
}

Mul2x2Kind block_kind(std::uint64_t k) {
  return axc::arith::kAllMul2x2Kinds[k % axc::arith::kMul2x2KindCount];
}

/// Valid GeAr configurations (P >= 1) of every width the workloads use.
const std::vector<GeArConfig>& gear_configs(unsigned width) {
  static const std::array<std::vector<GeArConfig>, 33> table = [] {
    std::array<std::vector<GeArConfig>, 33> out;
    for (unsigned n = 2; n <= 32; ++n) {
      out[n] = axc::arith::enumerate_gear_configs(n, 1, false);
    }
    return out;
  }();
  return table[width];
}

Bytes encode_cold_request(std::uint64_t seed, std::uint64_t index) {
  static constexpr std::uint8_t kLsbs[] = {0, 2, 4};
  svc::EncodeProbeRequest request;
  request.width = 32;
  request.height = 32;
  request.frames = 2;
  request.objects = 2;
  request.sequence_seed = salt(seed, 1) ^ index;
  request.sad_variant = static_cast<std::uint8_t>(index % 6);
  request.approx_lsbs = kLsbs[(index / 6) % 3];
  request.block_size = 8;
  request.search_range = 2;
  request.quant_step = 8;
  return svc::encode_request(request);
}

Bytes characterize_adder(std::uint64_t seed, std::uint64_t index,
                         std::uint64_t round, svc::AdderFamily family) {
  static constexpr unsigned kWidths[] = {8, 12, 16, 20, 24, 28, 32};
  svc::CharacterizeAdderRequest request;
  request.family = family;
  request.width = kWidths[round % std::size(kWidths)];
  request.vectors = 16384;
  request.seed = salt(seed, 2) ^ index;
  if (family == svc::AdderFamily::Gear) {
    const auto& configs = gear_configs(request.width);
    const GeArConfig config = configs[(round / 7) % configs.size()];
    request.param_a = config.r;
    request.param_b = config.p;
  } else {
    request.param_a = static_cast<std::uint32_t>(
        1 + (round / 7) % (request.width / 2));
    request.cell = cell_kind(round);
  }
  return svc::encode_request(request);
}

Bytes characterize_multiplier(std::uint64_t seed, std::uint64_t index,
                              std::uint64_t round,
                              svc::MultiplierStructure structure) {
  svc::CharacterizeMultiplierRequest request;
  request.structure = structure;
  request.width = round % 3 == 2 ? 16 : 8;
  request.block = block_kind(round);
  request.cell = cell_kind(round / 3);
  request.approx_lsbs = static_cast<std::uint32_t>((round / 2) % 9);
  request.vectors = 16384;
  request.seed = salt(seed, 3) ^ index;
  return svc::encode_request(request);
}

Bytes design_space_sweep(std::uint64_t seed, std::uint64_t index,
                         std::uint64_t sweep) {
  const double threshold = unique_threshold(seed, index);
  const std::uint64_t grid = sweep / 4;
  switch (sweep % 4) {
    case 0: {
      svc::GearDesignSpaceRequest request;
      request.width = static_cast<std::uint32_t>(8 + grid % 5);
      request.estimate_power = true;
      request.min_accuracy = threshold;
      return svc::encode_request(request);
    }
    case 1: {
      svc::HeteroAdderDesignSpaceRequest request;
      request.width = static_cast<std::uint32_t>(8 + 4 * (grid % 3));
      request.block_width = grid % 2 == 0 ? 4 : 2;
      request.estimate_power = true;
      request.min_accuracy = threshold;
      return svc::encode_request(request);
    }
    case 2: {
      svc::ArrayMulDesignSpaceRequest request;
      request.width = grid % 2 == 0 ? 8 : 4;
      request.max_approx_columns = (grid / 2) % 2 == 0 ? 8 : 4;
      request.estimate_power = true;
      request.min_accuracy = threshold;
      return svc::encode_request(request);
    }
    default: {
      svc::StaticAdderDesignSpaceRequest request;
      request.width = grid % 2 == 0 ? 16 : 8;
      request.max_approx_lsbs = (grid / 2) % 2 == 0 ? 8 : 4;
      request.estimate_power = true;
      request.min_accuracy = threshold;
      return svc::encode_request(request);
    }
  }
}

/// 70% characterization (slots 0-6 of every ten), 30% design-space sweeps
/// (slots 7-9), each kind cycling through its widths and variants.
Bytes gate_cold_request(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t slot = index % 10;
  const std::uint64_t round = index / 10;
  switch (slot) {
    case 0:
      return characterize_adder(seed, index, round, svc::AdderFamily::Gear);
    case 1:
      return characterize_adder(seed, index, round, svc::AdderFamily::Loa);
    case 2:
      return characterize_multiplier(seed, index, round,
                                     svc::MultiplierStructure::Recursive);
    case 3:
      return characterize_adder(seed, index, round, svc::AdderFamily::Etai);
    case 4:
      return characterize_adder(seed, index, round, svc::AdderFamily::Ripple);
    case 5:
      return characterize_multiplier(seed, index, round,
                                     svc::MultiplierStructure::Wallace);
    case 6:
      return characterize_adder(seed, index, round,
                                static_cast<svc::AdderFamily>(round % 4));
    default:
      return design_space_sweep(seed, index, 3 * round + (slot - 7));
  }
}

/// GeAr adders n = 8..16 (exhaustive up to 16 input bits, else 2^15
/// samples) and recursive multipliers (4x4 exhaustive, 8x8 on 2^14
/// samples), half each.
Bytes error_cold_request(std::uint64_t seed, std::uint64_t index) {
  svc::EvaluateErrorRequest request;
  request.seed = salt(seed, 4) ^ index;
  const std::uint64_t round = index / 4;
  if (index % 4 < 2) {
    const unsigned n = static_cast<unsigned>(8 + round % 9);
    const auto& configs = gear_configs(n);
    request.target = svc::EvalTarget::GearAdder;
    request.gear = configs[(round / 9) % configs.size()];
    request.correction_iterations = static_cast<std::uint32_t>(index % 2);
    request.max_exhaustive_bits = 16;
    request.samples = 1u << 15;
  } else {
    request.target = svc::EvalTarget::Multiplier;
    request.mul_width = index % 4 == 2 ? 4 : 8;
    request.mul_block = block_kind(round);
    request.mul_cell = cell_kind(round / 3);
    request.mul_approx_lsbs =
        static_cast<std::uint32_t>((round / 2) % (request.mul_width + 1));
    request.max_exhaustive_bits = 8;
    request.samples = 1u << 14;
  }
  return svc::encode_request(request);
}

}  // namespace

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::EncodeCold:
      return "encode_cold";
    case Workload::GateCold:
      return "gate_cold";
    case Workload::ErrorCold:
      return "error_cold";
    case Workload::CacheHot:
      return "cache_hot";
  }
  return "unknown";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload workload : kWorkloads) {
    if (workload_name(workload) == name) return workload;
  }
  return std::nullopt;
}

unsigned pipeline_depth(Workload workload) {
  return workload == Workload::CacheHot ? 8 : 1;
}

Bytes cold_request(Workload workload, std::uint64_t seed,
                   std::uint64_t index) {
  switch (workload) {
    case Workload::EncodeCold:
      return encode_cold_request(seed, index);
    case Workload::GateCold:
      return gate_cold_request(seed, index);
    case Workload::ErrorCold:
      return error_cold_request(seed, index);
    case Workload::CacheHot:
      break;
  }
  return {};
}

std::vector<Bytes> hot_pool(std::uint64_t seed) {
  std::vector<Bytes> pool;
  pool.reserve(kHotPoolSize);
  const std::uint64_t base = salt(seed, 5);
  for (std::uint64_t s = 0; s < kHotPoolSize; ++s) {
    const std::uint64_t k = s / 8;
    const double threshold = unique_threshold(seed, s);
    switch (s % 8) {
      case 0: {
        svc::CharacterizeAdderRequest request;
        request.family = static_cast<svc::AdderFamily>(k % 4);
        request.width = 8;
        request.param_a = 2;
        request.param_b = 2;
        request.cell = cell_kind(k);
        request.vectors = 64;
        request.seed = base ^ s;
        pool.push_back(svc::encode_request(request));
        break;
      }
      case 1: {
        svc::CharacterizeMultiplierRequest request;
        request.width = 4;
        request.block = block_kind(k);
        request.cell = cell_kind(k / 3);
        request.vectors = 64;
        request.seed = base ^ s;
        pool.push_back(svc::encode_request(request));
        break;
      }
      case 2: {
        svc::EvaluateErrorRequest request;
        request.gear = GeArConfig{8, 2, 2};
        request.max_exhaustive_bits = 0;
        request.samples = 512;
        request.seed = base ^ s;
        pool.push_back(svc::encode_request(request));
        break;
      }
      case 3: {
        svc::GearDesignSpaceRequest request;
        request.width = 6;
        request.min_accuracy = threshold;
        pool.push_back(svc::encode_request(request));
        break;
      }
      case 4: {
        svc::HeteroAdderDesignSpaceRequest request;
        request.width = 8;
        request.block_width = 4;
        request.min_accuracy = threshold;
        pool.push_back(svc::encode_request(request));
        break;
      }
      case 5: {
        svc::ArrayMulDesignSpaceRequest request;
        request.width = 4;
        request.max_approx_columns = 4;
        request.min_accuracy = threshold;
        pool.push_back(svc::encode_request(request));
        break;
      }
      case 6: {
        svc::StaticAdderDesignSpaceRequest request;
        request.width = 8;
        request.max_approx_lsbs = 4;
        request.min_accuracy = threshold;
        pool.push_back(svc::encode_request(request));
        break;
      }
      default: {
        svc::EncodeProbeRequest request;
        request.width = 16;
        request.height = 16;
        request.frames = 2;
        request.objects = 1;
        request.sequence_seed = base ^ s;
        request.sad_variant = static_cast<std::uint8_t>(k % 6);
        request.search_range = 1;
        pool.push_back(svc::encode_request(request));
        break;
      }
    }
  }
  return pool;
}

std::size_t hot_slot(std::uint64_t seed, std::uint64_t index) {
  axc::Rng rng(salt(seed, 6) ^ index);
  return static_cast<std::size_t>(rng.below(kHotPoolSize));
}

std::vector<std::uint64_t> seeded_sample(std::uint64_t seed,
                                         std::uint64_t limit,
                                         std::size_t count) {
  std::set<std::uint64_t> picked;
  if (count >= limit) {
    for (std::uint64_t i = 0; i < limit; ++i) picked.insert(i);
  } else {
    axc::Rng rng(salt(seed, 8));
    while (picked.size() < count) picked.insert(rng.below(limit));
  }
  return {picked.begin(), picked.end()};
}

}  // namespace axc_bench
