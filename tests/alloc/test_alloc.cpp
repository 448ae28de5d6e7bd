/// Allocation budget of the behavioural hot paths: a passing precondition
/// check must not allocate, and neither may the per-bit, per-sample and
/// per-candidate calls the served encode_probe and evaluate_error spend
/// their time in. Each served cold endpoint also has a per-request
/// ceiling, so a per-sample allocation anywhere below dispatch() fails.
/// This binary replaces every global operator new/delete form with a
/// counting one, so it must stay its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "axc/accel/sad.hpp"
#include "axc/arith/adder.hpp"
#include "axc/arith/full_adder.hpp"
#include "axc/arith/gear.hpp"
#include "axc/arith/mul2x2.hpp"
#include "axc/arith/multiplier.hpp"
#include "axc/common/rng.hpp"
#include "axc/resilience/gear_sad.hpp"
#include "axc/service/endpoints.hpp"
#include "axc/service/protocol.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, align);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return counted_aligned_alloc(size, align);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace axc {
namespace {

using arith::FullAdderKind;

constexpr FullAdderKind kAllCells[] = {
    FullAdderKind::Accurate, FullAdderKind::Apx1, FullAdderKind::Apx2,
    FullAdderKind::Apx3,     FullAdderKind::Apx4, FullAdderKind::Apx5};

/// Heap allocations made while running \p body.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_allocations.load();
  body();
  return g_allocations.load() - before;
}

TEST(AllocationCounter, SeesHeapAllocations) {
  // Guards the guard: a counter that reads 0 for everything proves nothing.
  const std::uint64_t made = allocations_during([] {
    std::vector<int> v(100);
    ASSERT_EQ(v.size(), 100u);
  });
  EXPECT_EQ(made, 1u);
}

TEST(AllocationBudget, FullAddIsAllocationFree) {
  unsigned checksum = 0;
  const std::uint64_t made = allocations_during([&checksum] {
    for (const FullAdderKind kind : kAllCells) {
      for (unsigned row = 0; row < 8; ++row) {
        const auto out = arith::full_add(kind, row & 1u, (row >> 1) & 1u,
                                         (row >> 2) & 1u);
        checksum += out.sum + 2 * out.carry;
      }
    }
  });
  EXPECT_EQ(made, 0u);
  EXPECT_GT(checksum, 0u);
}

TEST(AllocationBudget, Mul2x2IsAllocationFree) {
  unsigned checksum = 0;
  const std::uint64_t made = allocations_during([&checksum] {
    for (const auto kind : {arith::Mul2x2Kind::Accurate,
                            arith::Mul2x2Kind::SoA, arith::Mul2x2Kind::Ours}) {
      for (unsigned a = 0; a < 4; ++a) {
        for (unsigned b = 0; b < 4; ++b) checksum += arith::mul2x2(kind, a, b);
      }
    }
  });
  EXPECT_EQ(made, 0u);
  EXPECT_GT(checksum, 0u);
}

TEST(AllocationBudget, RippleAddAndAbsDiffAreAllocationFree) {
  for (const FullAdderKind kind : kAllCells) {
    const auto adder = arith::RippleAdder::lsb_approximated(16, kind, 4);
    const auto subtractor = arith::RippleAdder::lsb_approximated(8, kind, 2);
    Rng rng(static_cast<std::uint64_t>(kind) + 1);
    std::uint64_t checksum = 0;
    const std::uint64_t made = allocations_during([&] {
      for (int i = 0; i < 256; ++i) {
        const std::uint64_t a = rng.bits(16), b = rng.bits(16);
        checksum += adder.add(a, b, static_cast<unsigned>(i & 1));
        checksum += arith::abs_diff_via(subtractor, a & 0xFF, b & 0xFF);
      }
    });
    EXPECT_EQ(made, 0u) << arith::full_adder_name(kind);
    EXPECT_GT(checksum, 0u);
  }
}

TEST(AllocationBudget, SadIsAllocationFree) {
  Rng rng(0x5AD);
  for (const unsigned block_pixels : {4u, 64u, 256u, 4096u}) {
    std::vector<std::uint8_t> a(block_pixels), b(block_pixels);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<std::uint8_t>(rng.bits(8));
      b[i] = static_cast<std::uint8_t>(rng.bits(8));
    }
    const accel::SadAccelerator exact(accel::accu_sad(block_pixels));
    for (int variant = 1; variant <= 5; ++variant) {
      const accel::SadAccelerator approx(
          accel::apx_sad_variant(variant, 4, block_pixels));
      std::uint64_t checksum = 0;
      const std::uint64_t made = allocations_during([&] {
        checksum += exact.sad(a, b);
        checksum += approx.sad(a, b);
      });
      EXPECT_EQ(made, 0u) << approx.config().name();
      EXPECT_GT(checksum, 0u);
    }
  }
}

TEST(AllocationBudget, MultiplyIsAllocationFreeFromItsFirstCall) {
  // The partial-product adders are built with the multiplier, so even the
  // first product (the first sample of a served evaluate_error) must not
  // allocate.
  for (const unsigned width : {4u, 8u, 16u}) {
    arith::MultiplierConfig config;
    config.width = width;
    config.block = arith::Mul2x2Kind::SoA;
    config.adder_cell = FullAdderKind::Apx3;
    config.approx_lsbs = width / 2;
    const arith::ApproxMultiplier multiplier(config);
    Rng rng(width);
    std::uint64_t checksum = 0;
    const std::uint64_t first = allocations_during(
        [&] { checksum += multiplier.multiply(rng.bits(width), 3); });
    EXPECT_EQ(first, 0u) << multiplier.name();
    const std::uint64_t later = allocations_during([&] {
      for (int i = 0; i < 256; ++i) {
        checksum += multiplier.multiply(rng.bits(width), rng.bits(width));
      }
    });
    EXPECT_EQ(later, 0u) << multiplier.name();
    EXPECT_GT(checksum, 0u);
  }
}

TEST(AllocationBudget, GearAddIsAllocationFreeAtEveryCorrectionDepth) {
  // 0, 1 and k-1 correction passes: the carry injections live in one
  // register, so no pass count may allocate. GeAr(63,1,1) has 62
  // sub-adders, the widest injection mask there is.
  for (const arith::GeArConfig config :
       {arith::GeArConfig{16, 4, 4}, arith::GeArConfig{12, 2, 2},
        arith::GeArConfig{63, 1, 1}}) {
    const unsigned k = config.num_subadders();
    for (const unsigned passes : {0u, 1u, k - 1}) {
      const arith::GeArAdder adder(config, passes);
      Rng rng(config.n * 100 + passes);
      std::uint64_t checksum = 0;
      const std::uint64_t made = allocations_during([&] {
        for (int i = 0; i < 256; ++i) {
          checksum += adder.add(rng.bits(config.n), rng.bits(config.n),
                                static_cast<unsigned>(i & 1));
        }
      });
      EXPECT_EQ(made, 0u) << adder.name();
      EXPECT_GT(checksum, 0u);
    }
  }
}

TEST(AllocationBudget, GearErrorDetectedIsAllocationFree) {
  const arith::GeArAdder adder({16, 2, 2});
  Rng rng(0xED);
  unsigned detected = 0;
  const std::uint64_t made = allocations_during([&] {
    for (int i = 0; i < 256; ++i) {
      detected += adder.error_detected(rng.bits(16), rng.bits(16)) ? 1 : 0;
    }
  });
  EXPECT_EQ(made, 0u);
  EXPECT_GT(detected, 0u);
}

TEST(AllocationBudget, GearSadIsAllocationFree) {
  Rng rng(0x6EA5);
  for (const unsigned block_pixels : {4u, 64u, 4096u}) {
    std::vector<std::uint8_t> a(block_pixels), b(block_pixels);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<std::uint8_t>(rng.bits(8));
      b[i] = static_cast<std::uint8_t>(rng.bits(8));
    }
    for (const unsigned corrections : {0u, 1u, 2u}) {
      const resilience::GearSad sad(block_pixels, {8, 2, 2}, corrections);
      std::uint64_t checksum = 0;
      const std::uint64_t made =
          allocations_during([&] { checksum += sad.sad(a, b); });
      EXPECT_EQ(made, 0u) << sad.name();
      EXPECT_GT(checksum, 0u);
    }
  }
}

TEST(AllocationBudget, GearPartialProductMultiplyIsAllocationFree) {
  for (const unsigned width : {4u, 8u, 16u}) {
    arith::MultiplierConfig config;
    config.width = width;
    config.adder_factory = arith::gear_partial_product_factory();
    const arith::ApproxMultiplier multiplier(config);
    Rng rng(width + 7);
    std::uint64_t checksum = 0;
    const std::uint64_t made = allocations_during([&] {
      for (int i = 0; i < 256; ++i) {
        checksum += multiplier.multiply(rng.bits(width), rng.bits(width));
      }
    });
    EXPECT_EQ(made, 0u) << multiplier.name();
    EXPECT_GT(checksum, 0u);
  }
}

// --- Per-request ceilings on the served cold endpoints ------------------
//
// Each case dispatches one request the way the service's worker does
// (eval_threads = 1). A warm-up call with another seed first fills the
// process-wide caches keyed by structure (the compiled-tape cache and the
// characterization memo's tables), as steady-state traffic finds them.
// The ceilings sit at about twice the counts measured when they were set,
// so a different standard library still passes while any allocation per
// sample, per candidate or per vector fails.

/// Builds the request under test from a seed (or threshold) salt.
using RequestFor = std::function<service::Bytes(std::uint64_t salt)>;

struct ServedCase {
  std::string label;
  RequestFor make;
  std::uint64_t ceiling;  ///< about twice the count when it was set
};

/// Heap allocations one dispatch() of make(2) makes after make(1) ran.
std::uint64_t served_allocations(const RequestFor& make) {
  const service::DispatchOptions options;  // eval_threads = 1
  const service::Bytes warm_up = make(1);
  const service::Bytes counted = make(2);
  const service::Bytes warm_response = service::dispatch(warm_up, options);
  EXPECT_TRUE(service::response_status(warm_response) == service::Status::Ok);
  service::Bytes response;
  const std::uint64_t made = allocations_during(
      [&] { response = service::dispatch(counted, options); });
  EXPECT_TRUE(service::response_status(response) == service::Status::Ok);
  return made;
}

void expect_ceilings(const std::vector<ServedCase>& cases) {
  for (const ServedCase& c : cases) {
    EXPECT_LE(served_allocations(c.make), c.ceiling) << c.label;
  }
}

TEST(ServedAllocationCeiling, EncodeProbe) {
  // 73 allocations per request for every SAD variant.
  std::vector<ServedCase> cases;
  for (const unsigned variant : {0u, 3u, 5u}) {
    cases.push_back({"variant " + std::to_string(variant),
                     [variant](std::uint64_t s) {
                       service::EncodeProbeRequest request;
                       request.width = 32;
                       request.height = 32;
                       request.frames = 2;
                       request.sequence_seed = s;
                       request.sad_variant =
                           static_cast<std::uint8_t>(variant);
                       request.approx_lsbs = variant == 0 ? 0 : 4;
                       return service::encode_request(request);
                     },
                     150});
  }
  expect_ceilings(cases);
}

RequestFor characterize_adder(service::AdderFamily family,
                              std::uint32_t width) {
  return [family, width](std::uint64_t s) {
    service::CharacterizeAdderRequest request;
    request.family = family;
    request.width = width;
    request.param_a = family == service::AdderFamily::Gear ? 2 : 4;
    request.param_b = 2;
    request.cell = arith::FullAdderKind::Apx3;
    request.vectors = 16384;
    request.seed = s;
    return service::encode_request(request);
  };
}

TEST(ServedAllocationCeiling, CharacterizeAdder) {
  // 50-81 allocations per request across families and widths.
  using service::AdderFamily;
  std::vector<ServedCase> cases;
  for (const AdderFamily family : {AdderFamily::Gear, AdderFamily::Loa,
                                   AdderFamily::Etai, AdderFamily::Ripple}) {
    for (const std::uint32_t width : {8u, 32u}) {
      cases.push_back({"family " + std::to_string(static_cast<int>(family)) +
                           " width " + std::to_string(width),
                       characterize_adder(family, width), 160});
    }
  }
  expect_ceilings(cases);
}

RequestFor characterize_multiplier(service::MultiplierStructure structure,
                                   std::uint32_t width) {
  return [structure, width](std::uint64_t s) {
    service::CharacterizeMultiplierRequest request;
    request.structure = structure;
    request.width = width;
    request.block = arith::Mul2x2Kind::Ours;
    request.cell = arith::FullAdderKind::Apx2;
    request.approx_lsbs = 4;
    request.vectors = 16384;
    request.seed = s;
    return service::encode_request(request);
  };
}

TEST(ServedAllocationCeiling, CharacterizeMultiplier) {
  using service::MultiplierStructure;
  expect_ceilings({
      {"recursive 8", characterize_multiplier(MultiplierStructure::Recursive, 8),
       210},  // 105
      {"recursive 16",
       characterize_multiplier(MultiplierStructure::Recursive, 16),
       550},  // 273
      {"wallace 8", characterize_multiplier(MultiplierStructure::Wallace, 8),
       480},  // 238
      {"wallace 16",
       characterize_multiplier(MultiplierStructure::Wallace, 16),
       1360},  // 679
  });
}

TEST(ServedAllocationCeiling, DesignSpaceSweeps) {
  // The sweeps characterize under a fixed seed, so the warm-up fills the
  // memo; the threshold makes each request unique, as in served traffic.
  const auto threshold = [](std::uint64_t s) {
    return 80.0 + static_cast<double>(s);
  };
  expect_ceilings({
      {"gear",
       [&](std::uint64_t s) {
         service::GearDesignSpaceRequest request;
         request.width = 10;
         request.estimate_power = true;
         request.min_accuracy = threshold(s);
         return service::encode_request(request);
       },
       1900},  // 945
      {"hetero",
       [&](std::uint64_t s) {
         service::HeteroAdderDesignSpaceRequest request;
         request.width = 12;
         request.estimate_power = true;
         request.min_accuracy = threshold(s);
         return service::encode_request(request);
       },
       800},  // 400
      {"array_mul",
       [&](std::uint64_t s) {
         service::ArrayMulDesignSpaceRequest request;
         request.width = 8;
         request.estimate_power = true;
         request.min_accuracy = threshold(s);
         return service::encode_request(request);
       },
       17200},  // 8,575
      {"static_adder",
       [&](std::uint64_t s) {
         service::StaticAdderDesignSpaceRequest request;
         request.width = 16;
         request.estimate_power = true;
         request.min_accuracy = threshold(s);
         return service::encode_request(request);
       },
       2800},  // 1,377
  });
}

RequestFor evaluate_multiplier(std::uint32_t width) {
  return [width](std::uint64_t s) {
    service::EvaluateErrorRequest request;
    request.target = service::EvalTarget::Multiplier;
    request.mul_width = width;
    request.mul_block = arith::Mul2x2Kind::SoA;
    request.mul_cell = arith::FullAdderKind::Apx4;
    request.mul_approx_lsbs = width;
    request.max_exhaustive_bits = 8;
    request.samples = 1u << 14;
    request.seed = s;
    return service::encode_request(request);
  };
}

TEST(ServedAllocationCeiling, EvaluateErrorOnMultipliers) {
  // 4x4 is exhaustive, 8x8 sampled (2^14 samples); the per-sample work
  // allocates nothing, so the count is the request's fixed cost.
  expect_ceilings({{"4x4", evaluate_multiplier(4), 34},    // 17
                   {"8x8", evaluate_multiplier(8), 54}});  // 27
}

TEST(ServedAllocationCeiling, EvaluateErrorOnGear) {
  // 11 allocations per request, exhaustive (16 input bits) or sampled
  // (2^15 samples), at 0, 1 and k-1 correction passes: the count must not
  // grow with samples or passes. The ceiling is 16, under twice that.
  // When GeArAdder::add heap-allocated its carry injections, these cases
  // made 32,779 to 143,371.
  std::vector<ServedCase> cases;
  for (const arith::GeArConfig config :
       {arith::GeArConfig{8, 2, 2}, arith::GeArConfig{16, 4, 4},
        arith::GeArConfig{12, 1, 3}}) {
    for (const std::uint32_t passes : {0u, 1u, config.num_subadders() - 1}) {
      cases.push_back({config.name() + " passes " + std::to_string(passes),
                       [config, passes](std::uint64_t s) {
                         service::EvaluateErrorRequest request;
                         request.target = service::EvalTarget::GearAdder;
                         request.gear = config;
                         request.correction_iterations = passes;
                         request.max_exhaustive_bits = 16;
                         request.samples = 1u << 15;
                         request.seed = s;
                         return service::encode_request(request);
                       },
                       16});
    }
  }
  expect_ceilings(cases);
}

}  // namespace
}  // namespace axc
