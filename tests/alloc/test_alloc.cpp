/// Allocation budget of the behavioural hot paths: a passing precondition
/// check must not allocate, and neither may the per-bit, per-sample and
/// per-candidate calls the served encode_probe and evaluate_error spend
/// their time in. This binary replaces every global operator new/delete
/// form with a counting one, so it must stay its own test executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "axc/accel/sad.hpp"
#include "axc/arith/adder.hpp"
#include "axc/arith/full_adder.hpp"
#include "axc/arith/mul2x2.hpp"
#include "axc/arith/multiplier.hpp"
#include "axc/common/rng.hpp"

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

}  // namespace
}  // namespace axc
