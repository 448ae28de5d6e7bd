#include "axc/arith/gear.hpp"

#include <gtest/gtest.h>

#include <set>

#include "axc/common/bits.hpp"
#include "axc/common/rng.hpp"

namespace axc::arith {
namespace {

TEST(GeArConfig, GeometryFollowsPaperFormulas) {
  // The paper's illustration: N=12, R=4, P=4 -> L=8, k=((12-8)/4)+1=2.
  const GeArConfig config{12, 4, 4};
  ASSERT_TRUE(config.is_valid());
  EXPECT_EQ(config.l(), 8u);
  EXPECT_EQ(config.num_subadders(), 2u);
  EXPECT_EQ(config.name(), "GeAr(N=12,R=4,P=4)");
}

TEST(GeArConfig, ValidityRules) {
  EXPECT_TRUE((GeArConfig{8, 2, 2}).is_valid());
  EXPECT_TRUE((GeArConfig{8, 3, 2}).is_valid());   // (8-5) % 3 == 0
  EXPECT_FALSE((GeArConfig{8, 3, 3}).is_valid());  // (8-6) % 3 != 0
  EXPECT_FALSE((GeArConfig{8, 0, 4}).is_valid());  // R >= 1
  EXPECT_FALSE((GeArConfig{8, 4, 8}).is_valid());  // L > N
  EXPECT_TRUE((GeArConfig{8, 4, 4}).is_valid());   // L == N: exact
  EXPECT_TRUE((GeArConfig{8, 4, 4}).is_exact());
}

TEST(GeArConfig, Enumerate11BitSpace) {
  // The Table IV space: all valid approximate (R, P) pairs with P >= 1 for
  // N = 11. Derived by hand: R=1 -> P in 1..9; R=2 -> P in {1,3,5,7};
  // R=3 -> {2,5}; R=4 -> {3}; R=5 -> {1}. Total 17.
  const auto configs = enumerate_gear_configs(11);
  EXPECT_EQ(configs.size(), 17u);
  std::set<std::pair<unsigned, unsigned>> rp;
  for (const auto& c : configs) {
    EXPECT_TRUE(c.is_valid());
    EXPECT_FALSE(c.is_exact());
    EXPECT_EQ(c.n, 11u);
    rp.insert({c.r, c.p});
  }
  EXPECT_EQ(rp.size(), configs.size());  // no duplicates
  EXPECT_TRUE(rp.count({3, 5}));         // the paper's selected config
  EXPECT_TRUE(rp.count({1, 9}));         // the max-accuracy config
}

TEST(GeArConfig, EnumerateIncludesExactWhenAsked) {
  const auto with_exact = enumerate_gear_configs(11, 1, true);
  const auto without = enumerate_gear_configs(11, 1, false);
  EXPECT_GT(with_exact.size(), without.size());
  bool found_exact = false;
  for (const auto& c : with_exact) found_exact |= c.is_exact();
  EXPECT_TRUE(found_exact);
}

TEST(GeArAdder, PaperIllustrationExample) {
  // Fig. 3 example shape: the approximate sum drops the carry crossing the
  // sub-adder boundary when the prediction window cannot see it.
  const GeArAdder adder({12, 4, 4});
  // Case with no boundary-crossing carry: exact.
  EXPECT_EQ(adder.add(0x0F0, 0x00F, 0), 0x0FFull);
  // Both operands max: carries everywhere, still exact because every
  // prediction window sees the generating bits.
  EXPECT_EQ(adder.add(0xFFF, 0xFFF, 0), 0xFFFull + 0xFFFull);
}

TEST(GeArAdder, KnownErrorCase) {
  // N=8, R=2, P=2 (L=4, k=3). Operands chosen so a carry is generated in
  // sub-adder 1's low bits and the second window's P bits all propagate:
  // a = 0b00001111, b = 0b00110001: exact sum = 0x40.
  // Sub-adder 2 covers bits 2..5 = a:0b0011, b:0b1100 -> no carry seen from
  // bits 0..1 (a=11, b=01 generates one), P bits (2,3) propagate => error.
  const GeArAdder adder({8, 2, 2});
  const std::uint64_t a = 0x0F, b = 0x31;
  EXPECT_TRUE(adder.error_detected(a, b));
  EXPECT_NE(adder.add(a, b, 0), a + b);
}

// Exhaustive ground truth for small widths: the approximate result must
// equal the reference model computed directly from the definition.
class GeArExhaustive : public ::testing::TestWithParam<GeArConfig> {};

std::uint64_t reference_gear(const GeArConfig& c, std::uint64_t a,
                             std::uint64_t b) {
  const unsigned l = c.l();
  std::uint64_t sum = 0;
  for (unsigned i = 0; i < c.num_subadders(); ++i) {
    const unsigned start = i * c.r;
    const std::uint64_t mask = (std::uint64_t{1} << l) - 1;
    const std::uint64_t window =
        ((a >> start) & mask) + ((b >> start) & mask);
    if (i == 0) {
      sum |= window & mask;
    } else {
      for (unsigned bit = c.p; bit < l; ++bit) {
        sum |= ((window >> bit) & 1u) << (start + bit);
      }
    }
    if (i == c.num_subadders() - 1) sum |= ((window >> l) & 1u) << c.n;
  }
  return sum;
}

TEST_P(GeArExhaustive, MatchesDefinitionForAllInputs) {
  const GeArConfig config = GetParam();
  const GeArAdder adder(config);
  const std::uint64_t limit = std::uint64_t{1} << config.n;
  for (std::uint64_t a = 0; a < limit; ++a) {
    for (std::uint64_t b = 0; b < limit; ++b) {
      ASSERT_EQ(adder.add(a, b, 0), reference_gear(config, a, b))
          << config.name() << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallConfigs, GeArExhaustive,
    ::testing::Values(GeArConfig{6, 1, 1}, GeArConfig{6, 2, 2},
                      GeArConfig{6, 1, 3}, GeArConfig{8, 2, 2},
                      GeArConfig{8, 4, 4}, GeArConfig{8, 2, 4},
                      GeArConfig{8, 1, 1}, GeArConfig{7, 3, 1}),
    [](const auto& info) {
      const auto& c = info.param;
      return "N" + std::to_string(c.n) + "R" + std::to_string(c.r) + "P" +
             std::to_string(c.p);
    });

// Full error correction (k-1 iterations) must be bit-exact everywhere.
class GeArCorrection : public ::testing::TestWithParam<GeArConfig> {};

TEST_P(GeArCorrection, FullCorrectionIsExact) {
  const GeArConfig config = GetParam();
  const GeArAdder corrected(config, config.num_subadders() - 1);
  EXPECT_TRUE(corrected.is_exact());
  const std::uint64_t limit = std::uint64_t{1} << config.n;
  for (std::uint64_t a = 0; a < limit; ++a) {
    for (std::uint64_t b = 0; b < limit; ++b) {
      ASSERT_EQ(corrected.add(a, b, 0), a + b)
          << config.name() << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallConfigs, GeArCorrection,
    ::testing::Values(GeArConfig{6, 1, 1}, GeArConfig{8, 2, 2},
                      GeArConfig{8, 1, 1}, GeArConfig{8, 2, 4},
                      GeArConfig{10, 2, 2}),
    [](const auto& info) {
      const auto& c = info.param;
      return "N" + std::to_string(c.n) + "R" + std::to_string(c.r) + "P" +
             std::to_string(c.p);
    });

TEST(GeArAdder, PartialCorrectionMonotonicallyImproves) {
  const GeArConfig config{16, 2, 2};
  Rng rng(21);
  double previous_rate = 1.1;
  for (unsigned iters = 0; iters < config.num_subadders(); ++iters) {
    const GeArAdder adder(config, iters);
    int errors = 0;
    Rng local(21);
    constexpr int kSamples = 20000;
    for (int i = 0; i < kSamples; ++i) {
      const std::uint64_t a = local.bits(16);
      const std::uint64_t b = local.bits(16);
      errors += adder.add(a, b, 0) != a + b;
    }
    const double rate = static_cast<double>(errors) / kSamples;
    EXPECT_LE(rate, previous_rate) << "iters " << iters;
    previous_rate = rate;
  }
  // And the final iteration count gives zero errors.
  EXPECT_EQ(previous_rate, 0.0);
}

TEST(GeArAdder, ErrorDetectedIffResultWrong) {
  // Detection must be sound & complete: flag raised exactly when the
  // uncorrected output differs from the exact sum.
  const GeArAdder adder({8, 2, 2});
  for (std::uint64_t a = 0; a < 256; ++a) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      const bool wrong = adder.add(a, b, 0) != a + b;
      ASSERT_EQ(adder.error_detected(a, b), wrong) << a << " " << b;
    }
  }
}

TEST(GeArAdder, CarryInSupported) {
  const GeArAdder adder({8, 4, 4});  // exact config
  EXPECT_EQ(adder.add(10, 20, 1), 31u);
}

TEST(GeArAdder, InvalidConfigRejected) {
  EXPECT_THROW(GeArAdder({8, 3, 3}), std::invalid_argument);
}

TEST(GeArAdder, NameEncodesConfigAndCorrection) {
  EXPECT_EQ(GeArAdder({8, 2, 2}).name(), "GeAr(N=8,R=2,P=2)");
  EXPECT_EQ(GeArAdder({8, 2, 2}, 1).name(), "GeAr(N=8,R=2,P=2)+EDC1");
}

// --- Correction semantics (CEC, Sec. 6.1) ------------------------------

TEST(GeArCorrectionSemantics, FullCorrectionExhaustiveSmallWidthsWithCarry) {
  // k-1 correction passes must be bit-exact for every operand pair AND
  // both carry-in values, across every valid config at small widths.
  for (const unsigned n : {4u, 5u, 6u, 7u, 8u}) {
    for (const GeArConfig& config : enumerate_gear_configs(n)) {
      const GeArAdder corrected(config, config.num_subadders() - 1);
      ASSERT_TRUE(corrected.is_exact()) << config.name();
      const std::uint64_t limit = std::uint64_t{1} << n;
      for (std::uint64_t a = 0; a < limit; ++a) {
        for (std::uint64_t b = 0; b < limit; ++b) {
          ASSERT_EQ(corrected.add(a, b, 0), a + b) << config.name();
          ASSERT_EQ(corrected.add(a, b, 1), a + b + 1) << config.name();
        }
      }
    }
  }
}

TEST(GeArCorrectionSemantics, FullCorrectionRandomizedLargeWidths) {
  // The exhaustive sweep cannot reach wide operands; randomized coverage
  // at N=32 and the maximum N=63 guards the shift/mask plumbing there.
  // GeAr(63,1,1) has 62 sub-adders, the most any P >= 1 configuration
  // has, so a carry-injection mask shifted in 32-bit arithmetic fails it.
  for (const GeArConfig config :
       {GeArConfig{32, 4, 4}, GeArConfig{63, 5, 3}, GeArConfig{48, 2, 2},
        GeArConfig{63, 1, 1}}) {
    ASSERT_TRUE(config.is_valid()) << config.name();
    const GeArAdder corrected(config, config.num_subadders() - 1);
    EXPECT_TRUE(corrected.is_exact()) << config.name();
    const GeArAdder one_short(config, config.num_subadders() - 2);
    EXPECT_FALSE(one_short.is_exact()) << config.name();
    Rng rng(0xC0FFEEu + config.n);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t a = rng.bits(config.n);
      const std::uint64_t b = rng.bits(config.n);
      const unsigned cin = static_cast<unsigned>(rng.bits(1));
      ASSERT_EQ(corrected.add(a, b, cin), a + b + cin)
          << config.name() << " a=" << a << " b=" << b << " cin=" << cin;
    }
  }
}

/// Reference for what the EDC hardware observes at sub-adder \p i (1-based):
/// its emitted top-R bits change when the previous window's carry-out is
/// applied to the prediction window.
bool observed_subadder_error(const GeArConfig& c, std::uint64_t a,
                             std::uint64_t b, unsigned i) {
  const unsigned l = c.l();
  const std::uint64_t win =
      bit_field(a, i * c.r, l) + bit_field(b, i * c.r, l);
  const std::uint64_t prev =
      bit_field(a, (i - 1) * c.r, l) + bit_field(b, (i - 1) * c.r, l);
  const std::uint64_t cout_prev = bit_of(prev, l);
  return bit_field(win, c.p, c.r) != bit_field(win + cout_prev, c.p, c.r);
}

TEST(GeArCorrectionSemantics, ErrorFlagsAgreeWithObservedSubAdderErrors) {
  // error_flags()[i-1] must equal the observable fact "sub-adder i's
  // result bits are wrong given its neighbour's carry" — exhaustively for
  // 8-bit configs, randomized at 16 bits.
  for (const GeArConfig& config : enumerate_gear_configs(8)) {
    const GeArAdder adder(config);
    for (std::uint64_t a = 0; a < 256; ++a) {
      for (std::uint64_t b = 0; b < 256; ++b) {
        const std::vector<bool> flags = adder.error_flags(a, b);
        ASSERT_EQ(flags.size(), config.num_subadders() - 1);
        for (unsigned i = 1; i < config.num_subadders(); ++i) {
          ASSERT_EQ(flags[i - 1], observed_subadder_error(config, a, b, i))
              << config.name() << " a=" << a << " b=" << b << " sub " << i;
        }
      }
    }
  }
  const GeArConfig config{16, 2, 2};
  const GeArAdder adder(config);
  Rng rng(404);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::uint64_t a = rng.bits(16);
    const std::uint64_t b = rng.bits(16);
    const std::vector<bool> flags = adder.error_flags(a, b);
    for (unsigned i = 1; i < config.num_subadders(); ++i) {
      ASSERT_EQ(flags[i - 1], observed_subadder_error(config, a, b, i));
    }
  }
}

TEST(GeArCorrectionSemantics, ErrorDetectedMatchesAnyFlagAndObservedError) {
  const GeArAdder adder({8, 1, 2});
  for (std::uint64_t a = 0; a < 256; ++a) {
    for (std::uint64_t b = 0; b < 256; ++b) {
      const std::vector<bool> flags = adder.error_flags(a, b);
      bool any = false;
      for (const bool f : flags) any = any || f;
      ASSERT_EQ(adder.error_detected(a, b), any);
      ASSERT_EQ(any, adder.add(a, b, 0) != a + b) << a << " " << b;
    }
  }
}

}  // namespace
}  // namespace axc::arith
