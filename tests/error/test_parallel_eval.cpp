#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <vector>

#include "axc/arith/adder.hpp"
#include "axc/arith/gear.hpp"
#include "axc/arith/multiplier.hpp"
#include "axc/common/rng.hpp"
#include "axc/error/distribution.hpp"
#include "axc/error/evaluate.hpp"
#include "axc/error/metrics.hpp"
#include "axc/error/parallel.hpp"

namespace axc::error {
namespace {

void expect_identical_stats(const ErrorStats& a, const ErrorStats& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.error_count, b.error_count);
  EXPECT_EQ(a.max_error, b.max_error);
  EXPECT_EQ(a.exhaustive, b.exhaustive);
  // Bit-identical, not approximately equal: the fixed chunk grid and
  // in-order reduction make the summation order independent of the thread
  // count, so every derived double must match exactly.
  EXPECT_EQ(a.error_rate, b.error_rate);
  EXPECT_EQ(a.mean_error_distance, b.mean_error_distance);
  EXPECT_EQ(a.normalized_med, b.normalized_med);
  EXPECT_EQ(a.mean_relative_error, b.mean_relative_error);
  EXPECT_EQ(a.mean_squared_error, b.mean_squared_error);
  EXPECT_EQ(a.root_mean_squared_error, b.root_mean_squared_error);
}

// --- Thread-count invariance ----------------------------------------------

TEST(ParallelEvaluate, AdderExhaustiveThreadInvariant) {
  // 10-bit operands: 2^20 inputs = 16 chunks of 2^16 — a real multi-chunk
  // exhaustive sweep.
  const arith::GeArAdder adder({10, 2, 2});
  EvalOptions options;
  options.max_exhaustive_bits = 22;
  std::vector<ErrorStats> runs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    options.threads = threads;
    runs.push_back(evaluate_adder(adder, options));
  }
  EXPECT_TRUE(runs[0].exhaustive);
  expect_identical_stats(runs[0], runs[1]);
  expect_identical_stats(runs[0], runs[2]);
}

TEST(ParallelEvaluate, AdderSampledThreadInvariant) {
  // 16-bit operands with a low exhaustive cutoff force the sampled path:
  // 2^18 samples = 4 chunks, each with its own derived sub-seed.
  const arith::GeArAdder adder({16, 4, 4});
  EvalOptions options;
  options.max_exhaustive_bits = 8;
  options.samples = std::uint64_t{1} << 18;
  options.seed = 0xDECAF;
  std::vector<ErrorStats> runs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    options.threads = threads;
    runs.push_back(evaluate_adder(adder, options));
  }
  EXPECT_FALSE(runs[0].exhaustive);
  EXPECT_GT(runs[0].error_count, 0u);
  expect_identical_stats(runs[0], runs[1]);
  expect_identical_stats(runs[0], runs[2]);
}

TEST(ParallelEvaluate, MultiplierSampledThreadInvariant) {
  arith::MultiplierConfig config;
  config.width = 8;
  config.block = arith::Mul2x2Kind::SoA;
  const arith::ApproxMultiplier multiplier(config);
  EvalOptions options;
  options.max_exhaustive_bits = 8;  // 16 input bits > 8: forces sampling
  options.samples = std::uint64_t{1} << 17;
  options.seed = 0xB0B;
  std::vector<ErrorStats> runs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    options.threads = threads;
    runs.push_back(evaluate_multiplier(multiplier, options));
  }
  EXPECT_FALSE(runs[0].exhaustive);
  EXPECT_GT(runs[0].error_count, 0u);
  expect_identical_stats(runs[0], runs[1]);
  expect_identical_stats(runs[0], runs[2]);
}

TEST(ParallelEvaluate, FreshMultiplierSampledThreadInvariant) {
  // The served evaluate_error builds a new multiplier per request, so its
  // first products run on every evaluation thread at once. Compare fresh
  // multipliers; a warmed one hides any state built on first use.
  arith::MultiplierConfig config;
  config.width = 16;
  config.block = arith::Mul2x2Kind::SoA;
  config.adder_cell = arith::FullAdderKind::Apx3;
  config.approx_lsbs = 8;
  EvalOptions options;
  options.max_exhaustive_bits = 8;
  options.samples = std::uint64_t{1} << 18;  // 4 chunks of 2^16
  options.seed = 0xF4E5;
  std::vector<ErrorStats> runs;
  for (const unsigned threads : {1u, 4u}) {
    options.threads = threads;
    const arith::ApproxMultiplier fresh(config);
    runs.push_back(evaluate_multiplier(fresh, options));
  }
  EXPECT_FALSE(runs[0].exhaustive);
  EXPECT_GT(runs[0].error_count, 0u);
  expect_identical_stats(runs[0], runs[1]);
}

TEST(ParallelEvaluate, PartialFinalChunkThreadInvariant) {
  // A sample count that is not a multiple of the chunk size exercises the
  // short final chunk.
  const arith::GeArAdder adder({12, 2, 2});
  EvalOptions options;
  options.max_exhaustive_bits = 8;
  options.samples = (std::uint64_t{1} << 17) + 12345;
  std::vector<ErrorStats> runs;
  for (const unsigned threads : {1u, 3u, 16u}) {
    options.threads = threads;
    runs.push_back(evaluate_adder(adder, options));
  }
  EXPECT_EQ(runs[0].samples, options.samples);
  expect_identical_stats(runs[0], runs[1]);
  expect_identical_stats(runs[0], runs[2]);
}

// --- ErrorAccumulator::merge ----------------------------------------------

TEST(ParallelEvaluate, AccumulatorMergeMatchesSingleShot) {
  const arith::RippleAdder adder = arith::RippleAdder::lsb_approximated(
      8, arith::FullAdderKind::Apx3, 4);
  const arith::ExactAdder exact(8);
  const std::uint64_t ceiling = exact.add(0xFF, 0xFF, 0);

  // Single-shot accumulation over the exhaustive 8x8-bit space...
  ErrorAccumulator whole(ceiling);
  // ...vs four disjoint quarters merged in order.
  std::vector<ErrorAccumulator> parts(4, ErrorAccumulator(ceiling));
  const std::uint64_t total = std::uint64_t{1} << 16;
  for (std::uint64_t w = 0; w < total; ++w) {
    const std::uint64_t a = w & 0xFF;
    const std::uint64_t b = (w >> 8) & 0xFF;
    const std::uint64_t approx = adder.add(a, b, 0);
    const std::uint64_t ref = exact.add(a, b, 0);
    whole.record(approx, ref);
    parts[w / (total / 4)].record(approx, ref);
  }
  ErrorAccumulator merged(ceiling);
  for (const auto& part : parts) merged.merge(part);

  const ErrorStats ws = whole.finish(true);
  const ErrorStats ms = merged.finish(true);
  EXPECT_EQ(ws.samples, ms.samples);
  EXPECT_EQ(ws.error_count, ms.error_count);
  EXPECT_EQ(ws.max_error, ms.max_error);
  EXPECT_EQ(ws.error_rate, ms.error_rate);
  // Absolute error distances are integers, so their double sum is exact in
  // either order; MED and NMED must match bit for bit.
  EXPECT_EQ(ws.mean_error_distance, ms.mean_error_distance);
  EXPECT_EQ(ws.normalized_med, ms.normalized_med);
  // Relative/squared sums are genuinely reassociated by chunking, so these
  // may differ in the last ULPs.
  EXPECT_NEAR(ws.mean_relative_error, ms.mean_relative_error, 1e-12);
  EXPECT_NEAR(ws.mean_squared_error, ms.mean_squared_error,
              1e-9 * (1.0 + ws.mean_squared_error));
}

TEST(ParallelEvaluate, AccumulatorMergeEmptySides) {
  ErrorAccumulator acc(100);
  acc.record(5, 9);
  acc.record(7, 7);
  ErrorAccumulator empty(100);
  acc.merge(empty);  // no-op
  ErrorStats s = acc.finish(false);
  EXPECT_EQ(s.samples, 2u);
  EXPECT_EQ(s.error_count, 1u);
  EXPECT_EQ(s.max_error, 4u);

  ErrorAccumulator target(100);
  target.merge(acc);  // merge into empty
  const ErrorStats t = target.finish(false);
  EXPECT_EQ(t.samples, 2u);
  EXPECT_EQ(t.max_error, 4u);
  EXPECT_EQ(t.mean_error_distance, s.mean_error_distance);
}

// --- ErrorDistribution ----------------------------------------------------

TEST(ParallelEvaluate, DistributionMergeMatchesSingleShot) {
  const arith::GeArAdder adder({8, 2, 2});
  const arith::ExactAdder exact(8);

  ErrorDistribution whole;
  std::vector<ErrorDistribution> parts(3);
  const std::uint64_t total = std::uint64_t{1} << 16;
  for (std::uint64_t w = 0; w < total; ++w) {
    const std::uint64_t a = w & 0xFF;
    const std::uint64_t b = (w >> 8) & 0xFF;
    const auto err = static_cast<std::int64_t>(adder.add(a, b, 0)) -
                     static_cast<std::int64_t>(exact.add(a, b, 0));
    whole.record(err);
    parts[w % 3].record(err);
  }
  ErrorDistribution merged;
  for (const auto& part : parts) merged.merge(part);

  EXPECT_EQ(merged.samples(), whole.samples());
  EXPECT_EQ(merged.support(), whole.support());
  EXPECT_EQ(merged.histogram(), whole.histogram());
  EXPECT_EQ(merged.optimal_offset(), whole.optimal_offset());
  for (const std::int64_t e : whole.support()) {
    EXPECT_EQ(merged.probability(e), whole.probability(e)) << "error " << e;
  }
}

TEST(ParallelEvaluate, DistributionManyDistinctValuesSurviveGrowth) {
  // Force several open-addressing growths and check nothing is lost or
  // double-counted against the ordered view.
  ErrorDistribution dist;
  Rng rng(42);
  std::map<std::int64_t, std::uint64_t> reference;
  for (int i = 0; i < 5000; ++i) {
    const auto e = static_cast<std::int64_t>(rng.bits(12)) - 2048;
    dist.record(e);
    ++reference[e];
  }
  EXPECT_EQ(dist.samples(), 5000u);
  EXPECT_EQ(dist.histogram(), reference);
}

TEST(ParallelEvaluate, AdderDistributionThreadInvariant) {
  // Sampled path (20 input bits > 10-bit cutoff), 2^17 samples = 2 chunks.
  const arith::GeArAdder adder({10, 2, 2});
  const ErrorDistribution one = adder_error_distribution(
      adder, /*max_exhaustive_bits=*/10, /*samples=*/std::uint64_t{1} << 17,
      /*seed=*/99, /*threads=*/1);
  const ErrorDistribution four = adder_error_distribution(
      adder, /*max_exhaustive_bits=*/10, /*samples=*/std::uint64_t{1} << 17,
      /*seed=*/99, /*threads=*/4);
  EXPECT_EQ(one.samples(), four.samples());
  EXPECT_EQ(one.histogram(), four.histogram());
  EXPECT_EQ(one.optimal_offset(), four.optimal_offset());
}

// --- Plumbing -------------------------------------------------------------

TEST(ParallelEvaluate, ChunkGridIsThreadIndependent) {
  EXPECT_EQ(eval_chunk_count(0), 0u);
  EXPECT_EQ(eval_chunk_count(1), 1u);
  EXPECT_EQ(eval_chunk_count(kEvalChunk), 1u);
  EXPECT_EQ(eval_chunk_count(kEvalChunk + 1), 2u);
  // Sub-seeds are distinct per chunk and depend only on (seed, chunk).
  EXPECT_NE(eval_chunk_seed(7, 0), eval_chunk_seed(7, 1));
  EXPECT_EQ(eval_chunk_seed(7, 3), eval_chunk_seed(7, 3));
}

TEST(ParallelEvaluate, ParallelChunksCoversRangeExactlyOnce) {
  const std::uint64_t total = 3 * kEvalChunk + 17;
  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::atomic<std::uint32_t>> hits(
        static_cast<std::size_t>(eval_chunk_count(total)));
    std::atomic<std::uint64_t> covered{0};
    parallel_chunks(total, threads,
                    [&](std::uint64_t chunk, std::uint64_t begin,
                        std::uint64_t end) {
                      hits[chunk].fetch_add(1);
                      covered.fetch_add(end - begin);
                      EXPECT_EQ(begin, chunk * kEvalChunk);
                      EXPECT_LE(end, total);
                    });
    EXPECT_EQ(covered.load(), total);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
  }
}

TEST(ParallelEvaluate, ParallelChunksOfCustomGrid) {
  // Small custom chunk sizes (the encoder passes one block row) keep the
  // same exactly-once coverage and worker-independent boundaries.
  const std::uint64_t total = 37;
  const std::uint64_t chunk_size = 5;  // 7 full chunks + a short eighth
  for (const unsigned threads : {1u, 4u}) {
    std::vector<std::atomic<std::uint32_t>> hits(8);
    std::atomic<std::uint64_t> covered{0};
    parallel_chunks_of(total, chunk_size, threads,
                       [&](std::uint64_t chunk, std::uint64_t begin,
                           std::uint64_t end) {
                         hits[chunk].fetch_add(1);
                         covered.fetch_add(end - begin);
                         EXPECT_EQ(begin, chunk * chunk_size);
                         EXPECT_LE(end, total);
                       });
    EXPECT_EQ(covered.load(), total);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
  }
}

TEST(ParallelEvaluate, ParallelChunksOfDegenerateInputs) {
  unsigned calls = 0;
  parallel_chunks_of(0, 4, 8, [&](std::uint64_t, std::uint64_t,
                                  std::uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  // chunk_size 0 is clamped to 1: every element its own chunk.
  std::vector<std::uint64_t> begins;
  parallel_chunks_of(3, 0, 1,
                     [&](std::uint64_t, std::uint64_t begin,
                         std::uint64_t end) {
                       begins.push_back(begin);
                       EXPECT_EQ(end, begin + 1);
                     });
  EXPECT_EQ(begins, (std::vector<std::uint64_t>{0, 1, 2}));
}

}  // namespace
}  // namespace axc::error
