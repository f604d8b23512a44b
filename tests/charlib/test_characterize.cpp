// Tests for the characterization flows: stimulus statistics, fitted
// macromodels tracking the gate-level reference, and the paper's decoder
// closed form validated against the generated structure.

#include "charlib/characterize.hpp"

#include <gtest/gtest.h>

#include "bits_digest.hpp"
#include "power/activity.hpp"
#include "sim/report.hpp"

namespace ahbp::charlib {
namespace {

using power::hamming;

TEST(Stimulus, LowActivityFlipsOneBit) {
  StimulusGen g(StimulusGen::Profile::kLowActivity, 16, 3);
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t cur = g.next();
    EXPECT_EQ(hamming(prev, cur), 1u);
    prev = cur;
  }
}

TEST(Stimulus, HighActivityFlipsAllBits) {
  StimulusGen g(StimulusGen::Profile::kHighActivity, 12, 3);
  std::uint64_t prev = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t cur = g.next();
    EXPECT_EQ(hamming(prev, cur), 12u);
    prev = cur;
  }
}

TEST(Stimulus, WalkingOneIsOneHot) {
  StimulusGen g(StimulusGen::Profile::kWalkingOne, 8, 0);
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t v = g.next();
    EXPECT_EQ(hamming(0, v), 1u);
  }
}

TEST(Stimulus, UniformMeanHdNearHalfWidth) {
  StimulusGen g(StimulusGen::Profile::kUniform, 32, 5);
  std::uint64_t prev = g.next();
  double total = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t cur = g.next();
    total += hamming(prev, cur);
    prev = cur;
  }
  EXPECT_NEAR(total / n, 16.0, 1.0);
}

TEST(Stimulus, SparseMostlyRepeats) {
  StimulusGen g(StimulusGen::Profile::kSparse, 32, 5);
  std::uint64_t prev = g.next();
  int repeats = 0;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t cur = g.next();
    if (cur == prev) ++repeats;
    prev = cur;
  }
  EXPECT_GT(repeats, 250);
}

TEST(Stimulus, MasksToWidth) {
  StimulusGen g(StimulusGen::Profile::kUniform, 5, 9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(g.next(), 32u);
  }
}

TEST(CharacterizeDecoder, FitTracksGateLevel) {
  const auto r = characterize_decoder(4, 300, 42);
  EXPECT_EQ(r.samples.size(), 300u);
  // Energy is strongly HD-driven in this structure.
  EXPECT_GT(r.fit.r_squared, 0.8);
  EXPECT_GT(r.fit.coefficients[1], 0.0);  // more HD -> more energy
}

TEST(CharacterizeDecoder, PaperClosedFormIsReasonable) {
  const auto r = characterize_decoder(4, 300, 42);
  // The paper's closed form is a macromodel, not an exact law; require
  // the same order of magnitude over the run and <60% mean error.
  EXPECT_GT(r.paper_model.total_energy_model,
            0.3 * r.paper_model.total_energy_ref);
  EXPECT_LT(r.paper_model.total_energy_model,
            3.0 * r.paper_model.total_energy_ref);
  EXPECT_LT(r.paper_model.mean_rel_error, 0.6);
}

class DecoderSizes : public ::testing::TestWithParam<unsigned> {};

TEST_P(DecoderSizes, EnergyGrowsWithDecoderSize) {
  const auto small = characterize_decoder(GetParam(), 200, 7);
  const auto large = characterize_decoder(GetParam() * 4, 200, 7);
  EXPECT_GT(large.paper_model.total_energy_ref,
            small.paper_model.total_energy_ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DecoderSizes, ::testing::Values(2u, 4u));

TEST(CharacterizeMux, FittedBeatsDefaultModel) {
  const auto r = characterize_mux(16, 3, 400, 9);
  EXPECT_EQ(r.samples.size(), 400u);
  EXPECT_GT(r.fit.r_squared, 0.7);
  // Calibration can only improve (or match) the mean error.
  EXPECT_LE(r.fitted_model.mean_rel_error, r.default_model.mean_rel_error + 1e-9);
  EXPECT_LT(r.fitted_model.mean_rel_error, 0.5);
}

TEST(CharacterizeMux, CalibratedCoefficientsPositive) {
  const auto r = characterize_mux(8, 4, 400, 11);
  EXPECT_GT(r.calibrated.k_in, 0.0);
  EXPECT_GT(r.calibrated.k_out, 0.0);
}

TEST(CharacterizeArbiter, FsmModelTracksGateLevel) {
  const auto r = characterize_arbiter(3, 500, 13);
  EXPECT_EQ(r.samples.size(), 500u);
  EXPECT_GT(r.fit.r_squared, 0.5);
  // Handover coefficient should be clearly positive.
  EXPECT_GT(r.fit.coefficients[2], 0.0);
  EXPECT_GT(r.fsm_model.total_energy_model, 0.2 * r.fsm_model.total_energy_ref);
  EXPECT_LT(r.fsm_model.total_energy_model, 5.0 * r.fsm_model.total_energy_ref);
}

TEST(Characterize, RejectsTooFewSamples) {
  EXPECT_THROW((void)characterize_decoder(4, 2, 1), sim::SimError);
  EXPECT_THROW((void)characterize_mux(8, 2, 4, 1), sim::SimError);
  EXPECT_THROW((void)characterize_arbiter(2, 4, 1), sim::SimError);
}

TEST(Characterize, DeterministicForFixedSeed) {
  const auto a = characterize_decoder(4, 100, 5);
  const auto b = characterize_decoder(4, 100, 5);
  EXPECT_EQ(a.fit.coefficients, b.fit.coefficients);
}

// -- golden values from the scalar reference engine --------------------------
// The flows run on the 64-lane gate::BitSim, whose per-lane accounting
// replays the scalar gate::GateSim net-order scan. Every constant below
// was recorded by driving the same stimulus through a scalar GateSim one
// trial at a time, so the checks are exact: a digest of every sample's
// IEEE-754 energy and feature bits, plus the fitted coefficients and
// accuracy figures as hexfloat literals.
// Sample counts are deliberately not multiples of 64 to exercise partial
// batches.

using testutil::BitsDigest;

template <class Characterization>
std::uint64_t samples_digest(const Characterization& c) {
  BitsDigest d;
  for (const Sample& s : c.samples) {
    d.add(s.energy);
    for (unsigned f = 0; f < s.n_features; ++f) d.add(s.features[f]);
  }
  return d.value();
}

TEST(CharacterizeEngines, DecoderBitParallelMatchesScalarExactly) {
  const auto r = characterize_decoder(8, 330, 42);
  ASSERT_EQ(r.samples.size(), 330u);
  EXPECT_EQ(samples_digest(r), 0x339ecc87576c2c67ull);
  EXPECT_EQ(r.fit.coefficients, (std::vector<double>{0x1.21aa118aa7b6dp-41,
                                                     0x1.2a3110d2dc312p-41}));
  EXPECT_EQ(r.fit.r_squared, 0x1.8b1d2c268d978p-1);
  EXPECT_EQ(r.paper_model.total_energy_ref, 0x1.dfa5d155856b3p-32);
  EXPECT_EQ(r.paper_model.mean_abs_error, 0x1.80a99eaa0612bp-43);
}

TEST(CharacterizeEngines, MuxBitParallelMatchesScalarExactly) {
  const auto r = characterize_mux(16, 3, 250, 9);
  ASSERT_EQ(r.samples.size(), 250u);
  EXPECT_EQ(samples_digest(r), 0x2b3eb43d591963e9ull);
  EXPECT_EQ(r.fit.coefficients,
            (std::vector<double>{0x1.e5832c8e6b285p-43, 0x1.889c3739e0034p-44,
                                 0x1.325a078cb41e8p-40, 0x1.c198acf18df19p-42}));
  EXPECT_EQ(r.fit.r_squared, 0x1.ce38df1f25dc7p-1);
  EXPECT_EQ(r.calibrated.k_in, 0x1.99de2e9245e19p+1);
  EXPECT_EQ(r.calibrated.k_sel, 0x1.3fd1585c5e48dp+1);
  EXPECT_EQ(r.calibrated.k_out, 0x1.777cb78159ef7p+1);
  EXPECT_EQ(r.fitted_model.mean_abs_error, 0x1.879af4900cddbp-42);
  EXPECT_EQ(r.default_model.mean_abs_error, 0x1.bd95bf27c2c07p-40);
}

TEST(CharacterizeEngines, ArbiterBitParallelMatchesScalarExactly) {
  const auto r = characterize_arbiter(3, 470, 13);
  ASSERT_EQ(r.samples.size(), 470u);
  EXPECT_EQ(samples_digest(r), 0xb140f4027b67fb31ull);
  EXPECT_EQ(r.fit.coefficients,
            (std::vector<double>{0x1.4ed3f3f2ce1c5p-48, 0x1.2a4b402401ddbp-43,
                                 0x1.4a8c6827be6c4p-40}));
  EXPECT_EQ(r.fit.r_squared, 0x1.f36c2f010eb61p-1);
  EXPECT_EQ(r.fsm_model.total_energy_ref, 0x1.d73f893be2028p-33);
  EXPECT_EQ(r.fsm_model.mean_abs_error, 0x1.b7ce74ee26f48p-43);
}

}  // namespace
}  // namespace ahbp::charlib
