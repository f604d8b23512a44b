#pragma once
// IP characterization flows (Sec. 3 of the paper).
//
// Each flow drives the corresponding gate-level reference structure with
// stimulus, records (activity features -> measured energy) samples, fits
// the macromodel coefficients by least squares, and reports how well the
// closed-form macromodel tracks the gate level -- the step the authors
// performed with SIS.
//
// The reference energies come from gate::BitSim, 64 trials per pass:
// lane j of batch b is trial 64*b+j for the combinational decoder/mux
// flows; for the sequential arbiter, lane j replays the j-th contiguous
// chunk of the cycle sequence after a one-tick state warm-up. BitSim's
// per-lane accounting is bit-identical to a scalar gate::GateSim run of
// the same trial sequence, so every sample energy -- and therefore every
// fitted coefficient -- is the scalar reference value exactly; golden
// tests pin them.

#include <array>
#include <cstdint>
#include <vector>

#include "charlib/fit.hpp"
#include "charlib/stimulus.hpp"
#include "gate/tech.hpp"
#include "power/macromodel.hpp"

namespace ahbp::charlib {

/// One characterization sample: activity features and measured energy.
/// Features are stored inline (no flow has more than 3), so collecting
/// the tens of thousands of samples a sweep produces costs no per-sample
/// heap allocation.
struct Sample {
  std::array<double, 3> features{};  ///< first `n_features` entries valid
  unsigned n_features = 0;
  double energy = 0.0;  ///< gate-level reference energy [J]
};

/// Accuracy of a macromodel against the gate-level reference.
struct ModelAccuracy {
  double mean_abs_error = 0.0;      ///< [J]
  double mean_rel_error = 0.0;      ///< |model-ref| / mean(ref)
  double total_energy_model = 0.0;  ///< [J] summed over the stimulus run
  double total_energy_ref = 0.0;    ///< [J]
};

/// Decoder characterization result.
struct DecoderCharacterization {
  unsigned n_outputs = 0;
  FitResult fit;             ///< E = c0 + c1 * HD_IN against gate level
  ModelAccuracy paper_model; ///< paper's closed form vs gate level
  std::vector<Sample> samples;
};

/// Characterizes a one-hot decoder of `n_outputs` outputs with
/// `n_samples` random transitions.
[[nodiscard]] DecoderCharacterization characterize_decoder(
    unsigned n_outputs, unsigned n_samples, std::uint64_t seed,
    gate::Technology tech = gate::Technology::default_2003());

/// Mux characterization result.
struct MuxCharacterization {
  unsigned width = 0;
  unsigned n_inputs = 0;
  FitResult fit;  ///< E = c0 + c1*HD_IN + c2*HD_SEL + c3*HD_OUT
  power::MuxModel::Coefficients calibrated;  ///< mapped back to MuxModel form
  ModelAccuracy default_model;  ///< MuxModel with default coefficients
  ModelAccuracy fitted_model;   ///< MuxModel with calibrated coefficients
  std::vector<Sample> samples;
};

/// Characterizes an n-to-1 mux of the given shape.
[[nodiscard]] MuxCharacterization characterize_mux(
    unsigned width, unsigned n_inputs, unsigned n_samples, std::uint64_t seed,
    gate::Technology tech = gate::Technology::default_2003());

/// Arbiter characterization result.
struct ArbiterCharacterization {
  unsigned n_masters = 0;
  FitResult fit;  ///< E = c0 + c1*HD_REQ + c2*handover
  ModelAccuracy fsm_model;  ///< ArbiterFsmModel vs gate level
  std::vector<Sample> samples;
};

/// Characterizes the priority-arbiter FSM over random request patterns.
[[nodiscard]] ArbiterCharacterization characterize_arbiter(
    unsigned n_masters, unsigned n_cycles, std::uint64_t seed,
    gate::Technology tech = gate::Technology::default_2003());

}  // namespace ahbp::charlib
