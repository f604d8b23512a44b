#include "power/macromodel.hpp"

#include "gate/synth.hpp"
#include "sim/report.hpp"

namespace ahbp::power {

using sim::SimError;

// ---------------------------------------------------------------------------
// LinearModel

double LinearModel::energy(const std::vector<double>& features) const {
  if (coeffs_.empty()) throw SimError("LinearModel: no coefficients");
  if (features.size() + 1 != coeffs_.size()) {
    throw SimError("LinearModel: feature count mismatch");
  }
  double e = coeffs_[0];
  for (std::size_t i = 0; i < features.size(); ++i) e += coeffs_[i + 1] * features[i];
  return e;
}

// ---------------------------------------------------------------------------
// DecoderModel

DecoderModel::DecoderModel(unsigned n_outputs, gate::Technology tech)
    // Paper, Sec. 5.1:
    //   E_DEC = VDD^2/4 * (nO * nI * C_PD * HD_IN + 2 * HD_OUT * C_O)
    : n_outputs_(n_outputs),
      n_inputs_(gate::select_bits(n_outputs)),
      vdd2_4_(tech.vdd * tech.vdd / 4.0),
      in_scale_(static_cast<double>(n_outputs_) * n_inputs_ * tech.c_node),
      out_term_(2.0 * tech.c_out) {
  if (n_outputs < 2) throw SimError("DecoderModel: need >= 2 outputs");
}

// ---------------------------------------------------------------------------
// MuxModel

MuxModel::MuxModel(unsigned width, unsigned n_inputs, gate::Technology tech)
    : MuxModel(width, n_inputs, tech, Coefficients{}) {}

MuxModel::MuxModel(unsigned width, unsigned n_inputs, gate::Technology tech,
                   Coefficients k)
    : width_(width),
      n_inputs_(n_inputs),
      k_(k),
      scale_(tech.vdd * tech.vdd / 4.0 * tech.c_node),
      sel_scale_(k.k_sel * static_cast<double>(width)),
      out_ratio_(tech.c_out / tech.c_node) {
  if (width < 1 || n_inputs < 2) throw SimError("MuxModel: bad shape");
}

// ---------------------------------------------------------------------------
// ArbiterFsmModel

ArbiterFsmModel::ArbiterFsmModel(unsigned n_masters, gate::Technology tech)
    : n_masters_(n_masters) {
  if (n_masters < 2) throw SimError("ArbiterFsmModel: need >= 2 masters");
  const double vdd2_4 = tech.vdd * tech.vdd / 4.0;
  const unsigned state_bits = gate::select_bits(n_masters);
  // Background clocking of the state register (small, per cycle).
  e_idle_ = vdd2_4 * tech.c_node * 0.5 * state_bits;
  // One toggling request ripples through the priority chain (the wins_i
  // AND/OR ladder re-evaluates below the flipped line; calibrated against
  // the gate-level structure via charlib).
  e_req_ = vdd2_4 * tech.c_node * 10.0;
  // A handover toggles ~all state bits plus two one-hot grant outputs
  // and their decode minterms.
  e_grant_ = vdd2_4 * (tech.c_node * 5.0 * state_bits + 2.0 * tech.c_out);
}

}  // namespace ahbp::power
