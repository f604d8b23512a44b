// Parametric-model sweeps (paper Sec. 5.1): the macromodels are functions
// of the IP parameters -- number of slaves for the decoder, width and
// input count for the mux. Sweeps each parameter with the closed form
// and with the gate-level reference side by side, demonstrating that the
// macromodels track the structures across the whole parameter space.
//
// The gate-level reference points are independent characterizations, so
// they are fanned across cores with campaign::Campaign; the closed-form
// values are computed inline. Results print in sweep order regardless
// of which worker finished first.

#include <cstdio>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "charlib/charlib.hpp"
#include "gate/gate.hpp"
#include "power/macromodel.hpp"

namespace {

using namespace ahbp;

/// Spec wrapping one gate-level decoder characterization; the mean
/// energy per random transition lands in metrics["gate_mean"].
campaign::RunSpec decoder_spec(unsigned n_outputs, unsigned samples) {
  return {"dec/n" + std::to_string(n_outputs), [n_outputs, samples] {
            const auto r = charlib::characterize_decoder(n_outputs, samples, 77);
            campaign::PowerReport rep;
            rep.metrics["gate_mean"] =
                r.paper_model.total_energy_ref / static_cast<double>(samples);
            return rep;
          }};
}

campaign::RunSpec mux_spec(unsigned width, unsigned n_inputs, unsigned samples) {
  return {"mux/w" + std::to_string(width) + "/n" + std::to_string(n_inputs),
          [width, n_inputs, samples] {
            const auto r = charlib::characterize_mux(width, n_inputs, samples, 78);
            campaign::PowerReport rep;
            rep.metrics["gate_mean"] =
                r.fitted_model.total_energy_ref / static_cast<double>(samples);
            return rep;
          }};
}

double gate_mean(const campaign::RunOutcome& o) {
  return o.status == campaign::RunStatus::kOk ? o.report.metrics.at("gate_mean") : -1.0;
}

}  // namespace

int main() {
  const gate::Technology tech;
  constexpr unsigned kSamples = 600;
  const std::vector<unsigned> dec_slaves{2, 3, 4, 6, 8, 12, 16};
  const std::vector<unsigned> mux_widths{4, 8, 16, 32};
  const std::vector<unsigned> mux_inputs{2, 3, 4, 8};

  // Fan every gate-level reference run across the machine; specs are
  // gathered back in submission order, so the tables below can index
  // straight into the outcome vector.
  std::vector<campaign::RunSpec> specs;
  for (unsigned n : dec_slaves) specs.push_back(decoder_spec(n, kSamples));
  for (unsigned w : mux_widths) specs.push_back(mux_spec(w, 3, kSamples));
  for (unsigned n : mux_inputs) specs.push_back(mux_spec(16, n, kSamples));

  const campaign::Campaign pool;
  const auto outcomes = pool.run(specs);
  std::size_t at = 0;

  std::puts("=== Parametric macromodel sweeps (E_DEC, E_MUX vs IP parameters) ===");
  std::printf("(gate-level references on %u threads)\n\n", pool.threads());

  std::puts("--- E_DEC vs number of slaves (HD_IN = 1 closed form; gate mean) ---");
  std::printf("%10s %8s %16s %18s\n", "n_slaves", "n_I", "E_DEC(HD=1)",
              "gate-level mean");
  for (unsigned n : dec_slaves) {
    power::DecoderModel m(n, tech);
    std::printf("%10u %8u %15.3e %17.3e\n", n, m.n_inputs(), m.energy(1u),
                gate_mean(outcomes[at++]));
  }

  std::puts("\n--- E_MUX vs data width (n = 3 inputs; HD_IN = w/2, one sel flip) ---");
  std::printf("%10s %16s %18s\n", "width", "E_MUX model", "gate-level mean");
  for (unsigned w : mux_widths) {
    power::MuxModel m(w, 3, tech);
    std::printf("%10u %15.3e %17.3e\n", w, m.energy(w / 2, 1, w / 2),
                gate_mean(outcomes[at++]));
  }

  std::puts("\n--- E_MUX vs number of inputs (w = 16) ---");
  std::printf("%10s %16s %18s\n", "inputs", "E_MUX model", "gate-level mean");
  for (unsigned n : mux_inputs) {
    power::MuxModel m(16, n, tech);
    std::printf("%10u %15.3e %17.3e\n", n, m.energy(8, 1, 8),
                gate_mean(outcomes[at++]));
  }

  std::puts("\n--- arbiter handover energy vs number of masters ---");
  std::printf("%10s %16s %16s\n", "masters", "E_handover", "E_idle");
  for (unsigned n : {2u, 3u, 4u, 8u, 16u}) {
    power::ArbiterFsmModel m(n, tech);
    std::printf("%10u %15.3e %15.3e\n", n, m.handover_energy(), m.idle_energy());
  }

  std::puts("\nmonotone growth along every parameter axis: the models are");
  std::puts("usable for early architecture exploration before RTL exists.");
  return 0;
}
