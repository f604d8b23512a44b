#include "charlib/characterize.hpp"

#include <algorithm>
#include <cmath>

#include "gate/bitsim.hpp"
#include "gate/synth.hpp"
#include "power/activity.hpp"
#include "sim/report.hpp"

namespace ahbp::charlib {

using power::hamming;
using sim::SimError;

namespace {

constexpr unsigned kLanes = gate::BitSim::kLanes;

/// Folds |model - ref| statistics over paired energy series.
ModelAccuracy accuracy(const std::vector<double>& model,
                       const std::vector<double>& ref) {
  ModelAccuracy a;
  double abs_err = 0.0;
  for (std::size_t i = 0; i < model.size(); ++i) {
    abs_err += std::fabs(model[i] - ref[i]);
    a.total_energy_model += model[i];
    a.total_energy_ref += ref[i];
  }
  const auto n = static_cast<double>(model.size());
  a.mean_abs_error = n > 0 ? abs_err / n : 0.0;
  const double mean_ref = n > 0 ? a.total_energy_ref / n : 0.0;
  a.mean_rel_error = mean_ref > 0 ? a.mean_abs_error / mean_ref : 0.0;
  return a;
}

/// Drives one word per lane onto a pin bundle: lane_words[j] bit b goes
/// to pin b's lane j. The buffer is consumed (transposed from lane-major
/// to pin-major in place). All characterization bundles fit in 64 pins.
void drive_lane_words(gate::BitSim& simu, const std::vector<gate::NetId>& pins,
                      std::uint64_t lane_words[kLanes]) {
  gate::bit_transpose_64x64(lane_words);
  for (std::size_t b = 0; b < pins.size(); ++b) {
    simu.set_input(pins[b], lane_words[b]);
  }
}

/// Reads a pin bundle for every lane at once: out[j] is lane j's bundle
/// word (bit b = pin b).
void read_lane_words(const gate::BitSim& simu,
                     const std::vector<gate::NetId>& pins,
                     std::uint64_t out[kLanes]) {
  for (std::size_t b = 0; b < pins.size(); ++b) {
    out[b] = simu.value_word(pins[b]);
  }
  std::fill(out + pins.size(), out + kLanes, 0);
  gate::bit_transpose_64x64(out);
}

}  // namespace

// ---------------------------------------------------------------------------
// Decoder

DecoderCharacterization characterize_decoder(unsigned n_outputs, unsigned n_samples,
                                             std::uint64_t seed,
                                             gate::Technology tech) {
  if (n_samples < 8) throw SimError("characterize_decoder: too few samples");
  DecoderCharacterization out;
  out.n_outputs = n_outputs;

  gate::DecoderNetlist dec = gate::build_onehot_decoder(n_outputs);
  power::DecoderModel paper(n_outputs, tech);

  const unsigned bits = static_cast<unsigned>(dec.addr.size());
  StimulusGen uniform(StimulusGen::Profile::kUniform, bits, seed);
  StimulusGen low(StimulusGen::Profile::kLowActivity, bits, seed + 1);

  // The full stimulus sequence up front, consuming the generators in the
  // exact order of the per-sample loop (mixed activity regimes so the
  // fit sees the whole HD range). Sample i measures the w[i-1] -> w[i]
  // transition (w[-1] = 0).
  std::vector<std::uint64_t> words(n_samples);
  for (unsigned i = 0; i < n_samples; ++i) {
    words[i] = (i % 2 == 0) ? uniform.next() : low.next();
  }

  std::vector<double> ref(n_samples, 0.0);
  // 64 independent transitions per pass: lane j of the batch holds
  // trial base+j. The decoder is combinational, so establishing the
  // "previous" settled state is one unaccounted evaluation -- and
  // because consecutive trials are adjacent lanes, its pin words are
  // just the measured wave's words shifted up one lane, with the
  // previous batch's last word carried into lane 0 (all-zero before
  // trial 0). One transpose per batch instead of two.
  gate::BitSim simu(dec.nl, tech, gate::BitSim::Accounting::kPerLane);
  std::uint64_t cur_w[kLanes];
  std::uint64_t carry = 0;
  for (unsigned base = 0; base < n_samples; base += kLanes) {
    const unsigned lanes = std::min(kLanes, n_samples - base);
    for (unsigned j = 0; j < lanes; ++j) cur_w[j] = words[base + j];
    std::fill(cur_w + lanes, cur_w + kLanes, 0);
    gate::bit_transpose_64x64(cur_w);
    for (unsigned b = 0; b < bits; ++b) {
      simu.set_input(dec.addr[b], cur_w[b] << 1 | (carry >> b & 1u));
    }
    simu.eval_unaccounted();
    for (unsigned b = 0; b < bits; ++b) simu.set_input(dec.addr[b], cur_w[b]);
    simu.reset_accounting();
    simu.eval();
    for (unsigned j = 0; j < lanes; ++j) ref[base + j] = simu.lane_energy(j);
    carry = words[base + lanes - 1];
  }

  std::vector<double> model_e, fx;
  out.samples.reserve(n_samples);
  model_e.reserve(n_samples);
  fx.reserve(n_samples);
  std::uint64_t prev = 0;
  for (unsigned i = 0; i < n_samples; ++i) {
    const unsigned hd = hamming(prev, words[i]);
    out.samples.push_back(Sample{{static_cast<double>(hd)}, 1, ref[i]});
    model_e.push_back(paper.energy(hd));
    fx.push_back(static_cast<double>(hd));
    prev = words[i];
  }

  out.fit = fit_linear(fx.data(), n_samples, 1, ref.data());
  out.paper_model = accuracy(model_e, ref);
  return out;
}

// ---------------------------------------------------------------------------
// Mux

MuxCharacterization characterize_mux(unsigned width, unsigned n_inputs,
                                     unsigned n_samples, std::uint64_t seed,
                                     gate::Technology tech) {
  if (n_samples < 16) throw SimError("characterize_mux: too few samples");
  MuxCharacterization out;
  out.width = width;
  out.n_inputs = n_inputs;

  gate::MuxNetlist mux = gate::build_mux(width, n_inputs);

  // Replay the stimulus policy up front: randomly change the selected
  // input's data, occasionally the select. Each step records only its
  // delta (one rewritten data input); any point of the sequence is
  // reconstructed by rolling the deltas forward in strict step order.
  struct Step {
    unsigned sel = 0;
    unsigned prev_sel = 0;
    unsigned hd_in = 0;
    unsigned victim = 0;       ///< data input rewritten this step
    std::uint64_t word = 0;    ///< its new value
  };
  std::mt19937_64 rng(seed);
  StimulusGen data_gen(StimulusGen::Profile::kUniform, width, seed + 2);
  StimulusGen low_gen(StimulusGen::Profile::kLowActivity, width, seed + 3);

  std::vector<Step> steps(n_samples);
  {
    std::vector<std::uint64_t> data(n_inputs, 0);
    unsigned sel = 0;
    for (unsigned s = 0; s < n_samples; ++s) {
      Step& st = steps[s];
      st.prev_sel = sel;
      if (rng() % 4 == 0) sel = static_cast<unsigned>(rng() % n_inputs);
      const std::uint64_t new_word = (s % 2 == 0) ? data_gen.next() : low_gen.next();
      const unsigned victim = sel;
      st.sel = sel;
      st.victim = victim;
      st.word = new_word;
      st.hd_in = hamming(data[victim], new_word);
      data[victim] = new_word;
    }
  }

  std::vector<double> ref(n_samples, 0.0);
  std::vector<std::uint64_t> outs(n_samples, 0);
  // Lane j of each batch carries trial base+j: previous assignment in
  // the first (unaccounted) wave, measured assignment in the second.
  // The measured assignments come from rolling the step deltas
  // forward, written lane-major ([input i][lane j]) and transposed to
  // pin words -- and since lane j's previous assignment is lane j-1's
  // measured one, the first wave reuses those pin words shifted up one
  // lane, carrying in the batch-entry assignment at lane 0. One
  // transpose per bundle per batch instead of two.
  gate::BitSim simu(mux.nl, tech, gate::BitSim::Accounting::kPerLane);
  std::vector<std::uint64_t> cur_buf(n_inputs * kLanes, 0);
  std::vector<std::uint64_t> carry(n_inputs, 0);  ///< batch-entry assignment
  std::uint64_t cur_sel_w[kLanes];
  std::uint64_t lane_w[kLanes];
  std::vector<std::uint64_t> rolling(n_inputs, 0);
  unsigned carry_sel = 0;
  const unsigned sel_bits = static_cast<unsigned>(mux.sel.size());
  for (unsigned base = 0; base < n_samples; base += kLanes) {
    const unsigned lanes = std::min(kLanes, n_samples - base);
    for (unsigned j = 0; j < lanes; ++j) {
      const Step& st = steps[base + j];
      rolling[st.victim] = st.word;
      for (unsigned i = 0; i < n_inputs; ++i) {
        cur_buf[i * kLanes + j] = rolling[i];
      }
      cur_sel_w[j] = st.sel;
    }
    for (unsigned i = 0; i < n_inputs; ++i) {
      std::uint64_t* w = &cur_buf[i * kLanes];
      std::fill(w + lanes, w + kLanes, 0);
      gate::bit_transpose_64x64(w);
    }
    std::fill(cur_sel_w + lanes, cur_sel_w + kLanes, 0);
    gate::bit_transpose_64x64(cur_sel_w);

    for (unsigned i = 0; i < n_inputs; ++i) {
      const std::uint64_t* w = &cur_buf[i * kLanes];
      for (unsigned b = 0; b < width; ++b) {
        simu.set_input(mux.data[i][b], w[b] << 1 | (carry[i] >> b & 1u));
      }
    }
    for (unsigned b = 0; b < sel_bits; ++b) {
      simu.set_input(mux.sel[b], cur_sel_w[b] << 1 | (carry_sel >> b & 1u));
    }
    simu.eval_unaccounted();
    for (unsigned i = 0; i < n_inputs; ++i) {
      const std::uint64_t* w = &cur_buf[i * kLanes];
      for (unsigned b = 0; b < width; ++b) simu.set_input(mux.data[i][b], w[b]);
    }
    for (unsigned b = 0; b < sel_bits; ++b) simu.set_input(mux.sel[b], cur_sel_w[b]);
    simu.reset_accounting();
    simu.eval();
    read_lane_words(simu, mux.out, lane_w);
    for (unsigned j = 0; j < lanes; ++j) {
      ref[base + j] = simu.lane_energy(j);
      outs[base + j] = lane_w[j];
    }
    carry = rolling;
    carry_sel = steps[base + lanes - 1].sel;
  }

  power::MuxModel default_model(width, n_inputs, tech);
  std::vector<double> def_e, fx;
  out.samples.reserve(n_samples);
  def_e.reserve(n_samples);
  fx.reserve(n_samples * 3);
  std::uint64_t prev_out = 0;
  for (unsigned s = 0; s < n_samples; ++s) {
    const unsigned hd_in = steps[s].hd_in;
    const unsigned hd_sel = hamming(steps[s].prev_sel, steps[s].sel);
    const unsigned hd_out = hamming(prev_out, outs[s]);
    prev_out = outs[s];
    out.samples.push_back(Sample{{static_cast<double>(hd_in),
                                  static_cast<double>(hd_sel),
                                  static_cast<double>(hd_out)},
                                 3, ref[s]});
    def_e.push_back(default_model.energy(hd_in, hd_sel, hd_out));
    fx.insert(fx.end(), {static_cast<double>(hd_in), static_cast<double>(hd_sel),
                         static_cast<double>(hd_out)});
  }

  out.fit = fit_linear(fx.data(), n_samples, 3, ref.data());

  // Map the fitted linear coefficients back into MuxModel's structural
  // form: E = vdd^2/4 * c_node * (k_in*HD_IN + k_sel*w*HD_SEL + k_out*HD_OUT*(c_out/c_node)).
  const double unit = tech.vdd * tech.vdd / 4.0 * tech.c_node;
  out.calibrated.k_in = out.fit.coefficients[1] / unit;
  out.calibrated.k_sel = out.fit.coefficients[2] / (unit * width);
  out.calibrated.k_out = out.fit.coefficients[3] / (unit * (tech.c_out / tech.c_node));

  power::MuxModel fitted(width, n_inputs, tech, out.calibrated);
  std::vector<double> fit_e;
  fit_e.reserve(n_samples);
  for (const Sample& smp : out.samples) {
    fit_e.push_back(fitted.energy(static_cast<unsigned>(smp.features[0]),
                                  static_cast<unsigned>(smp.features[1]),
                                  static_cast<unsigned>(smp.features[2])));
  }
  out.default_model = accuracy(def_e, ref);
  out.fitted_model = accuracy(fit_e, ref);
  return out;
}

// ---------------------------------------------------------------------------
// Arbiter

ArbiterCharacterization characterize_arbiter(unsigned n_masters, unsigned n_cycles,
                                             std::uint64_t seed,
                                             gate::Technology tech) {
  if (n_cycles < 16) throw SimError("characterize_arbiter: too few cycles");
  ArbiterCharacterization out;
  out.n_masters = n_masters;

  gate::ArbiterNetlist arb = gate::build_priority_arbiter(n_masters);

  // Sticky random requests, generated up front: each line flips with
  // probability 1/4 per cycle. One 64-bit draw is sliced into 32
  // independent 2-bit fields (one per master), so a cycle costs
  // ceil(n_masters/32) draws instead of n_masters. The draw schedule is
  // part of the stimulus definition (the golden tests pin it).
  std::mt19937_64 rng(seed);
  std::vector<std::uint32_t> reqs(n_cycles);
  {
    std::uint32_t req = 0;
    for (unsigned c = 0; c < n_cycles; ++c) {
      for (unsigned base = 0; base < n_masters; base += 32) {
        std::uint64_t draw = rng();
        const unsigned hi = std::min(n_masters, base + 32);
        for (unsigned m = base; m < hi; ++m, draw >>= 2) {
          if ((draw & 3u) == 0) req ^= 1u << m;
        }
      }
      reqs[c] = req;
    }
  }

  std::vector<double> ref(n_cycles, 0.0);
  std::vector<unsigned> grants(n_cycles, 0);
  // The arbiter is sequential, but its next-state logic is a pure
  // priority encode of the request lines -- the post-tick netlist
  // state is a function of the last request vector alone. So lane j
  // replays the j-th contiguous chunk of the cycle sequence after a
  // single unaccounted warm-up tick with the chunk's predecessor
  // request (all-zero before cycle 0, which reproduces the reset
  // state): n_cycles single-pattern ticks become ceil(n_cycles/64)+1
  // 64-lane ticks.
  gate::BitSim simu(arb.nl, tech, gate::BitSim::Accounting::kPerLane);
  const unsigned len = (n_cycles + kLanes - 1) / kLanes;
  std::uint64_t lane_req[kLanes];
  std::uint64_t grant_w[kLanes];
  auto lane_cycle = [len](unsigned j, unsigned t) { return j * len + t; };

  // Handover detection needs no per-lane state: the sample-order loop
  // below walks grants[] with a rolling predecessor, which crosses
  // chunk boundaries exactly like the cycle sequence itself.
  std::uint32_t lane_prev_req[kLanes];
  for (unsigned j = 0; j < kLanes; ++j) {
    const unsigned start = lane_cycle(j, 0);
    lane_req[j] = (j == 0 || start > n_cycles || start == 0) ? 0 : reqs[start - 1];
    lane_prev_req[j] = static_cast<std::uint32_t>(lane_req[j]);
  }
  drive_lane_words(simu, arb.req, lane_req);
  simu.tick();

  for (unsigned t = 0; t < len; ++t) {
    for (unsigned j = 0; j < kLanes; ++j) {
      const unsigned c = lane_cycle(j, t);
      lane_req[j] = c < n_cycles ? reqs[c] : lane_prev_req[j];
    }
    drive_lane_words(simu, arb.req, lane_req);
    simu.reset_accounting();
    simu.tick();
    read_lane_words(simu, arb.grant, grant_w);
    for (unsigned j = 0; j < kLanes; ++j) {
      const unsigned c = lane_cycle(j, t);
      if (c >= n_cycles) continue;
      ref[c] = simu.lane_energy(j);
      // Highest set grant line wins.
      unsigned grant = 0;
      for (unsigned m = 0; m < n_masters; ++m) {
        if ((grant_w[j] >> m & 1u) != 0) grant = m;
      }
      grants[c] = grant;
      lane_prev_req[j] = reqs[c];
    }
  }

  power::ArbiterFsmModel fsm_model(n_masters, tech);
  std::vector<double> model_e, fx;
  out.samples.reserve(n_cycles);
  model_e.reserve(n_cycles);
  fx.reserve(n_cycles * 2);
  std::uint32_t prev_req = 0;
  unsigned prev_grant = 0;
  for (unsigned c = 0; c < n_cycles; ++c) {
    const bool handover = grants[c] != prev_grant;
    const unsigned hd_req = hamming(prev_req, reqs[c]);
    out.samples.push_back(Sample{{static_cast<double>(hd_req),
                                  handover ? 1.0 : 0.0},
                                 2, ref[c]});
    model_e.push_back(fsm_model.energy(hd_req, handover));
    fx.insert(fx.end(), {static_cast<double>(hd_req), handover ? 1.0 : 0.0});
    prev_req = reqs[c];
    prev_grant = grants[c];
  }

  out.fit = fit_linear(fx.data(), n_cycles, 2, ref.data());
  out.fsm_model = accuracy(model_e, ref);
  return out;
}

}  // namespace ahbp::charlib
