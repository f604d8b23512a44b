// Bit-parallel gate-simulation throughput -- the engine-level numbers
// behind the 64-lane "power emulation" rewrite (docs/ARCHITECTURE.md,
// "Bit-parallel power emulation").
//
// Two measurements, both written to BENCH_gatesim.json (schema
// "ahbpower.bench_gatesim.v2") and printed as a table:
//
//  * raw engine throughput: gate evaluations per second for the scalar
//    reference GateSim vs lane-gate evaluations per second for BitSim
//    (one 64-lane eval of a G-gate netlist counts 64*G), on the paper's
//    three characterized structures. This isolates the engine speedup
//    from characterization host code.
//  * characterization wall time: charlib's decoder/mux/arbiter flows
//    (which run on BitSim) at the paper's shapes and at stress shapes,
//    per flow and in aggregate.
//
//   bench_gatesim_throughput [--smoke] [--out <path>]
//
// --smoke shrinks every workload for the bench-smoke ctest label; the
// JSON shape is identical (the validator checks it either way). --out
// overrides the default ./BENCH_gatesim.json artifact path.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "charlib/charlib.hpp"
#include "telemetry/exporters.hpp"
#include "gate/bitsim.hpp"
#include "gate/gatesim.hpp"
#include "gate/synth.hpp"

namespace {

using namespace ahbp;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

// --- raw engine throughput -------------------------------------------------

struct Throughput {
  std::string name;
  std::size_t gates = 0;
  std::uint64_t evals = 0;                  ///< scalar evals == BitSim waves
  double scalar_gate_evals_per_s = 0.0;
  double bitsim_lane_gate_evals_per_s = 0.0;  ///< kAggregate accounting
  double bitsim_perlane_lane_gate_evals_per_s = 0.0;  ///< kPerLane
  [[nodiscard]] double ratio() const {
    return scalar_gate_evals_per_s > 0
               ? bitsim_lane_gate_evals_per_s / scalar_gate_evals_per_s
               : 0.0;
  }
};

/// Random word per input pin each round; the same stimulus drives all
/// three engine configurations (scalar lane 0 uses bit 0).
Throughput measure_throughput(std::string name, const gate::Netlist& nl,
                              bool sequential, std::uint64_t evals) {
  Throughput r;
  r.name = std::move(name);
  r.gates = nl.gate_count();
  r.evals = evals;
  const gate::Technology tech = gate::Technology::default_2003();

  {
    std::mt19937_64 rng(1);
    gate::GateSim simu(nl, tech);
    const auto t0 = clock_type::now();
    for (std::uint64_t e = 0; e < evals; ++e) {
      for (gate::NetId in : nl.inputs()) simu.set_input(in, (rng() & 1u) != 0);
      sequential ? simu.tick() : simu.eval();
    }
    r.scalar_gate_evals_per_s =
        static_cast<double>(evals) * static_cast<double>(r.gates) /
        seconds_since(t0);
  }

  const auto run_bitsim = [&](gate::BitSim::Accounting mode) {
    std::mt19937_64 rng(1);
    gate::BitSim simu(nl, tech, mode);
    const auto t0 = clock_type::now();
    for (std::uint64_t e = 0; e < evals; ++e) {
      for (gate::NetId in : nl.inputs()) simu.set_input(in, rng());
      sequential ? simu.tick() : simu.eval();
    }
    return static_cast<double>(evals) * static_cast<double>(r.gates) *
           gate::BitSim::kLanes / seconds_since(t0);
  };
  r.bitsim_lane_gate_evals_per_s = run_bitsim(gate::BitSim::Accounting::kAggregate);
  r.bitsim_perlane_lane_gate_evals_per_s =
      run_bitsim(gate::BitSim::Accounting::kPerLane);
  return r;
}

// --- characterization wall time --------------------------------------------

struct FlowTiming {
  std::string name;
  unsigned samples = 0;
  double bitparallel_ms = 0.0;
};

template <class Flow>
FlowTiming time_flow(std::string name, unsigned samples, unsigned reps,
                     Flow&& flow) {
  const auto t0 = clock_type::now();
  for (unsigned r = 0; r < reps; ++r) flow();
  return {std::move(name), samples, seconds_since(t0) * 1e3 / reps};
}

// --- JSON ------------------------------------------------------------------

void write_json(const std::filesystem::path& path, bool smoke,
                const std::vector<Throughput>& tp,
                const std::vector<FlowTiming>& flows) {
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
  std::ofstream os(path);
  os << "{\n  \"schema\": \"ahbpower.bench_gatesim.v2\",\n"
     << "  \"name\": \"gatesim_throughput\",\n"
     << "  \"lanes\": " << gate::BitSim::kLanes << ",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  os << "  \"throughput\": [\n";
  for (std::size_t i = 0; i < tp.size(); ++i) {
    const Throughput& t = tp[i];
    os << "    {\"name\": \"" << telemetry::json_escape(t.name)
       << "\", \"gates\": " << t.gates
       << ", \"evals\": " << t.evals
       << ",\n     \"scalar_gate_evals_per_s\": " << num(t.scalar_gate_evals_per_s)
       << ",\n     \"bitsim_lane_gate_evals_per_s\": "
       << num(t.bitsim_lane_gate_evals_per_s)
       << ",\n     \"bitsim_perlane_lane_gate_evals_per_s\": "
       << num(t.bitsim_perlane_lane_gate_evals_per_s)
       << ",\n     \"ratio\": " << num(t.ratio()) << "}"
       << (i + 1 < tp.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"characterization\": [\n";
  double total_ms = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowTiming& f = flows[i];
    total_ms += f.bitparallel_ms;
    os << "    {\"name\": \"" << telemetry::json_escape(f.name)
       << "\", \"samples\": " << f.samples
       << ", \"bitparallel_ms\": " << num(f.bitparallel_ms) << "}"
       << (i + 1 < flows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"aggregate\": {\"bitparallel_ms\": " << num(total_ms)
     << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::filesystem::path out = "BENCH_gatesim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  using namespace ahbp;
  std::puts("=== Bit-parallel gate simulation throughput ===\n");

  // Raw engine numbers on the paper's three characterized structures.
  const std::uint64_t evals = smoke ? 200 : 20000;
  const gate::DecoderNetlist dec = gate::build_onehot_decoder(64);
  const gate::MuxNetlist mux = gate::build_mux(32, 16);
  const gate::ArbiterNetlist arb = gate::build_priority_arbiter(16);
  std::vector<Throughput> tp;
  tp.push_back(measure_throughput("decoder64", dec.nl, false, evals));
  tp.push_back(measure_throughput("mux32x16", mux.nl, false, evals));
  tp.push_back(measure_throughput("arbiter16", arb.nl, true, evals / 2));

  std::printf("%-12s %8s %14s %18s %8s\n", "netlist", "gates", "scalar ev/s",
              "bitsim lane-ev/s", "ratio");
  for (const Throughput& t : tp) {
    std::printf("%-12s %8zu %14.3e %18.3e %7.1fx\n", t.name.c_str(), t.gates,
                t.scalar_gate_evals_per_s, t.bitsim_lane_gate_evals_per_s,
                t.ratio());
  }

  // Characterization wall time on the bit-parallel engine.
  const unsigned reps = smoke ? 1 : 10;
  const unsigned paper_n = smoke ? 192 : 2000;
  const unsigned stress_n = smoke ? 256 : 8192;
  const gate::Technology tech = gate::Technology::default_2003();
  std::vector<FlowTiming> flows;
  flows.push_back(time_flow("decoder/16o", paper_n, reps, [&] {
    (void)charlib::characterize_decoder(16, paper_n, 1234, tech);
  }));
  flows.push_back(time_flow("mux/32x4", paper_n, reps, [&] {
    (void)charlib::characterize_mux(32, 4, paper_n, 99, tech);
  }));
  flows.push_back(time_flow("arbiter/8m", paper_n, reps, [&] {
    (void)charlib::characterize_arbiter(8, paper_n, 555, tech);
  }));
  flows.push_back(time_flow("decoder/64o-stress", stress_n, reps, [&] {
    (void)charlib::characterize_decoder(64, stress_n, 1234, tech);
  }));
  flows.push_back(time_flow("mux/32x16-stress", stress_n, reps, [&] {
    (void)charlib::characterize_mux(32, 16, stress_n, 99, tech);
  }));
  flows.push_back(time_flow("arbiter/16m-stress", stress_n, reps, [&] {
    (void)charlib::characterize_arbiter(16, stress_n, 555, tech);
  }));

  std::printf("\n%-20s %8s %14s\n", "characterization", "samples", "bitparallel ms");
  double total_ms = 0.0;
  for (const FlowTiming& f : flows) {
    total_ms += f.bitparallel_ms;
    std::printf("%-20s %8u %14.3f\n", f.name.c_str(), f.samples, f.bitparallel_ms);
  }
  std::printf("%-20s %8s %14.3f\n", "aggregate", "", total_ms);

  write_json(out, smoke, tp, flows);
  std::printf("\nwrote %s\n", out.string().c_str());
  return 0;
}
