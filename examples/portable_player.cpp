// A portable-audio-player scenario -- the battery-powered device class
// the paper's introduction is about. A DMA-style master periodically
// streams audio frames from a flash-like slave (with wait states) to a
// zero-wait SRAM audio buffer, while a CPU-like master does sporadic
// random accesses. The power estimator produces the full report plus a
// power-vs-time CSV and a VCD waveform of the bus.
//
// Demonstrates: writing a custom master against the public API, mixing
// slave speeds, tracing (VCD + power CSV), and interpreting the
// instruction table for a bursty periodic workload.

#include <cstdio>
#include <fstream>

#include "ahb/ahb.hpp"
#include "power/power.hpp"
#include "sim/sim.hpp"

namespace {

using namespace ahbp;

/// A DMA engine: every `period` cycles, bursts `frame_words` words from
/// flash to the audio buffer (read + write per word), then sleeps.
class AudioDma final : public ahb::AhbMaster {
public:
  struct Config {
    std::uint32_t src_base = 0x2000;   ///< flash
    std::uint32_t dst_base = 0x0000;   ///< audio SRAM
    unsigned frame_words = 16;
    unsigned period_cycles = 200;
  };

  AudioDma(sim::Module* parent, std::string name, ahb::AhbBus& bus, Config cfg)
      : AhbMaster(parent, std::move(name), bus),
        cfg_(cfg),
        thread_(this, "proc", [this] { return body(); }) {}

  [[nodiscard]] std::uint64_t frames_moved() const { return frames_; }

private:
  sim::Task body() {
    std::uint32_t frame = 0;

    for (;;) {
      // Sleep until the next frame is due.
      release();
      for (unsigned i = 0; i < cfg_.period_cycles; ++i) co_await sim::wait(edge_);

      // Acquire the bus.
      request();
      co_await owned_edge();

      // Move one frame: read src word, then write it to dst (pipelined
      // read->write per word, like a real single-channel DMA). The
      // write's data is the word the read returns one cycle after the
      // write's address phase.
      for (unsigned w = 0; w < cfg_.frame_words; ++w) {
        const std::uint32_t src = cfg_.src_base + 4 * ((frame * cfg_.frame_words + w) % 256);
        const std::uint32_t dst = cfg_.dst_base + 4 * (w % 256);

        // READ address phase.
        issue({.addr = src});
        co_await ready_edge();
        settle();

        // WRITE address phase; READ data phase completes at its end.
        issue({.addr = dst, .write = true});
        co_await ready_edge();
        const std::optional<Completion> read = settle();

        // WRITE data phase carries the word just read.
        set_write_data(read->rdata);
        idle();
        co_await ready_edge();
        settle();
      }
      ++frames_;
      ++frame;
    }
  }

  Config cfg_;
  std::uint64_t frames_ = 0;
  sim::Thread thread_;
};

}  // namespace

int main() {
  using namespace ahbp;

  sim::Kernel kernel;
  sim::Module top(nullptr, "top");
  sim::Clock clk(&top, "clk", sim::SimTime::ns(10), 0.5, sim::SimTime::ns(10));
  ahb::AhbBus bus(&top, "ahb", clk);

  ahb::DefaultMaster dm(&top, "default_master", bus);
  AudioDma dma(&top, "audio_dma", bus, {});
  ahb::TrafficMaster cpu(&top, "cpu", bus,
                         {.addr_base = 0x1000,
                          .addr_range = 0x1000,
                          .min_idle_cycles = 20,
                          .max_idle_cycles = 120,
                          .min_pairs = 1,
                          .max_pairs = 4,
                          .seed = 7});

  ahb::MemorySlave audio_ram(&top, "audio_ram", bus, {.base = 0x0000, .size = 0x1000});
  ahb::MemorySlave work_ram(&top, "work_ram", bus, {.base = 0x1000, .size = 0x1000});
  ahb::MemorySlave flash(&top, "flash", bus,
                         {.base = 0x2000, .size = 0x1000, .wait_states = 2});

  bus.finalize();
  ahb::BusMonitor mon(&top, "monitor", bus);
  power::AhbPowerEstimator est(
      &top, "power", bus,
      power::AhbPowerEstimator::Config{.telemetry_window_cycles = 20});  // 200 ns

  // Waveform of the interesting bus signals.
  sim::VcdWriter vcd("portable_player.vcd", kernel);
  vcd.add(clk.signal());
  vcd.add(bus.bus().haddr, 32);
  vcd.add(bus.bus().htrans, 2);
  vcd.add(bus.bus().hwrite);
  vcd.add(bus.bus().hready);
  vcd.add(bus.bus().hmaster, 4);

  kernel.run(sim::SimTime::us(100));
  est.flush_telemetry();

  std::printf("=== portable player: 100 us @ 100 MHz ===\n");
  std::printf("audio frames streamed : %llu\n",
              static_cast<unsigned long long>(dma.frames_moved()));
  std::printf("cpu transfers         : %llu writes, %llu reads (%llu mismatches)\n",
              static_cast<unsigned long long>(cpu.stats().writes),
              static_cast<unsigned long long>(cpu.stats().reads),
              static_cast<unsigned long long>(cpu.stats().read_mismatches));
  std::printf("bus transfers total   : %llu (%llu wait cycles)\n",
              static_cast<unsigned long long>(mon.stats().transfers),
              static_cast<unsigned long long>(mon.stats().wait_cycles));
  std::printf("protocol violations   : %zu\n\n", mon.violations().size());

  std::fputs(power::format_instruction_table(est.fsm()).c_str(), stdout);
  std::putchar('\n');
  std::fputs(power::format_block_breakdown(est.block_totals()).c_str(), stdout);

  std::ofstream csv("portable_player_power.csv");
  power::write_trace_csv(csv, *est.windows(), clk.period());
  std::puts("\npower trace written to portable_player_power.csv");
  std::puts("bus waveform written to portable_player.vcd");

  const double avg_power = est.total_energy() / kernel.now().to_seconds();
  std::printf("average bus power: %s -- at a 1000 mAh / 3.7 V battery, the bus\n"
              "fabric alone would account for %.5f %% of the budget.\n",
              power::format_power(avg_power).c_str(),
              100.0 * avg_power / (1.0 * 3.7));
  return 0;
}
