#pragma once
// AHB address decoder: HADDR -> HSELx (one-hot) + selected-slave index.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ahb/signals.hpp"
#include "sim/module.hpp"
#include "sim/process.hpp"

namespace ahbp::ahb {

/// Index value meaning "no mapped slave" before the default slave is
/// appended; after AhbBus::finalize() every address decodes somewhere.
inline constexpr std::uint8_t kNoSlave = 0xFF;

/// Combinational address decoder.
///
/// Decodes the bus address into one-hot HSEL lines plus a binary
/// selected-slave index used by the pipeline register / S2M mux. Ranges
/// must not overlap; unmapped addresses select the fallback slave set via
/// set_fallback() (the bus wires this to its built-in default slave).
class Decoder : public sim::Module {
public:
  Decoder(sim::Module* parent, std::string name, BusSignals& bus);

  /// Adds a slave's address range; returns the slave index.
  unsigned attach(AddressRange range);

  /// Index selected when no range matches (the default slave).
  void set_fallback(unsigned slave_index);

  /// Creates HSEL signals and the decode process. Call once after all
  /// slaves are attached.
  void finalize();

  [[nodiscard]] sim::Signal<bool>& hsel(unsigned s) { return *hsel_.at(s); }
  /// Binary index of the currently addressed slave.
  [[nodiscard]] sim::Signal<std::uint8_t>& selected() { return selected_; }
  [[nodiscard]] unsigned n_slaves() const { return static_cast<unsigned>(ranges_.size()); }
  [[nodiscard]] const AddressRange& range(unsigned s) const { return ranges_.at(s); }

private:
  void decode();

  BusSignals& bus_;
  std::vector<AddressRange> ranges_;
  std::vector<std::unique_ptr<sim::Signal<bool>>> hsel_;
  sim::Signal<std::uint8_t> selected_;
  unsigned fallback_ = kNoSlave;
  std::unique_ptr<sim::Method> proc_;
};

}  // namespace ahbp::ahb
