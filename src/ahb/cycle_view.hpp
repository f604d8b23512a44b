#pragma once
// The per-cycle bus activity record and its subscriber interface -- the
// reporting protocol of the paper's "global" integration style (Fig. 1).
//
// AhbBus samples one CycleView per bus cycle, at the falling edge, and
// posts it to every subscriber in subscription order. The power FSM,
// the global analyzer, the trace recorder, the gate-level cross-check
// and the power governor all read the bus through this one sample. The
// header carries no simulation-kernel types, so the transaction-level
// model builds CycleViews without the kernel.

#include <cstdint>

namespace ahbp::ahb {

class AhbBus;

/// One cycle's settled bus values, as sampled by the instrumentation.
struct CycleView {
  std::uint32_t haddr = 0;
  std::uint8_t htrans = 0;
  bool hwrite = false;
  std::uint8_t hsize = 0;
  std::uint8_t hburst = 0;
  std::uint32_t hwdata = 0;
  std::uint32_t hrdata = 0;
  bool hready = true;
  std::uint8_t hresp = 0;
  std::uint8_t hmaster = 0;
  std::uint8_t hmaster_data = 0;  ///< data-phase bus owner
  std::uint8_t data_slave = 0xFF;
  bool data_active = false;
  bool data_write = false;
  std::uint32_t req_vector = 0;    ///< HBUSREQx, bit per master
  std::uint32_t grant_vector = 0;  ///< HGRANTx, bit per master
  /// Split-masked masters (arbiter HSPLITx mask, bit per master). A
  /// masked master's pending request is *not* arbitration work -- the
  /// arbiter ignores it until resume -- so it must not classify the
  /// cycle as IDLE_HO.
  std::uint32_t split_vector = 0;
};

/// Receives one CycleView per bus cycle (AhbBus::subscribe). A
/// subscriber destroyed before its bus unsubscribes itself.
class CycleSubscriber {
public:
  CycleSubscriber() = default;
  CycleSubscriber(const CycleSubscriber&) = delete;
  CycleSubscriber& operator=(const CycleSubscriber&) = delete;
  virtual ~CycleSubscriber();

  /// Delivers one cycle's activity record.
  virtual void post_cycle(const CycleView& view) = 0;

private:
  friend class AhbBus;
  AhbBus* bus_ = nullptr;  ///< the bus posting to this subscriber
};

}  // namespace ahbp::ahb
