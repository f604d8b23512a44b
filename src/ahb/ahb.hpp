#pragma once
// Umbrella header for ahbp::ahb -- the AMBA AHB bus model.
//
//   AhbBus                        -- fabric top (arbiter/decoder/muxes)
//   TrafficMaster, DefaultMaster,
//   ScriptedMaster                -- masters
//   MemorySlave, DefaultSlave     -- slaves
//   BusMonitor                    -- protocol checker + statistics
//   CycleView, CycleSubscriber    -- the per-cycle bus sample stream

#include "ahb/arbiter.hpp"
#include "ahb/burst.hpp"
#include "ahb/bus.hpp"
#include "ahb/cycle_view.hpp"
#include "ahb/decoder.hpp"
#include "ahb/master.hpp"
#include "ahb/monitor.hpp"
#include "ahb/mux.hpp"
#include "ahb/signals.hpp"
#include "ahb/slave.hpp"
#include "ahb/trace.hpp"
#include "ahb/types.hpp"
