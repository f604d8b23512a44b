#pragma once
// Umbrella header for the ahbp::sim discrete-event kernel.
//
// The kernel is a compact SystemC-style simulator:
//   Kernel           -- scheduler (evaluate / update / delta-notify)
//   Module, Object   -- named design hierarchy
//   Event            -- notification primitive
//   Method, Thread   -- callback and coroutine processes
//   Signal<T>        -- delta-cycle channel; Clock -- waveform source
//   VcdWriter        -- waveform dumping
//   Reporter         -- severity-tagged diagnostics

#include "sim/clock.hpp"
#include "sim/event.hpp"
#include "sim/kernel.hpp"
#include "sim/module.hpp"
#include "sim/object.hpp"
#include "sim/process.hpp"
#include "sim/report.hpp"
#include "sim/signal.hpp"
#include "sim/time.hpp"
#include "sim/vcd.hpp"
