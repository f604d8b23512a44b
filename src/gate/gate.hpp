#pragma once
// Umbrella header for ahbp::gate -- the gate-level reference substrate
// (netlists, structural generators, toggle-energy simulation on the
// 64-lane BitSim engine). The scalar gate::GateSim is the test oracle
// BitSim is checked against; tests include its header directly.

#include "gate/area.hpp"
#include "gate/bitsim.hpp"
#include "gate/blif.hpp"
#include "gate/netlist.hpp"
#include "gate/synth.hpp"
#include "gate/tech.hpp"
