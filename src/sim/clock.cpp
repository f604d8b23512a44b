#include "sim/clock.hpp"

#include "sim/report.hpp"

namespace ahbp::sim {

Clock::Clock(Module* parent, std::string name, SimTime period, double duty,
             SimTime start_delay)
    : Module(parent, std::move(name)),
      period_(period),
      start_delay_(start_delay),
      sig_(this, "clk", false) {
  if (period <= SimTime::zero()) throw SimError("clock period must be positive");
  if (duty <= 0.0 || duty >= 1.0) throw SimError("clock duty cycle must be in (0,1)");
  high_time_ = SimTime::fs(
      static_cast<std::int64_t>(static_cast<double>(period.femtoseconds()) * duty));
  low_time_ = period - high_time_;
  if (high_time_ <= SimTime::zero() || low_time_ <= SimTime::zero()) {
    throw SimError("clock duty cycle unrepresentable at this period");
  }
  kernel().register_clock(*this);
}

Clock::~Clock() { kernel().unregister_clock(*this); }

void Clock::start() {
  started_ = true;
  if (start_delay_ > SimTime::zero()) {
    next_edge_ = kernel().now() + start_delay_;
  } else {
    edge();  // rises at now(), visible one delta later
  }
}

void Clock::edge() {
  sig_.write(next_value_);
  next_edge_ = kernel().now() + (next_value_ ? high_time_ : low_time_);
  next_value_ = !next_value_;
}

}  // namespace ahbp::sim
