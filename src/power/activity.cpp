#include "power/activity.hpp"

#include <algorithm>

#include "sim/report.hpp"

namespace ahbp::power {

Activity::Activity(std::vector<std::string> names)
    : names_(std::move(names)),
      last_value_(names_.size(), 0),
      bit_changes_(names_.size(), 0),
      nonzero_(names_.size(), 0) {}

void Activity::store_repeated(std::uint64_t n) {
  if (n > 0 && samples_ == 0) {
    throw sim::SimError("Activity::store_repeated: no previous observation");
  }
  samples_ += n;
}

std::optional<std::size_t> Activity::find(std::string_view name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - names_.begin());
}

std::uint64_t Activity::bit_change_count() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : bit_changes_) total += c;
  return total;
}

double Activity::mean_hd(std::size_t i) const {
  if (samples_ < 2) return 0.0;
  return static_cast<double>(bit_changes_[i]) / static_cast<double>(samples_ - 1);
}

void Activity::reset() {
  std::fill(last_value_.begin(), last_value_.end(), 0);
  std::fill(bit_changes_.begin(), bit_changes_.end(), 0);
  std::fill(nonzero_.begin(), nonzero_.end(), 0);
  samples_ = 0;
}

}  // namespace ahbp::power
