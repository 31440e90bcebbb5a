#include "sim/demography.h"

#include <limits>
#include <stdexcept>

namespace omega::sim {

Demography::Demography(std::vector<Epoch> epochs) : epochs_(std::move(epochs)) {
  if (epochs_.empty() || epochs_.front().start_time != 0.0) {
    throw std::invalid_argument("demography: first epoch must start at 0");
  }
  for (std::size_t e = 1; e < epochs_.size(); ++e) {
    if (epochs_[e].start_time <= epochs_[e - 1].start_time) {
      throw std::invalid_argument("demography: epoch times must increase");
    }
  }
  for (const auto& epoch : epochs_) {
    if (epoch.relative_size <= 0.0) {
      throw std::invalid_argument("demography: sizes must be positive");
    }
  }
}

double Demography::size_at(double t) const noexcept {
  double size = epochs_.front().relative_size;
  for (const auto& epoch : epochs_) {
    if (epoch.start_time > t) break;
    size = epoch.relative_size;
  }
  return size;
}

double Demography::waiting_time(double now, double base_rate,
                                util::Xoshiro256& rng) const {
  if (base_rate <= 0.0) return std::numeric_limits<double>::infinity();
  double budget = rng.exponential(1.0);  // unit exponential to spend
  double t = now;
  double elapsed = 0.0;  // tracked separately to avoid t +/- now round-trips
  for (std::size_t e = 0; e <= epochs_.size(); ++e) {
    // Segment of constant size containing t.
    const double size = size_at(t);
    double segment_end = std::numeric_limits<double>::infinity();
    for (const auto& epoch : epochs_) {
      if (epoch.start_time > t) {
        segment_end = epoch.start_time;
        break;
      }
    }
    const double rate = base_rate / size;
    const double capacity =
        segment_end == std::numeric_limits<double>::infinity()
            ? std::numeric_limits<double>::infinity()
            : rate * (segment_end - t);
    if (budget <= capacity) {
      return elapsed + budget / rate;
    }
    budget -= capacity;
    elapsed += segment_end - t;
    t = segment_end;
  }
  return std::numeric_limits<double>::infinity();  // unreachable
}

std::vector<double> Demography::boundaries_between(double now,
                                                   double horizon) const {
  std::vector<double> times;
  for (const auto& epoch : epochs_) {
    if (epoch.start_time > now && epoch.start_time <= horizon) {
      times.push_back(epoch.start_time);
    }
  }
  return times;
}

Demography Demography::bottleneck(double start, double duration,
                                  double severity) {
  return Demography({{0.0, 1.0},
                     {start, severity},
                     {start + duration, 1.0}});
}

}  // namespace omega::sim
