#include "hw/gpu/runtime.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace omega::hw::gpu {

CommandQueue::CommandQueue(GpuDeviceSpec spec, par::ThreadPool& pool)
    : spec_(std::move(spec)), pool_(pool) {}

double CommandQueue::wait_barrier(const std::vector<EventId>& wait_list) const {
  double barrier = 0.0;
  for (const EventId id : wait_list) {
    barrier = std::max(barrier, events_.at(id).end_s);
  }
  return barrier;
}

EventId CommandQueue::record(Event event) {
  events_.push_back(std::move(event));
  return events_.size() - 1;
}

EventId CommandQueue::enqueue_write(Buffer& destination, const void* source,
                                    std::size_t bytes,
                                    const std::vector<EventId>& wait_list) {
  if (bytes > destination.size()) {
    throw std::out_of_range("enqueue_write: buffer overflow");
  }
  std::memcpy(destination.data(), source, bytes);  // functional effect

  Event event;
  event.kind = Event::Kind::WriteBuffer;
  event.label = "write " + std::to_string(bytes) + "B";
  event.queued_s = queued_clock_;
  event.start_s = std::max(h2d_engine_free_, wait_barrier(wait_list));
  event.end_s = event.start_s + spec_.pcie_latency_s +
                static_cast<double>(bytes) / spec_.pcie_bandwidth_bps;
  h2d_engine_free_ = event.end_s;
  return record(std::move(event));
}

EventId CommandQueue::enqueue_read(const Buffer& source, void* destination,
                                   std::size_t bytes,
                                   const std::vector<EventId>& wait_list) {
  if (bytes > source.size()) {
    throw std::out_of_range("enqueue_read: buffer overread");
  }
  std::memcpy(destination, source.data(), bytes);

  Event event;
  event.kind = Event::Kind::ReadBuffer;
  event.label = "read " + std::to_string(bytes) + "B";
  event.queued_s = queued_clock_;
  event.start_s = std::max(d2h_engine_free_, wait_barrier(wait_list));
  event.end_s = event.start_s + spec_.pcie_latency_s +
                static_cast<double>(bytes) / spec_.pcie_bandwidth_bps;
  d2h_engine_free_ = event.end_s;
  return record(std::move(event));
}

EventId CommandQueue::enqueue_kernel(
    const std::string& label, const NdRange& range,
    const std::function<void(const WorkItem&)>& body, double modeled_seconds,
    const std::vector<EventId>& wait_list) {
  enqueue_ndrange(pool_, range, body);  // functional effect, host-side

  Event event;
  event.kind = Event::Kind::Kernel;
  event.label = label;
  event.queued_s = queued_clock_;
  event.start_s = std::max(compute_engine_free_, wait_barrier(wait_list));
  event.end_s = event.start_s + modeled_seconds;
  compute_engine_free_ = event.end_s;
  return record(std::move(event));
}

EventId CommandQueue::enqueue_host(const std::string& label, double seconds,
                                   const std::vector<EventId>& wait_list) {
  Event event;
  event.kind = Event::Kind::HostWork;
  event.label = label;
  event.queued_s = queued_clock_;
  event.start_s = std::max(host_engine_free_, wait_barrier(wait_list));
  event.end_s = event.start_s + seconds;
  host_engine_free_ = event.end_s;
  return record(std::move(event));
}

double CommandQueue::finish_time() const noexcept {
  double makespan = 0.0;
  for (const auto& event : events_) {
    makespan = std::max(makespan, event.end_s);
  }
  return makespan;
}

double CommandQueue::transfer_busy_seconds() const noexcept {
  double busy = 0.0;
  for (const auto& event : events_) {
    if (event.kind == Event::Kind::WriteBuffer ||
        event.kind == Event::Kind::ReadBuffer) {
      busy += event.duration();
    }
  }
  return busy;
}

double CommandQueue::compute_busy_seconds() const noexcept {
  double busy = 0.0;
  for (const auto& event : events_) {
    if (event.kind == Event::Kind::Kernel) busy += event.duration();
  }
  return busy;
}

double CommandQueue::overlap_seconds() const {
  // Both engines are in-order, so each engine's busy set is a list of
  // disjoint intervals; overlap is the total intersection.
  std::vector<std::pair<double, double>> transfer, compute;
  for (const auto& event : events_) {
    if (event.duration() <= 0.0) continue;
    if (event.kind == Event::Kind::Kernel) {
      compute.emplace_back(event.start_s, event.end_s);
    } else if (event.kind == Event::Kind::WriteBuffer ||
               event.kind == Event::Kind::ReadBuffer) {
      transfer.emplace_back(event.start_s, event.end_s);
    }
  }
  std::sort(transfer.begin(), transfer.end());
  std::sort(compute.begin(), compute.end());
  double overlap = 0.0;
  std::size_t i = 0, j = 0;
  while (i < transfer.size() && j < compute.size()) {
    const double lo = std::max(transfer[i].first, compute[j].first);
    const double hi = std::min(transfer[i].second, compute[j].second);
    if (hi > lo) overlap += hi - lo;
    if (transfer[i].second < compute[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return overlap;
}

}  // namespace omega::hw::gpu
