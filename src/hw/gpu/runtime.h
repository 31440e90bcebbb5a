#pragma once
// OpenCL-like simulated runtime: buffers, an in-order command queue, events
// with wait lists, and a *modeled device timeline*. The paper's GPU
// implementation is OpenCL; this layer reproduces its host-side structure:
//
//   * Buffer          — device allocation (simulated as host storage);
//   * enqueue_write / enqueue_read — PCIe transfers, modeled on the DMA
//     ("transfer") engine: duration = latency + bytes / bandwidth;
//   * enqueue_kernel  — functional execution on the thread pool NOW, with a
//     caller-supplied modeled duration scheduled on the compute engine;
//   * events/wait lists — dependencies; a command starts at
//     max(its engine's free time, completion of everything it waits on).
//
// Two independent engines give the copy/compute overlap real GPUs have —
// the mechanism behind the paper's "part of the data movement overhead is
// hidden by overlapping data transfers with kernel execution" — so overlap
// *emerges* from the schedule instead of being a fudge factor. The
// closed-form model (timing_model.h) remains the cheap approximation used
// by the paper-scale benches; tests check the two agree.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/device_specs.h"
#include "hw/gpu/ndrange.h"
#include "par/thread_pool.h"

namespace omega::hw::gpu {

class Buffer {
 public:
  explicit Buffer(std::size_t bytes) : storage_(bytes) {}
  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] std::byte* data() noexcept { return storage_.data(); }
  [[nodiscard]] const std::byte* data() const noexcept {
    return storage_.data();
  }
  /// Typed view helpers.
  template <typename T>
  [[nodiscard]] T* as() noexcept {
    return reinterpret_cast<T*>(storage_.data());
  }
  template <typename T>
  [[nodiscard]] const T* as() const noexcept {
    return reinterpret_cast<const T*>(storage_.data());
  }

 private:
  std::vector<std::byte> storage_;
};

using EventId = std::size_t;

struct Event {
  enum class Kind { WriteBuffer, ReadBuffer, Kernel, HostWork, Marker };
  Kind kind = Kind::Marker;
  std::string label;
  double queued_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
  [[nodiscard]] double duration() const noexcept { return end_s - start_s; }
};

class CommandQueue {
 public:
  CommandQueue(GpuDeviceSpec spec, par::ThreadPool& pool);

  /// Host -> device copy; returns the transfer event.
  EventId enqueue_write(Buffer& destination, const void* source,
                        std::size_t bytes,
                        const std::vector<EventId>& wait_list = {});

  /// Device -> host copy.
  EventId enqueue_read(const Buffer& source, void* destination,
                       std::size_t bytes,
                       const std::vector<EventId>& wait_list = {});

  /// Launches `body` over `range` functionally (on the thread pool, now) and
  /// schedules `modeled_seconds` of compute-engine time.
  EventId enqueue_kernel(const std::string& label, const NdRange& range,
                         const std::function<void(const WorkItem&)>& body,
                         double modeled_seconds,
                         const std::vector<EventId>& wait_list = {});

  /// Serial host-side work (buffer packing etc.), scheduled on the host
  /// "engine": it delays dependent transfers without occupying the device.
  EventId enqueue_host(const std::string& label, double seconds,
                       const std::vector<EventId>& wait_list = {});

  [[nodiscard]] const Event& event(EventId id) const { return events_.at(id); }
  [[nodiscard]] std::size_t commands() const noexcept { return events_.size(); }

  /// Makespan of everything enqueued so far.
  [[nodiscard]] double finish_time() const noexcept;
  /// Busy time per engine, and the span during which both are busy (the
  /// transfer time hidden behind compute).
  [[nodiscard]] double transfer_busy_seconds() const noexcept;
  [[nodiscard]] double compute_busy_seconds() const noexcept;
  [[nodiscard]] double overlap_seconds() const;

  [[nodiscard]] const GpuDeviceSpec& spec() const noexcept { return spec_; }

 private:
  double wait_barrier(const std::vector<EventId>& wait_list) const;
  EventId record(Event event);

  GpuDeviceSpec spec_;
  par::ThreadPool& pool_;
  std::vector<Event> events_;
  // Dual copy engines (the K80 generation has independent H2D and D2H
  // DMA units), one compute engine, one serial host lane.
  double h2d_engine_free_ = 0.0;
  double d2h_engine_free_ = 0.0;
  double compute_engine_free_ = 0.0;
  double host_engine_free_ = 0.0;
  double queued_clock_ = 0.0;  // monotone enqueue timestamps
};

}  // namespace omega::hw::gpu
