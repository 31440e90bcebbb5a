#pragma once
// Tracing for the ledger's traced run, built only from extension points the
// scan already calls: ScannerOptions::ld_factory (LD engine), the backend
// factory argument (omega backend) and io::ChunkReader (chunk fetches). Each
// decorator forwards to the real object and records one span per call, so
// the program itself stays untouched and untraced runs pay nothing.
//
// Spans are kept in memory and written as Chrome trace-event JSON when the
// run ends; they open in Perfetto next to the program's own --trace-out.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/scanner.h"
#include "io/chunk_reader.h"
#include "ld/ld_engine.h"

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0: a root span
  std::uint32_t thread = 0;  // dense per-process thread number
  std::uint32_t run = 0;     // which traced call the span belongs to
  double start_s = 0.0;      // since the log was created
  double end_s = 0.0;
  /// Work the call did: r2 cells for r2_block, omega evaluations for
  /// max_omega, sites for load and next.
  std::uint64_t work = 0;

  [[nodiscard]] double seconds() const noexcept { return end_s - start_s; }
};

/// Thread-safe in-memory span store.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  SpanLog() : epoch_(Clock::now()) {}

  /// Opens a span under the current parent (see set_parent) and returns its
  /// id for close().
  std::uint32_t open(const char* name);
  void close(std::uint32_t id, std::uint64_t work = 0);

  /// Parent and run id stamped on spans opened from now on; the decorators
  /// open their spans on scan worker threads, under the scan span.
  void set_parent(std::uint32_t parent, std::uint32_t run);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  /// Chrome trace-event document ("X" events with id/parent/run args and
  /// per-thread name metadata).
  void write_chrome_trace(const std::string& path) const;

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
  std::uint32_t parent_ = 0;       // guarded by mutex_
  std::uint32_t run_ = 0;          // guarded by mutex_
};

/// RAII span on the log's current parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name)
      : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_, work_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(std::uint64_t work) noexcept { work_ = work; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
  std::uint64_t work_ = 0;
};

/// Forwards r2_block to the engine the scan would have built.
class TracedLd final : public omega::ld::LdEngine {
 public:
  TracedLd(std::unique_ptr<omega::ld::LdEngine> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override;
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t num_sites() const override {
    return inner_->num_sites();
  }

 private:
  std::unique_ptr<omega::ld::LdEngine> inner_;
  SpanLog& log_;
};

/// Forwards max_omega and contribute to the CPU backend.
class TracedOmega final : public omega::core::OmegaBackend {
 public:
  TracedOmega(std::unique_ptr<omega::core::OmegaBackend> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  omega::core::OmegaResult max_omega(
      const omega::core::DpMatrix& m,
      const omega::core::GridPosition& position) override;
  void contribute(omega::core::ScanProfile& profile) const override {
    inner_->contribute(profile);
  }

 private:
  std::unique_ptr<omega::core::OmegaBackend> inner_;
  SpanLog& log_;
};

/// Forwards to a streaming reader and records a span per next().
class TracedChunkReader final : public omega::io::ChunkReader {
 public:
  TracedChunkReader(omega::io::ChunkReader& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const omega::io::StreamIndex& index() const noexcept override {
    return inner_.index();
  }
  void plan(std::vector<omega::io::SiteRange> ranges) override {
    inner_.plan(std::move(ranges));
  }
  std::optional<omega::io::DatasetChunk> next() override;

 private:
  omega::io::ChunkReader& inner_;
  SpanLog& log_;
};

}  // namespace perfbench
