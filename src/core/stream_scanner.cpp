#include "core/stream_scanner.h"

#include <algorithm>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "core/scan_driver.h"
#include "io/fingerprint.h"
#include "par/thread_pool.h"
#include "util/probe.h"
#include "util/progress.h"
#include "util/telemetry.h"
#include "util/trace.h"

namespace omega::core {

void StreamScanOptions::validate() const {
  if (chunk_sites == 0) {
    throw std::invalid_argument("stream: chunk_sites must be >= 1");
  }
  if (resume && checkpoint_path.empty()) {
    throw std::invalid_argument("stream: resume requires a checkpoint path");
  }
}

std::vector<io::SiteRange> StreamPlan::site_ranges() const {
  std::vector<io::SiteRange> ranges;
  ranges.reserve(chunks.size());
  for (const StreamChunkPlan& chunk : chunks) ranges.push_back(chunk.sites);
  return ranges;
}

std::uint64_t StreamPlan::overlap_sites() const {
  std::uint64_t overlap = 0;
  for (std::size_t k = 1; k < chunks.size(); ++k) {
    const std::size_t prev_end = chunks[k - 1].sites.end;
    const std::size_t begin = chunks[k].sites.begin;
    if (begin < prev_end) overlap += prev_end - begin;
  }
  return overlap;
}

StreamPlan plan_stream_chunks(const std::vector<std::int64_t>& positions_bp,
                              const OmegaConfig& config,
                              std::size_t chunk_sites) {
  StreamPlan plan;
  plan.grid = build_grid(positions_bp, config);

  // Pack consecutive valid positions greedily. Grid positions are laid out
  // left to right, so lo/hi are non-decreasing along the grid and the
  // covering span of a chunk is [first lo, last hi + 1).
  bool open = false;
  StreamChunkPlan current;
  std::size_t last_valid = 0;
  auto close = [&](std::size_t grid_end) {
    current.grid_end = grid_end;
    plan.chunks.push_back(current);
    open = false;
  };
  for (std::size_t g = 0; g < plan.grid.size(); ++g) {
    const GridPosition& position = plan.grid[g];
    if (!position.valid) continue;
    const std::size_t end = position.hi + 1;
    if (open && end - current.sites.begin <= chunk_sites) {
      current.sites.end = std::max(current.sites.end, end);
      last_valid = g;
      continue;
    }
    if (open) close(last_valid + 1);
    current = StreamChunkPlan{io::SiteRange{position.lo, end},
                              plan.chunks.empty() ? 0 : last_valid + 1, 0};
    last_valid = g;
    open = true;
  }
  // The final chunk also absorbs any trailing invalid positions.
  if (open) close(plan.grid.size());
  return plan;
}

ScanResult stream_scan(io::ChunkReader& reader, const ScannerOptions& options,
                       const StreamScanOptions& stream_options,
                       const std::function<std::unique_ptr<OmegaBackend>()>&
                           backend_factory) {
  stream_options.validate();
  const util::trace::Span scan_span("stream.scan");
  // One executor for the entire stream: its per-worker backends keep
  // degradation state (FallbackBackend) and fault-injection PRNG sequences
  // across chunks, exactly as across positions in-memory, and its matrices
  // carry over chunk seams.
  detail::ScanExecutor executor(options, backend_factory);
  const detail::CancelState* cancel = executor.cancel();
  // The pipeline's three stages: IO-side chunk materialization (on the IO
  // pool thread, the stream's memory-bound stage), the compute thread's wait
  // for it, and the per-chunk scan.
  static const util::probe::Site kFetch(nullptr, "stream.chunk_fetch_seconds",
                                        "stream.chunk_fetch");
  static const util::probe::Site kStall("stream.io.wait",
                                        "stream.io_stall_seconds");
  static const util::probe::Site kChunk("stream.chunk",
                                        "stream.chunk_scan_seconds");

  const io::StreamIndex& index = reader.index();
  StreamPlan plan = plan_stream_chunks(index.positions_bp, options.config,
                                       stream_options.chunk_sites);

  // Crash-safe runtime (core/checkpoint.h): the identity of this scan is the
  // dataset fingerprint plus the hash of every score-relevant setting.
  const bool checkpointing = !stream_options.checkpoint_path.empty();
  const io::StreamFingerprint fingerprint =
      io::fingerprint_stream(index, stream_options.source_path);
  const std::string config_backend_name = executor.config_backend_name();
  const std::string config_summary = scan_config_summary(
      options, stream_options.chunk_sites, config_backend_name);
  const std::uint64_t config_hash = scan_config_hash(
      options, stream_options.chunk_sites, config_backend_name);

  ScanResult result;
  std::size_t k0 = 0;  // first chunk this run scans
  if (stream_options.resume && !plan.chunks.empty()) {
    ScanCheckpoint ckpt = load_checkpoint(stream_options.checkpoint_path);
    if (!(ckpt.fingerprint == fingerprint)) {
      throw ResumeMismatchError(
          "stream_scan: checkpoint belongs to a different dataset: "
          "checkpoint " +
          ckpt.fingerprint.describe() + " vs current " +
          fingerprint.describe());
    }
    if (ckpt.config_hash != config_hash) {
      throw ResumeMismatchError(
          "stream_scan: checkpoint was written with a different scan "
          "config: checkpoint {" +
          ckpt.config_summary + "} vs current {" + config_summary + "}");
    }
    if (ckpt.chunks_total != plan.chunks.size() ||
        ckpt.grid_size != plan.grid.size()) {
      throw ResumeMismatchError(
          "stream_scan: checkpoint chunk/grid geometry does not match the "
          "current plan");
    }
    k0 = static_cast<std::size_t>(ckpt.chunks_completed);
    const std::size_t expected_committed =
        k0 == 0 ? 0 : plan.chunks[k0 - 1].grid_end;
    if (ckpt.grid_committed != expected_committed) {
      throw ResumeMismatchError(
          "stream_scan: checkpoint grid cursor does not match the chunk "
          "cursor");
    }
    // The resumed run starts from the checkpoint's totals and scores:
    // finalize() adds this run's accounting and telemetry on top.
    result.profile = std::move(ckpt.totals);
    result.scores = std::move(ckpt.scores);
    result.profile.runtime.resume_validations = 1;
    result.profile.runtime.chunks_resumed = k0;
  }
  executor.begin(plan.grid, result);
  ScanProfile& profile = result.profile;
  StreamStats& stream = profile.stream;
  stream.chunks = plan.chunks.size();
  stream.chunk_sites_target = stream_options.chunk_sites;
  stream.total_sites = index.num_sites();
  stream.overlap_sites = plan.overlap_sites();
  for (std::size_t k = 0; k < plan.chunks.size(); ++k) {
    // Peak residency is deterministic from the plan: chunk k plus, under
    // double buffering, the chunk being prefetched behind it.
    std::uint64_t resident = plan.chunks[k].sites.size();
    if (stream_options.double_buffer && k + 1 < plan.chunks.size()) {
      resident += plan.chunks[k + 1].sites.size();
    }
    stream.peak_resident_sites = std::max(stream.peak_resident_sites, resident);
  }

  std::uint64_t valid_positions = 0;
  for (const GridPosition& position : plan.grid) {
    if (position.valid) ++valid_positions;
  }

  if (plan.chunks.empty()) {
    // No valid position anywhere: nothing to read.
    if (options.progress != nullptr) {
      options.progress->begin(valid_positions, plan.chunks.size());
    }
    executor.end(plan.grid, result);
    return result;
  }

  if (options.progress != nullptr) {
    std::uint64_t positions_resumed = 0;
    const std::size_t committed0 = k0 == 0 ? 0 : plan.chunks[k0 - 1].grid_end;
    for (std::size_t g = 0; g < committed0; ++g) {
      if (plan.grid[g].valid &&
          (result.scores[g].valid || result.scores[g].quarantined)) {
        ++positions_resumed;
      }
    }
    options.progress->begin(valid_positions, plan.chunks.size(),
                            positions_resumed, k0);
  }

  // A resumed reader only plans (and re-parses) the uncommitted suffix.
  {
    std::vector<io::SiteRange> ranges = plan.site_ranges();
    ranges.erase(ranges.begin(),
                 ranges.begin() + static_cast<std::ptrdiff_t>(k0));
    reader.plan(std::move(ranges));
  }

  // Double-buffered fetch: one slot computes while the other fills on the IO
  // pool. Fetches are strictly serialized (submit only after the previous
  // get()), so the slot write is published by it. The pool is declared last
  // so that, on an exception path, its destructor finishes an in-flight
  // fetch before the slots it writes are destroyed.
  std::optional<io::DatasetChunk> slots[2];
  std::future<void> inflight;
  par::ThreadPool io_pool(1);
  auto submit_fetch = [&](std::size_t slot) {
    inflight = io_pool.submit([&reader, &slots, slot] {
      const util::probe::Stage stage(kFetch);
      slots[slot] = reader.next();
    });
  };

  std::size_t cursor = 0;
  if (k0 < plan.chunks.size()) submit_fetch(cursor);

  std::size_t committed = k0;
  auto write_ckpt = [&]() {
    if (!checkpointing) return;
    ScanCheckpoint ckpt;
    ckpt.fingerprint = fingerprint;
    ckpt.config_hash = config_hash;
    ckpt.config_summary = config_summary;
    ckpt.chunks_total = plan.chunks.size();
    ckpt.chunks_completed = committed;
    ckpt.grid_size = plan.grid.size();
    ckpt.grid_committed =
        committed == 0 ? 0 : plan.chunks[committed - 1].grid_end;
    ckpt.scores.assign(
        result.scores.begin(),
        result.scores.begin() + static_cast<std::ptrdiff_t>(ckpt.grid_committed));
    // Cumulative totals: the running profile (resumed totals included) plus
    // the finalization the stream performs at its end, applied to a copy.
    ckpt.totals = profile;
    executor.finalize(ckpt.totals);
    const std::uint64_t bytes =
        write_checkpoint(stream_options.checkpoint_path, ckpt);
    ++profile.runtime.checkpoints_written;
    profile.runtime.checkpoint_bytes += bytes;
  };
  // Initial checkpoint at the resume cursor, so a kill during the very first
  // chunk still leaves a resumable file behind.
  write_ckpt();

  for (std::size_t k = k0; k < plan.chunks.size(); ++k) {
    if (cancel != nullptr && cancel->should_stop()) break;
    const StreamChunkPlan& step = plan.chunks[k];
    {
      // Without double buffering only chunk 0 was prefetched; later chunks
      // are fetched here, serialized with compute (the whole wait is stall).
      if (!inflight.valid()) submit_fetch(cursor);
      const util::probe::Stage stage(kStall);
      inflight.get();
    }
    std::optional<io::DatasetChunk> chunk = std::move(slots[cursor]);
    slots[cursor].reset();
    if (stream_options.double_buffer && k + 1 < plan.chunks.size()) {
      cursor = 1 - cursor;
      submit_fetch(cursor);
    }
    if (!chunk.has_value()) {
      throw std::runtime_error("stream_scan: reader ended before chunk " +
                               std::to_string(k));
    }
    if (chunk->first_site != step.sites.begin ||
        chunk->dataset.num_sites() != step.sites.size()) {
      throw std::runtime_error("stream_scan: reader returned sites [" +
                               std::to_string(chunk->first_site) + ", +" +
                               std::to_string(chunk->dataset.num_sites()) +
                               ") for planned chunk " + std::to_string(k));
    }

    // Scan the chunk's grid positions; a non-BackendError escape (the
    // per-position recovery engine already absorbs BackendErrors, the
    // executor a mid-launch cancel) retries the whole chunk, then
    // quarantines whatever is still unscored. The executor skips settled
    // positions, so a retry re-runs only what is still unscored.
    bool scanned = false;
    for (std::size_t attempt = 0;
         attempt <= stream_options.chunk_retries && !scanned; ++attempt) {
      try {
        const util::probe::Stage stage(kChunk);
        const ld::SnpMatrix snps(chunk->dataset);
        const auto inner = options.ld_factory
                               ? options.ld_factory(snps)
                               : make_ld_engine(options.ld, chunk->dataset, snps);
        const ld::OffsetLd engine(*inner, chunk->first_site);
        if (profile.ld_backend.empty()) profile.ld_backend = engine.name();
        executor.run(plan.grid, step.grid_begin, step.grid_end, engine,
                     result.scores, profile);
        scanned = true;
      } catch (const std::exception&) {
        // The matrices may hold a half-extended state; force rebuilds.
        executor.invalidate();
      }
    }
    // A chunk commits when every one of its positions settled (valid or
    // quarantined). A cancelled drain can leave the chunk partially scored —
    // it stays uncommitted, the checkpoint cursor stays put, and resume
    // recomputes it from scratch (the settled-skip rule makes the re-scan
    // idempotent for anything that did settle).
    bool commit = scanned;
    if (scanned && cancel != nullptr && cancel->token->cancelled()) {
      for (std::size_t g = step.grid_begin; g < step.grid_end && commit; ++g) {
        if (plan.grid[g].valid && !result.scores[g].valid &&
            !result.scores[g].quarantined) {
          commit = false;
        }
      }
    }
    if (!scanned) {
      if (cancel != nullptr && cancel->token->cancelled()) {
        break;  // drained mid-chunk
      }
      ++stream.failed_chunks;
      std::uint64_t chunk_quarantined = 0;
      for (std::size_t g = step.grid_begin; g < step.grid_end; ++g) {
        if (!plan.grid[g].valid || result.scores[g].valid) continue;
        result.scores[g].quarantined = true;
        ++chunk_quarantined;
      }
      static util::telemetry::Counter& quarantined =
          util::telemetry::counter("scan.quarantined_positions");
      quarantined.add(chunk_quarantined);
      if (options.progress != nullptr && chunk_quarantined > 0) {
        util::ProgressReporter::Delta delta;
        delta.positions = chunk_quarantined;
        delta.quarantined = chunk_quarantined;
        options.progress->advance(delta);
      }
      commit = true;  // quarantine settles the chunk; the stream continues
    }
    if (!commit) break;
    committed = k + 1;
    if (options.progress != nullptr) {
      util::ProgressReporter::Delta delta;
      delta.chunks = 1;
      options.progress->advance(delta);
    }
    write_ckpt();
  }

  if (inflight.valid()) {
    // A cancelled drain can leave the next chunk's prefetch in flight; wait
    // it out so the IO task never outlives the slots it writes into. Fetch
    // errors are irrelevant once the stream has stopped consuming.
    try {
      inflight.get();
    } catch (const std::exception&) {
    }
  }

  executor.end(plan.grid, result);
  return result;
}

}  // namespace omega::core
