#include "ld/ld_engine.h"

#include "util/bits.h"
#include "util/trace.h"

namespace omega::ld {

namespace {
/// How many j rows ahead the oracle's inner loop hints the prefetcher.
constexpr std::size_t kPrefetchRows = 4;
}  // namespace

void NaiveLd::r2_block(std::size_t i0, std::size_t i1, std::size_t j0,
                       std::size_t j1, float* out, std::size_t ld) const {
  const util::trace::Span span("ld.naive.r2_block");
  note_served(static_cast<std::uint64_t>(i1 - i0) * (j1 - j0));
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t j = j0; j < j1; ++j) {
      if (j + kPrefetchRows < j1) {
        util::prefetch_read(dataset_.site(j + kPrefetchRows).data());
      }
      out[(i - i0) * ld + (j - j0)] =
          static_cast<float>(r2_naive(dataset_, i, j));
    }
  }
}

}  // namespace omega::ld
