#include "core/omega_search.h"

#include "core/omega_math.h"

namespace omega::core {

OmegaResult max_omega_search(const DpMatrix& m, const GridPosition& position) {
  // Loop order: right border b outer, left border a inner. For a fixed b,
  // M(b, a) walks row b of M contiguously and M(c, a) walks row c
  // contiguously, so the scan streams two rows per outer iteration instead
  // of striding across the whole matrix — the CPU-side analogue of the
  // paper's "two columns per iteration of i" layout observation (Fig. 9).
  // Results are order-independent (strict max).
  if (!position.valid) return {};
  return max_omega_search_range(m, position, position.b_min, position.hi);
}

OmegaResult max_omega_search_range(const DpMatrix& m,
                                   const GridPosition& position,
                                   std::size_t b_begin, std::size_t b_end) {
  OmegaResult result;
  const std::size_t c = position.c;
  for (std::size_t b = b_begin; b <= b_end; ++b) {
    const double right_sum = m.at_fast(b, c + 1);
    const std::size_t r = b - c;
    for (std::size_t a = position.lo; a <= position.a_max; ++a) {
      const double left_sum = m.at_fast(c, a);
      const double cross_sum = m.at_fast(b, a) - (left_sum + right_sum);
      const std::size_t l = c - a + 1;
      const double omega = omega_from_sums(left_sum, right_sum, cross_sum, l, r);
      ++result.evaluated;
      if (omega > result.max_omega) {
        result.max_omega = omega;
        result.best_a = a;
        result.best_b = b;
      }
    }
  }
  return result;
}

std::size_t PositionBuffers::payload_bytes() const noexcept {
  return ls.size() * sizeof(float) + rs.size() * sizeof(float) +
         k.size() * sizeof(float) + m_binom.size() * sizeof(float) +
         l_counts.size() * sizeof(std::uint32_t) +
         r_counts.size() * sizeof(std::uint32_t) + total.size() * sizeof(float);
}

PositionBuffers pack_position(const DpMatrix& m, const GridPosition& position) {
  PositionBuffers buffers;
  if (!position.valid) return buffers;
  const std::size_t c = position.c;
  buffers.num_left = position.a_max - position.lo + 1;
  buffers.num_right = position.hi - position.b_min + 1;

  buffers.ls.resize(buffers.num_left);
  buffers.k.resize(buffers.num_left);
  buffers.l_counts.resize(buffers.num_left);
  for (std::size_t ai = 0; ai < buffers.num_left; ++ai) {
    const std::size_t a = position.lo + ai;
    const std::size_t l = c - a + 1;
    buffers.ls[ai] = static_cast<float>(m.at_fast(c, a));
    buffers.k[ai] = static_cast<float>(choose2(l));
    buffers.l_counts[ai] = static_cast<std::uint32_t>(l);
  }

  buffers.rs.resize(buffers.num_right);
  buffers.m_binom.resize(buffers.num_right);
  buffers.r_counts.resize(buffers.num_right);
  for (std::size_t bi = 0; bi < buffers.num_right; ++bi) {
    const std::size_t b = position.b_min + bi;
    const std::size_t r = b - c;
    buffers.rs[bi] = static_cast<float>(m.at_fast(b, c + 1));
    buffers.m_binom[bi] = static_cast<float>(choose2(r));
    buffers.r_counts[bi] = static_cast<std::uint32_t>(r);
  }

  buffers.total.resize(buffers.num_left * buffers.num_right);
  // Outer loop over b so M(b, a) streams row b contiguously; the strided
  // writes land in the (much smaller) output buffer.
  for (std::size_t bi = 0; bi < buffers.num_right; ++bi) {
    const std::size_t b = position.b_min + bi;
    for (std::size_t ai = 0; ai < buffers.num_left; ++ai) {
      const std::size_t a = position.lo + ai;
      buffers.total[ai * buffers.num_right + bi] =
          static_cast<float>(m.at_fast(b, a));
    }
  }
  return buffers;
}

}  // namespace omega::core
