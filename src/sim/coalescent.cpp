#include "sim/coalescent.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/tree.h"

namespace omega::sim {
namespace {

struct Segment {
  double lo_fraction;  // [lo, hi) of the unit locus
  double hi_fraction;
  double tree_length;  // total branch length of the marginal genealogy
};

/// One placed mutation: fractional position and the derived-carrier leaves.
struct Mutation {
  double fraction;
  std::vector<int> carriers;
};

void drop_mutations_on_tree(const Tree& tree, const Segment& segment,
                            std::size_t count, util::Xoshiro256& rng,
                            std::vector<Mutation>& out) {
  std::vector<int> carriers;
  for (std::size_t m = 0; m < count; ++m) {
    const auto point = tree.sample_branch_point(rng);
    tree.descendant_leaves(point.node, carriers);
    Mutation mutation;
    mutation.fraction = segment.lo_fraction +
                        rng.uniform() * (segment.hi_fraction - segment.lo_fraction);
    mutation.carriers = carriers;
    out.push_back(std::move(mutation));
  }
}

}  // namespace

io::Dataset simulate(const CoalescentConfig& config) {
  if (config.samples < 2) {
    throw std::invalid_argument("coalescent: need >= 2 samples");
  }
  util::Xoshiro256 rng(config.seed);

  // Walk the locus left to right, Kingman tree first. Breakpoints arrive at
  // a rate proportional to the *current* tree length (recombinations land on
  // branches), which is what keeps the marginal genealogy Kingman-
  // distributed along the sequence: applying one move per uniformly placed
  // breakpoint would instead sample the jump chain, whose stationary law is
  // length-biased. The rate is normalized so E[#breakpoints] ~ rho when the
  // tree is at its expected length 2 * H_{n-1}.
  Tree tree = Tree::kingman(config.samples, rng, config.demography);
  std::vector<Mutation> mutations;

  double expected_length = 0.0;
  for (std::size_t i = 1; i < config.samples; ++i) {
    expected_length += 1.0 / static_cast<double>(i);
  }
  expected_length *= 2.0;

  std::vector<Segment> segments;
  std::vector<Tree> trees;
  double x = 0.0;
  while (x < 1.0) {
    double next = 1.0;
    if (config.rho > 0.0) {
      const double rate = config.rho * tree.total_length() / expected_length;
      next = x + rng.exponential(rate);
    }
    const double hi = std::min(next, 1.0);
    if (hi > x) {
      segments.push_back({x, hi, tree.total_length()});
      trees.push_back(tree);  // snapshot the marginal genealogy
    }
    if (next >= 1.0) break;
    tree.smc_prune_recoalesce(rng, config.demography);
    x = next;
  }

  if (config.fixed_segsites.has_value()) {
    // ms -s: distribute exactly S mutations over segments with probability
    // proportional to (segment width) x (tree length).
    const std::size_t total = *config.fixed_segsites;
    std::vector<double> weight(segments.size());
    double weight_sum = 0.0;
    for (std::size_t s = 0; s < segments.size(); ++s) {
      weight[s] = (segments[s].hi_fraction - segments[s].lo_fraction) *
                  segments[s].tree_length;
      weight_sum += weight[s];
    }
    // Sequential binomial thinning of the multinomial.
    std::size_t remaining = total;
    double remaining_weight = weight_sum;
    for (std::size_t s = 0; s < segments.size() && remaining > 0; ++s) {
      std::size_t take;
      if (s + 1 == segments.size() || remaining_weight <= 0.0) {
        take = remaining;
      } else {
        const double p = weight[s] / remaining_weight;
        // Binomial(remaining, p) via inversion on small counts, normal
        // approximation otherwise; exactness is not required, the row sum is
        // forced on the final segment.
        double expected = static_cast<double>(remaining) * p;
        if (remaining < 64) {
          take = 0;
          for (std::size_t i = 0; i < remaining; ++i) {
            if (rng.uniform() < p) ++take;
          }
        } else {
          const double sd = std::sqrt(expected * (1.0 - p));
          const double draw = expected + sd * rng.normal();
          take = static_cast<std::size_t>(std::clamp(
              draw, 0.0, static_cast<double>(remaining)));
        }
      }
      take = std::min(take, remaining);
      drop_mutations_on_tree(trees[s], segments[s], take, rng, mutations);
      remaining -= take;
      remaining_weight -= weight[s];
    }
  } else {
    for (std::size_t s = 0; s < segments.size(); ++s) {
      const double width = segments[s].hi_fraction - segments[s].lo_fraction;
      const double mean = config.theta / 2.0 * width * segments[s].tree_length;
      drop_mutations_on_tree(trees[s], segments[s], rng.poisson(mean), rng,
                             mutations);
    }
  }

  std::sort(mutations.begin(), mutations.end(),
            [](const Mutation& a, const Mutation& b) { return a.fraction < b.fraction; });

  // Materialize the dataset.
  std::vector<std::int64_t> positions;
  std::vector<std::vector<std::uint8_t>> sites;
  positions.reserve(mutations.size());
  sites.reserve(mutations.size());
  for (const auto& mutation : mutations) {
    auto pos = static_cast<std::int64_t>(
        std::llround(mutation.fraction * static_cast<double>(config.locus_length_bp)));
    if (!positions.empty() && pos <= positions.back()) pos = positions.back() + 1;
    positions.push_back(pos);
    std::vector<std::uint8_t> row(config.samples, 0);
    for (const int leaf : mutation.carriers) {
      row[static_cast<std::size_t>(leaf)] = 1;
    }
    sites.push_back(std::move(row));
  }
  const std::int64_t length =
      std::max<std::int64_t>(config.locus_length_bp,
                             positions.empty() ? 0 : positions.back());
  return io::Dataset(std::move(positions), std::move(sites), length);
}

}  // namespace omega::sim
