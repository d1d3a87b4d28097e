#include "core/distance2.hpp"

#include <algorithm>
#include <vector>

#include "core/live.hpp"
#include "core/priority_dag.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace gcol::color {

namespace {

/// Calls f(u) for every distinct u != v within distance 2 of v. May visit a
/// vertex more than once; f must be idempotent-safe.
template <typename F>
void for_each_distance2(const graph::Csr& csr, vid_t v, F f) {
  for (const vid_t u : csr.neighbors(v)) {
    f(u);
    for (const vid_t w : csr.neighbors(u)) {
      if (w != v) f(w);
    }
  }
}

}  // namespace

std::int32_t distance2_lower_bound(const graph::Csr& csr) {
  return csr.num_vertices == 0 ? 0 : csr.max_degree() + 1;
}

bool is_valid_distance2_coloring(const graph::Csr& csr,
                                 std::span<const std::int32_t> colors) {
  if (colors.size() != static_cast<std::size_t>(csr.num_vertices)) {
    return false;
  }
  for (vid_t v = 0; v < csr.num_vertices; ++v) {
    const std::int32_t cv = colors[static_cast<std::size_t>(v)];
    if (cv < 0) return false;
    bool conflict = false;
    for_each_distance2(csr, v, [&](vid_t u) {
      if (colors[static_cast<std::size_t>(u)] == cv) conflict = true;
    });
    if (conflict) return false;
  }
  return true;
}

Coloring distance2_color(const graph::Csr& csr,
                         const Distance2Options& options) {
  const vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);
  auto& device = sim::Device::instance();

  Coloring result;
  result.algorithm = options.parallel ? "distance2_jp" : "distance2_greedy";
  result.colors.assign(un, kUncolored);
  if (n == 0) return result;
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);

  std::int32_t* colors = result.colors.data();

  // The distance-2 neighborhood has size <= max_degree^2; first-fit always
  // finds a color within it.
  auto min_available = [&](vid_t v) {
    // Bounded bitmap over candidate colors [0, d2_bound].
    std::vector<std::uint64_t> forbidden;
    std::size_t bound = 64;
    forbidden.assign(bound / 64, 0);
    auto mark = [&](std::int32_t c) {
      if (c < 0) return;
      const auto uc = static_cast<std::size_t>(c);
      if (uc >= bound) {
        bound = (uc / 64 + 1) * 64;
        forbidden.resize(bound / 64, 0);
      }
      forbidden[uc / 64] |= std::uint64_t{1} << (uc % 64);
    };
    for_each_distance2(csr, v, [&](vid_t u) {
      mark(colors[static_cast<std::size_t>(u)]);
    });
    std::int32_t c = 0;
    while (static_cast<std::size_t>(c) < bound &&
           (forbidden[static_cast<std::size_t>(c) / 64] >>
                (static_cast<std::size_t>(c) % 64) &
            1u)) {
      ++c;
    }
    return c;
  };

  if (!options.parallel) {
    // The sequential greedy is one round that colors every vertex.
    gr::Enactor enactor(device, result, options.max_iterations);
    enactor.run("distance2::greedy", [&](std::int32_t) {
      for (vid_t v = 0; v < n; ++v) {
        colors[static_cast<std::size_t>(v)] = min_available(v);
      }
      return n;
    });
  } else {
    // A vertex colors once every vertex within two hops that outranks it
    // has colored. The priority packs the vertex id, so one compare is the
    // whole strict order. The walk visits x from v exactly
    // [x in N(v)] + |N(v) & N(x)| times, which is symmetric in (v, x), so
    // counting outranking visits and releasing every uncolored visit leaves
    // each count at 0 exactly once.
    std::vector<std::int64_t> priority(un);
    const sim::CounterRng rng(options.seed, 0xD257);
    device.launch("distance2::priority_init", n, [&](std::int64_t v) {
      priority[static_cast<std::size_t>(v)] =
          packed_priority(rng.uniform_int31(static_cast<std::uint64_t>(v)),
                          static_cast<vid_t>(v));
    });
    color_priority_dag(
        device, result, options.max_iterations,
        {"distance2::round", "distance2::count", "distance2::color"},
        [&](vid_t v) {
          const std::int64_t mine = priority[static_cast<std::size_t>(v)];
          std::int32_t count = 0;
          for_each_distance2(csr, v, [&](vid_t u) {
            count += priority[static_cast<std::size_t>(u)] > mine;
          });
          return count;
        },
        [&](vid_t v, auto&& release) {
          for_each_distance2(csr, v, [&](vid_t u) {
            if (colors[static_cast<std::size_t>(u)] == kUncolored) release(u);
          });
          colors[static_cast<std::size_t>(v)] = min_available(v);
        });
  }
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
