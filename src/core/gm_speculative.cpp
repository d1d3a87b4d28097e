#include "core/gm_speculative.hpp"

#include <atomic>
#include <vector>

#include "core/palette.hpp"
#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "obs/metrics.hpp"
#include "sim/atomics.hpp"

namespace gcol::color {

namespace {

/// Minimum color absent from v's currently-colored neighborhood, via the
/// zero-allocation windowed bit palette (the speculative kernel runs this
/// per vertex per round — a heap allocation here was the hot-loop malloc).
std::int32_t min_available(const graph::Csr& csr, const std::int32_t* colors,
                           vid_t v) {
  const auto adj = csr.neighbors(v);
  return palette::first_fit_windowed(
      static_cast<std::int64_t>(adj.size()), [&](std::int64_t k) {
        return sim::atomic_load(colors[static_cast<std::size_t>(
            adj[static_cast<std::size_t>(k)])]);
      });
}

}  // namespace

Coloring gm_speculative_color(const graph::Csr& csr,
                              const GmSpeculativeOptions& options) {
  const vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);
  auto& device = sim::Device::instance();

  Coloring result;
  result.algorithm = "gm_speculative";
  result.colors.assign(un, kUncolored);
  if (n == 0) return result;
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);

  std::int32_t* colors = result.colors.data();
  gr::Frontier active = gr::Frontier::all(n);
  std::atomic<std::int64_t> conflicts_total{0};
  std::int64_t prev_conflicts = 0;
  // Set by conflict detection, cleared by the filter as its vertex retries,
  // so every flag is zero again at the start of each round.
  std::vector<std::uint8_t> conflicted(un, 0);

  gr::Enactor enactor(device, result, options.max_iterations);
  enactor.run("gm::round", [&](std::int32_t) {
    // Sequential tail: below the threshold the coordination cost of two
    // more parallel launches exceeds just finishing the stragglers.
    if (!active.is_all() && active.size() <= options.sequential_threshold) {
      device.host_pass("gm::sequential_tail", [&] {
        for (std::int64_t i = 0; i < active.size(); ++i) {
          const vid_t v = active.vertex(i);
          colors[static_cast<std::size_t>(v)] = min_available(csr, colors, v);
        }
      });
      result.metrics.push("conflicts", 0);
      return std::int64_t{n};
    }

    // Phase 1: optimistic (speculative) coloring.
    gr::compute(device, active, [&](vid_t v) {
      sim::atomic_store(colors[static_cast<std::size_t>(v)],
                        min_available(csr, colors, v));
    });

    // Phase 2: conflict detection — the higher-ORIGINAL-id endpoint of
    // every monochromatic edge returns to the active set, so the retry
    // choice does not depend on the registry's relabeling.
    gr::compute(device, active, [&](vid_t v) {
      const std::int32_t cv = colors[static_cast<std::size_t>(v)];
      for (const vid_t u : csr.neighbors(v)) {
        if (colors[static_cast<std::size_t>(u)] == cv &&
            options.original_id(u) < options.original_id(v)) {
          conflicted[static_cast<std::size_t>(v)] = 1;
          conflicts_total.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });

    // Phase 3: uncolor conflicted vertices and retry just those.
    active = gr::filter(device, active, [&](vid_t v) {
      if (conflicted[static_cast<std::size_t>(v)] != 0) {
        conflicted[static_cast<std::size_t>(v)] = 0;
        colors[static_cast<std::size_t>(v)] = kUncolored;
        return true;
      }
      return false;
    });
    const std::int64_t conflicts_now =
        conflicts_total.load(std::memory_order_relaxed);
    result.metrics.push("conflicts", conflicts_now - prev_conflicts);
    prev_conflicts = conflicts_now;
    return n - active.size();
  });
  result.conflicts_resolved = conflicts_total.load(std::memory_order_relaxed);
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
