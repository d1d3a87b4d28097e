#include "core/gunrock_hash.hpp"

#include <atomic>
#include <vector>

#include "core/verify.hpp"
#include "gunrock/enactor.hpp"
#include "gunrock/frontier.hpp"
#include "gunrock/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/atomics.hpp"
#include "sim/reduce.hpp"
#include "sim/rng.hpp"
#include "sim/timer.hpp"

namespace gcol::color {

namespace {

inline bool priority_less(std::int32_t ra, vid_t a, std::int32_t rb,
                          vid_t b) noexcept {
  return ra < rb || (ra == rb && a < b);
}

}  // namespace

Coloring gunrock_hash_color(const graph::Csr& csr,
                            const GunrockHashOptions& options) {
  const vid_t n = csr.num_vertices;
  const auto un = static_cast<std::size_t>(n);
  auto& device = sim::Device::instance();

  Coloring result;
  result.algorithm = "gunrock_hash";
  result.colors.assign(un, kUncolored);
  if (n == 0) return result;
  const obs::ScopedDeviceMetrics scoped(device, result.metrics);

  const std::int32_t hash_size =
      options.hash_size < 1 ? 1 : options.hash_size;

  // Draws and tie ids key on original vertex ids (Options::original_id):
  // the proposal races stay, but each logical vertex's priority is the same
  // under every reorder strategy.
  std::vector<std::int32_t> random(un);
  const sim::CounterRng rng(options.seed);
  device.launch("gunrock_hash::init_random", n, [&](std::int64_t v) {
    random[static_cast<std::size_t>(v)] = rng.uniform_int31(
        static_cast<std::uint64_t>(options.original_id(
            static_cast<vid_t>(v))));
  });
  const auto tie_of = [&](vid_t v) { return options.original_id(v); };

  std::int32_t* colors = result.colors.data();
  // Per-vertex prohibited-color table: hash_size slots, kUncolored = empty.
  std::vector<std::int32_t> hash_table(un * static_cast<std::size_t>(hash_size),
                                       kUncolored);
  // Iteration a vertex was (tentatively) colored in; kUncolored = never.
  // Entries < current iteration are final, == current are tentative.
  std::vector<std::int32_t> colored_iter(un, kUncolored);
  // Vertices that lost a conflict must take a fresh color next time; this
  // guarantees the globally max-priority uncolored vertex finalizes within
  // two iterations (progress guarantee; see tests/core/hash_test).
  std::vector<std::uint8_t> lost_conflict(un, 0);

  std::atomic<std::int64_t> conflicts{0};
  std::int64_t prev_colored = 0;
  std::int64_t prev_conflicts = 0;
  // Bitmap modes keep the round-start uncolored set as a bitmap frontier.
  // Every operator below already early-outs on vertices outside that set
  // (colored, or not tentative this round), so iterating only the members
  // is behavior-identical to the implicit-all sweep — tentative colors and
  // conflict losers all live inside the round-start uncolored set.
  const bool bitmap = options.frontier_mode != gr::FrontierMode::kSparse;
  gr::Frontier frontier = bitmap
                              ? gr::Frontier::all_bits(n, options.frontier_mode)
                              : gr::Frontier::all(n);
  std::vector<std::uint64_t> spare_words;  // bitmap double buffer
  const double avg_degree = csr.average_degree();

  // Checks the per-vertex table; colors not found may still conflict — the
  // table is bounded and lossy by design.
  auto prohibited = [&](vid_t v, std::int32_t c) {
    const std::size_t base =
        static_cast<std::size_t>(v) * static_cast<std::size_t>(hash_size);
    for (std::int32_t s = 0; s < hash_size; ++s) {
      if (hash_table[base + static_cast<std::size_t>(s)] == c) return true;
    }
    return false;
  };

  // Deterministic color choice for a candidate: reuse the first known-safe
  // existing color unless the candidate previously lost a conflict, else
  // open a fresh color (odd for max-role, even for min-role).
  auto choose_color = [&](vid_t cand, std::int32_t iteration, bool max_role) {
    if (lost_conflict[static_cast<std::size_t>(cand)] == 0) {
      const std::int32_t used_limit = 2 * iteration;  // colors opened so far
      const std::int32_t probe_limit =
          used_limit < 2 * hash_size ? used_limit : 2 * hash_size;
      for (std::int32_t c = 0; c < probe_limit; ++c) {
        if (!prohibited(cand, c)) return c;
      }
    }
    return max_role ? 2 * iteration : 2 * iteration + 1;
  };

  // Hash-generation operator: still-uncolored vertices record their
  // neighbors' colors as prohibited (bounded table; overflow ignored). The
  // neighbor color reads are relaxed atomics. The conflict pass finished a
  // launch earlier, so they never race today; a relaxed load compiles to a
  // plain load, and should a revoking write ever overlap a hashing slot,
  // recording a color that later gets revoked only makes the bounded table
  // more conservative (a skipped reuse candidate), never improper.
  const auto hashgen_op = [&](vid_t v) {
    const auto uv = static_cast<std::size_t>(v);
    if (colors[uv] != kUncolored) return;
    const std::size_t base = uv * static_cast<std::size_t>(hash_size);
    for (const vid_t u : csr.neighbors(v)) {
      const std::int32_t cu =
          sim::atomic_load(colors[static_cast<std::size_t>(u)]);
      if (cu == kUncolored) continue;
      // Insert if absent and a slot is free.
      bool present = false;
      std::int32_t free_slot = -1;
      for (std::int32_t s = 0; s < hash_size; ++s) {
        const std::int32_t entry =
            hash_table[base + static_cast<std::size_t>(s)];
        if (entry == cu) {
          present = true;
          break;
        }
        if (entry == kUncolored && free_slot < 0) free_slot = s;
      }
      if (!present && free_slot >= 0) {
        hash_table[base + static_cast<std::size_t>(free_slot)] = cu;
      }
    }
  };
  const auto survive_op = [&](vid_t v) {
    hashgen_op(v);
    return colors[static_cast<std::size_t>(v)] == kUncolored;
  };

  const sim::Stopwatch watch;
  const std::uint64_t launches_before = device.launch_count();
  gr::Enactor enactor(device, options.max_iterations);
  const gr::EnactorStats stats = enactor.enact([&](std::int32_t iteration) {
    const obs::ScopedPhase phase("gunrock_hash::round");
    // HashColorOp (Algorithm 6): every uncolored vertex proposes colors for
    // the max- and min-priority members of {itself} U uncolored neighbors.
    const auto propose_op = [&](vid_t v) {
      const auto uv = static_cast<std::size_t>(v);
      if (sim::atomic_load(colors[uv]) != kUncolored) return;
      vid_t cand_max = v;
      vid_t cand_min = v;
      for (const vid_t u : csr.neighbors(v)) {
        const auto uu = static_cast<std::size_t>(u);
        if (sim::atomic_load(colors[uu]) != kUncolored) continue;
        if (priority_less(random[static_cast<std::size_t>(cand_max)],
                          tie_of(cand_max), random[uu], tie_of(u))) {
          cand_max = u;
        }
        if (priority_less(random[uu], tie_of(u),
                          random[static_cast<std::size_t>(cand_min)],
                          tie_of(cand_min))) {
          cand_min = u;
        }
      }
      // Propose. Writes race between proposers; conflict resolution repairs
      // any disagreement (the GPU implementation has the same property).
      sim::atomic_store(colors[static_cast<std::size_t>(cand_max)],
                        choose_color(cand_max, iteration, /*max_role=*/true));
      sim::atomic_store(colored_iter[static_cast<std::size_t>(cand_max)],
                        iteration);
      if (cand_min != cand_max) {
        sim::atomic_store(
            colors[static_cast<std::size_t>(cand_min)],
            choose_color(cand_min, iteration, /*max_role=*/false));
        sim::atomic_store(colored_iter[static_cast<std::size_t>(cand_min)],
                          iteration);
      }
    };

    // Conflict-resolution operator: tentative vertices re-check their
    // neighborhood; the lower-priority endpoint of a monochromatic edge
    // (or the tentative endpoint, when the other is final) uncolors itself.
    const auto conflict_op = [&](vid_t v) {
      const auto uv = static_cast<std::size_t>(v);
      if (sim::atomic_load(colored_iter[uv]) != iteration) return;
      const std::int32_t cv = sim::atomic_load(colors[uv]);
      if (cv == kUncolored) return;
      for (const vid_t u : csr.neighbors(v)) {
        const auto uu = static_cast<std::size_t>(u);
        if (sim::atomic_load(colors[uu]) != cv) continue;
        const std::int32_t u_iter = sim::atomic_load(colored_iter[uu]);
        const bool u_final = u_iter != kUncolored && u_iter < iteration;
        if (u_final ||
            priority_less(random[uv], tie_of(v), random[uu], tie_of(u))) {
          sim::atomic_store(colors[uv], kUncolored);
          sim::atomic_store(colored_iter[uv], kUncolored);
          lost_conflict[uv] = 1;
          conflicts.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    };

    gr::compute(device, frontier, propose_op, avg_degree);
    gr::compute(device, frontier, conflict_op, avg_degree);

    // Bitmap modes fuse hash generation, the frontier rebuild AND the
    // stop-check count into one word-owner filter_bits launch (survivor =
    // still uncolored); the sparse path pays a compute plus a count_if.
    std::int64_t colored;
    if (bitmap) {
      gr::Frontier next = gr::filter_bits(device, frontier,
                                          std::move(spare_words), survive_op,
                                          avg_degree);
      spare_words = frontier.release_words();
      frontier = std::move(next);
      colored = n - frontier.size();
    } else {
      gr::compute(device, frontier, hashgen_op, avg_degree);
      colored = sim::count_if<std::int32_t>(
          device, result.colors,
          [](std::int32_t c) { return c != kUncolored; });
    }
    const std::int64_t conflicts_now =
        conflicts.load(std::memory_order_relaxed);
    result.metrics.push("frontier", n - prev_colored);
    result.metrics.push("colored", colored);
    result.metrics.push("colors_opened", 2 * (iteration + 1));
    result.metrics.push("conflicts", conflicts_now - prev_conflicts);
    prev_colored = colored;
    prev_conflicts = conflicts_now;
    return colored < n;
  });

  result.elapsed_ms = watch.elapsed_ms();
  result.iterations = stats.iterations;
  result.kernel_launches = device.launch_count() - launches_before;
  result.conflicts_resolved = conflicts.load(std::memory_order_relaxed);
  result.num_colors = count_colors(result.colors);
  return result;
}

}  // namespace gcol::color
