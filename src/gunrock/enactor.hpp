#pragma once
// The Gunrock enactor: the bulk-synchronous round driver that "calls this
// compute operator until all vertices are colored" (paper §IV-B1). Every
// round-based colorer runs on it. The algorithm supplies one round body; the
// enactor owns the stop rule, the iteration cap, the round span, the
// per-round "frontier"/"colored" series and the timing epilogue
// (iterations, elapsed_ms, kernel_launches == global synchronizations).

#include <cstdint>
#include <string_view>

#include "core/result.hpp"
#include "obs/trace.hpp"
#include "sim/device.hpp"
#include "sim/timer.hpp"

namespace gcol::gr {

class Enactor {
 public:
  /// Starts the color-phase window: the clock and the launch count begin
  /// here, so launches an algorithm makes between construction and run()
  /// (its setup fills) count toward result.kernel_launches.
  Enactor(sim::Device& device, color::Coloring& result,
          std::int32_t max_iterations)
      : device_(device),
        result_(result),
        max_iterations_(max_iterations),
        launches_before_(device.launch_count()) {}

  /// Runs body(iteration) once per round, iteration = 0, 1, ..., under a
  /// `round_name` phase span. The body colors some vertices and returns how
  /// many of the n = result.colors.size() are colored so far. Each round
  /// pushes "frontier" (n minus the colored count before the round) and
  /// "colored" (the body's return). Rounds stop once colored == n; a round
  /// never starts after that. When max_iterations rounds have run with
  /// vertices still uncolored, result.hit_iteration_cap is set and the
  /// partial coloring is returned as it stands. Fills result.iterations,
  /// elapsed_ms and kernel_launches; num_colors stays the caller's.
  template <typename Body>
  void run(std::string_view round_name, Body body) {
    const auto n = static_cast<std::int64_t>(result_.colors.size());
    std::int64_t colored = 0;
    std::int32_t iteration = 0;
    for (; colored < n; ++iteration) {
      if (iteration == max_iterations_) {
        result_.hit_iteration_cap = true;
        break;
      }
      const obs::ScopedPhase phase(round_name);
      result_.metrics.push("frontier", n - colored);
      colored = body(iteration);
      result_.metrics.push("colored", colored);
    }
    result_.iterations = iteration;
    result_.elapsed_ms = watch_.elapsed_ms();
    result_.kernel_launches = device_.launch_count() - launches_before_;
  }

 private:
  sim::Device& device_;
  color::Coloring& result_;
  std::int32_t max_iterations_;
  std::uint64_t launches_before_;
  sim::Stopwatch watch_;
};

}  // namespace gcol::gr
