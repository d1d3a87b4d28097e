#pragma once
// Shared pieces of the gcol benchmark harness: the algorithm list, the
// workload inputs, the checked call path and small statistics helpers.
// See NOTES.md for what each workload measures and why.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/registry.hpp"
#include "core/result.hpp"
#include "graph/csr.hpp"
#include "obs/json.hpp"
#include "sim/device.hpp"

namespace perfbench {

/// Worker count of the virtual device: half of a 4-vCPU host. At one worker
/// per vCPU, host steal time meets the spin barrier and identical passes
/// differ by up to 4x (NOTES.md, "Why two workers").
inline constexpr unsigned kWorkers = 2;

enum Family : int { kGreedy, kFrontier, kGraphBlas, kNaumov, kNumFamilies };

struct AlgorithmEntry {
  const char* name;
  Family family;
};

/// The deterministic Figure-1 algorithms, interleaved by family so the
/// per-pass rotation spreads a slow interval over every family. The racy
/// gunrock_hash and gm_speculative are left out: their round counts depend
/// on scheduling above one worker.
inline constexpr std::array<AlgorithmEntry, 9> kAlgorithms{{
    {"cpu_greedy", kGreedy},
    {"jp_random", kFrontier},
    {"grb_is", kGraphBlas},
    {"naumov_jpl", kNaumov},
    {"gunrock_is", kFrontier},
    {"grb_jpl", kGraphBlas},
    {"naumov_cc", kNaumov},
    {"gunrock_ar", kFrontier},
    {"grb_mis", kGraphBlas},
}};

/// One workload's inputs, regenerated from the seed on every set-up.
struct Workload {
  std::string name;
  std::vector<gcol::graph::Csr> graphs;
  std::vector<const gcol::graph::Csr*> graph_ptrs;
  gcol::color::Options options;
  std::unique_ptr<gcol::color::Batch> batch;  ///< batch_small only
  double generate_ms = 0.0;
  double build_csr_ms = 0.0;

  /// Colors every graph once with `spec`, the way a caller would: one
  /// registry call, or one Batch::run over all graphs.
  [[nodiscard]] std::vector<gcol::color::Coloring> call(
      const gcol::color::AlgorithmSpec& spec) const;
};

[[nodiscard]] bool is_workload(const std::string& name);

/// Generates and builds `name`'s graphs from `seed`, and starts its streams.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      gcol::sim::Device& device);

/// Verifies every coloring and compares each algorithm's colors with its
/// first checked call; counts calls attempted and failed.
class Checker {
 public:
  /// Checks one call's colorings of `workload` by algorithm `index`.
  /// Returns the call's summed color count.
  std::int64_t check(std::size_t index, const Workload& workload,
                     const std::vector<gcol::color::Coloring>& colorings);
  /// Counts a call that threw.
  void fail(std::size_t calls) {
    attempted_ += calls;
    failed_ += calls;
  }

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  /// Total wall time spent inside check().
  [[nodiscard]] double verify_ms() const noexcept { return verify_ms_; }

 private:
  std::array<std::vector<std::vector<std::int32_t>>, kAlgorithms.size()>
      reference_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  double verify_ms_ = 0.0;
};

[[nodiscard]] double median(std::vector<double> values);

/// Host-level noise over an interval: CPU steal share from /proc/stat and
/// this process's involuntary context switches.
class NoiseProbe {
 public:
  NoiseProbe();
  /// Steal ticks over all ticks since construction; 0 when unreadable.
  [[nodiscard]] double steal_share() const;
  [[nodiscard]] long involuntary_switches() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
  long nivcsw_ = 0;
};

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Per-call callback of run_pass: algorithm index, call wall time, result.
using CallObserver = std::function<void(
    std::size_t, double, const std::vector<gcol::color::Coloring>&)>;

/// Receives the exported trace of one traced call.
using TraceSink = std::function<void(const gcol::obs::Json&)>;

/// One pass: every algorithm called once, in kAlgorithms order rotated by
/// `rotation`. Only the calls are timed; checks run between them. Returns
/// the summed wall time of the calls, per family. With a `trace` sink, each
/// call runs under its own obs::TraceSession (one call's events at a time
/// stay small), exported to the sink after the call.
std::array<double, kNumFamilies> run_pass(const Workload& workload,
                                          Checker& checker,
                                          std::size_t rotation,
                                          const CallObserver& observe = {},
                                          const TraceSink& trace = {});

struct Metric {
  std::string name;
  double value;
  const char* unit;
};
/// Per-layer figures of the traced run, in output order.
using MetricList = std::vector<Metric>;

/// The traced run (--trace 1): per-algorithm figures from untraced passes,
/// layer probes, and traced passes whose spans give per-layer self time and
/// the tracing overhead. Runs for about `seconds`.
[[nodiscard]] MetricList run_traced(const Workload& workload,
                                    const std::string& name,
                                    std::uint64_t seed, double seconds,
                                    gcol::sim::Device& device,
                                    Checker& checker,
                                    const MetricList& setup_layers);

}  // namespace perfbench
