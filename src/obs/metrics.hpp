#pragma once
// Per-run observability: a metrics payload every coloring algorithm fills in
// and every harness can serialize. Three kinds of measurements, mirroring
// what the paper's comparative analysis needs (and what Gunrock's own
// methodology records):
//
//   counters — scalar totals ("conflicts", "recolor_passes");
//   series   — one value per outer iteration ("frontier", "colored",
//              "colors_opened"): the per-round trajectory behind Figure 1's
//              endpoint numbers;
//   kernels  — per-kernel-name launch aggregates (count, work items, wall
//              time) captured from the virtual device, the CPU analogue of a
//              per-kernel profiler timeline.
//
// All three preserve first-insertion order so serialized output is
// schema-stable. Recording is host-thread-only and O(1) amortized per call,
// cheap enough to stay enabled inside timed benchmark regions.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "sim/device.hpp"

namespace gcol::obs {

/// Aggregate over every launch of one named kernel. Besides the original
/// launch/item/time totals, launches observed with per-slot telemetry fold in
/// the sums needed to derive the three load-imbalance metrics the paper's
/// comparative analysis turns on (see DESIGN.md §3c):
///   max/mean busy ratio  — how much slower the straggler slot is than the
///                          average slot (1.0 = perfectly balanced);
///   barrier-wait share   — fraction of aggregate slot-time spent waiting at
///                          the launch barrier for stragglers;
///   items CoV            — coefficient of variation of per-slot item counts
///                          (work-distribution skew independent of timing).
/// Launches that declared a traffic model also fold in modeled bytes (and
/// thus achieved GB/s), and hardware-sampled launches fold in per-slot
/// counter deltas (IPC, LLC miss rate) — the two tiers of DESIGN.md §3h.
/// All are accumulated as plain sums so KernelStats merge losslessly.
struct KernelStat {
  std::uint64_t launches = 0;  ///< times this kernel was launched
  std::int64_t items = 0;      ///< total work items across launches
  double total_ms = 0.0;       ///< total wall time including barriers
  /// Traversal direction stamped by the launch ("push"/"pull"), nullptr for
  /// direction-less kernels. Points at a string literal; when a kernel name
  /// is launched under both directions the last observed one wins (e.g.
  /// "gr::filter_bits", whose one name covers both directions).
  const char* direction = nullptr;
  /// Bitmask of stream ids this kernel launched on (bit min(stream, 63));
  /// 0 when only the name/items/ms overload recorded. Serialized as a
  /// "streams" population count only when a non-default stream appears, so
  /// classic single-stream payloads are byte-identical to gcol-bench-v2.
  std::uint64_t stream_mask = 0;

  // ---- per-slot telemetry sums (only launches that carried telemetry) ----
  std::uint64_t telemetry_launches = 0;  ///< launches with slot telemetry
  std::uint64_t slot_samples = 0;        ///< Σ slots over those launches
  std::int64_t telemetry_items = 0;      ///< Σ per-slot items
  double telemetry_items_sq = 0.0;       ///< Σ per-slot items² (for CoV)
  double busy_ms = 0.0;          ///< Σ per-slot busy time (end - start)
  double busy_max_ms = 0.0;      ///< Σ per-launch max slot busy time
  double busy_mean_ms = 0.0;     ///< Σ per-launch mean slot busy time
  double wait_ms = 0.0;          ///< Σ per-slot barrier wait (T - end)
  double span_ms = 0.0;          ///< Σ per-launch slots × T (wait denominator)

  // ---- modeled memory traffic (Tier A; launches that declared a model) ----
  std::uint64_t modeled_launches = 0;  ///< launches with traffic.modeled()
  std::int64_t bytes_read = 0;         ///< Σ modeled bytes read
  std::int64_t bytes_written = 0;      ///< Σ modeled bytes written
  double modeled_ms = 0.0;             ///< Σ wall time over modeled launches

  // ---- hardware counters (Tier B; slots that sampled successfully) -------
  std::uint64_t hw_launches = 0;  ///< launches with ≥ 1 hw_valid slot
  sim::HwCounters hw{};           ///< Σ per-slot deltas over those launches

  /// Achieved bandwidth of the traffic model, GB/s: Σ modeled bytes over the
  /// wall time of the modeled launches only (so a kernel modeled on some
  /// launches is not diluted); 0 when nothing was modeled.
  [[nodiscard]] double gbps() const noexcept {
    return modeled_ms > 0.0
               ? static_cast<double>(bytes_read + bytes_written) /
                     (modeled_ms * 1e6)
               : 0.0;
  }
  /// Instructions per cycle over the sampled slots; 0 without samples.
  [[nodiscard]] double ipc() const noexcept {
    return hw.cycles > 0 ? static_cast<double>(hw.instructions) /
                               static_cast<double>(hw.cycles)
                         : 0.0;
  }
  /// LLC load-miss rate over the sampled slots; 0 without samples.
  [[nodiscard]] double llc_miss_rate() const noexcept {
    return hw.llc_loads > 0 ? static_cast<double>(hw.llc_misses) /
                                  static_cast<double>(hw.llc_loads)
                            : 0.0;
  }

  /// Max/mean busy-time ratio across telemetered launches, time-weighted by
  /// launch (Σ max) / (Σ mean); 1.0 when no telemetry or perfectly balanced.
  [[nodiscard]] double busy_max_over_mean() const noexcept {
    return busy_mean_ms > 0.0 ? busy_max_ms / busy_mean_ms : 1.0;
  }
  /// Fraction of aggregate slot-time spent waiting at launch barriers.
  [[nodiscard]] double barrier_wait_share() const noexcept {
    return span_ms > 0.0 ? wait_ms / span_ms : 0.0;
  }
  /// Coefficient of variation (stddev/mean) of per-slot item counts.
  [[nodiscard]] double items_cov() const noexcept;

  /// Folds one telemetered launch into the aggregates. `info.slot_telemetry`
  /// must be non-null.
  void accumulate_telemetry(const sim::LaunchInfo& info);
};

class Metrics {
 public:
  // ---- scalar counters ----------------------------------------------------
  void add_counter(std::string_view name, std::int64_t delta = 1);
  /// Current value; 0 when the counter was never touched.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& counter_names() const noexcept {
    return counter_names_;
  }

  // ---- per-iteration series -----------------------------------------------
  /// Appends one sample to the named series (creating it on first use). When
  /// a TraceSession is active the sample is also forwarded as a counter-track
  /// event, so frontier/colored trajectories appear on the trace timeline
  /// without extra instrumentation (merge() replay does NOT re-forward).
  void push(std::string_view series, std::int64_t value);
  /// The series' samples; nullptr when it was never pushed to.
  [[nodiscard]] const std::vector<std::int64_t>* series(
      std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& series_names() const noexcept {
    return series_names_;
  }

  // ---- per-kernel launch aggregates ---------------------------------------
  void record_kernel(std::string_view name, std::int64_t items, double ms);
  /// Records a launch from the device listener stream, folding per-slot
  /// telemetry into the imbalance aggregates when the info carries it.
  void record_kernel(const sim::LaunchInfo& info);
  [[nodiscard]] const KernelStat* kernel(std::string_view name) const;
  [[nodiscard]] const std::vector<std::string>& kernel_names() const noexcept {
    return kernel_names_;
  }
  /// Sum of KernelStat::launches over every recorded kernel.
  [[nodiscard]] std::uint64_t total_kernel_launches() const;
  /// Sum of KernelStat::total_ms over every recorded kernel.
  [[nodiscard]] double total_kernel_ms() const;

  [[nodiscard]] bool empty() const noexcept {
    return counter_names_.empty() && series_names_.empty() &&
           kernel_names_.empty();
  }
  void clear();

  /// Accumulates `other` into this: counters add, kernel stats add, series
  /// append sample-wise (used when aggregating repeated runs).
  void merge(const Metrics& other);

  /// Stable schema: {"counters": {...}, "series": {...}, "kernels":
  /// {name: {"launches": N, "items": N, "total_ms": F, ...}}}. Kernels with
  /// telemetry additionally carry "busy_max_over_mean", "barrier_wait_share"
  /// and "items_cov" (the gcol-bench-v2 imbalance triple). Empty sections
  /// are omitted so untouched metrics serialize as {}.
  [[nodiscard]] Json to_json() const;

 private:
  // Insertion-ordered maps as parallel vectors; the handful of distinct
  // names per run makes linear lookup faster than hashing.
  std::vector<std::string> counter_names_;
  std::vector<std::int64_t> counter_values_;
  std::vector<std::string> series_names_;
  std::vector<std::vector<std::int64_t>> series_values_;
  std::vector<std::string> kernel_names_;
  std::vector<KernelStat> kernel_stats_;
};

/// RAII capture of a device's kernel-launch stream into a Metrics: installs
/// itself as the device's launch listener on construction and restores the
/// previously installed listener on destruction, so scopes nest (an
/// algorithm invoked from inside another records into its own payload).
/// Launch notifications arrive on the host thread after each launch's
/// barrier, so no synchronization is needed.
class ScopedDeviceMetrics final : public sim::LaunchListener {
 public:
  ScopedDeviceMetrics(sim::Device& device, Metrics& metrics)
      : device_(device),
        metrics_(metrics),
        previous_(device.set_launch_listener(this)) {}

  ~ScopedDeviceMetrics() override { device_.set_launch_listener(previous_); }

  ScopedDeviceMetrics(const ScopedDeviceMetrics&) = delete;
  ScopedDeviceMetrics& operator=(const ScopedDeviceMetrics&) = delete;

  void on_kernel_launch(const sim::LaunchInfo& info) override {
    metrics_.record_kernel(info);
  }

 private:
  sim::Device& device_;
  Metrics& metrics_;
  sim::LaunchListener* previous_;
};

}  // namespace gcol::obs
