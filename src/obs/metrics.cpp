#include "obs/metrics.hpp"

#include <bit>
#include <cmath>

#include "obs/trace.hpp"

namespace gcol::obs {

namespace {

/// Index of `name` in `names`, or names.size() when absent.
std::size_t find_name(const std::vector<std::string>& names,
                      std::string_view name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  return names.size();
}

}  // namespace

double KernelStat::items_cov() const noexcept {
  if (slot_samples == 0) return 0.0;
  const double n = static_cast<double>(slot_samples);
  const double mean = static_cast<double>(telemetry_items) / n;
  if (mean <= 0.0) return 0.0;
  const double variance = telemetry_items_sq / n - mean * mean;
  return variance > 0.0 ? std::sqrt(variance) / mean : 0.0;
}

void KernelStat::accumulate_telemetry(const sim::LaunchInfo& info) {
  ++telemetry_launches;
  slot_samples += info.slots;
  double launch_busy = 0.0;
  double launch_max = 0.0;
  bool any_hw = false;
  for (unsigned s = 0; s < info.slots; ++s) {
    const sim::SlotTelemetry& t = info.slot_telemetry[s];
    telemetry_items += t.items;
    const double slot_items = static_cast<double>(t.items);
    telemetry_items_sq += slot_items * slot_items;
    const double busy = t.end_ms - t.start_ms;
    launch_busy += busy;
    if (busy > launch_max) launch_max = busy;
    const double wait = info.elapsed_ms - t.end_ms;
    if (wait > 0.0) wait_ms += wait;
    if (t.hw_valid) {
      hw += t.hw;
      any_hw = true;
    }
  }
  if (any_hw) ++hw_launches;
  busy_ms += launch_busy;
  busy_max_ms += launch_max;
  busy_mean_ms += launch_busy / static_cast<double>(info.slots);
  span_ms += static_cast<double>(info.slots) * info.elapsed_ms;
}

void Metrics::add_counter(std::string_view name, std::int64_t delta) {
  const std::size_t i = find_name(counter_names_, name);
  if (i == counter_names_.size()) {
    counter_names_.emplace_back(name);
    counter_values_.push_back(delta);
    return;
  }
  counter_values_[i] += delta;
}

std::int64_t Metrics::counter(std::string_view name) const {
  const std::size_t i = find_name(counter_names_, name);
  return i == counter_names_.size() ? 0 : counter_values_[i];
}

void Metrics::push(std::string_view series, std::int64_t value) {
  trace_counter(series, value);
  const std::size_t i = find_name(series_names_, series);
  if (i == series_names_.size()) {
    series_names_.emplace_back(series);
    series_values_.push_back({value});
    return;
  }
  series_values_[i].push_back(value);
}

const std::vector<std::int64_t>* Metrics::series(std::string_view name) const {
  const std::size_t i = find_name(series_names_, name);
  return i == series_names_.size() ? nullptr : &series_values_[i];
}

void Metrics::record_kernel(std::string_view name, std::int64_t items,
                            double ms) {
  const std::size_t i = find_name(kernel_names_, name);
  if (i == kernel_names_.size()) {
    kernel_names_.emplace_back(name);
    kernel_stats_.push_back({1, items, ms});
    return;
  }
  KernelStat& stat = kernel_stats_[i];
  ++stat.launches;
  stat.items += items;
  stat.total_ms += ms;
}

void Metrics::record_kernel(const sim::LaunchInfo& info) {
  const std::size_t i = find_name(kernel_names_, info.name);
  KernelStat* stat;
  if (i == kernel_names_.size()) {
    kernel_names_.emplace_back(info.name);
    kernel_stats_.push_back({});
    stat = &kernel_stats_.back();
  } else {
    stat = &kernel_stats_[i];
  }
  ++stat->launches;
  stat->items += info.items;
  stat->total_ms += info.elapsed_ms;
  if (info.direction != nullptr) stat->direction = info.direction;
  stat->stream_mask |= std::uint64_t{1} << (info.stream < 63 ? info.stream : 63);
  if (info.traffic.modeled()) {
    ++stat->modeled_launches;
    stat->bytes_read += info.traffic.bytes_read;
    stat->bytes_written += info.traffic.bytes_written;
    stat->modeled_ms += info.elapsed_ms;
  }
  if (info.slot_telemetry != nullptr && info.slots > 0) {
    stat->accumulate_telemetry(info);
  }
}

const KernelStat* Metrics::kernel(std::string_view name) const {
  const std::size_t i = find_name(kernel_names_, name);
  return i == kernel_names_.size() ? nullptr : &kernel_stats_[i];
}

std::uint64_t Metrics::total_kernel_launches() const {
  std::uint64_t total = 0;
  for (const KernelStat& stat : kernel_stats_) total += stat.launches;
  return total;
}

double Metrics::total_kernel_ms() const {
  double total = 0.0;
  for (const KernelStat& stat : kernel_stats_) total += stat.total_ms;
  return total;
}

void Metrics::clear() {
  counter_names_.clear();
  counter_values_.clear();
  series_names_.clear();
  series_values_.clear();
  kernel_names_.clear();
  kernel_stats_.clear();
}

void Metrics::merge(const Metrics& other) {
  for (std::size_t i = 0; i < other.counter_names_.size(); ++i) {
    add_counter(other.counter_names_[i], other.counter_values_[i]);
  }
  for (std::size_t i = 0; i < other.series_names_.size(); ++i) {
    // Appends directly instead of via push(): a merge replays recorded
    // samples, it is not a live measurement, so nothing is forwarded to an
    // active trace's counter tracks.
    const std::size_t k = find_name(series_names_, other.series_names_[i]);
    if (k == series_names_.size()) {
      series_names_.push_back(other.series_names_[i]);
      series_values_.push_back(other.series_values_[i]);
      continue;
    }
    std::vector<std::int64_t>& mine = series_values_[k];
    mine.insert(mine.end(), other.series_values_[i].begin(),
                other.series_values_[i].end());
  }
  for (std::size_t i = 0; i < other.kernel_names_.size(); ++i) {
    const KernelStat& theirs = other.kernel_stats_[i];
    const std::size_t k = find_name(kernel_names_, other.kernel_names_[i]);
    if (k == kernel_names_.size()) {
      kernel_names_.push_back(other.kernel_names_[i]);
      kernel_stats_.push_back(theirs);
      continue;
    }
    KernelStat& mine = kernel_stats_[k];
    mine.launches += theirs.launches;
    mine.items += theirs.items;
    mine.total_ms += theirs.total_ms;
    if (theirs.direction != nullptr) mine.direction = theirs.direction;
    mine.telemetry_launches += theirs.telemetry_launches;
    mine.slot_samples += theirs.slot_samples;
    mine.telemetry_items += theirs.telemetry_items;
    mine.telemetry_items_sq += theirs.telemetry_items_sq;
    mine.busy_ms += theirs.busy_ms;
    mine.busy_max_ms += theirs.busy_max_ms;
    mine.busy_mean_ms += theirs.busy_mean_ms;
    mine.wait_ms += theirs.wait_ms;
    mine.span_ms += theirs.span_ms;
    mine.stream_mask |= theirs.stream_mask;
    mine.modeled_launches += theirs.modeled_launches;
    mine.bytes_read += theirs.bytes_read;
    mine.bytes_written += theirs.bytes_written;
    mine.modeled_ms += theirs.modeled_ms;
    mine.hw_launches += theirs.hw_launches;
    mine.hw += theirs.hw;
  }
}

Json Metrics::to_json() const {
  Json out = Json::object();
  if (!counter_names_.empty()) {
    Json counters = Json::object();
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      counters.set(counter_names_[i], counter_values_[i]);
    }
    out.set("counters", std::move(counters));
  }
  if (!series_names_.empty()) {
    Json series = Json::object();
    for (std::size_t i = 0; i < series_names_.size(); ++i) {
      Json samples = Json::array();
      for (const std::int64_t value : series_values_[i]) {
        samples.push_back(value);
      }
      series.set(series_names_[i], std::move(samples));
    }
    out.set("series", std::move(series));
  }
  if (!kernel_names_.empty()) {
    Json kernels = Json::object();
    for (std::size_t i = 0; i < kernel_names_.size(); ++i) {
      const KernelStat& stat = kernel_stats_[i];
      Json entry = Json::object();
      entry.set("launches", stat.launches);
      entry.set("items", stat.items);
      entry.set("total_ms", stat.total_ms);
      if (stat.direction != nullptr) {
        entry.set("direction", std::string(stat.direction));
      }
      if (stat.telemetry_launches > 0) {
        entry.set("busy_ms", stat.busy_ms);
        entry.set("busy_max_over_mean", stat.busy_max_over_mean());
        entry.set("barrier_wait_share", stat.barrier_wait_share());
        entry.set("items_cov", stat.items_cov());
      }
      // Kernels whose launches declared a traffic model carry the modeled
      // bytes and achieved bandwidth (Tier A; see DESIGN.md §3h). Kernels
      // with at least one hardware-sampled launch additionally carry the
      // raw counter sums and derived rates (Tier B).
      if (stat.modeled_launches > 0) {
        entry.set("bytes_read", stat.bytes_read);
        entry.set("bytes_written", stat.bytes_written);
        entry.set("gbps", stat.gbps());
      }
      if (stat.hw_launches > 0) {
        entry.set("cycles", stat.hw.cycles);
        entry.set("instructions", stat.hw.instructions);
        entry.set("llc_loads", stat.hw.llc_loads);
        entry.set("llc_misses", stat.hw.llc_misses);
        entry.set("branch_misses", stat.hw.branch_misses);
        entry.set("ipc", stat.ipc());
        entry.set("llc_miss_rate", stat.llc_miss_rate());
      }
      // Launches confined to the default stream serialize exactly as before
      // (gcol-bench-v2 compatible); only genuinely streamed kernels grow a
      // "streams" key with the number of distinct streams observed.
      if (stat.stream_mask != 0 && stat.stream_mask != 1) {
        entry.set("streams",
                  static_cast<std::uint64_t>(std::popcount(stat.stream_mask)));
      }
      kernels.set(kernel_names_[i], std::move(entry));
    }
    out.set("kernels", std::move(kernels));
  }
  return out;
}

}  // namespace gcol::obs
