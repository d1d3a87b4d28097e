#pragma once
// The virtual-GPU "device": kernel launches over index ranges with implicit
// barriers, mirroring the bulk-synchronous execution model the paper's GPU
// implementations run under.
//
// Why this exists: the paper's performance analysis is phrased in terms of
// (a) how many kernel launches / global synchronizations an algorithm needs,
// (b) whether work inside a launch is load balanced, and (c) whether atomics
// are used. This façade preserves all three cost sources on a CPU:
//   - each parallel_for is one "kernel launch" and ends at a barrier
//     (ThreadPool::run_on joins all participating slots),
//   - static vs. dynamic scheduling exposes the load-balancing axis,
//   - atomics.hpp provides device-style atomics.
// A launch counter lets benchmarks report "global syncs" per algorithm.
//
// Streams: every launch executes under an *execution context* (ExecContext)
// — a worker lane, a scratch arena, a launch counter and a metrics-listener
// slot. Ordinary host threads use the device's default context, which spans
// the whole worker pool: the classic single-stream behavior. A Stream
// (stream.hpp) owns its own context over a leased, disjoint worker lane and
// a dedicated submission thread, so independent streams interleave their
// kernels across the pool exactly like CUDA streams share a GPU's SMs. The
// default context shrinks to the unleased worker prefix while streams hold
// lanes, keeping every concurrent barrier range disjoint.
//
// Observability: every launch can carry a static kernel name (launch /
// launch_slots / host_pass), and an installed LaunchListener receives a
// LaunchInfo record — name, work items, worker slots, wall time, stream id —
// after each launch's barrier. Two independent listener slots exist: the
// *metrics listener* (context-scoped, exclusive — obs::ScopedDeviceMetrics
// swaps it per algorithm run, so each stream's runs record into their own
// payload) and the *tracer* (device-global, long-lived — obs::TraceSession
// observes every stream of a whole benchmark run without being masked by
// nested metric scopes; its callbacks arrive on the launching thread, so a
// tracer over a streamed run must be thread-safe). While either is
// installed, launches additionally capture per-slot telemetry — items
// processed, work-span start/end per worker slot — into the context's fixed
// telemetry array (no allocation on the hot path; the load-balance evidence
// behind the paper's Fig. 1 / Table II analysis). When neither is installed
// the only cost over the bare dispatch is two relaxed atomic loads per
// launch.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/device_pool.hpp"
#include "sim/scratch.hpp"
#include "sim/slot_range.hpp"
#include "sim/thread_pool.hpp"
#include "sim/timer.hpp"

namespace gcol::sim {

class Device;
class Stream;

/// Scheduling policy for work items inside one kernel launch.
enum class Schedule {
  kStatic,   ///< contiguous blocks, one per worker (thread-per-vertex style)
  kDynamic,  ///< chunked work queue (load-balanced, advance-operator style)
};

/// Grids at or below this many work items execute inline on the launching
/// thread instead of crossing the worker barrier. A real GPU pays the launch
/// cost regardless of grid size, but on the virtual device the barrier IS
/// the launch cost — and a grid this small cannot amortize it (nor even
/// occupy the workers). Tiny launches dominate the tail iterations of the
/// paper's iterative algorithms (frontiers shrink toward a handful of
/// vertices), so this is the launch fast path where it matters most. Launch
/// count and listener reporting are unaffected.
inline constexpr std::int64_t kInlineLaunchItems = 16;

/// Modeled memory traffic of a kernel: structural bytes the kernel substrate
/// itself dereferences (CSR column gathers, frontier words, flag bytes,
/// palette words, output writes). Used in two roles, disambiguated by the
/// parameter it is passed as: *per-item* cost on Device::launch (scaled by
/// each slot's item count) and *absolute* bytes on launch_slots traffic
/// callbacks / host_pass. A zero Traffic means "not modeled" — no real
/// kernel moves zero bytes — so observers test `modeled()` rather than a
/// separate flag. The model is a documented lower bound: opaque user
/// payload lambdas are not counted unless the call site declares them.
struct Traffic {
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;

  [[nodiscard]] constexpr bool modeled() const noexcept {
    return bytes_read > 0 || bytes_written > 0;
  }
  [[nodiscard]] constexpr std::int64_t total() const noexcept {
    return bytes_read + bytes_written;
  }
  constexpr Traffic& operator+=(const Traffic& o) noexcept {
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    return *this;
  }
  friend constexpr Traffic operator+(Traffic a, const Traffic& b) noexcept {
    a += b;
    return a;
  }
  friend constexpr Traffic operator*(Traffic t, std::int64_t k) noexcept {
    t.bytes_read *= k;
    t.bytes_written *= k;
    return t;
  }
};

/// One hardware-counter snapshot (or delta) for one thread, as produced by a
/// HwSampler. All zeros when the backend is unavailable — observers must
/// check SlotTelemetry::hw_valid / LaunchInfo::hw before deriving rates.
struct HwCounters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_loads = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t branch_misses = 0;

  constexpr HwCounters& operator+=(const HwCounters& o) noexcept {
    cycles += o.cycles;
    instructions += o.instructions;
    llc_loads += o.llc_loads;
    llc_misses += o.llc_misses;
    branch_misses += o.branch_misses;
    return *this;
  }
  friend constexpr HwCounters operator-(HwCounters a,
                                        const HwCounters& b) noexcept {
    a.cycles -= b.cycles;
    a.instructions -= b.instructions;
    a.llc_loads -= b.llc_loads;
    a.llc_misses -= b.llc_misses;
    a.branch_misses -= b.branch_misses;
    return a;
  }
};

/// Reads the calling thread's hardware counters. Implementations (e.g.
/// obs::PerfSampler over perf_event_open) own per-thread counter state and
/// must be callable concurrently from every worker thread. `read` returns
/// false when counters are unavailable on this thread (out is untouched);
/// the device then records zeroed deltas with hw_valid = false, so a run
/// degrades gracefully on kernels/containers that deny counter access.
class HwSampler {
 public:
  virtual ~HwSampler() = default;
  virtual bool read(HwCounters& out) noexcept = 0;
};

/// What one worker slot did inside one observed launch. Timestamps are
/// milliseconds relative to the launch's start; `end_ms` is the slot's
/// barrier-arrival time, so `launch elapsed - end_ms` is the time the slot
/// spent waiting on stragglers and `end_ms - start_ms` is its busy span.
/// `bytes_read`/`bytes_written` are the slot's modeled traffic (zero when the
/// kernel declared none); `hw` is the slot's hardware-counter delta, valid
/// only when `hw_valid` (a sampler was installed AND this thread's counters
/// opened). Cache-line aligned so concurrent per-slot writes never
/// false-share.
struct alignas(64) SlotTelemetry {
  std::int64_t items = 0;  ///< work items this slot processed
  double start_ms = 0.0;   ///< slot began its work, relative to launch start
  double end_ms = 0.0;     ///< slot finished its work (barrier arrival)
  unsigned stream = 0;     ///< stream the launch ran on (0 = default)
  std::int64_t bytes_read = 0;     ///< modeled bytes this slot read
  std::int64_t bytes_written = 0;  ///< modeled bytes this slot wrote
  HwCounters hw{};                 ///< hardware-counter deltas for the slot
  bool hw_valid = false;           ///< hw fields are real measurements
};

/// One completed kernel launch, as reported to a LaunchListener.
struct LaunchInfo {
  const char* name;       ///< static kernel name ("jpl_color", "scan", ...)
  std::int64_t items;     ///< work items (n, or slot count for slot kernels)
  unsigned slots;         ///< worker slots that participated
  double elapsed_ms;      ///< wall time of the launch including its barrier
  /// Per-slot telemetry records, indexable in [0, slots); nullptr when the
  /// launch was not observed (synthetic LaunchInfo built by tests). The
  /// array is the context's reusable scratch: valid only for the duration of
  /// the listener callback.
  const SlotTelemetry* slot_telemetry = nullptr;
  /// Traversal direction chosen for this launch ("push" / "pull"), or
  /// nullptr for kernels where the axis does not apply. Statically
  /// allocated, like `name`. Direction-optimized operators stamp this so
  /// per-kernel tables and traces can attribute time per direction.
  const char* direction = nullptr;
  /// Stream the launch executed on: 0 for the default context, a Stream's
  /// id() otherwise. Profilers key per-stream tracks and aggregates off it.
  unsigned stream = 0;
  /// Launch-total modeled traffic (the sum of the per-slot telemetry bytes
  /// by construction); zero ⇔ the kernel declared no model.
  Traffic traffic{};
  /// A hardware sampler was installed for this launch; per-slot validity is
  /// in SlotTelemetry::hw_valid (a sampler can fail on individual threads).
  bool hw = false;
};

/// Receives a LaunchInfo after every kernel launch completes. Notifications
/// arrive on the launching thread, post-barrier — the host thread for
/// default-context launches, a stream's thread for stream launches. The
/// context-scoped metrics listener therefore never needs synchronization of
/// its own; a device-global tracer observing multiple streams does.
class LaunchListener {
 public:
  virtual ~LaunchListener() = default;
  virtual void on_kernel_launch(const LaunchInfo& info) = 0;
};

/// Everything one stream of execution needs from the device: the worker lane
/// its launches barrier over, its scratch arena, telemetry array, launch
/// counter and metrics-listener slot. The device owns the default context
/// (stream 0, whole pool); each Stream owns one over a leased lane and
/// installs it as its thread's context, so every existing Device API —
/// launch, scratch(), num_workers(), launch_count(), set_launch_listener —
/// transparently resolves per stream.
struct ExecContext {
  ExecContext(Device* owner, unsigned stream_id, unsigned first,
              unsigned lane_width, unsigned telemetry_slots, DevicePool* pool)
      : device(owner),
        stream(stream_id),
        first_worker(first),
        width(lane_width),
        scratch(pool),
        telemetry(std::make_unique<SlotTelemetry[]>(telemetry_slots)) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  Device* device;         ///< owning device (contexts never migrate)
  unsigned stream;        ///< stream id; 0 = the default context
  unsigned first_worker;  ///< first OS worker of the lane (ignored, width<=1)
  /// Worker slots including the launching thread; 0 = dynamic (the default
  /// context resolves to the unleased worker prefix at each launch).
  unsigned width;
  ScratchArena scratch;
  std::unique_ptr<SlotTelemetry[]> telemetry;
  std::atomic<LaunchListener*> listener{nullptr};
  std::atomic<std::uint64_t> launches{0};
};

/// Process-wide virtual device. Thread count comes from GCOL_THREADS if set,
/// otherwise std::thread::hardware_concurrency().
class Device {
 public:
  /// The global device instance (constructed on first use).
  static Device& instance();

  /// A device with an explicit worker count (mainly for tests).
  explicit Device(unsigned num_workers);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Worker slots of the calling thread's execution context: a stream's lane
  /// width on its thread, the default context's current width elsewhere
  /// (the whole pool unless streams hold lanes). Primitives size per-slot
  /// scratch off this, so it always matches what the next launch uses.
  [[nodiscard]] unsigned num_workers() const noexcept {
    return context_width(context());
  }

  /// The calling thread's context, installed by Stream threads; nullptr on
  /// ordinary host threads (which use the owning device's default context).
  [[nodiscard]] static ExecContext* thread_context() noexcept;
  /// Installs `ctx` as the calling thread's context and returns the previous
  /// one. Stream threads call this; test harnesses may too.
  static ExecContext* set_thread_context(ExecContext* ctx) noexcept;

  /// Reusable scratch memory for the substrate primitives (see scratch.hpp),
  /// resolved per execution context: each stream gets its own lanes.
  [[nodiscard]] ScratchArena& scratch() noexcept { return context().scratch; }

  /// The size-bucketed allocator behind every context's scratch arena (see
  /// device_pool.hpp). Thread-safe; benchmarks read stats() off it to prove
  /// steady-state batched runs allocate nothing.
  [[nodiscard]] DevicePool& memory_pool() noexcept { return memory_pool_; }

  /// Installs `listener` (nullptr to disable) on the calling thread's
  /// context and returns the previously installed one, so scoped
  /// instrumentation can nest and restore — independently per stream.
  LaunchListener* set_launch_listener(LaunchListener* listener) noexcept {
    return context().listener.exchange(listener, std::memory_order_acq_rel);
  }
  [[nodiscard]] LaunchListener* launch_listener() const noexcept {
    return context().listener.load(std::memory_order_acquire);
  }

  /// Installs the tracer (nullptr to disable) and returns the previous one.
  /// The tracer is a second, independent, device-global listener slot: it is
  /// notified after the metrics listener and is NOT swapped out by
  /// ScopedDeviceMetrics, so a TraceSession installed at harness level sees
  /// every launch of every algorithm run — on every stream — underneath it.
  LaunchListener* set_trace_listener(LaunchListener* tracer) noexcept {
    return tracer_.exchange(tracer, std::memory_order_acq_rel);
  }
  [[nodiscard]] LaunchListener* trace_listener() const noexcept {
    return tracer_.load(std::memory_order_acquire);
  }

  /// Installs a hardware-counter sampler (nullptr to disable) and returns
  /// the previous one. Device-global, like the tracer: counters are read
  /// per worker slot around *observed* launches only (a listener or tracer
  /// must also be installed — unobserved launches stay two relaxed loads).
  HwSampler* set_hw_sampler(HwSampler* sampler) noexcept {
    return hw_sampler_.exchange(sampler, std::memory_order_acq_rel);
  }
  [[nodiscard]] HwSampler* hw_sampler() const noexcept {
    return hw_sampler_.load(std::memory_order_acquire);
  }

  /// Named kernel launch: body(i) for every i in [0, n), blocking until done
  /// (one kernel launch + barrier over the context's lane). `body` must be
  /// safe to invoke concurrently from different workers for distinct i. The
  /// name must be a statically-allocated string (it is retained only for the
  /// duration of the listener callback); `direction` likewise ("push"/"pull"
  /// for direction-optimized operators, nullptr elsewhere). `per_item` is
  /// the kernel's modeled traffic PER WORK ITEM (see Traffic): each slot's
  /// telemetry bytes are per_item × its items, so per-slot bytes sum to the
  /// launch total per_item × n exactly.
  template <typename Body>
  void launch(const char* name, std::int64_t n, Body&& body,
              Schedule schedule = Schedule::kStatic, std::int64_t chunk = 0,
              const char* direction = nullptr, Traffic per_item = {}) {
    if (n <= 0) return;
    ExecContext& ctx = context();
    ctx.launches.fetch_add(1, std::memory_order_relaxed);
    LaunchListener* listener = ctx.listener.load(std::memory_order_acquire);
    LaunchListener* tracer = trace_listener();
    const unsigned width = context_width(ctx);
    if (listener == nullptr && tracer == nullptr) {
      dispatch(ctx, width, n, body, schedule, chunk);
      return;
    }
    HwSampler* sampler = hw_sampler();
    const Stopwatch watch;
    dispatch_observed(ctx, width, n, body, schedule, chunk, watch, sampler);
    const unsigned slots = n <= kInlineLaunchItems ? 1u : width;
    // Telemetry bytes are derived post-barrier on the launching thread: the
    // slot item counts are final, and the array is read only by the listener
    // callbacks below. Always stamped (zeros when unmodeled) because the
    // array is reused across launches.
    for (unsigned s = 0; s < slots; ++s) {
      SlotTelemetry& t = ctx.telemetry[s];
      t.bytes_read = per_item.bytes_read * t.items;
      t.bytes_written = per_item.bytes_written * t.items;
    }
    LaunchInfo info{name,
                    n,
                    slots,
                    watch.elapsed_ms(),
                    ctx.telemetry.get(),
                    direction,
                    ctx.stream,
                    per_item * n,
                    sampler != nullptr};
    notify(listener, tracer, info);
  }

  /// Enqueues the same launch on `stream` (FIFO relative to the stream's
  /// other work) and returns immediately; the body is copied into the
  /// stream's queue. Defined in stream.hpp.
  template <typename Body>
  void launch(Stream& stream, const char* name, std::int64_t n, Body&& body,
              Schedule schedule = Schedule::kStatic, std::int64_t chunk = 0,
              const char* direction = nullptr, Traffic per_item = {});

  /// Named slot kernel: body(slot, num_slots) once per worker slot of the
  /// context's lane — the analogue of a cooperative kernel where each block
  /// owns a slice it carves out itself.
  template <typename Body>
  void launch_slots(const char* name, Body&& body,
                    const char* direction = nullptr) {
    launch_slots(name, std::forward<Body>(body), direction,
                 [](unsigned, unsigned) { return Traffic{}; });
  }

  /// Slot kernel with a traffic model: `traffic_of(slot, num_slots)` returns
  /// the ABSOLUTE modeled bytes slot processed (the device cannot see how a
  /// slot kernel divides its work, so the substrate that can must say).
  /// Evaluated post-barrier on the launching thread, observed launches only
  /// — it may cheaply recompute the slot partition (slot_range etc.) or read
  /// per-slot scratch counts the kernel left behind.
  template <typename Body, typename TrafficFn>
  void launch_slots(const char* name, Body&& body, const char* direction,
                    TrafficFn&& traffic_of) {
    ExecContext& ctx = context();
    ctx.launches.fetch_add(1, std::memory_order_relaxed);
    const unsigned workers = context_width(ctx);
    LaunchListener* listener = ctx.listener.load(std::memory_order_acquire);
    LaunchListener* tracer = trace_listener();
    if (listener == nullptr && tracer == nullptr) {
      pool_.run_on(ctx.first_worker, workers,
                   [&](unsigned slot) { body(slot, workers); });
      return;
    }
    HwSampler* sampler = hw_sampler();
    const Stopwatch watch;
    pool_.run_on(ctx.first_worker, workers, [&](unsigned slot) {
      SlotTelemetry& t = ctx.telemetry[slot];
      HwCounters hw_begin;
      const bool hw_ok = sample_hw_begin(sampler, hw_begin);
      t.start_ms = watch.elapsed_ms();
      body(slot, workers);
      // The device cannot see how a slot kernel divides its work, so each
      // participating slot counts as one item (summing to LaunchInfo.items).
      t.items = 1;
      t.end_ms = watch.elapsed_ms();
      t.stream = ctx.stream;
      sample_hw_end(t, sampler, hw_ok, hw_begin);
    });
    Traffic total{};
    for (unsigned s = 0; s < workers; ++s) {
      const Traffic tr = traffic_of(s, workers);
      SlotTelemetry& t = ctx.telemetry[s];
      t.bytes_read = tr.bytes_read;
      t.bytes_written = tr.bytes_written;
      total += tr;
    }
    LaunchInfo info{name,
                    static_cast<std::int64_t>(workers),
                    workers,
                    watch.elapsed_ms(),
                    ctx.telemetry.get(),
                    direction,
                    ctx.stream,
                    total,
                    sampler != nullptr};
    notify(listener, tracer, info);
  }

  /// A sequential pass on the launching thread, accounted as one kernel
  /// launch with a single slot. Sequential baselines (greedy, DSATUR) run
  /// their color phase through this so "kernel launches" and per-kernel
  /// timings stay comparable across every algorithm the harnesses report.
  /// `traffic` is the pass's ABSOLUTE modeled bytes (a host pass is one
  /// slot, so there is nothing to scale).
  template <typename Fn>
  void host_pass(const char* name, Fn&& fn, Traffic traffic = {}) {
    ExecContext& ctx = context();
    ctx.launches.fetch_add(1, std::memory_order_relaxed);
    LaunchListener* listener = ctx.listener.load(std::memory_order_acquire);
    LaunchListener* tracer = trace_listener();
    if (listener == nullptr && tracer == nullptr) {
      fn();
      return;
    }
    HwSampler* sampler = hw_sampler();
    HwCounters hw_begin;
    const bool hw_ok = sample_hw_begin(sampler, hw_begin);
    const Stopwatch watch;
    fn();
    const double elapsed = watch.elapsed_ms();
    SlotTelemetry& t = ctx.telemetry[0];
    t = SlotTelemetry{1,
                      0.0,
                      elapsed,
                      ctx.stream,
                      traffic.bytes_read,
                      traffic.bytes_written};
    sample_hw_end(t, sampler, hw_ok, hw_begin);
    LaunchInfo info{name,
                    1,
                    1u,
                    elapsed,
                    ctx.telemetry.get(),
                    nullptr,
                    ctx.stream,
                    traffic,
                    sampler != nullptr};
    notify(listener, tracer, info);
  }

  /// Number of kernel launches on the calling thread's context since
  /// construction or the last reset_launch_count(). Benchmarks use this as
  /// the "global synchronizations" metric the paper reasons about; because
  /// the counter is per context, concurrent streams never pollute each
  /// other's counts.
  [[nodiscard]] std::uint64_t launch_count() const noexcept {
    return context().launches.load(std::memory_order_relaxed);
  }
  void reset_launch_count() noexcept {
    context().launches.store(0, std::memory_order_relaxed);
  }

  /// Blocks until every task enqueued on `stream` so far has completed
  /// (rethrows the stream's first captured error). Defined in stream.cpp.
  void sync(Stream& stream);
  /// Full-device sync: drains every registered stream. Streams must not be
  /// constructed or destroyed concurrently with this call.
  void sync();

 private:
  friend class Stream;

  Device();  // reads GCOL_THREADS / hardware_concurrency

  /// The calling thread's effective context on THIS device: its installed
  /// stream context when that context belongs to this device, the default
  /// context otherwise.
  [[nodiscard]] ExecContext& context() noexcept {
    ExecContext* tls = thread_context();
    return tls != nullptr && tls->device == this ? *tls : default_ctx_;
  }
  [[nodiscard]] const ExecContext& context() const noexcept {
    const ExecContext* tls = thread_context();
    return tls != nullptr && tls->device == this ? *tls : default_ctx_;
  }

  [[nodiscard]] unsigned context_width(const ExecContext& ctx) const noexcept {
    return ctx.width != 0 ? ctx.width
                          : default_width_.load(std::memory_order_relaxed);
  }

  static void notify(LaunchListener* listener, LaunchListener* tracer,
                     const LaunchInfo& info) {
    if (listener != nullptr) listener->on_kernel_launch(info);
    if (tracer != nullptr) tracer->on_kernel_launch(info);
  }

  template <typename Body>
  void dispatch(ExecContext& ctx, unsigned width, std::int64_t n, Body& body,
                Schedule schedule, std::int64_t chunk) {
    const auto workers = static_cast<std::int64_t>(width);
    if (workers == 1 || n <= kInlineLaunchItems) {
      for (std::int64_t i = 0; i < n; ++i) body(i);
      return;
    }
    if (schedule == Schedule::kStatic) {
      // The lambda is borrowed by FunctionRef for the (blocking) run call —
      // no std::function, no allocation on the launch path.
      pool_.run_on(ctx.first_worker, width, [&](unsigned slot) {
        const auto [begin, end] = slot_range(slot, width, n);
        for (std::int64_t i = begin; i < end; ++i) body(i);
      });
    } else {
      if (chunk <= 0) chunk = default_chunk(n, workers);
      std::atomic<std::int64_t> next{0};
      pool_.run_on(ctx.first_worker, width, [&](unsigned) {
        for (;;) {
          const std::int64_t begin =
              next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= n) return;
          const std::int64_t end = begin + chunk < n ? begin + chunk : n;
          for (std::int64_t i = begin; i < end; ++i) body(i);
        }
      });
    }
  }

  /// Reads `sampler` into `before` if one is installed; returns whether the
  /// read succeeded (the matching sample_hw_end then stamps the delta).
  static bool sample_hw_begin(HwSampler* sampler, HwCounters& before) noexcept {
    return sampler != nullptr && sampler->read(before);
  }

  /// Stamps the slot's hardware-counter delta. Always assigns hw/hw_valid —
  /// the telemetry array is reused across launches, so stale deltas from an
  /// earlier sampled launch must not leak into an unsampled one.
  static void sample_hw_end(SlotTelemetry& t, HwSampler* sampler, bool began,
                            const HwCounters& before) noexcept {
    HwCounters after;
    if (began && sampler->read(after)) {
      t.hw = after - before;
      t.hw_valid = true;
      return;
    }
    t.hw = HwCounters{};
    t.hw_valid = false;
  }

  /// The observed twin of dispatch(): identical work distribution, plus each
  /// slot stamps {items, start, end, stream} into its own telemetry entry
  /// (and its hardware-counter delta when `sampler` is non-null). Telemetry
  /// writes ride the lane barrier's release/acquire edge (and `watch` is
  /// read-only after construction), so the launching thread may read the
  /// whole array race-free as soon as the launch returns. The unobserved
  /// path never touches a clock, the telemetry array, or the sampler.
  template <typename Body>
  void dispatch_observed(ExecContext& ctx, unsigned width, std::int64_t n,
                         Body& body, Schedule schedule, std::int64_t chunk,
                         const Stopwatch& watch, HwSampler* sampler) {
    const auto workers = static_cast<std::int64_t>(width);
    if (workers == 1 || n <= kInlineLaunchItems) {
      SlotTelemetry& t = ctx.telemetry[0];
      HwCounters hw_begin;
      const bool hw_ok = sample_hw_begin(sampler, hw_begin);
      t.start_ms = watch.elapsed_ms();
      for (std::int64_t i = 0; i < n; ++i) body(i);
      t.items = n;
      t.end_ms = watch.elapsed_ms();
      t.stream = ctx.stream;
      sample_hw_end(t, sampler, hw_ok, hw_begin);
      return;
    }
    if (schedule == Schedule::kStatic) {
      pool_.run_on(ctx.first_worker, width, [&](unsigned slot) {
        SlotTelemetry& t = ctx.telemetry[slot];
        HwCounters hw_begin;
        const bool hw_ok = sample_hw_begin(sampler, hw_begin);
        t.start_ms = watch.elapsed_ms();
        const auto [begin, end] = slot_range(slot, width, n);
        for (std::int64_t i = begin; i < end; ++i) body(i);
        t.items = end - begin;
        t.end_ms = watch.elapsed_ms();
        t.stream = ctx.stream;
        sample_hw_end(t, sampler, hw_ok, hw_begin);
      });
    } else {
      if (chunk <= 0) chunk = default_chunk(n, workers);
      std::atomic<std::int64_t> next{0};
      pool_.run_on(ctx.first_worker, width, [&](unsigned slot) {
        SlotTelemetry& t = ctx.telemetry[slot];
        HwCounters hw_begin;
        const bool hw_ok = sample_hw_begin(sampler, hw_begin);
        t.start_ms = watch.elapsed_ms();
        std::int64_t claimed = 0;
        for (;;) {
          const std::int64_t begin =
              next.fetch_add(chunk, std::memory_order_relaxed);
          if (begin >= n) break;
          const std::int64_t end = begin + chunk < n ? begin + chunk : n;
          for (std::int64_t i = begin; i < end; ++i) body(i);
          claimed += end - begin;
        }
        t.items = claimed;
        t.end_ms = watch.elapsed_ms();
        t.stream = ctx.stream;
        sample_hw_end(t, sampler, hw_ok, hw_begin);
      });
    }
  }

  static std::int64_t default_chunk(std::int64_t n, std::int64_t workers) {
    const std::int64_t chunk = n / (workers * 8);
    return chunk < 1 ? 1 : chunk;
  }

  // ---- stream support (used by Stream; see stream.hpp) --------------------
  /// Leases a contiguous run of `count` OS workers (top-down first fit) for
  /// a stream lane; returns the first worker, or 0 when no run is free.
  /// Shrinks the default context's width to the unleased prefix. Must not
  /// race with launches on the default context (same single-launcher
  /// contract the launch API itself has always had).
  unsigned lease_workers(unsigned count);
  void release_workers(unsigned first, unsigned count) noexcept;
  void recompute_default_width_locked() noexcept;
  void register_stream(Stream* stream);
  void unregister_stream(Stream* stream) noexcept;
  [[nodiscard]] unsigned next_stream_id() noexcept {
    return stream_ids_.fetch_add(1, std::memory_order_relaxed);
  }

  ThreadPool pool_;
  DevicePool memory_pool_;
  std::atomic<LaunchListener*> tracer_{nullptr};
  std::atomic<HwSampler*> hw_sampler_{nullptr};
  /// Width the default context resolves to: the whole pool minus any leased
  /// stream lanes (recomputed under lane_mutex_, read on the launch path).
  std::atomic<unsigned> default_width_;
  ExecContext default_ctx_;
  std::mutex lane_mutex_;
  std::vector<bool> leased_;      ///< per OS worker; [0] unused
  std::vector<Stream*> streams_;  ///< registered live streams
  std::atomic<unsigned> stream_ids_{1};
};

/// Stream id of the calling thread's installed context, 0 on ordinary host
/// threads (the default stream). TraceSession keys per-stream phase and
/// counter tracks off this.
[[nodiscard]] unsigned current_stream_id() noexcept;

}  // namespace gcol::sim
