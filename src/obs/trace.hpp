#pragma once
// Execution tracing for the virtual-GPU substrate: a TraceSession records
// kernel launches (with per-worker-slot spans from the device's slot
// telemetry), algorithm phases, and counter samples, and exports the Chrome
// trace-event JSON flavor that ui.perfetto.dev and chrome://tracing load
// directly. This is the timeline view of the same evidence obs::Metrics
// aggregates: where one launch's time went across workers, how barrier waits
// stack up in the tail iterations, and how the frontier/colored trajectories
// line up against the kernel stream.
//
// Track layout (one process, synthetic thread ids). The default stream keeps
// its classic tids; every other stream gets its own group of tracks at base
// `stream * 4096`, so a batched run reads as one timeline lane per stream:
//   tid 0      — "kernels": one span per launch, args carry items/slots and
//                the launch's imbalance numbers;
//   tid 1      — "phases": spans opened by ScopedPhase (outer iterations,
//                datasets, algorithm runs); they nest like a call stack;
//   tid 2 + s  — "worker s": the busy span of worker slot s inside each
//                launch (empty slots are omitted);
//   tid k*4096 + {0, 1, 2+s} — the same three-track group for stream k >= 1
//                ("s<k> kernels" / "s<k> phases" / "s<k> worker <s>");
//   counters   — "C" events (frontier, colored, ...) forwarded automatically
//                from Metrics::push while a session is active; samples pushed
//                on a stream thread get an "s<k>:" name prefix so concurrent
//                trajectories stay separate tracks.
//
// A session installs itself as the device's *tracer* listener slot — the one
// ScopedDeviceMetrics never swaps out — so a harness-level session observes
// every launch of every algorithm run underneath it, while each run's scoped
// Metrics still captures its own exclusive per-run aggregates. Sessions nest
// (the inner one wins) and restore on destruction.
//
// Recording is thread-safe (one mutex around the event log): launches,
// phases and counters arrive concurrently from stream threads. Phase stacks
// are kept per stream, keyed by the recording thread's stream id.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "sim/device.hpp"
#include "sim/timer.hpp"

namespace gcol::obs {

class TraceSession final : public sim::LaunchListener {
 public:
  /// Starts the session clock and installs this session as `device`'s tracer
  /// and as the process-current session (TraceSession::current()).
  explicit TraceSession(sim::Device& device);
  /// Convenience spelling for the global device.
  TraceSession();
  ~TraceSession() override;

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The innermost live session, or nullptr when tracing is off. One relaxed
  /// atomic load — callers on the no-session path pay nothing else.
  [[nodiscard]] static TraceSession* current() noexcept;

  /// Opens / closes a phase span on the calling thread's stream's phase
  /// track. Phases close in LIFO order per stream (each stream's stack is a
  /// call stack); end_phase with no open phase is a no-op. Prefer the
  /// ScopedPhase RAII wrapper.
  void begin_phase(std::string_view name);
  void end_phase();

  /// Records one sample of a named counter track at the current session time.
  void counter(std::string_view name, std::int64_t value);

  /// Stamps run-level roofline context into the exported document as a
  /// top-level "gcol_meta" object ({"peak_gbps": F, "hw_counters": B}) —
  /// what scripts/trace_report.py divides achieved GB/s by. Unset sessions
  /// export no gcol_meta, keeping pre-v6 traces byte-identical.
  void set_meta(double peak_gbps, bool hw_counters);

  /// Device tracer callback: records the launch span plus one busy span per
  /// participating worker slot.
  void on_kernel_launch(const sim::LaunchInfo& info) override;

  /// Events recorded so far (spans + counters, metadata excluded).
  [[nodiscard]] std::size_t event_count() const noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
  }

  /// Milliseconds since the session started.
  [[nodiscard]] double now_ms() const noexcept { return clock_.elapsed_ms(); }

  /// The Chrome trace-event document: {"displayTimeUnit": "ms",
  /// "traceEvents": [...]}, timestamps in microseconds. Phases still open at
  /// export time are emitted as if they ended now (without closing them).
  [[nodiscard]] Json to_json() const;

  /// Serializes to_json() compactly to `path`; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  struct Event {
    enum class Kind : std::uint8_t { kSpan, kCounter };
    Kind kind;
    bool has_launch_args = false;  ///< span carries items/slots/imbalance
    /// Launch spans: "push"/"pull" (string literal) or nullptr when the
    /// kernel has no traversal direction.
    const char* direction = nullptr;
    unsigned slots = 0;
    unsigned stream = 0;  ///< launch spans: stream id (arg emitted when != 0)
    std::int64_t tid = 0;
    std::string name;
    double begin_ms = 0.0;
    double dur_ms = 0.0;          ///< spans only
    std::int64_t value = 0;       ///< counters: sample; launch spans: items
    double imbalance = 0.0;       ///< launch spans: max/mean slot busy time
    double wait_share = 0.0;      ///< launch spans: barrier-wait share
    /// Launch spans: the launch's modeled traffic (args emitted only when
    /// modeled) and its summed hardware-counter deltas (emitted only when
    /// hw_valid — at least one slot sampled successfully).
    sim::Traffic traffic{};
    sim::HwCounters hw{};
    bool hw_valid = false;
  };

  struct OpenPhase {
    std::string name;
    double begin_ms;
  };

  /// Per-stream trace state, created on a stream's first recorded event (the
  /// default stream's entry exists from construction). Order of first use is
  /// the track-metadata emission order.
  struct StreamState {
    unsigned stream = 0;
    std::vector<OpenPhase> open_phases;
    /// Highest worker tid emitted on this stream's track group so far;
    /// `track_base + 1` (the phase tid) means "no worker spans yet".
    std::int64_t max_worker_tid = 0;
  };

  /// First tid of `stream`'s track group (0 for the default stream).
  [[nodiscard]] static std::int64_t track_base(unsigned stream) noexcept {
    return static_cast<std::int64_t>(stream) * 4096;
  }

  StreamState& state_for_locked(unsigned stream);
  void close_phase_locked(StreamState& state);
  static void append_event(Json& trace_events, const Event& event);

  sim::Device& device_;
  sim::Stopwatch clock_;
  sim::LaunchListener* previous_tracer_;
  TraceSession* previous_session_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::vector<StreamState> streams_;
  bool has_meta_ = false;
  double meta_peak_gbps_ = 0.0;
  bool meta_hw_counters_ = false;
};

/// RAII phase marker: opens a span on the phase track of the current
/// TraceSession for the enclosing scope. When no session is active the cost
/// is one relaxed atomic load — algorithms annotate their outer iterations
/// unconditionally and pay nothing in untraced runs.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name)
      : session_(TraceSession::current()) {
    if (session_ != nullptr) session_->begin_phase(name);
  }
  ~ScopedPhase() {
    if (session_ != nullptr) session_->end_phase();
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  TraceSession* session_;
};

/// Records one counter sample on the current session; no-op (one relaxed
/// load) when tracing is off. Metrics::push routes through this so series
/// become counter tracks for free.
void trace_counter(std::string_view name, std::int64_t value);

}  // namespace gcol::obs
