#include "obs/trace.hpp"

#include <atomic>
#include <utility>

namespace gcol::obs {

namespace {

/// The innermost live session. Sessions are constructed/destroyed on the
/// host thread; the atomic makes the disabled-path check in
/// trace_counter/ScopedPhase a data-race-free relaxed load from any thread
/// (stream threads probe it on every counter push and phase marker).
std::atomic<TraceSession*> g_current{nullptr};

}  // namespace

TraceSession::TraceSession(sim::Device& device)
    : device_(device),
      previous_tracer_(device.set_trace_listener(this)),
      previous_session_(g_current.exchange(this, std::memory_order_acq_rel)) {
  events_.reserve(1024);
  // The default stream's tracks exist even in an empty trace, and its worker
  // sentinel (tid 1 == its phase track) reproduces the classic layout.
  streams_.push_back(StreamState{0, {}, 1});
}

TraceSession::TraceSession() : TraceSession(sim::Device::instance()) {}

TraceSession::~TraceSession() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (StreamState& state : streams_) {
      while (!state.open_phases.empty()) close_phase_locked(state);
    }
  }
  g_current.store(previous_session_, std::memory_order_release);
  device_.set_trace_listener(previous_tracer_);
}

TraceSession* TraceSession::current() noexcept {
  return g_current.load(std::memory_order_relaxed);
}

TraceSession::StreamState& TraceSession::state_for_locked(unsigned stream) {
  for (StreamState& state : streams_) {
    if (state.stream == stream) return state;
  }
  streams_.push_back(StreamState{stream, {}, track_base(stream) + 1});
  return streams_.back();
}

void TraceSession::begin_phase(std::string_view name) {
  const unsigned stream = sim::current_stream_id();
  std::lock_guard<std::mutex> lock(mutex_);
  state_for_locked(stream).open_phases.push_back(
      {std::string(name), clock_.elapsed_ms()});
}

void TraceSession::close_phase_locked(StreamState& state) {
  OpenPhase phase = std::move(state.open_phases.back());
  state.open_phases.pop_back();
  Event event;
  event.kind = Event::Kind::kSpan;
  event.tid = track_base(state.stream) + 1;
  event.name = std::move(phase.name);
  event.begin_ms = phase.begin_ms;
  event.dur_ms = clock_.elapsed_ms() - phase.begin_ms;
  events_.push_back(std::move(event));
}

void TraceSession::end_phase() {
  const unsigned stream = sim::current_stream_id();
  std::lock_guard<std::mutex> lock(mutex_);
  StreamState& state = state_for_locked(stream);
  if (state.open_phases.empty()) return;
  close_phase_locked(state);
}

void TraceSession::counter(std::string_view name, std::int64_t value) {
  const unsigned stream = sim::current_stream_id();
  Event event;
  event.kind = Event::Kind::kCounter;
  // Counter tracks are keyed by name alone in the trace format, so samples
  // recorded on a stream thread get a stream prefix — concurrent frontier /
  // colored trajectories must not interleave on one track.
  if (stream == 0) {
    event.name.assign(name);
  } else {
    event.name = "s";
    event.name += std::to_string(stream);
    event.name += ':';
    event.name += name;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  event.begin_ms = clock_.elapsed_ms();
  event.value = value;
  events_.push_back(std::move(event));
}

void TraceSession::set_meta(double peak_gbps, bool hw_counters) {
  std::lock_guard<std::mutex> lock(mutex_);
  has_meta_ = true;
  meta_peak_gbps_ = peak_gbps;
  meta_hw_counters_ = hw_counters;
}

void TraceSession::on_kernel_launch(const sim::LaunchInfo& info) {
  // The notification arrives right after the launch's barrier, so the launch
  // began `elapsed_ms` ago on the session clock. Slot telemetry timestamps
  // are relative to that same origin.
  const double launch_begin = clock_.elapsed_ms() - info.elapsed_ms;
  const std::int64_t base = track_base(info.stream);

  double busy_sum = 0.0;
  double busy_max = 0.0;
  double wait_sum = 0.0;
  if (info.slot_telemetry != nullptr) {
    for (unsigned s = 0; s < info.slots; ++s) {
      const sim::SlotTelemetry& t = info.slot_telemetry[s];
      const double busy = t.end_ms - t.start_ms;
      busy_sum += busy;
      if (busy > busy_max) busy_max = busy;
      const double wait = info.elapsed_ms - t.end_ms;
      if (wait > 0.0) wait_sum += wait;
    }
  }
  const double busy_mean = busy_sum / static_cast<double>(info.slots);
  const double span = static_cast<double>(info.slots) * info.elapsed_ms;

  Event launch;
  launch.kind = Event::Kind::kSpan;
  launch.has_launch_args = true;
  launch.direction = info.direction;
  launch.slots = info.slots;
  launch.stream = info.stream;
  launch.tid = base;
  launch.name = info.name;
  launch.begin_ms = launch_begin;
  launch.dur_ms = info.elapsed_ms;
  launch.value = info.items;
  launch.imbalance = busy_mean > 0.0 ? busy_max / busy_mean : 1.0;
  launch.wait_share = span > 0.0 ? wait_sum / span : 0.0;
  launch.traffic = info.traffic;
  if (info.hw && info.slot_telemetry != nullptr) {
    for (unsigned s = 0; s < info.slots; ++s) {
      const sim::SlotTelemetry& t = info.slot_telemetry[s];
      if (t.hw_valid) {
        launch.hw += t.hw;
        launch.hw_valid = true;
      }
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  StreamState& state = state_for_locked(info.stream);
  events_.push_back(std::move(launch));

  if (info.slot_telemetry == nullptr) return;
  for (unsigned s = 0; s < info.slots; ++s) {
    const sim::SlotTelemetry& t = info.slot_telemetry[s];
    // Idle slots (static schedules hand trailing slots empty ranges) would
    // only add zero-length clutter to the worker tracks.
    if (t.items == 0 && t.end_ms - t.start_ms <= 0.0) continue;
    Event slot_span;
    slot_span.kind = Event::Kind::kSpan;
    slot_span.tid = base + 2 + static_cast<std::int64_t>(s);
    slot_span.name = info.name;
    slot_span.begin_ms = launch_begin + t.start_ms;
    slot_span.dur_ms = t.end_ms - t.start_ms;
    slot_span.value = t.items;
    events_.push_back(std::move(slot_span));
    if (slot_span.tid > state.max_worker_tid) {
      state.max_worker_tid = slot_span.tid;
    }
  }
}

void TraceSession::append_event(Json& trace_events, const Event& event) {
  // Chrome trace-event timestamps are microseconds.
  const double ts_us = event.begin_ms * 1000.0;
  Json out = Json::object();
  out.set("name", event.name);
  if (event.kind == Event::Kind::kCounter) {
    out.set("ph", "C");
    out.set("ts", ts_us);
    out.set("pid", 1);
    Json args = Json::object();
    args.set("value", event.value);
    out.set("args", std::move(args));
  } else {
    out.set("ph", "X");
    out.set("ts", ts_us);
    out.set("dur", event.dur_ms * 1000.0);
    out.set("pid", 1);
    out.set("tid", event.tid);
    Json args = Json::object();
    if (event.has_launch_args) {
      args.set("items", event.value);
      args.set("slots", static_cast<std::int64_t>(event.slots));
      args.set("busy_max_over_mean", event.imbalance);
      args.set("barrier_wait_share", event.wait_share);
      if (event.direction != nullptr) {
        args.set("direction", std::string(event.direction));
      }
      if (event.stream != 0) {
        args.set("stream", static_cast<std::int64_t>(event.stream));
      }
      if (event.traffic.modeled()) {
        args.set("bytes_read", event.traffic.bytes_read);
        args.set("bytes_written", event.traffic.bytes_written);
      }
      if (event.hw_valid) {
        args.set("cycles", event.hw.cycles);
        args.set("instructions", event.hw.instructions);
        args.set("llc_loads", event.hw.llc_loads);
        args.set("llc_misses", event.hw.llc_misses);
        args.set("branch_misses", event.hw.branch_misses);
      }
    } else if (event.tid % 4096 >= 2) {
      args.set("items", event.value);
    }
    if (args.size() > 0) out.set("args", std::move(args));
  }
  trace_events.push_back(std::move(out));
}

Json TraceSession::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Json trace_events = Json::array();

  // Thread-name metadata first so viewers label the tracks: one
  // kernels/phases/worker-N group per stream, in first-use order.
  const auto name_track = [&trace_events](std::int64_t tid,
                                          const std::string& name) {
    Json meta = Json::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", tid);
    Json args = Json::object();
    args.set("name", name);
    meta.set("args", std::move(args));
    trace_events.push_back(std::move(meta));
  };
  for (const StreamState& state : streams_) {
    const std::int64_t base = track_base(state.stream);
    std::string prefix;
    if (state.stream != 0) {
      prefix = "s";
      prefix += std::to_string(state.stream);
      prefix += ' ';
    }
    name_track(base, prefix + "kernels");
    name_track(base + 1, prefix + "phases");
    for (std::int64_t tid = base + 2; tid <= state.max_worker_tid; ++tid) {
      name_track(tid, prefix + "worker " + std::to_string(tid - base - 2));
    }
  }

  for (const Event& event : events_) append_event(trace_events, event);

  // Phases still open when the trace is exported (a session dumped
  // mid-flight) are shown as if they ended now.
  const double now = clock_.elapsed_ms();
  for (const StreamState& state : streams_) {
    for (const OpenPhase& phase : state.open_phases) {
      Event event;
      event.kind = Event::Kind::kSpan;
      event.tid = track_base(state.stream) + 1;
      event.name = phase.name;
      event.begin_ms = phase.begin_ms;
      event.dur_ms = now - phase.begin_ms;
      append_event(trace_events, event);
    }
  }

  Json doc = Json::object();
  doc.set("displayTimeUnit", "ms");
  if (has_meta_) {
    Json meta = Json::object();
    meta.set("peak_gbps", meta_peak_gbps_);
    meta.set("hw_counters", meta_hw_counters_);
    doc.set("gcol_meta", std::move(meta));
  }
  doc.set("traceEvents", std::move(trace_events));
  return doc;
}

bool TraceSession::write(const std::string& path) const {
  // Compact output: a full Fig-1 trace is hundreds of thousands of events,
  // and trace viewers do not care about whitespace.
  return write_json_file(path, to_json(), /*indent=*/-1);
}

void trace_counter(std::string_view name, std::int64_t value) {
  if (TraceSession* session = TraceSession::current()) {
    session->counter(name, value);
  }
}

}  // namespace gcol::obs
