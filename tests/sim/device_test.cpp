#include "sim/device.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "sim/stream.hpp"

namespace gcol::sim {
namespace {

TEST(Device, LaunchCoversRangeExactlyOnce) {
  Device device(4);
  std::vector<std::atomic<int>> hits(1000);
  device.launch("test::cover", 1000, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(Device, LaunchDynamicCoversRangeExactlyOnce) {
  Device device(4);
  std::vector<std::atomic<int>> hits(1000);
  device.launch(
      "test::cover_dynamic", 1000,
      [&](std::int64_t i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
      Schedule::kDynamic, 7);
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(Device, LaunchEmptyAndNegativeRangesAreNoOps) {
  Device device(2);
  int calls = 0;
  device.launch("test::empty", 0, [&](std::int64_t) { ++calls; });
  device.launch("test::negative", -5, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Device, LaunchCountIncrementsPerLaunch) {
  Device device(2);
  device.reset_launch_count();
  device.launch("test::a", 10, [](std::int64_t) {});
  device.launch("test::b", 10, [](std::int64_t) {}, Schedule::kDynamic);
  device.launch_slots("test::c", [](unsigned, unsigned) {});
  EXPECT_EQ(device.launch_count(), 3u);
  // Empty launches don't count: nothing was synchronized.
  device.launch("test::d", 0, [](std::int64_t) {});
  EXPECT_EQ(device.launch_count(), 3u);
}

TEST(Device, LaunchSlotsSeesConsistentSlotCount) {
  Device device(3);
  std::vector<unsigned> counts(3, 0);
  device.launch_slots("test::slots", [&](unsigned slot, unsigned num_slots) {
    counts[slot] = num_slots;
  });
  for (const unsigned count : counts) EXPECT_EQ(count, 3u);
}

TEST(Device, SingleWorkerDeviceIsSerial) {
  Device device(1);
  // Order must be strictly ascending when only one worker exists.
  std::vector<std::int64_t> order;
  device.launch("test::serial", 100,
                [&](std::int64_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<std::int64_t>(i));
  }
}

TEST(Device, GlobalInstanceIsStable) {
  Device& a = Device::instance();
  Device& b = Device::instance();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_workers(), 1u);
}

// ---------------------------------------------------------------------------
// Inline-path stream attribution (regression pin). Grids at or below
// kInlineLaunchItems execute inline on the launching thread; the observed
// inline path must still stamp slot 0's {items, stream} telemetry and the
// LaunchInfo stream id, or tiny tail-iteration launches vanish from
// per-stream kernel attribution.
// ---------------------------------------------------------------------------

/// Keeps each LaunchInfo plus a copy of slot 0's telemetry. Installed
/// context-scoped, so no synchronization needed.
class InlineRecorder final : public LaunchListener {
 public:
  struct Record {
    unsigned slots = 0;
    unsigned stream = 0;
    bool has_telemetry = false;
    std::int64_t slot0_items = 0;
    unsigned slot0_stream = 0;
    Traffic traffic{};
  };

  void on_kernel_launch(const LaunchInfo& info) override {
    Record r;
    r.slots = info.slots;
    r.stream = info.stream;
    r.traffic = info.traffic;
    if (info.slot_telemetry != nullptr) {
      r.has_telemetry = true;
      r.slot0_items = info.slot_telemetry[0].items;
      r.slot0_stream = info.slot_telemetry[0].stream;
    }
    records.push_back(r);
  }

  std::vector<Record> records;
};

TEST(InlineLaunchTelemetry, DefaultContextStampsSlotZero) {
  Device device(4);
  InlineRecorder listener;
  device.set_launch_listener(&listener);
  device.launch("test::tiny", kInlineLaunchItems, [](std::int64_t) {},
                Schedule::kStatic, 0, nullptr, Traffic{8, 4});
  device.set_launch_listener(nullptr);

  ASSERT_EQ(listener.records.size(), 1u);
  const auto& r = listener.records[0];
  EXPECT_EQ(r.slots, 1u);  // inline: one slot regardless of device width
  ASSERT_TRUE(r.has_telemetry);
  EXPECT_EQ(r.slot0_items, kInlineLaunchItems);
  EXPECT_EQ(r.slot0_stream, 0u);  // default context
  EXPECT_EQ(r.stream, 0u);
  EXPECT_EQ(r.traffic.bytes_read, 8 * kInlineLaunchItems);
  EXPECT_EQ(r.traffic.bytes_written, 4 * kInlineLaunchItems);
}

TEST(InlineLaunchTelemetry, StreamLaunchStampsStreamId) {
  Device device(4);
  InlineRecorder listener;
  Stream stream(device, 2);
  // The metrics listener is context-scoped: install it from the stream's
  // thread so the stream's launches notify it.
  stream.submit([&] { device.set_launch_listener(&listener); });
  stream.launch("test::tiny_stream", 4, [](std::int64_t) {});
  stream.submit([&] { device.set_launch_listener(nullptr); });
  stream.synchronize();

  ASSERT_EQ(listener.records.size(), 1u);
  const auto& r = listener.records[0];
  EXPECT_EQ(r.slots, 1u);
  EXPECT_EQ(r.stream, stream.id());  // inline launches carry stream identity
  ASSERT_TRUE(r.has_telemetry);
  EXPECT_EQ(r.slot0_stream, stream.id());
  EXPECT_EQ(r.slot0_items, 4);
}

}  // namespace
}  // namespace gcol::sim
