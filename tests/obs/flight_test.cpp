// Flight-recorder unit tests: ring wrap-around keeps the newest events in
// sequence order, steady-state recording never allocates new rings, and a
// fault dump is parseable JSON carrying the schema header, the dump reason,
// and the recorded events' args.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace apt {
namespace {

using obs::FlightEvent;
using obs::FlightRecorder;
using obs::JsonValue;
using obs::ParseJson;
using obs::ParseJsonFile;

// The recorder is process-global; start each test from empty rings.
class FlightTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Flight().Clear(); }
  void TearDown() override {
    obs::Flight().Clear();
    obs::Flight().SetDumpDir(".");
  }
};

TEST_F(FlightTest, RingWrapAroundKeepsTheMostRecentEvents) {
  const std::size_t cap = FlightRecorder::kRingCapacity;
  const std::size_t total = cap + 44;  // force 44 overwrites
  for (std::size_t i = 0; i < total; ++i) {
    obs::Flight().Record("test.ev", "wrap", /*sim_s=*/static_cast<double>(i),
                         {{"i", static_cast<double>(i), nullptr}});
  }
  const std::vector<FlightEvent> events = obs::Flight().Snapshot();
  ASSERT_EQ(events.size(), cap);  // bounded: older events were overwritten
  // The survivors are exactly the LAST `cap` records, in seq order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].args[0].num,
                     static_cast<double>(total - cap + i));
    if (i > 0) {
      EXPECT_GT(events[i].seq, events[i - 1].seq);
    }
  }
  EXPECT_GE(obs::Flight().Dropped(), static_cast<std::uint64_t>(44));
}

TEST_F(FlightTest, SteadyStateRecordingAllocatesNoNewRings) {
  // First record on this thread may create its ring ...
  obs::Flight().Record("test.ev");
  const std::int64_t rings = obs::Flight().RingsAllocated();
  const std::uint64_t recorded0 = obs::Flight().TotalRecorded();
  // ... after which recording is ring-reuse only (the zero-allocation
  // property the header promises, pinned via the ring count).
  for (int i = 0; i < 10 * static_cast<int>(FlightRecorder::kRingCapacity); ++i) {
    obs::Flight().Record("test.ev", "steady", -1.0,
                         {{"i", static_cast<double>(i), nullptr}});
  }
  EXPECT_EQ(obs::Flight().RingsAllocated(), rings);
  EXPECT_EQ(obs::Flight().TotalRecorded() - recorded0,
            10u * FlightRecorder::kRingCapacity);
}

TEST_F(FlightTest, WriteJsonCarriesSchemaHeaderReasonAndArgs) {
  obs::Flight().Record("collective.fail", "alltoall", /*sim_s=*/0.25,
                       {{"bytes", 4096.0, nullptr},
                        {"fraction", 0.5, nullptr},
                        {"class", 0.0, "cross_machine"}});
  std::ostringstream os;
  obs::Flight().WriteJson(os, "unit-test reason");

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(os.str(), &doc, &error)) << error;
  EXPECT_DOUBLE_EQ(doc.NumOr("schema_version", 0.0),
                   static_cast<double>(obs::kObsSchemaVersion));
  const JsonValue* meta = doc.Find("meta");
  ASSERT_NE(meta, nullptr);
  ASSERT_NE(meta->StrOrNull("kind"), nullptr);
  EXPECT_EQ(*meta->StrOrNull("kind"), "flight");
  ASSERT_NE(doc.StrOrNull("reason"), nullptr);
  EXPECT_EQ(*doc.StrOrNull("reason"), "unit-test reason");

  const JsonValue* events = doc.Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->arr.size(), 1u);
  const JsonValue& e = events->arr[0];
  EXPECT_EQ(*e.StrOrNull("kind"), "collective.fail");
  EXPECT_EQ(*e.StrOrNull("label"), "alltoall");
  EXPECT_DOUBLE_EQ(e.NumOr("sim_s", 0.0), 0.25);
  const JsonValue* args = e.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->NumOr("bytes", 0.0), 4096.0);
  EXPECT_DOUBLE_EQ(args->NumOr("fraction", 0.0), 0.5);
  ASSERT_NE(args->StrOrNull("class"), nullptr);
  EXPECT_EQ(*args->StrOrNull("class"), "cross_machine");
}

TEST_F(FlightTest, DumpOnFaultWritesAParseableFileAndBumpsTheCounter) {
  const std::string dir =
      ::testing::TempDir() + "flight_unit_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::create_directories(dir);
  obs::Flight().SetDumpDir(dir);
  obs::Flight().Record("barrier.poisoned");

  const std::int64_t dumps0 = obs::Metrics::Global().counter("flight.dumps").Get();
  const std::string path = obs::Flight().DumpOnFault("injected for test");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.rfind(dir + "/flight_", 0), 0u) << path;
  EXPECT_EQ(obs::Metrics::Global().counter("flight.dumps").Get(), dumps0 + 1);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJsonFile(path, &doc, &error)) << error;
  EXPECT_EQ(*doc.StrOrNull("reason"), "injected for test");
  const JsonValue* events = doc.Find("events");
  ASSERT_NE(events, nullptr);
  bool saw_poison = false;
  for (const JsonValue& e : events->arr) {
    if (e.StrOrNull("kind") != nullptr && *e.StrOrNull("kind") == "barrier.poisoned") {
      saw_poison = true;
    }
  }
  EXPECT_TRUE(saw_poison);
}

TEST_F(FlightTest, DumpOnFaultToAMissingDirectoryReportsFailure) {
  obs::Flight().SetDumpDir("/nonexistent-apt-flight-dir");
  EXPECT_EQ(obs::Flight().DumpOnFault("unwritable"), "");
}

TEST_F(FlightTest, ClearDropsEventsButKeepsRings) {
  obs::Flight().Record("test.ev");
  const std::int64_t rings = obs::Flight().RingsAllocated();
  obs::Flight().Clear();
  EXPECT_TRUE(obs::Flight().Snapshot().empty());
  EXPECT_EQ(obs::Flight().RingsAllocated(), rings);
}

}  // namespace
}  // namespace apt
