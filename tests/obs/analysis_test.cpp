// Trace-analysis engine tests: the analyzer's reconstruction of a traced
// training epoch must reproduce the EpochStats the trainer reported (the
// ISSUE's 1% acceptance bar), the critical path must account for the full
// simulated wall window, run-diffing must flag the GDP-vs-DNP structural
// differences, and the perf gate must pass identical records and fail
// inflated ones. File-based paths also enforce the schema header.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apt/cost_model.h"
#include "engine/trainer.h"
#include "obs/analysis.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "sim/hardware.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::MakeTrainer;
using ::apt::testing::SmallDataset;
using obs::JsonValue;
using obs::ParseJson;
using obs::TraceAnalysis;
using obs::TraceSet;

class AnalysisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTracingEnabled(false);
    obs::Tracer::Global().Clear();
  }
  void TearDown() override {
    obs::SetTracingEnabled(false);
    obs::Tracer::Global().Clear();
  }
};

/// One traced epoch of `strategy` on the shared small dataset: the trainer's
/// own EpochStats next to everything the analyzer needs to re-derive them.
struct TracedEpoch {
  EpochStats stats;
  std::int64_t steps_per_epoch = 0;
  std::int32_t pid = -1;
  std::vector<obs::TraceEvent> events;
  std::vector<obs::SimTrackInfo> sim_tracks;
};

TracedEpoch RunTracedEpoch(const Dataset& ds, Strategy strategy,
                           const ClusterSpec& cluster = SingleMachineCluster(4),
                           int pipeline_depth = 1) {
  auto trainer = MakeTrainer(ds, cluster, strategy, ModelKind::kSage,
                             /*force_chunked=*/true, 1 << 20, {5, 5},
                             /*batch=*/128, /*hidden=*/0, /*recovery=*/{},
                             pipeline_depth);
  TracedEpoch out;
  out.pid = trainer->sim().ObsPid();
  out.steps_per_epoch = trainer->StepsPerEpoch();
  obs::SetTracingEnabled(true);
  out.stats = trainer->TrainEpoch(0);
  obs::SetTracingEnabled(false);
  out.events = obs::Tracer::Global().Drain();
  out.sim_tracks = obs::Tracer::Global().SimTracks();
  return out;
}

const TraceAnalysis* FindTrack(const TraceSet& set, std::int32_t pid) {
  for (const TraceAnalysis& a : set.tracks) {
    if (a.pid == pid) return &a;
  }
  return nullptr;
}

double RelDiff(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-12});
}

TEST_F(AnalysisTest, ReconstructsEpochStatsWithinOnePercent) {
  const Dataset ds = SmallDataset();
  const TracedEpoch run = RunTracedEpoch(ds, Strategy::kGDP);
  const TraceSet set = obs::AnalyzeEvents(run.events, run.sim_tracks);
  const TraceAnalysis* a = FindTrack(set, run.pid);
  ASSERT_NE(a, nullptr);

  // The ISSUE's acceptance bar: the analyzer's per-strategy breakdown must
  // agree with the trainer's own EpochStats to within 1%.
  EXPECT_LT(RelDiff(a->wall_s, run.stats.wall_seconds), 0.01);
  EXPECT_LT(RelDiff(a->StackedSeconds(), run.stats.sim_seconds), 0.01);
  EXPECT_LT(RelDiff(a->ComparableSeconds(),
                    run.stats.sample_seconds + run.stats.load_seconds +
                        run.stats.comm_train_seconds),
            0.01);
  // Phase maxima are re-derived from the very slices the trainer emitted,
  // so they agree to rounding, not merely to 1%.
  EXPECT_NEAR(a->phase_max_s.at("sample"), run.stats.sample_seconds,
              1e-9 + 1e-6 * run.stats.sample_seconds);
  EXPECT_NEAR(a->phase_max_s.at("load"), run.stats.load_seconds,
              1e-9 + 1e-6 * run.stats.load_seconds);
  EXPECT_NEAR(a->phase_max_s.at("train"), run.stats.train_seconds,
              1e-9 + 1e-6 * run.stats.train_seconds);

  EXPECT_EQ(a->strategy, "GDP");
  EXPECT_EQ(a->num_device_lanes, 4);
  EXPECT_EQ(a->steps.count, run.steps_per_epoch);
  EXPECT_GT(a->steps.p50_s, 0.0);
  EXPECT_GE(a->steps.p99_s, a->steps.p50_s);

  // Critical path: by construction the segments tile the wall window.
  ASSERT_FALSE(a->critical_path.empty());
  EXPECT_NEAR(a->critical_total_s, a->wall_s, 1e-9 + 1e-6 * a->wall_s);
  double seg_sum = 0.0;
  for (const obs::CriticalSeg& seg : a->critical_path) {
    EXPECT_GE(seg.dur_s, 0.0);
    seg_sum += seg.dur_s;
  }
  EXPECT_NEAR(seg_sum, a->critical_total_s, 1e-9 + 1e-6 * a->critical_total_s);
  double attr_sum = 0.0;
  for (const auto& [name, v] : a->critical_by_name_s) attr_sum += v;
  EXPECT_NEAR(attr_sum, a->critical_total_s, 1e-9 + 1e-6 * a->critical_total_s);

  // Communication attribution saw the training collectives.
  EXPECT_FALSE(a->comm_by_op_s.empty());
  EXPECT_FALSE(a->traffic_bytes.empty());
}

TEST_F(AnalysisTest, PipelinedNfpOverlapShrinksEpochAndTilesCriticalPath) {
  // Comm-heavy configuration: NFP on a two-machine cluster broadcasts every
  // computation graph and allreduces partial embeddings across the slow
  // inter-machine network — the strategy with the most to hide.
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  const TracedEpoch serial = RunTracedEpoch(ds, Strategy::kNFP, cluster);
  obs::Tracer::Global().Clear();
  const TracedEpoch piped =
      RunTracedEpoch(ds, Strategy::kNFP, cluster, /*pipeline_depth=*/4);

  // Overlap must strictly shrink the simulated epoch on this config.
  EXPECT_LT(piped.stats.sim_seconds, serial.stats.sim_seconds);
  EXPECT_LT(piped.stats.wall_seconds,
            serial.stats.wall_seconds * (1.0 + 1e-9));

  const TraceSet set = obs::AnalyzeEvents(piped.events, piped.sim_tracks);
  const TraceAnalysis* a = FindTrack(set, piped.pid);
  ASSERT_NE(a, nullptr);

  // The analyzer still reproduces the trainer's EpochStats within 1% even
  // with two streams per device: stalls + compute tile the device clocks.
  EXPECT_LT(RelDiff(a->StackedSeconds(), piped.stats.sim_seconds), 0.01);
  EXPECT_LT(RelDiff(a->wall_s, piped.stats.wall_seconds), 0.01);

  // Comm-stream accounting: all four comm lanes recorded activity, and the
  // overlap hid a strictly positive fraction of it.
  EXPECT_EQ(a->num_device_lanes, 4);
  EXPECT_EQ(a->num_comm_lanes, 4);
  double comm_stream_busy = 0.0;
  for (const auto& [cat, v] : a->comm_stream_total_s) comm_stream_busy += v;
  EXPECT_GT(comm_stream_busy, 0.0);
  EXPECT_GT(a->OverlapEfficiency(), 0.0);
  EXPECT_LE(a->OverlapEfficiency(), 1.0);
  // Exposed (stalled) communication is what is left on the compute clocks.
  EXPECT_GT(a->stall_total_s, 0.0);
  EXPECT_LT(a->stall_total_s, comm_stream_busy);

  // The critical path walks BOTH streams and still tiles the wall window
  // exactly — no gap and no double counting at stream boundaries.
  ASSERT_FALSE(a->critical_path.empty());
  EXPECT_NEAR(a->critical_total_s, a->wall_s, 1e-9 + 1e-6 * a->wall_s);
  double seg_sum = 0.0;
  bool comm_lane_on_path = false;
  for (const obs::CriticalSeg& seg : a->critical_path) {
    EXPECT_GE(seg.dur_s, 0.0);
    seg_sum += seg.dur_s;
    if (seg.lane >= a->num_device_lanes &&
        seg.lane < a->num_device_lanes + a->num_comm_lanes) {
      comm_lane_on_path = true;
    }
  }
  EXPECT_NEAR(seg_sum, a->critical_total_s, 1e-9 + 1e-6 * a->critical_total_s);
  EXPECT_TRUE(comm_lane_on_path);  // an overlap-bound run pivots through comm

  // `aptperf report` surfaces the overlap summary for pipelined tracks.
  std::ostringstream os;
  obs::WriteReport(os, set);
  EXPECT_NE(os.str().find("overlap efficiency"), std::string::npos) << os.str();

  // The serial control records NO comm-stream activity (lanes stay idle).
  const TraceSet serial_set = obs::AnalyzeEvents(serial.events, serial.sim_tracks);
  const TraceAnalysis* s = FindTrack(serial_set, serial.pid);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->num_comm_lanes, 0);
  EXPECT_DOUBLE_EQ(s->stall_total_s, 0.0);
}

TEST_F(AnalysisTest, ReportPrintsPerStrategyStageBreakdown) {
  const Dataset ds = SmallDataset();
  const TracedEpoch run = RunTracedEpoch(ds, Strategy::kGDP);
  const TraceSet set = obs::AnalyzeEvents(run.events, run.sim_tracks);

  std::ostringstream os;
  obs::WriteReport(os, set);
  const std::string report = os.str();
  EXPECT_NE(report.find("strategy=GDP"), std::string::npos) << report;
  EXPECT_NE(report.find("sample"), std::string::npos);
  EXPECT_NE(report.find("load"), std::string::npos);
  EXPECT_NE(report.find("train"), std::string::npos);
  EXPECT_NE(report.find("critical path"), std::string::npos);
  EXPECT_NE(report.find("steps: n="), std::string::npos);
}

TEST_F(AnalysisTest, TraceFileRoundTripMatchesInMemoryAnalysis) {
  const Dataset ds = SmallDataset();
  const TracedEpoch run = RunTracedEpoch(ds, Strategy::kGDP);
  const TraceSet mem = obs::AnalyzeEvents(run.events, run.sim_tracks);
  const TraceAnalysis* a = FindTrack(mem, run.pid);
  ASSERT_NE(a, nullptr);

  const std::string path = ::testing::TempDir() + "analysis_roundtrip.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    obs::WriteChromeTraceJson(out, run.events, run.sim_tracks,
                              obs::Tracer::Global().NumHostLanes());
  }
  TraceSet from_file;
  std::string error;
  ASSERT_TRUE(obs::AnalyzeTraceFile(path, &from_file, &error)) << error;
  const TraceAnalysis* b = FindTrack(from_file, run.pid);
  ASSERT_NE(b, nullptr);

  // File timestamps pass through microsecond doubles; stay within rounding.
  EXPECT_LT(RelDiff(a->wall_s, b->wall_s), 1e-6);
  EXPECT_LT(RelDiff(a->StackedSeconds(), b->StackedSeconds()), 1e-6);
  EXPECT_LT(RelDiff(a->critical_total_s, b->critical_total_s), 1e-6);
  EXPECT_EQ(a->strategy, b->strategy);
  EXPECT_EQ(a->steps.count, b->steps.count);
  EXPECT_EQ(a->traffic_bytes, b->traffic_bytes);
  EXPECT_FALSE(b->track_label.empty());  // 'M' process_name was recovered
  std::remove(path.c_str());
}

TEST_F(AnalysisTest, RejectsTraceFilesWithMissingOrNewerSchema) {
  const std::string dir = ::testing::TempDir();
  TraceSet out;
  std::string error;

  const std::string unversioned = dir + "analysis_unversioned.json";
  {
    std::ofstream f(unversioned);
    f << R"({"traceEvents": []})" << "\n";
  }
  EXPECT_FALSE(obs::AnalyzeTraceFile(unversioned, &out, &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos) << error;

  const std::string future = dir + "analysis_future.json";
  {
    std::ofstream f(future);
    f << R"({"schema_version": 999, "meta": {"kind": "trace"}, "traceEvents": []})"
      << "\n";
  }
  EXPECT_FALSE(obs::AnalyzeTraceFile(future, &out, &error));
  EXPECT_NE(error.find("not supported"), std::string::npos) << error;

  // A versioned file of the WRONG kind (bench records fed to the trace
  // analyzer, or vice versa) is rejected too, not mis-parsed.
  const std::string wrong_kind = dir + "analysis_wrong_kind.json";
  {
    std::ofstream f(wrong_kind);
    f << R"({"schema_version": 1, "meta": {"kind": "bench_records"}, "records": []})"
      << "\n";
  }
  EXPECT_FALSE(obs::AnalyzeTraceFile(wrong_kind, &out, &error));
  EXPECT_NE(error.find("meta.kind"), std::string::npos) << error;
  JsonValue records;
  EXPECT_FALSE(obs::LoadRecordsFile(unversioned, &records, &error));

  std::remove(unversioned.c_str());
  std::remove(future.c_str());
  std::remove(wrong_kind.c_str());
}

TEST_F(AnalysisTest, DiffFlagsGdpVersusDnpStructureButNotSelfDiff) {
  const Dataset ds = SmallDataset();
  const TracedEpoch gdp = RunTracedEpoch(ds, Strategy::kGDP);
  obs::Tracer::Global().Clear();
  const TracedEpoch dnp = RunTracedEpoch(ds, Strategy::kDNP);

  const TraceSet gdp_set = obs::AnalyzeEvents(gdp.events, gdp.sim_tracks);
  const TraceSet dnp_set = obs::AnalyzeEvents(dnp.events, dnp.sim_tracks);
  const TraceAnalysis* a = gdp_set.ByStrategy("GDP");
  const TraceAnalysis* b = dnp_set.ByStrategy("DNP");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // GDP and DNP run the same arithmetic under different parallelization, so
  // the diff must surface significant stage-level deltas...
  const obs::DiffReport diff = obs::DiffAnalyses(*a, *b, /*threshold=*/0.05);
  EXPECT_TRUE(diff.any_significant);
  std::ostringstream os;
  diff.WriteMarkdown(os);
  const std::string md = os.str();
  EXPECT_NE(md.find("| metric |"), std::string::npos) << md;
  EXPECT_NE(md.find("wall_s"), std::string::npos);

  // ...while a run diffed against itself is pure noise-floor: nothing fires.
  const obs::DiffReport self_diff = obs::DiffAnalyses(*a, *a, 0.05);
  EXPECT_FALSE(self_diff.any_significant);
}

TEST_F(AnalysisTest, ResidualReportComparesEstimateAgainstMeasuredTrack) {
  const Dataset ds = SmallDataset();
  const TracedEpoch run = RunTracedEpoch(ds, Strategy::kGDP);
  const TraceSet set = obs::AnalyzeEvents(run.events, run.sim_tracks);
  const TraceAnalysis* measured = set.ByStrategy("GDP");
  ASSERT_NE(measured, nullptr);

  // A perfect estimate: predicted terms copied from the measured track.
  CostEstimate e;
  e.strategy = Strategy::kGDP;
  e.t_build = measured->phase_max_s.at("sample");
  e.t_load = measured->phase_max_s.at("load");
  e.t_shuffle = measured->comm_max_s.at("train");
  const std::string report = FormatResidualReport(e, *measured);
  EXPECT_NE(report.find("Cost-model residuals: GDP"), std::string::npos) << report;
  EXPECT_NE(report.find("t_build (sample)"), std::string::npos);
  EXPECT_NE(report.find("comparable"), std::string::npos);
  // Zero residuals all the way down.
  EXPECT_NE(report.find("0.0% |"), std::string::npos);
  EXPECT_EQ(report.find("(trace labeled"), std::string::npos);

  // A mislabeled comparison is flagged instead of silently averaged in.
  e.strategy = Strategy::kDNP;
  EXPECT_NE(FormatResidualReport(e, *measured).find("(trace labeled GDP)"),
            std::string::npos);
}

// --- gate ------------------------------------------------------------------

JsonValue ParseRecordsOrDie(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &v, &error)) << error;
  return v;
}

const char* kBaselineRecords = R"({
  "schema_version": 1,
  "meta": {"kind": "bench_records"},
  "records": [
    {"op": "alltoall", "shape": "4x1MB", "time_ns": 1000.0, "sim_seconds": 0.5,
     "iterations": 10},
    {"case": "fig01/tiny", "strategies": {
      "GDP": {"sim_seconds": 1.0, "wall_seconds": 0.8, "loss": 0.5},
      "DNP": {"sim_seconds": 0.6, "wall_seconds": 0.5}}}
  ]
})";

TEST(GateTest, FlattenRecordsKeysMicroAndFigureRecords) {
  const JsonValue doc = ParseRecordsOrDie(kBaselineRecords);
  const auto flat = obs::FlattenRecords(doc);
  ASSERT_EQ(flat.size(), 3u);
  // Micro record: wall time + sim_* metrics only ("iterations" is not a
  // gated metric).
  const auto& micro = flat.at("alltoall/4x1MB");
  EXPECT_EQ(micro.size(), 2u);
  EXPECT_DOUBLE_EQ(micro.at("time_ns"), 1000.0);
  EXPECT_DOUBLE_EQ(micro.at("sim_seconds"), 0.5);
  // Figure record: one entry per strategy, times only (loss is not a perf
  // metric).
  const auto& gdp = flat.at("fig01/tiny/GDP");
  EXPECT_EQ(gdp.size(), 2u);
  EXPECT_DOUBLE_EQ(gdp.at("sim_seconds"), 1.0);
  EXPECT_DOUBLE_EQ(gdp.at("wall_seconds"), 0.8);
  EXPECT_EQ(flat.count("fig01/tiny/DNP"), 1u);
}

TEST(GateTest, IdenticalRecordsPassAndInflatedSimFails) {
  const JsonValue base = ParseRecordsOrDie(kBaselineRecords);
  const obs::GateOptions options;  // 25% both tolerances

  const obs::GateReport same = obs::RunGate(base, base, options);
  EXPECT_TRUE(same.Pass());
  EXPECT_EQ(same.regressions, 0);
  EXPECT_EQ(same.compared, 6);  // 2 micro + 2x2 figure metrics

  // Inflate ONE deterministic metric past tolerance: the gate must fail and
  // name the offender.
  JsonValue inflated = base;
  inflated.obj["records"].arr[1].obj["strategies"].obj["GDP"].obj["sim_seconds"].num =
      1.5;
  const obs::GateReport bad = obs::RunGate(base, inflated, options);
  EXPECT_FALSE(bad.Pass());
  EXPECT_EQ(bad.regressions, 1);
  ASSERT_FALSE(bad.findings.empty());
  // Findings sort regressions first.
  EXPECT_TRUE(bad.findings[0].regression);
  EXPECT_EQ(bad.findings[0].key, "fig01/tiny/GDP");
  EXPECT_EQ(bad.findings[0].metric, "sim_seconds");
  EXPECT_NEAR(bad.findings[0].rel, 0.5, 1e-12);
  std::ostringstream os;
  bad.WriteMarkdown(os);
  EXPECT_NE(os.str().find("**REGRESSION**"), std::string::npos);
  EXPECT_NE(os.str().find("FAIL"), std::string::npos);
}

TEST(GateTest, ImprovementsAlwaysPass) {
  const JsonValue base = ParseRecordsOrDie(kBaselineRecords);
  JsonValue faster = base;
  faster.obj["records"].arr[0].obj["time_ns"].num = 10.0;  // 100x faster
  faster.obj["records"].arr[1].obj["strategies"].obj["DNP"].obj["sim_seconds"].num =
      0.01;
  EXPECT_TRUE(obs::RunGate(base, faster, obs::GateOptions{}).Pass());
}

TEST(GateTest, ExactCountDropFails) {
  const JsonValue base = ParseRecordsOrDie(R"({
    "schema_version": 1,
    "meta": {"kind": "bench_records"},
    "records": [
      {"op": "sample", "shape": "batch128", "time_ns": 1000.0,
       "sim_sampled_edges": 4000.0, "sim_sampled_src_nodes": 900.0,
       "sim_traffic_bytes": 65536.0, "sim_seconds": 0.5}
    ]
  })");
  EXPECT_TRUE(obs::RunGate(base, base, obs::GateOptions{}).Pass());

  // A count that drops is a behaviour change, whatever its suffix.
  for (const char* metric :
       {"sim_sampled_edges", "sim_sampled_src_nodes", "sim_traffic_bytes"}) {
    JsonValue fewer = base;
    fewer.obj["records"].arr[0].obj[metric].num -= 1.0;
    const obs::GateReport report = obs::RunGate(base, fewer, obs::GateOptions{});
    EXPECT_FALSE(report.Pass()) << metric;
    EXPECT_EQ(report.regressions, 1) << metric;
    ASSERT_FALSE(report.findings.empty());
    EXPECT_EQ(report.findings[0].metric, metric);
    EXPECT_LT(report.findings[0].rel, 0.0);
    std::ostringstream os;
    report.WriteMarkdown(os);
    EXPECT_NE(os.str().find("**REGRESSION**"), std::string::npos) << metric;
  }

  // A simulated time that drops stays an improvement.
  JsonValue faster = base;
  faster.obj["records"].arr[0].obj["sim_seconds"].num = 0.25;
  EXPECT_TRUE(obs::RunGate(base, faster, obs::GateOptions{}).Pass());
}

TEST(GateTest, WallClockMetricsUseTheirOwnTolerance) {
  const JsonValue base = ParseRecordsOrDie(kBaselineRecords);
  JsonValue wall_slow = base;
  wall_slow.obj["records"].arr[0].obj["time_ns"].num = 1400.0;  // +40% wall

  obs::GateOptions strict_sim_loose_wall;
  strict_sim_loose_wall.sim_tolerance = 0.01;
  strict_sim_loose_wall.wall_tolerance = 0.50;
  EXPECT_TRUE(obs::RunGate(base, wall_slow, strict_sim_loose_wall).Pass());

  obs::GateOptions tight_wall;
  tight_wall.wall_tolerance = 0.25;
  EXPECT_FALSE(obs::RunGate(base, wall_slow, tight_wall).Pass());

  // --no-wall semantics: the delta is reported but never gates.
  tight_wall.gate_wall = false;
  const obs::GateReport ungated = obs::RunGate(base, wall_slow, tight_wall);
  EXPECT_TRUE(ungated.Pass());
  bool saw_wall_finding = false;
  for (const obs::GateFinding& f : ungated.findings) {
    if (f.wall && f.metric == "time_ns") saw_wall_finding = true;
  }
  EXPECT_TRUE(saw_wall_finding);
}

TEST(GateTest, UnmatchedRecordsBecomeNotesNotFailures) {
  const JsonValue base = ParseRecordsOrDie(kBaselineRecords);
  JsonValue pruned = base;
  pruned.obj["records"].arr.pop_back();  // current run lost the figure record
  const obs::GateReport report = obs::RunGate(base, pruned, obs::GateOptions{});
  EXPECT_TRUE(report.Pass());  // missing data is a note, not a regression
  bool noted = false;
  for (const std::string& note : report.notes) {
    if (note.find("fig01/tiny") != std::string::npos) noted = true;
  }
  EXPECT_TRUE(noted);
}

TEST(GateTest, MergedRecordsDocsRoundTripThroughSerialization) {
  const JsonValue a = ParseRecordsOrDie(kBaselineRecords);
  const JsonValue b = ParseRecordsOrDie(R"({
    "schema_version": 1,
    "meta": {"kind": "bench_records"},
    "records": [{"op": "allreduce", "time_ns": 7.0, "sim_bytes": 64}]
  })");
  const JsonValue merged = obs::MergeRecordsDocs({&a, &b});
  std::ostringstream os;
  obs::WriteRecordsDoc(os, merged);

  const std::string path = ::testing::TempDir() + "analysis_merged_records.json";
  {
    std::ofstream f(path);
    f << os.str();
  }
  JsonValue reloaded;
  std::string error;
  ASSERT_TRUE(obs::LoadRecordsFile(path, &reloaded, &error)) << error;
  const auto flat = obs::FlattenRecords(reloaded);
  EXPECT_EQ(flat.count("alltoall/4x1MB"), 1u);
  EXPECT_EQ(flat.count("allreduce"), 1u);
  EXPECT_DOUBLE_EQ(flat.at("allreduce").at("sim_bytes"), 64.0);
  // Integral values survive the round trip exactly.
  EXPECT_NE(os.str().find("\"sim_bytes\":64"), std::string::npos) << os.str();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace apt
