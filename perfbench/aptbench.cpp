// aptbench: the repository benchmark.
//
// One workload per invocation. Every workload runs the whole user pipeline
// through the library's public entry points:
//
//   MakeDataset -> Partitioner::Partition -> MakePlan -> BuildTrainerSetup
//   -> ParallelTrainer::TrainEpoch -> EvaluateAccuracy
//   -> serve::ServeEngine::Run on GenerateTraffic
//
// and reports two clocks: host time (what a run costs on the machine running
// it; end-to-end metrics use process CPU seconds, the traced layer times wall
// seconds) and simulated seconds (the modeled GPU cluster). The workloads
// differ in which layer dominates; perfbench/README.md has the layer table.
//
//   aptbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--smoke] [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the layer-by-layer profile: a mirror of TrainEpoch's step loop built from
// the same public calls (SampleDeviceBatches, MakeExecutor(..)->Step,
// AllReduceGradients, Optimizer::Step, and in scale mode the step-tape
// record / FastForwardStep pair), timed call by call. --smoke shrinks every
// workload for the benchmark's own test.
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// Any failed correctness check prints "CHECK FAILED: ..." lines, sets
// "correct" to false and makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apt/adapter.h"
#include "apt/dryrun.h"
#include "apt/planner.h"
#include "comm/collectives.h"
#include "core/logging.h"
#include "engine/exec_common.h"
#include "engine/executor.h"
#include "engine/trainer.h"
#include "feature/feature_store.h"
#include "graph/dataset.h"
#include "model/gnn_model.h"
#include "model/optimizer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partitioner.h"
#include "sampling/minibatch.h"
#include "serve/serve_engine.h"
#include "serve/traffic.h"
#include "sim/hardware.h"
#include "sim/sim_context.h"
#include "tensor/ops.h"

namespace {

using namespace apt;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU seconds so far, all threads, user + system. On a shared
/// virtual machine this is the steadier host clock: it leaves out time the
/// hypervisor gave the CPU to someone else.
double CpuNow() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/// Host cost of one call on both host clocks.
struct Cost {
  double wall = 0.0, cpu = 0.0;
};

template <typename Fn>
Cost Measure(Fn&& fn) {
  const auto t0 = Clock::now();
  const double c0 = CpuNow();
  fn();
  return {Since(t0), CpuNow() - c0};
}

/// Runs `fn` and returns its host seconds.
template <typename Fn>
double Timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return Since(t0);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `p` (0..100) of `v`.
double Percentile(std::vector<double> v, int p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest whole percentile that leaves at least 10 samples above it
/// (never below the median).
int TailPercentile(std::size_t n) {
  if (n < 20) return 50;
  return std::clamp(static_cast<int>(std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(n)))),
                    50, 99);
}

/// The benchmark's reference work: scattered read-modify-writes over a 4 MiB
/// table, then multiply-add passes over two 256 KiB vectors. It is owned by
/// the benchmark, so no change to the program alters it. Its cost on a quiet
/// 4-vCPU Xeon KVM guest is about kReferenceNominalS on both clocks.
constexpr double kReferenceNominalS = 0.01;

Cost ReferenceLoop() {
  static std::vector<std::uint32_t> table(std::size_t{1} << 20);
  static std::vector<float> a(std::size_t{1} << 16, 1.0f), b(std::size_t{1} << 16, 0.5f);
  std::uint32_t x = 12345;
  const Cost c = Measure([&] {
    for (std::size_t i = 0; i < table.size(); ++i) {
      x = x * 1664525u + 1013904223u;
      table[(i * 2654435761u + x) & (table.size() - 1)] += x;
    }
    for (int pass = 0; pass < 256; ++pass) {
      for (std::size_t i = 0; i < a.size(); ++i) a[i] = a[i] * 0.999f + b[i];
    }
  });
  volatile float sink = a[x & (a.size() - 1)] + static_cast<float>(table[x & (table.size() - 1)]);
  (void)sink;
  return c;
}

/// Host costs of one kind of operation, each measured right after a run of
/// the reference work. On a shared machine the co-tenants' load drifts by
/// tens of percent within minutes and slows the reference work with the
/// program; dividing each sample by the reference run just before it
/// cancels most of that drift. Normalized values are scaled to the
/// reference's nominal cost, so they read as host seconds on a machine that
/// runs it in kReferenceNominalS.
struct HostSamples {
  std::vector<Cost> cost, reference;

  template <typename Fn>
  Cost Add(Fn&& fn) {
    reference.push_back(ReferenceLoop());
    cost.push_back(Measure(std::forward<Fn>(fn)));
    return cost.back();
  }
  std::vector<double> Cpu() const { return Get(&Cost::cpu, false); }
  std::vector<double> Wall() const { return Get(&Cost::wall, false); }
  /// Each sample divided by its reference run, in nominal seconds.
  std::vector<double> NormalizedCpu() const { return Get(&Cost::cpu, true); }
  std::vector<double> NormalizedWall() const { return Get(&Cost::wall, true); }
  double ReferenceCpu() const {
    std::vector<double> out;
    for (const Cost& c : reference) out.push_back(c.cpu);
    return Median(out);
  }

 private:
  std::vector<double> Get(double Cost::*field, bool normalized) const {
    std::vector<double> out;
    out.reserve(cost.size());
    for (std::size_t i = 0; i < cost.size(); ++i) {
      out.push_back(normalized ? cost[i].*field / (reference[i].*field) * kReferenceNominalS
                               : cost[i].*field);
    }
    return out;
  }
};

/// SplitMix64 finalizer: derives the independent seed streams of a run.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt * 0xD1B54A32D192ED03ULL + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  DatasetParams data;
  ClusterSpec cluster;
  ModelConfig model;   ///< input_dim / num_classes filled from the dataset
  EngineOptions engine;
  /// The strategy trained: the planner's pick on the workload's graph. Fixed
  /// so that a pick that flips (train-ps-d512's SNP-over-GDP margin is ~15%
  /// of estimated epoch time) cannot make the training metrics bimodal; each
  /// run still plans, and prints the pick.
  Strategy strategy = Strategy::kGDP;
  std::uint64_t minibatch_seed = 777;
  std::uint64_t traffic_seed = 1;
  int setups = 5;          ///< full set-ups per timed run (setup_s median)
  int plans = 9;           ///< MakePlan calls per timed run (plan_cpu_s median)
  int fixed_epochs = 12;   ///< epochs behind sim_epoch_s and val_acc
  double train_share = 0.85;  ///< share of training + serving time spent training
  double val_acc_floor = 0.2;
  /// Serving: open-loop Poisson traffic, micro-batches of <= 32 requests
  /// closing after 1 ms, queue bound 256, Zipf-0.8 popularity. Latency is
  /// reported at three fixed offered rates (low / mid / high), each run with
  /// `fixed_point_requests` arrivals.
  std::vector<double> fixed_rates = {50e3, 150e3, 300e3};
  std::int64_t fixed_point_requests = 4000;
  double serve_window_s = 0.01;  ///< simulated seconds of arrivals per sweep point
  std::vector<int> serve_fanouts;  ///< inference-time fanout per layer
};

constexpr double kP99SloS = 2e-3;

Workload MakeWorkload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = name;
  const double scale = smoke ? 0.1 : 0.25;
  if (name == "train-ps-d512") {
    w.data = WithFeatureDim(PsLikeParams(scale), 512);
    w.cluster = SingleMachineCluster(8);
    w.model.num_layers = 3;
    w.model.hidden_dim = 32;
    w.strategy = Strategy::kSNP;
  } else if (name == "train-fs-h128-2m") {
    w.data = FsLikeParams(scale);
    w.cluster = MultiMachineCluster(2, 4);
    w.model.num_layers = 3;
    w.model.hidden_dim = 128;
  } else if (name == "serve-ps") {
    w.data = PsLikeParams(scale);
    w.cluster = SingleMachineCluster(4);
    w.model.num_layers = 2;
    w.model.hidden_dim = 32;
    w.fixed_rates = {100e3, 300e3, 600e3};
    w.train_share = 0.25;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.model.kind = ModelKind::kSage;
  w.model.input_dim = w.data.feature_dim;
  w.model.num_classes = w.data.num_classes;
  w.engine.fanouts.assign(static_cast<std::size_t>(w.model.num_layers), 10);
  w.engine.batch_size_per_device = 128;
  // GPU cache: 1/16 of the feature matrix (the paper's 4 GB against its
  // 53-128 GB feature stores).
  w.engine.cache_bytes_per_device = w.data.num_nodes * w.data.feature_dim * 4 / 16;
  // Serving samples 10 neighbours per hop for two hops and 5 for three:
  // one request then reads at most 111 / 156 nodes.
  w.serve_fanouts.assign(static_cast<std::size_t>(w.model.num_layers),
                         w.model.num_layers > 2 ? 5 : 10);
  // The seed drives the run's random streams: minibatch order, neighbour
  // sampling (training, dry-run and serving) and request traffic. The graph
  // keeps its preset seed: on train-ps-d512, seeding the graph moved SNP's
  // simulated epoch by 27% across ten seeds (partition quality alone).
  w.engine.sample_seed = Mix(seed, 2);
  w.minibatch_seed = Mix(seed, 3);
  w.traffic_seed = Mix(seed, 4);
  if (smoke) {
    w.setups = 1;
    w.plans = 1;
    w.fixed_epochs = 2;
    w.serve_window_s = 0.001;
    w.fixed_point_requests = 200;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Pipeline set-up
// ---------------------------------------------------------------------------

/// One full set-up of a workload, with the host seconds of every call.
struct Pipeline {
  std::unique_ptr<Dataset> dataset;  ///< stable address: trainers point at it
  std::vector<PartId> partition;
  PlanReport report;
  TrainerSetup setup;
  std::unique_ptr<ParallelTrainer> trainer;
  std::unique_ptr<serve::ServeEngine> server;
  double graph_s = 0.0, partition_s = 0.0, trainer_s = 0.0, serve_s = 0.0;
  /// MakePlan's cost, and the reference loop's run just before it.
  Cost plan, plan_reference;
};

serve::ServeOptions ServingOptions(const Workload& w) {
  serve::ServeOptions o;
  o.fanouts = w.serve_fanouts;
  o.batch.max_batch = 32;
  o.batch.max_delay_s = 1e-3;
  o.batch.queue_bound = 256;
  o.cache_bytes_per_device = w.engine.cache_bytes_per_device;
  o.popularity_alpha = 0.8;
  o.sample_seed = w.engine.sample_seed;
  return o;
}

TrainerSetup MakeSetup(const Workload& w, const Pipeline& p, Strategy s) {
  TrainerSetup setup = BuildTrainerSetup(w.cluster, w.model, w.engine, p.partition,
                                         p.report.dryrun, s);
  setup.minibatch_seed = w.minibatch_seed;
  return setup;
}

std::unique_ptr<Pipeline> SetUp(const Workload& w) {
  auto p = std::make_unique<Pipeline>();
  p->graph_s = Timed([&] { p->dataset = std::make_unique<Dataset>(MakeDataset(w.data)); });
  p->partition_s = Timed([&] {
    MultilevelPartitioner partitioner;
    p->partition = partitioner.Partition(p->dataset->graph, w.cluster.num_devices());
  });
  p->plan_reference = ReferenceLoop();
  p->plan = Measure([&] {
    p->report = MakePlan(*p->dataset, w.cluster, p->partition, w.engine, w.model);
  });
  p->trainer_s = Timed([&] {
    p->setup = MakeSetup(w, *p, w.strategy);
    p->trainer = std::make_unique<ParallelTrainer>(*p->dataset, p->setup);
  });
  p->serve_s = Timed([&] {
    p->server = std::make_unique<serve::ServeEngine>(
        *p->dataset, w.cluster, w.model, ServingOptions(w));
  });
  return p;
}

// ---------------------------------------------------------------------------
// Results and checks
// ---------------------------------------------------------------------------

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Put(const std::string& name, double value, const std::string& unit) {
    Check(std::isfinite(value), name + " is not finite");
    metrics.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameParams(GnnModel& a, GnnModel& b) {
  std::vector<Param*> pa = a.Params(), pb = b.Params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const Tensor& x = pa[i]->value;
    const Tensor& y = pb[i]->value;
    if (!x.SameShape(y) ||
        std::memcmp(x.data(), y.data(), static_cast<std::size_t>(x.bytes())) != 0) {
      return false;
    }
  }
  return true;
}

std::array<std::int64_t, 3> TrafficWire(const SimContext& sim) {
  std::array<std::int64_t, 3> out{};
  for (int c = 0; c < 3; ++c) out[c] = sim.TrafficWireBytes(static_cast<TrafficClass>(c));
  return out;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::int64_t CounterValue(const std::string& name) {
  return obs::Metrics::Global().counter(name).Get();
}

const char* kRateNames[3] = {"low", "mid", "high"};

// ---------------------------------------------------------------------------
// Serving phase (shared by both modes)
// ---------------------------------------------------------------------------

std::vector<serve::Request> Traffic(const Workload& w, const Dataset& ds, double qps,
                                    double window_s) {
  serve::TrafficConfig t;
  t.kind = serve::ArrivalKind::kPoisson;
  t.rate_qps = qps;
  t.duration_s = window_s;
  t.num_nodes = ds.graph.num_nodes();
  t.zipf_alpha = 0.8;
  t.seed = w.traffic_seed;
  return serve::GenerateTraffic(t);
}

/// A sweep point meets the SLO when nothing is shed, p99 <= 2 ms, and the
/// served requests complete at the offered rate: the last completion comes
/// at most one SLO after the end of the arrival window (a backlog that grows
/// over the window would drain later).
bool MeetsSlo(const serve::ServeReport& r, double offered_qps, double window_s) {
  return r.shed == 0 && r.p99_s <= kP99SloS &&
         r.completed_qps >= offered_qps * window_s / (window_s + kP99SloS);
}

/// Serving runs of one workload, with the host cost of each.
struct Serving {
  Serving(const Workload& workload, const Dataset& dataset, serve::ServeEngine& engine)
      : w(workload), ds(dataset), server(engine) {}

  const Workload& w;
  const Dataset& ds;
  serve::ServeEngine& server;
  HostSamples host;            ///< one sample per fixed-rate Run
  std::vector<double> served;  ///< requests served, per fixed-rate Run
  std::int64_t offered = 0, shed = 0;  ///< over the fixed-rate runs

  /// Requests served per host second of each Run.
  std::vector<double> PerSecond(const std::vector<double>& seconds) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < served.size(); ++i) out.push_back(served[i] / seconds[i]);
    return out;
  }

  /// Fixed rate `i` (low / mid / high), `fixed_point_requests` arrivals.
  serve::ServeReport RunFixed(std::size_t i) {
    const double qps = w.fixed_rates[i];
    const std::vector<serve::Request> arrivals =
        Traffic(w, ds, qps, static_cast<double>(w.fixed_point_requests) / qps);
    serve::ServeReport r;
    host.Add([&] { r = server.Run(arrivals); });
    served.push_back(static_cast<double>(r.served));
    offered += r.offered;
    shed += r.shed;
    return r;
  }

  /// The sweep: a geometric grid of rates 2^(1/16) (~4.4%) apart from 25k QPS;
  /// binary search for the highest grid rate that meets the SLO. Points above
  /// capacity shed by design and are not counted as failures.
  double QpsAtSlo() {
    constexpr double kStep = 1.0442737824274138;  // 2^(1/16)
    const auto rate = [](int k) { return 25e3 * std::pow(kStep, k); };
    int lo = -1, hi = 16 * 7;  // rate(lo) meets the SLO, rate(hi) does not
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const serve::ServeReport r = server.Run(Traffic(w, ds, rate(mid), w.serve_window_s));
      (MeetsSlo(r, rate(mid), w.serve_window_s) ? lo : hi) = mid;
    }
    return lo >= 0 ? rate(lo) : 0.0;
  }
};

/// Batch invariance (DESIGN.md): a request's logits are bit-identical served
/// alone or inside any batch.
void CheckServeParity(const Workload& w, const Dataset& ds, serve::ServeEngine& server,
                      Result& res) {
  const std::vector<serve::Request> arrivals =
      Traffic(w, ds, w.fixed_rates.front(), w.serve_window_s / 4);
  const serve::ServeReport r = server.Run(arrivals);
  int compared = 0;
  const std::size_t stride = std::max<std::size_t>(1, arrivals.size() / 16);
  for (std::size_t i = 0; i < arrivals.size(); i += stride) {
    const serve::Response& resp = r.responses[i];
    if (resp.shed) continue;
    const Tensor solo = server.ServeSolo(arrivals[i], resp.worker);
    res.Check(static_cast<std::size_t>(solo.numel()) == resp.logits.size() &&
                  std::memcmp(solo.data(), resp.logits.data(),
                              resp.logits.size() * sizeof(float)) == 0,
              "serve: batched logits differ from ServeSolo for request " +
                  std::to_string(arrivals[i].id));
    ++compared;
  }
  res.Check(compared > 0, "serve: no request served for the parity check");
}

// ---------------------------------------------------------------------------
// Timed run (--trace 0): end-to-end metrics
// ---------------------------------------------------------------------------

Result TimedRun(const Workload& w, double seconds) {
  Result res;
  const auto t0 = Clock::now();
  HostSamples setups, plans;
  Strategy pick = Strategy::kGDP;
  // Set-ups first, one pipeline alive at a time; the last one is trained and
  // served. The rest of --seconds goes to training, then serving.
  std::unique_ptr<Pipeline> p;
  for (int k = 0; k < w.setups; ++k) {
    p.reset();
    setups.Add([&] { p = SetUp(w); });
    if (k == 0) pick = p->report.selected;
    res.Check(p->report.selected == pick, "plan: MakePlan is not a pure function of its inputs");
    plans.cost.push_back(p->plan);
    plans.reference.push_back(p->plan_reference);
  }
  while (static_cast<int>(plans.cost.size()) < w.plans) {
    plans.Add([&] { MakePlan(*p->dataset, w.cluster, p->partition, w.engine, w.model); });
  }
  const double budget = std::max(0.0, seconds - Since(t0));
  const Dataset& ds = *p->dataset;
  std::printf("workload %s: %lld nodes, %lld edges, dim %lld, %d devices, trains %s, "
              "planner pick %s\n",
              w.name.c_str(), static_cast<long long>(ds.graph.num_nodes()),
              static_cast<long long>(ds.graph.num_edges()),
              static_cast<long long>(ds.feature_dim()), w.cluster.num_devices(),
              ToString(w.strategy), ToString(pick));

  // Training: one warm-up epoch, then at least `fixed_epochs` measured
  // epochs, continuing until the training share of the budget is spent.
  ParallelTrainer& trainer = *p->trainer;
  const auto seeds_per_epoch = static_cast<double>(ds.train_nodes.size());
  HostSamples epochs;  // measured epochs only
  std::vector<double> sim_epoch;
  double val_acc = 0.0, train_wall = 0.0;
  for (std::int64_t e = 0; e <= w.fixed_epochs || train_wall < w.train_share * budget; ++e) {
    EpochStats st;
    Cost c;
    try {
      const auto epoch = [&] { st = trainer.TrainEpoch(e); };
      c = e == 0 ? Measure(epoch) : epochs.Add(epoch);
    } catch (const std::exception& ex) {
      // The step that raised fails; the run stops training and reports.
      ++res.attempted;
      ++res.failed;
      res.Check(false, std::string("train: epoch raised: ") + ex.what());
      break;
    }
    const std::int64_t steps = st.steps_executed + st.steps_fast_forwarded;
    res.attempted += steps;
    if (trainer.sim().AnyOom()) res.failed += steps;
    res.Check(std::isfinite(st.loss), "train: non-finite loss at epoch " + std::to_string(e));
    if (e == 0) continue;  // warm-up
    train_wall += c.wall;
    if (e <= w.fixed_epochs) sim_epoch.push_back(st.sim_seconds);
    if (e == w.fixed_epochs) val_acc = trainer.EvaluateAccuracy(ds.val_nodes);
  }
  res.Check(val_acc > w.val_acc_floor,
            "train: val_acc " + std::to_string(val_acc) + " not above floor " +
                std::to_string(w.val_acc_floor));

  // Serving the trained model: the latency points and the SLO sweep first,
  // then whole cycles over the fixed rates (at least one) until the rest of
  // the budget is spent, then the parity check. The engine's device clocks
  // accumulate over its runs and a latency is a difference of clock
  // readings, so the reported latencies come before the time-budgeted runs to
  // stay bit-reproducible. Host throughput is taken over the fixed-rate runs.
  p->server->LoadParams(trainer.model0());
  Serving serving(w, ds, *p->server);
  const auto serve0 = Clock::now();
  std::vector<serve::ServeReport> fixed;
  for (std::size_t i = 0; i < w.fixed_rates.size(); ++i) fixed.push_back(serving.RunFixed(i));
  const double qps_at_slo = serving.QpsAtSlo();
  do {
    for (std::size_t i = 0; i < w.fixed_rates.size(); ++i) serving.RunFixed(i);
  } while (Since(serve0) < (1.0 - w.train_share) * budget);
  CheckServeParity(w, ds, *p->server, res);
  res.attempted += serving.offered;
  res.failed += serving.shed;

  const std::vector<double> epoch_cpu = epochs.Cpu(), epoch_wall = epochs.Wall();
  const int tail_p = TailPercentile(epoch_cpu.size());
  std::printf("setups: %zu, median wall %.4f s; MakePlan median wall %.4f s, cpu %.4f s\n",
              setups.cost.size(), Median(setups.Wall()), Median(plans.Wall()),
              Median(plans.Cpu()));
  std::printf("epochs: %zu measured (+1 warm-up); epoch_cpu_s.tail is p%d; raw cpu p50 %.4f s, "
              "wall p50 %.4f s, p%d %.4f s\n",
              epoch_cpu.size(), tail_p, Median(epoch_cpu), Median(epoch_wall), tail_p,
              Percentile(epoch_wall, tail_p));
  std::printf("serving: %zu runs, median %.0f requests per wall second, %.0f per cpu second; "
              "rates",
              serving.served.size(), Median(serving.PerSecond(serving.host.Wall())),
              Median(serving.PerSecond(serving.host.Cpu())));
  for (std::size_t i = 0; i < w.fixed_rates.size(); ++i) {
    std::printf(" %s=%.0f", kRateNames[i], w.fixed_rates[i]);
  }
  std::printf(" QPS\n");
  std::printf("reference loop cpu median (setups / epochs / serving): %.5f / %.5f / %.5f s\n",
              setups.ReferenceCpu(), epochs.ReferenceCpu(), serving.host.ReferenceCpu());
  const std::vector<double> epoch_ncpu = epochs.NormalizedCpu();
  res.Put("setup_s", Median(setups.NormalizedWall()), "s");
  res.Put("plan_cpu_s", Median(plans.NormalizedCpu()), "ncpu_s");
  res.Put("train_seeds_per_cpu_s",
          seeds_per_epoch * static_cast<double>(epoch_ncpu.size()) /
              std::accumulate(epoch_ncpu.begin(), epoch_ncpu.end(), 0.0),
          "seeds/ncpu_s");
  res.Put("epoch_cpu_s.p50", Median(epoch_ncpu), "ncpu_s");
  res.Put("epoch_cpu_s.tail", Percentile(epoch_ncpu, tail_p), "ncpu_s");
  res.Put("sim_epoch_s", Median(sim_epoch), "sim_s");
  res.Put("val_acc", val_acc, "fraction");
  res.Put("peak_rss_mb", PeakRssMb(), "MB");
  res.Put("serve.requests_per_cpu_s",
          Median(serving.PerSecond(serving.host.NormalizedCpu())), "req/ncpu_s");
  for (std::size_t i = 0; i < w.fixed_rates.size(); ++i) {
    res.Put(std::string("serve.p99_s.") + kRateNames[i], fixed[i].p99_s, "sim_s");
  }
  res.Put("serve.qps_at_slo", qps_at_slo, "1/s");
  return res;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1): layer-by-layer profile
// ---------------------------------------------------------------------------

/// Per-call host seconds, simulated seconds and counts of a traced loop.
struct LayerProfile {
  double epoch_host = 0.0;  ///< whole traced epochs
  double sample_host = 0.0, execute_host = 0.0, allreduce_host = 0.0,
         optimizer_host = 0.0, keep_host = 0.0;
  double probe_host = 0.0, fast_forward_host = 0.0;
  std::int64_t steps = 0, probes = 0, fast_forwarded = 0;
  double sampled_edges = 0.0, input_rows = 0.0, forward_flops = 0.0;
  double sample_sim = 0.0, load_sim = 0.0, comm_sim = 0.0;
  std::vector<double> epoch_host_samples;
  /// Sampled batches of the last traced epoch, for the isolated passes.
  std::vector<std::vector<DeviceBatch>> kept;
};

/// The feature store ParallelTrainer builds for `setup`.
std::unique_ptr<FeatureStore> MakeStore(const Dataset& ds, const TrainerSetup& setup,
                                        SimContext& sim) {
  auto store = std::make_unique<FeatureStore>(ds.features, setup.feature_placement, sim);
  store->SetStorageCodec(setup.engine.storage_codec);
  if (!setup.cache.cache_nodes.empty()) {
    store->ConfigureCaches(setup.cache.cache_nodes, setup.cache.bytes_per_cached_row);
  } else {
    store->ConfigureCaches(
        std::vector<std::vector<NodeId>>(static_cast<std::size_t>(sim.num_devices())), 0);
  }
  return store;
}

/// TrainEpoch's step loop rebuilt from the engine's public calls so that each
/// call can be timed and wrapped in a span. Construction mirrors
/// ParallelTrainer's; the losses, simulated seconds and traffic it produces
/// must equal TrainEpoch's bit for bit (checked by the traced run).
class MirrorTrainer {
 public:
  MirrorTrainer(const Dataset& ds, TrainerSetup setup) : ds_(&ds), setup_(std::move(setup)) {
    sim_ = std::make_unique<SimContext>(setup_.cluster, setup_.engine.sim);
    comm_ = std::make_unique<Communicator>(*sim_);
    store_ = MakeStore(ds, setup_, *sim_);
    comm_->SetWireCodecAll(setup_.engine.wire_codec);
    comm_->set_grad_codec(setup_.engine.grad_codec);
    for (DeviceId d = 0; d < sim_->num_devices(); ++d) {
      models_.push_back(std::make_unique<GnnModel>(setup_.model));
      if (CodecIsLossy(setup_.engine.wire_codec)) {
        models_.back()->set_boundary_codec(setup_.engine.wire_codec);
      }
      optimizers_.push_back(std::make_unique<Sgd>(setup_.engine.learning_rate));
      sim_->AllocPersistent(d, models_.back()->ParamBytes() * 3);
    }
    plan_ = std::make_unique<MinibatchPlan>(ds.train_nodes, setup_.engine.batch_size_per_device,
                                            sim_->num_devices(), setup_.minibatch_seed);
    ctx_.sim = sim_.get();
    ctx_.comm = comm_.get();
    ctx_.store = store_.get();
    ctx_.dataset = ds_;
    ctx_.partition = &setup_.partition;
    ctx_.models = &models_;
    ctx_.opts = setup_.engine;
    executor_ = MakeExecutor(setup_.engine.strategy, ctx_);
  }
  // ctx_ points into this object.
  MirrorTrainer(const MirrorTrainer&) = delete;
  MirrorTrainer& operator=(const MirrorTrainer&) = delete;

  EpochStats Epoch(std::int64_t epoch, LayerProfile& prof, bool keep_batches) {
    const auto e0 = Clock::now();
    const EngineOptions& eo = setup_.engine;
    double p0[kNumPhases];
    for (int p = 0; p < kNumPhases; ++p) p0[p] = sim_->PhaseMax(static_cast<Phase>(p));
    const double comm0 = sim_->CommMax(Phase::kSample) + sim_->CommMax(Phase::kTrain);
    const bool partitioned = eo.seed_assignment == SeedAssignment::kPartition;
    const std::vector<NodeId> epoch_seeds =
        partitioned ? std::vector<NodeId>{} : plan_->EpochSeeds(epoch);
    const std::vector<std::vector<NodeId>> queues =
        partitioned ? PerDeviceEpochQueues(ds_->train_nodes, setup_.partition,
                                           sim_->num_devices(), epoch, setup_.minibatch_seed)
                    : std::vector<std::vector<NodeId>>{};
    const std::int64_t full_steps = partitioned
                                        ? QueueStepsPerEpoch(queues, eo.batch_size_per_device)
                                        : plan_->StepsPerEpoch();
    const std::int64_t steps = eo.max_steps_per_epoch > 0
                                   ? std::min(full_steps, eo.max_steps_per_epoch)
                                   : full_steps;
    const bool scale = eo.sim.scale_mode == ScaleMode::kScale;
    const std::int64_t period = std::max<std::int64_t>(1, eo.scale_sample_period);
    StepTape tape;
    StepStats last_stats;
    std::int64_t probe_index = 0, ff_steps = 0;
    double loss = 0.0;
    if (keep_batches) prof.kept.clear();
    Rng epoch_rng = Rng(eo.sample_seed).Fork(static_cast<std::uint64_t>(epoch));
    for (std::int64_t step = 0; step < steps; ++step) {
      const auto s0 = Clock::now();
      const bool probe = !scale || tape.empty() || (step % period == 0);
      const std::int64_t sched_step = scale ? probe_index : step;
      StepStats s;
      if (!probe) {
        {
          APT_OBS_SCOPE("fast_forward", "sim");
          comm_->FastForwardStep(tape);
        }
        s = last_stats;
        ++ff_steps;
        prof.fast_forward_host += Since(s0);
      } else {
        std::vector<std::vector<NodeId>> per_device;
        if (partitioned) {
          per_device.resize(queues.size());
          for (std::size_t d = 0; d < queues.size(); ++d) {
            const auto slice = QueueStepSlice(queues[d], sched_step, eo.batch_size_per_device);
            per_device[d].assign(slice.begin(), slice.end());
          }
        } else {
          per_device = AssignSeeds(ctx_, plan_->StepSeeds(epoch_seeds, sched_step));
        }
        if (scale) sim_->BeginStepRecord();
        Rng step_rng = epoch_rng.Fork(static_cast<std::uint64_t>(sched_step));
        std::vector<DeviceBatch> batches;
        prof.sample_host += Timed([&] {
          APT_OBS_SCOPE("sample", "sampling");
          batches = SampleDeviceBatches(ctx_, per_device, step_rng);
        });
        prof.keep_host += Timed([&] {
          for (const DeviceBatch& b : batches) {
            prof.input_rows += static_cast<double>(b.sample.input_nodes().size());
            for (const Block& blk : b.sample.blocks) {
              prof.sampled_edges += static_cast<double>(blk.num_edges());
            }
            prof.forward_flops += models_[0]->ForwardFlops(b.sample.blocks);
          }
          if (keep_batches) prof.kept.push_back(batches);
        });
        for (auto& m : models_) m->ZeroGrad();
        prof.execute_host += Timed([&] {
          APT_OBS_SCOPE("execute", "engine");
          SimContext::PipelinedStepScope pipelined(*sim_, eo.pipeline_depth);
          s = executor_->Step(batches);
        });
        prof.allreduce_host += Timed([&] {
          APT_OBS_SCOPE("allreduce", "comm");
          AllReduceGradients(ctx_);
        });
        prof.optimizer_host += Timed([&] {
          APT_OBS_SCOPE("optimizer", "model");
          for (std::size_t d = 0; d < models_.size(); ++d) {
            optimizers_[d]->Step(models_[d]->Params());
          }
        });
        for (DeviceId d = 0; d < sim_->num_devices(); ++d) {
          sim_->ChargeCompute(d, 2.0 * static_cast<double>(models_[0]->ParamBytes()) / 4);
        }
        if (scale) {
          tape = sim_->EndStepRecord();
          last_stats = s;
          ++probe_index;
        }
        ++prof.probes;
        prof.probe_host += Since(s0);
      }
      loss += s.loss;
    }
    EpochStats st;
    st.loss = steps > 0 ? loss / static_cast<double>(steps) : 0.0;
    st.sample_seconds = sim_->PhaseMax(Phase::kSample) - p0[0];
    st.load_seconds = sim_->PhaseMax(Phase::kLoad) - p0[1];
    st.train_seconds = sim_->PhaseMax(Phase::kTrain) - p0[2];
    st.sim_seconds = st.sample_seconds + st.load_seconds + st.train_seconds;
    st.steps_executed = steps - ff_steps;
    st.steps_fast_forwarded = ff_steps;
    prof.steps += steps;
    prof.fast_forwarded += ff_steps;
    prof.sample_sim += st.sample_seconds;
    prof.load_sim += st.load_seconds;
    prof.comm_sim += sim_->CommMax(Phase::kSample) + sim_->CommMax(Phase::kTrain) - comm0;
    const double host = Since(e0);
    prof.epoch_host += host;
    prof.epoch_host_samples.push_back(host);
    return st;
  }

  SimContext& sim() { return *sim_; }
  GnnModel& model0() { return *models_[0]; }

 private:
  const Dataset* ds_;
  TrainerSetup setup_;
  std::unique_ptr<SimContext> sim_;
  std::unique_ptr<Communicator> comm_;
  std::unique_ptr<FeatureStore> store_;
  std::vector<std::unique_ptr<GnnModel>> models_;
  std::vector<std::unique_ptr<Optimizer>> optimizers_;
  std::unique_ptr<MinibatchPlan> plan_;
  EngineCtx ctx_;
  std::unique_ptr<StrategyExecutor> executor_;
};

/// Isolated feature gathers and full local forward/backward passes over the
/// kept batches, on a scratch store and model so training is not disturbed.
std::pair<double, double> IsolatedPasses(const Dataset& ds, const TrainerSetup& setup,
                                         const std::vector<std::vector<DeviceBatch>>& kept) {
  SimContext sim(setup.cluster, setup.engine.sim);
  const std::unique_ptr<FeatureStore> store = MakeStore(ds, setup, sim);
  GnnModel model(setup.model);
  const std::int64_t dim = ds.feature_dim();
  double gather_host = 0.0, fwd_bwd_host = 0.0;
  for (const std::vector<DeviceBatch>& batches : kept) {
    for (std::size_t d = 0; d < batches.size(); ++d) {
      const SampledBatch& sb = batches[d].sample;
      if (sb.seeds.empty()) continue;
      Tensor feats(static_cast<std::int64_t>(sb.input_nodes().size()), dim);
      gather_host += Timed([&] {
        store->Gather(static_cast<DeviceId>(d), sb.input_nodes(), 0, dim, feats);
      });
      fwd_bwd_host += Timed([&] {
        ModelTape tape;
        const Tensor logits = model.ForwardFrom(0, sb.blocks, feats, &tape);
        Tensor grad(logits.rows(), logits.cols());
        SoftmaxCrossEntropy(logits, batches[d].labels, &grad);
        model.BackwardTo(0, sb.blocks, tape, grad);
      });
    }
  }
  return {gather_host, fwd_bwd_host};
}

struct Rusage {
  double user = 0.0, sys = 0.0;
  std::int64_t minflt = 0;
  static Rusage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
    return {sec(ru.ru_utime), sec(ru.ru_stime), ru.ru_minflt};
  }
};

const char* kTrafficNames[3] = {"local_cpu_gpu", "peer_gpu", "cross_machine"};
const char* kTierNames[kNumFeatureTiers] = {"gpu_cache", "peer_gpu", "local_cpu",
                                            "remote_cpu"};

std::vector<std::string> LayerCounters() {
  std::vector<std::string> names = {"comm.alltoall.calls", "comm.alltoall.wire_bytes",
                                    "comm.allreduce.calls", "comm.allreduce.wire_bytes"};
  for (const char* tier : kTierNames) {
    names.push_back(std::string("feature.rows.") + tier);
    names.push_back(std::string("feature.wire_bytes.") + tier);
  }
  return names;
}

Result TracedRun(const Workload& w, std::uint64_t seed, const std::string& out_dir) {
  Result res;
  const std::unique_ptr<Pipeline> p = SetUp(w);
  const Dataset& ds = *p->dataset;
  const Strategy pick = p->report.selected;
  std::printf("workload %s: trains %s, planner pick %s\n", w.name.c_str(),
              ToString(w.strategy), ToString(pick));
  double dryrun_host = Timed([&] { DryRun(ds, w.cluster, p->partition, w.engine, w.model); });

  // 1. The timed reference: TrainEpoch with tracing off.
  ParallelTrainer& ref = *p->trainer;
  std::vector<double> ref_loss, ref_sim, ref_host;
  for (std::int64_t e = 0; e <= w.fixed_epochs; ++e) {
    EpochStats st;
    const double host = Timed([&] { st = ref.TrainEpoch(e); });
    res.attempted += st.steps_executed + st.steps_fast_forwarded;
    ref_loss.push_back(st.loss);
    ref_sim.push_back(st.sim_seconds);
    if (e > 0) ref_host.push_back(host);
  }
  const double ref_acc = ref.EvaluateAccuracy(ds.val_nodes);

  // 2. The traced mirror of the same epochs, spans on.
  MirrorTrainer mirror(ds, p->setup);
  LayerProfile prof;
  std::map<std::string, std::int64_t> counters0;
  Rusage ru0;
  auto wall0 = Clock::now();
  obs::SetTracingEnabled(true);
  for (std::int64_t e = 0; e <= w.fixed_epochs; ++e) {
    if (e == 1) {  // epoch 0 warms up, like the timed run
      prof = LayerProfile{};
      for (const std::string& n : LayerCounters()) counters0[n] = CounterValue(n);
      ru0 = Rusage::Now();
      wall0 = Clock::now();
    }
    const EpochStats st = mirror.Epoch(e, prof, e == w.fixed_epochs);
    res.attempted += st.steps_executed + st.steps_fast_forwarded;
    const auto i = static_cast<std::size_t>(e);
    res.Check(std::isfinite(st.loss), "traced: non-finite loss at epoch " + std::to_string(e));
    res.Check(SameBits(st.loss, ref_loss[i]),
              "traced: loss of epoch " + std::to_string(e) + " differs from TrainEpoch");
    res.Check(SameBits(st.sim_seconds, ref_sim[i]),
              "traced: sim seconds of epoch " + std::to_string(e) + " differ from TrainEpoch");
  }
  obs::SetTracingEnabled(false);
  const double traced_wall = Since(wall0);
  const Rusage ru1 = Rusage::Now();
  std::map<std::string, double> per_step;
  const auto steps = static_cast<double>(std::max<std::int64_t>(1, prof.steps));
  for (const std::string& n : LayerCounters()) {
    per_step[n] = static_cast<double>(CounterValue(n) - counters0[n]) / steps;
  }
  const std::array<std::int64_t, 3> ref_traffic = TrafficWire(ref.sim());
  const std::array<std::int64_t, 3> mirror_traffic = TrafficWire(mirror.sim());
  res.Check(ref_traffic == mirror_traffic, "traced: traffic bytes differ from TrainEpoch");
  res.Check(SameParams(ref.model0(), mirror.model0()),
            "traced: trained parameters differ from TrainEpoch");
  ref.LoadParams(mirror.model0());
  res.Check(SameBits(ref.EvaluateAccuracy(ds.val_nodes), ref_acc),
            "traced: val_acc differs from TrainEpoch");
  res.Check(ref_acc > w.val_acc_floor, "traced: val_acc " + std::to_string(ref_acc) +
                                           " not above floor");
  const std::string trace_path = out_dir + "/trace_" + w.name + "_seed" +
                                 std::to_string(seed) + ".json";
  const double export_host = Timed([&] {
    res.Check(obs::ExportChromeTrace(trace_path), "obs: cannot write " + trace_path);
  });

  // 3. Isolated gather and kernel passes over the last traced epoch's batches.
  const auto [gather_host, fwd_bwd_host] = IsolatedPasses(ds, p->setup, prof.kept);
  const double kept_steps = static_cast<double>(std::max<std::size_t>(1, prof.kept.size()));

  // 4. Scale mode: one epoch of sampled execution + fast-forward on smaller
  //    batches (so the epoch has steps to skip), TrainEpoch vs the mirror.
  TrainerSetup scale_setup = p->setup;
  scale_setup.engine.sim.scale_mode = ScaleMode::kScale;
  scale_setup.engine.scale_sample_period = 4;
  scale_setup.engine.batch_size_per_device =
      std::max<std::int64_t>(1, w.engine.batch_size_per_device / 16);
  ParallelTrainer scale_ref(ds, scale_setup);
  const EpochStats scale_st = scale_ref.TrainEpoch(0);
  MirrorTrainer scale_mirror(ds, scale_setup);
  LayerProfile scale_prof;
  const EpochStats scale_mst = scale_mirror.Epoch(0, scale_prof, false);
  res.attempted += 2 * (scale_st.steps_executed + scale_st.steps_fast_forwarded);
  res.Check(scale_st.steps_executed + scale_st.steps_fast_forwarded == scale_prof.steps,
            "scale: executed + fast-forwarded steps != steps in the epoch");
  res.Check(scale_mst.steps_executed == scale_st.steps_executed &&
                scale_mst.steps_fast_forwarded == scale_st.steps_fast_forwarded,
            "scale: mirror step counts differ from TrainEpoch");
  res.Check(SameBits(scale_mst.loss, scale_st.loss) &&
                SameBits(scale_mst.sim_seconds, scale_st.sim_seconds),
            "scale: mirror loss / sim seconds differ from TrainEpoch");

  // 5. The same task on one GPU, as a host-time baseline.
  TrainerSetup one = p->setup;
  one.cluster = SingleMachineCluster(1);
  one.engine.strategy = Strategy::kGDP;
  one.engine.seed_assignment = SeedAssignment::kChunked;
  one.engine.batch_size_per_device *= w.cluster.num_devices();
  one.partition.assign(one.partition.size(), 0);
  one.feature_placement.assign(one.feature_placement.size(), 0);
  one.cache = CacheConfig{};
  one.predicted_comparable_seconds = 0.0;
  ParallelTrainer single(ds, one);
  std::vector<double> single_host;
  for (std::int64_t e = 0; e < 3; ++e) {
    EpochStats st;
    const double host = Timed([&] { st = single.TrainEpoch(e); });
    res.attempted += st.steps_executed;
    if (e > 0) single_host.push_back(host);
  }

  // 6. Planner regret: one measured epoch per strategy.
  double best = 0.0, picked = 0.0, measured_comparable = 0.0;
  for (Strategy s : kAllStrategies) {
    ParallelTrainer t(ds, MakeSetup(w, *p, s));
    const EpochStats st = t.TrainEpoch(0);
    res.attempted += st.steps_executed;
    const double sim_s = t.sim().AnyOom() ? HUGE_VAL : st.sim_seconds;
    best = best == 0.0 ? sim_s : std::min(best, sim_s);
    if (s == pick) {
      picked = sim_s;
      measured_comparable = obs::Metrics::Global().gauge("costmodel.measured_comparable_s").Get();
    }
  }
  const double estimate = p->report.estimates[static_cast<std::size_t>(pick)].Comparable();

  // 7. Serving the trained model at the fixed rates.
  p->server->LoadParams(ref.model0());
  std::vector<serve::ServeReport> served;
  std::int64_t batches = 0, shed = 0;
  double rows = 0.0;
  for (double qps : w.fixed_rates) {
    served.push_back(
        p->server->Run(Traffic(w, ds, qps, static_cast<double>(w.fixed_point_requests) / qps)));
    const serve::ServeReport& r = served.back();
    res.attempted += r.offered;
    res.failed += r.shed;
    batches += r.batches;
    shed += r.shed;
    rows += r.mean_batch_rows * static_cast<double>(r.batches);
  }
  CheckServeParity(w, ds, *p->server, res);

  // The layer table: host shares of a traced step add up to the traced epoch.
  const double unattributed = prof.epoch_host - prof.sample_host - prof.execute_host -
                              prof.allreduce_host - prof.optimizer_host;
  std::printf("traced step (host s, %lld steps): sample %.4f execute %.4f allreduce %.4f "
              "optimizer %.4f unattributed %.4f (bookkeeping %.4f) = %.4f\n",
              static_cast<long long>(prof.steps), prof.sample_host / steps,
              prof.execute_host / steps, prof.allreduce_host / steps,
              prof.optimizer_host / steps, unattributed / steps, prof.keep_host / steps,
              prof.epoch_host / steps);
  std::printf("isolated per step: gather %.4f fwd+bwd %.4f; planner pick %s, one-epoch "
              "best %.6g sim s, picked %.6g\n",
              gather_host / kept_steps, fwd_bwd_host / kept_steps, ToString(pick), best,
              picked);

  res.Put("graph.build_s", p->graph_s, "s");
  res.Put("graph.edges", static_cast<double>(ds.graph.num_edges()), "count");
  res.Put("partition.host_s", p->partition_s, "s");
  res.Put("partition.edge_cut", static_cast<double>(EdgeCut(ds.graph, p->partition)), "count");
  res.Put("apt.dryrun_host_s", dryrun_host, "s");
  res.Put("apt.plan_regret", picked / best - 1.0, "ratio");
  res.Put("apt.estimate_err",
          measured_comparable > 0.0 ? std::abs(estimate - measured_comparable) / measured_comparable
                                    : HUGE_VAL,
          "ratio");
  res.Put("sampling.host_s", prof.sample_host / steps, "s/step");
  res.Put("sampling.sim_s", prof.sample_sim / steps, "sim_s/step");
  res.Put("sampling.edges", prof.sampled_edges / steps, "count/step");
  res.Put("sampling.input_rows", prof.input_rows / steps, "count/step");
  res.Put("feature.gather_host_s", gather_host / kept_steps, "s/step");
  res.Put("feature.load_sim_s", prof.load_sim / steps, "sim_s/step");
  double all_rows = 0.0;
  for (const char* tier : kTierNames) all_rows += per_step[std::string("feature.rows.") + tier];
  res.Put("feature.cache_hit_rate",
          all_rows > 0.0 ? per_step["feature.rows.gpu_cache"] / all_rows : 0.0, "fraction");
  for (const char* tier : kTierNames) {
    res.Put(std::string("feature.rows.") + tier, per_step[std::string("feature.rows.") + tier],
            "count/step");
    res.Put(std::string("feature.wire_bytes.") + tier,
            per_step[std::string("feature.wire_bytes.") + tier], "B/step");
  }
  res.Put("model.fwd_bwd_host_s", fwd_bwd_host / kept_steps, "s/step");
  res.Put("model.optimizer_host_s", prof.optimizer_host / steps, "s/step");
  res.Put("model.forward_flops", prof.forward_flops / steps, "flop/step");
  res.Put("engine.execute_host_s", prof.execute_host / steps, "s/step");
  res.Put("engine.unattributed_host_s", unattributed / steps, "s/step");
  res.Put("engine.single_gpu_epoch_host_s", Median(single_host), "s");
  res.Put("comm.allreduce_host_s", prof.allreduce_host / steps, "s/step");
  res.Put("comm.sim_s", prof.comm_sim / steps, "sim_s/step");
  for (const char* op : {"alltoall", "allreduce"}) {
    for (const char* what : {"calls", "wire_bytes"}) {
      const std::string n = std::string("comm.") + op + "." + what;
      res.Put(n, per_step[n], std::string(what) == "calls" ? "count/step" : "B/step");
    }
  }
  for (int c = 0; c < 3; ++c) {
    // Cumulative over the reference run's epochs (warm-up included).
    res.Put(std::string("sim.traffic.") + kTrafficNames[c] + ".wire_bytes",
            static_cast<double>(mirror_traffic[static_cast<std::size_t>(c)]) /
                static_cast<double>(w.fixed_epochs + 1),
            "B/epoch");
  }
  res.Put("sim.probe_host_s", scale_prof.probe_host / static_cast<double>(scale_prof.probes),
          "s/step");
  res.Put("sim.fast_forward_host_s",
          scale_prof.fast_forwarded > 0
              ? scale_prof.fast_forward_host / static_cast<double>(scale_prof.fast_forwarded)
              : 0.0,
          "s/step");
  res.Put("sim.steps_fast_forwarded", static_cast<double>(scale_st.steps_fast_forwarded),
          "count");
  res.Put("serve.warmup_host_s", p->serve_s, "s");
  res.Put("serve.batches", static_cast<double>(batches), "count");
  res.Put("serve.batch_rows_mean", batches > 0 ? rows / static_cast<double>(batches) : 0.0,
          "rows");
  res.Put("serve.shed", static_cast<double>(shed), "count");
  for (std::size_t i = 0; i < w.fixed_rates.size(); ++i) {
    res.Put(std::string("serve.p50_s.") + kRateNames[i], served[i].p50_s, "sim_s");
  }
  const double cpu = (ru1.user - ru0.user) + (ru1.sys - ru0.sys);
  res.Put("runtime.minflt_per_step", static_cast<double>(ru1.minflt - ru0.minflt) / steps,
          "count/step");
  res.Put("runtime.sys_share", cpu > 0.0 ? (ru1.sys - ru0.sys) / cpu : 0.0, "fraction");
  res.Put("runtime.cpu_util", cpu / traced_wall, "cores");
  res.Put("obs.export_host_s", export_host, "s");
  res.Put("obs.trace_overhead", Median(prof.epoch_host_samples) / Median(ref_host), "ratio");
  return res;
}

void PrintResult(const Result& res) {
  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& [name, vu] = res.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
        return argv[++i];
      };
      if (a == "--workload") workload = next();
      else if (a == "--seed") seed = std::stoull(next());
      else if (a == "--seconds") seconds = std::stod(next());
      else if (a == "--trace") trace = std::stoi(next());
      else if (a == "--out-dir") out_dir = next();
      else if (a == "--smoke") smoke = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
    SetLogLevel(LogLevel::kWarn);
    const Workload w = MakeWorkload(workload, seed, smoke);
    std::printf("aptbench: workload %s seed %llu seconds %g trace %d%s\n", w.name.c_str(),
                static_cast<unsigned long long>(seed), seconds, trace,
                smoke ? " (smoke)" : "");
    const Result res = trace ? TracedRun(w, seed, out_dir) : TimedRun(w, seconds);
    std::fflush(stdout);
    PrintResult(res);
    return res.correct ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fflush(stdout);
    std::fprintf(stderr, "aptbench: %s\n", ex.what());
    return 2;
  }
}
