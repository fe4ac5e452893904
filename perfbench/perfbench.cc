// crowder_perfbench — the measuring half of the repository benchmark
// (perfbench/README.md). perfbench/run.py builds this binary, runs one
// workload through it, and turns the raw samples it prints into the
// benchmark's metrics.
//
//   crowder_perfbench --workload batch-sparse|batch-dense|serve-ingest|shard-machine
//                     --seed N --seconds S --trace 0|1
//                     [--shardd PATH] [--trace-out FILE]
//
// The program under test is driven only through its public entry points:
// core::WorkflowDriver with crowd::SimulatedCrowdBackend (the loop
// HybridWorkflow::Run spells out), core::ResolveEntities /
// core::StreamingResolver, HybridWorkflow::MachinePass and the sharded pass
// behind WorkflowConfig::num_shards, and serve::EntityResolutionService.
// Nothing inside src/ is instrumented: spans are recorded here, around those
// calls, and per-layer counters are the ones the program already returns
// (PipelineStats, JoinStats, ShardRunStats, ServiceStats).
//
// One invocation: set up (generate the dataset, and for serve-ingest create
// the service); run the reference checks once, outside the timed region;
// then repeat the workload until --seconds of repetitions have run, sampling
// the set-up again between repetitions. With --trace 1 every other
// repetition is traced, and counters the driver seams do not return are read
// afterwards by calling the join and Dawid-Skene directly.
// The last line of stdout is one JSON object of raw samples.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/crowder.h"
#include "serve/service.h"

namespace crowder {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, run id. Kept in memory, written at exit as
// Chrome trace-event JSON. Thread-safe (the serve workload records query
// spans from its query thread).
// ---------------------------------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t run = 0;
  uint32_t thread = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  // Called between repetitions (no span is open): later spans belong to
  // `run` and are recorded only when `recording`.
  void StartRun(int64_t run, bool recording) {
    run_ = run;
    recording_ = recording;
  }

  int64_t Begin(const char* name, int64_t parent, uint32_t thread) {
    if (!recording_) return -1;
    const int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, now, now, parent, run_, thread});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id) {
    if (id < 0) return;
    const int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return Status::IOError("cannot open trace file " + path);
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                    "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %lld, "
                    "\"run\": %lld}}%s\n",
                    s.name.c_str(), s.thread, s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                    i, static_cast<long long>(s.parent), static_cast<long long>(s.run),
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "], \"displayTimeUnit\": \"ms\"}\n";
    return out.good() ? Status::OK() : Status::IOError("write to " + path + " failed");
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  const Clock::time_point origin_;
  int64_t run_ = 0;
  bool recording_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// The span a thread is currently inside, so nested ScopedSpans find their
// parent without threading ids through every call.
thread_local int64_t tls_current_span = -1;
thread_local uint32_t tls_thread = 0;

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), parent_(tls_current_span),
        id_(tracer->Begin(name, tls_current_span, tls_thread)) {
    if (id_ >= 0) tls_current_span = id_;
  }
  ~ScopedSpan() {
    tracer_->End(id_);
    if (id_ >= 0) tls_current_span = parent_;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t parent_;
  int64_t id_;
};

// ---------------------------------------------------------------------------
// Resource probes.
// ---------------------------------------------------------------------------

// User + system CPU of this process (RUSAGE_SELF) or of its reaped
// children (RUSAGE_CHILDREN: the shard workers).
double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6 + usage.ru_stime.tv_sec +
         usage.ru_stime.tv_usec / 1e6;
}

double CpuSecondsSelfAndChildren() { return CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN); }

// Resets the kernel's peak-RSS mark (VmHWM) so the next read covers one
// repetition only. Returns false where /proc/self/clear_refs is unavailable;
// the peak then spans the whole process lifetime.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear) return false;
  clear << "5";
  clear.flush();
  return clear.good();
}

uint64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss);
}

// ---------------------------------------------------------------------------
// Output digests: FNV-1a over the bytes an output check compares.
// ---------------------------------------------------------------------------

class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 1099511628211ull;
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

std::string DigestPairs(const std::vector<similarity::ScoredPair>& pairs) {
  Digest d;
  d.Add(pairs.size());
  for (const auto& p : pairs) {
    d.Add(p.a);
    d.Add(p.b);
    d.Add(p.score);
  }
  return d.Hex();
}

std::string DigestClusters(const core::EntityClusters& clusters) {
  Digest d;
  d.Add(clusters.cluster_of.size());
  for (uint32_t c : clusters.cluster_of) d.Add(c);
  return d.Hex();
}

std::string DigestRanked(const std::vector<eval::RankedPair>& ranked) {
  Digest d;
  d.Add(ranked.size());
  for (const auto& p : ranked) {
    d.Add(p.a);
    d.Add(p.b);
    d.Add(p.score);
    d.Add(p.is_match);
  }
  return d.Hex();
}

std::string DigestCrowd(const crowd::CrowdRunResult& c) {
  Digest d;
  d.Add(c.num_hits);
  d.Add(c.num_assignments);
  d.Add(c.total_comparisons);
  d.Add(c.num_distinct_workers);
  d.Add(c.cost_dollars);
  return d.Hex();
}

std::string DigestServeCrowd(const serve::ServiceCrowdStats& c) {
  Digest d;
  d.Add(c.num_assignments);
  d.Add(c.total_comparisons);
  d.Add(c.num_distinct_workers);
  d.Add(c.cost_dollars);
  return d.Hex();
}

// ---------------------------------------------------------------------------
// JSON output (raw samples; perfbench/run.py does the statistics).
// ---------------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

template <typename T>
std::string NumList(const std::vector<T>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += Num(static_cast<double>(values[i]));
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string shardd;
  std::string trace_out;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Rep {
  bool traced = false;
  int64_t run = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  double ingest_s = 0;  // serve-ingest only
  std::string digest;
  std::string status = "OK";
};

// Everything one invocation reports. `layers` maps a per-layer metric to its
// samples (one per traced repetition, or one per invocation).
struct Report {
  std::string workload;
  uint64_t records = 0;
  std::vector<double> generate_s;
  std::vector<double> setup_s;
  std::vector<Rep> reps;
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> quality;
  std::vector<double> insert_us;
  std::vector<double> query_us;
  std::map<std::string, std::vector<double>> layers;
  bool peak_rss_per_rep = false;

  void AddCheck(const std::string& name, bool ok, const std::string& detail = "") {
    checks.push_back({name, ok, detail});
    ++attempted;
    if (!ok) ++failed;
  }
  void Layer(const std::string& name, double value) { layers[name].push_back(value); }
};

Result<data::Dataset> Generate(double scale, uint64_t seed) {
  data::ProductConfig config;
  config.scale_factor = scale;
  config.seed = seed;
  return data::GenerateProduct(config);
}

enum class ClusterRule { kVerifiedMerges, kStreamingClosure, kTransitiveClosure };

struct BatchSpec {
  double scale = 0;
  core::WorkflowConfig config;
  ClusterRule clusters = ClusterRule::kVerifiedMerges;
};

BatchSpec BatchSpecFor(const Options& opt) {
  BatchSpec spec;
  core::WorkflowConfig& c = spec.config;
  c.seed = opt.seed;
  c.num_threads = 4;
  c.aggregation = core::AggregationMethod::kDawidSkene;
  if (opt.workload == "batch-sparse") {
    spec.scale = 50;
    c.likelihood_threshold = 0.5;
    c.hit_type = core::HitType::kPairBased;
    c.pairs_per_hit = 10;
  } else if (opt.workload == "batch-dense") {
    spec.scale = 25;
    c.likelihood_threshold = 0.3;
    c.hit_type = core::HitType::kClusterBased;
    c.cluster_size = 10;
    c.cluster_algorithm = hitgen::ClusterAlgorithm::kTwoTiered;
    c.execution_mode = core::ExecutionMode::kStreaming;
    c.memory_budget_bytes = 1 << 20;
    spec.clusters = ClusterRule::kStreamingClosure;
  } else {  // shard-machine
    spec.scale = 50;
    c.likelihood_threshold = 0.5;
    c.hit_type = core::HitType::kPairBased;
    c.pairs_per_hit = 10;
    c.aggregation = core::AggregationMethod::kMajorityVote;
    c.num_shards = 4;
    c.shard_worker_path = opt.shardd;
  }
  return spec;
}

struct BatchOutput {
  core::WorkflowResult result;
  core::EntityClusters clusters;
  uint32_t rounds = 0;
};

// One repetition: the driver loop of HybridWorkflow::Run, spelled out so each
// call gets its span, then entity resolution.
Result<BatchOutput> RunBatch(const data::Dataset& dataset, const core::WorkflowConfig& config,
                             ClusterRule rule, Tracer* tracer) {
  BatchOutput out;
  crowd::SimulatedCrowdBackend::Options backend_options;
  backend_options.num_threads = config.num_threads;
  std::unique_ptr<crowd::SimulatedCrowdBackend> backend;
  {
    ScopedSpan span(tracer, "crowd.Create");
    CROWDER_ASSIGN_OR_RETURN(backend, crowd::SimulatedCrowdBackend::Create(
                                          config.crowd, config.seed, dataset.truth.entity_of,
                                          backend_options));
  }
  core::WorkflowDriver driver(config);
  {
    ScopedSpan span(tracer, "driver.Start");
    CROWDER_RETURN_NOT_OK(driver.Start(dataset));
  }
  while (!driver.done()) {
    crowd::Ticket ticket = 0;
    {
      ScopedSpan span(tracer, "crowd.Post");
      CROWDER_ASSIGN_OR_RETURN(ticket, backend->Post(driver.PendingHits()));
    }
    bool complete = false;
    while (!complete) {
      crowd::VoteBatch votes;
      {
        ScopedSpan span(tracer, "crowd.Poll");
        CROWDER_ASSIGN_OR_RETURN(votes, backend->Poll(ticket));
      }
      complete = votes.complete;
      ScopedSpan span(tracer, "driver.SubmitVotes");
      CROWDER_RETURN_NOT_OK(driver.SubmitVotes(std::move(votes)));
    }
    ScopedSpan span(tracer, "driver.Step");
    CROWDER_RETURN_NOT_OK(driver.Step());
    ++out.rounds;
  }
  {
    ScopedSpan span(tracer, "crowd.Finish");
    CROWDER_ASSIGN_OR_RETURN(crowd::CrowdRunResult stats, backend->Finish());
    CROWDER_RETURN_NOT_OK(driver.SubmitCrowdStats(std::move(stats)));
  }
  {
    ScopedSpan span(tracer, "driver.TakeResult");
    CROWDER_ASSIGN_OR_RETURN(out.result, driver.TakeResult());
  }
  ScopedSpan span(tracer, "core.resolve");
  const uint32_t n = static_cast<uint32_t>(dataset.table.num_records());
  if (rule == ClusterRule::kStreamingClosure) {
    core::StreamingResolver resolver(n);
    for (const auto& p : out.result.ranked) {
      if (p.score >= 0.5) CROWDER_RETURN_NOT_OK(resolver.AddMatch(p.a, p.b));
    }
    CROWDER_ASSIGN_OR_RETURN(out.clusters, resolver.Finish());
  } else {
    core::ResolutionOptions options;
    options.transitive_closure = rule == ClusterRule::kTransitiveClosure;
    CROWDER_ASSIGN_OR_RETURN(out.clusters, core::ResolveEntities(n, out.result.ranked, options));
  }
  return out;
}

std::string BatchDigest(const BatchOutput& out) {
  return DigestRanked(out.result.ranked) + DigestCrowd(out.result.crowd_stats) +
         DigestClusters(out.clusters);
}

double StageSeconds(const core::PipelineStats& stats, const std::string& name) {
  double ms = 0;
  for (const auto& s : stats.stages) {
    if (s.name == name) ms += s.wall_ms;
  }
  return ms / 1e3;
}

serve::ServiceConfig ServeConfigFor(const Options& opt, const data::Dataset& dataset) {
  serve::ServiceConfig config;
  config.threshold = 0.5;
  config.seed = opt.seed;
  // Two-source input: gate candidates across sources, as the batch join does.
  config.cross_source_only = !dataset.table.sources.empty();
  return config;
}

double WorkloadScale(const Options& opt) {
  if (opt.workload == "serve-ingest") return 10;
  return BatchSpecFor(opt).scale;
}

// One set-up: generate the dataset and, for serve-ingest, create the
// service. Its time is one setup_s sample. The dataset is kept in `*keep`
// when given, else dropped.
Status SetUp(const Options& opt, Report* report, std::unique_ptr<data::Dataset>* keep) {
  const Clock::time_point t = Clock::now();
  CROWDER_ASSIGN_OR_RETURN(data::Dataset generated, Generate(WorkloadScale(opt), opt.seed));
  report->generate_s.push_back(SecondsSince(t));
  if (opt.workload == "serve-ingest") {
    CROWDER_RETURN_NOT_OK(
        serve::EntityResolutionService::Create(ServeConfigFor(opt, generated)).status());
  }
  report->setup_s.push_back(SecondsSince(t));
  if (keep) *keep = std::make_unique<data::Dataset>(std::move(generated));
  return Status::OK();
}

// Repeats `rep` until `seconds` of repetitions have run, and at least three
// (traced: four). With tracing on, repetitions alternate untraced / traced.
// `settle` runs after each repetition's measurements: it reads what `rep`
// kept of its output and frees it, so every repetition starts from the same
// resident set. Between repetitions, outside their timing, the set-up is
// sampled kSetUpsPerRep times, so the setup_s samples span the same stretch
// of time as the repetitions. The reference pass before all this has
// already warmed the heap and the code.
constexpr int kSetUpsPerRep = 2;

template <typename RepFn, typename SettleFn>
Status Repeat(const Options& opt, Tracer* tracer, Report* report, RepFn rep, SettleFn settle) {
  const int kMinReps = opt.trace ? 4 : 3;
  double measured_s = 0;
  for (int i = 0; i < kMinReps || measured_s < opt.seconds; ++i) {
    const Clock::time_point start = Clock::now();
    Rep r;
    r.traced = opt.trace && (i % 2 == 1);
    r.run = i + 1;
    tracer->StartRun(r.run, r.traced);
    // Start every repetition from a trimmed heap, so one repetition's
    // fragmentation does not slow the next.
    malloc_trim(0);
    report->peak_rss_per_rep = ResetPeakRss();
    const double cpu0 = CpuSecondsSelfAndChildren();
    rep(&r);
    r.cpu_s = CpuSecondsSelfAndChildren() - cpu0;
    r.peak_rss_mb = std::max(r.peak_rss_mb, PeakRssKb() / 1024.0);
    ++report->attempted;
    if (r.status != "OK") ++report->failed;
    report->reps.push_back(std::move(r));
    settle(report->reps.back());
    tracer->StartRun(0, false);
    measured_s += SecondsSince(start);
    for (int j = 0; j < kSetUpsPerRep; ++j) CROWDER_RETURN_NOT_OK(SetUp(opt, report, nullptr));
  }
  return Status::OK();
}

// What outlives the first finished repetition: its digests and the quality
// figures computed from it.
struct FirstOutput {
  std::string digest;
  std::string candidates;  // digest of the candidate list
  bool subprocess_shards = false;
  std::map<std::string, double> quality;
};

Status RunBatchWorkload(const Options& opt, const data::Dataset& dataset, Tracer* tracer,
                        Report* report) {
  const BatchSpec spec = BatchSpecFor(opt);
  const core::WorkflowConfig& config = spec.config;
  const uint32_t n = static_cast<uint32_t>(dataset.table.num_records());
  similarity::JoinOptions join_options;
  join_options.measure = config.measure;
  join_options.threshold = config.likelihood_threshold;
  // batch-dense's materialized twin: the same config in materialized mode.
  core::WorkflowConfig twin_config = config;
  twin_config.execution_mode = core::ExecutionMode::kMaterialized;
  twin_config.memory_budget_bytes = 0;

  // ---- Reference outputs, once, outside the timed region. Only their
  // digests are kept. ----
  std::string reference_candidates;  // digest the repetitions' candidates must match
  std::string reference_output;      // digest of the whole output (batch-dense)
  if (opt.workload == "batch-sparse") {
    const similarity::JoinInput input =
        core::internal::BuildJoinInput(dataset, core::CandidateStrategy::kAllPairsJoin, nullptr);
    CROWDER_ASSIGN_OR_RETURN(auto serial, similarity::AllPairsJoin(input, join_options));
    similarity::SortPairs(&serial);
    reference_candidates = DigestPairs(serial);
  } else if (opt.workload == "batch-dense") {
    CROWDER_ASSIGN_OR_RETURN(const BatchOutput twin,
                             RunBatch(dataset, twin_config, ClusterRule::kTransitiveClosure,
                                      tracer));
    reference_output = BatchDigest(twin);
  } else {
    CROWDER_ASSIGN_OR_RETURN(
        auto single, core::HybridWorkflow::MachinePass(dataset, config.measure,
                                                       config.likelihood_threshold,
                                                       core::CandidateStrategy::kAllPairsJoin,
                                                       config.num_threads));
    reference_candidates = DigestPairs(single);
  }

  // ---- Timed repetitions. ----
  std::unique_ptr<BatchOutput> last;  // the output `rep` leaves for `settle`
  std::unique_ptr<FirstOutput> first;
  auto rep = [&](Rep* r) {
    const Clock::time_point t = Clock::now();
    Result<BatchOutput> out = Status::Internal("not run");
    {
      ScopedSpan root(tracer, "repetition");
      out = RunBatch(dataset, config, spec.clusters, tracer);
    }
    r->wall_s = SecondsSince(t);
    if (!out.ok()) {
      r->status = out.status().ToString();
      return;
    }
    const core::WorkflowResult& result = out->result;
    r->digest = BatchDigest(*out);
    for (const auto& shard : result.shard_stats.shards) {
      r->peak_rss_mb = std::max(r->peak_rss_mb, shard.max_rss_kb / 1024.0);
    }
    if (!reference_candidates.empty() &&
        DigestPairs(result.candidate_pairs) != reference_candidates) {
      r->status = "candidate list differs from the reference pass";
    }
    if (r->traced) {
      const core::PipelineStats& ps = result.pipeline_stats;
      report->Layer("core.machine_pass_s", StageSeconds(ps, "machine-pass"));
      report->Layer("core.hit_gen_s", StageSeconds(ps, "hit-gen"));
      report->Layer("core.crowd_s", StageSeconds(ps, "crowd"));
      report->Layer("core.aggregate_s", StageSeconds(ps, "aggregate"));
      report->Layer("core.stream_spilled_bytes", static_cast<double>(ps.spilled_bytes));
      report->Layer("core.vote_spilled_bytes", static_cast<double>(ps.vote_spilled_bytes));
      report->Layer("core.boundary_spilled_bytes", static_cast<double>(ps.boundary_spilled_bytes));
      report->Layer("core.crowd_partitions", static_cast<double>(ps.crowd_partitions));
      report->Layer("core.cluster_index_s", ps.cluster_index_wall_ms / 1e3);
      report->Layer("core.cluster_context_s", ps.cluster_context_wall_ms / 1e3);
      report->Layer("crowd.rounds", out->rounds);
      report->Layer("crowd.assignments", result.crowd_stats.num_assignments);
      report->Layer("crowd.round_p50_us",
                    static_cast<double>(ps.round_wall_micros.ValueAtQuantile(0.5)));
      report->Layer("hitgen.hits", result.crowd_stats.num_hits);
      const shard::ShardRunStats& ss = result.shard_stats;
      if (!ss.shards.empty()) {
        double cpu_max = 0, cpu_min = 1e300;
        uint64_t verifications = 0, owned = 0, replicas = 0;
        for (const auto& w : ss.shards) {
          cpu_max = std::max(cpu_max, w.cpu_ms / 1e3);
          cpu_min = std::min(cpu_min, w.cpu_ms / 1e3);
          verifications += w.pair_verifications;
          owned += w.owned_records;
          replicas += w.replica_records;
        }
        report->Layer("shard.plan_ms", ss.plan_wall_ms);
        report->Layer("shard.ship_ms", ss.ship_wall_ms);
        report->Layer("shard.gather_ms", ss.gather_wall_ms);
        report->Layer("shard.worker_cpu_max_s", cpu_max);
        report->Layer("shard.worker_cpu_min_s", cpu_min);
        report->Layer("shard.verifications", static_cast<double>(verifications));
        report->Layer("shard.owned_records", static_cast<double>(owned));
        report->Layer("shard.replica_records", static_cast<double>(replicas));
      }
    }
    last = std::make_unique<BatchOutput>(std::move(*out));
  };
  auto settle = [&](const Rep& r) {
    if (last && !first) {
      const core::WorkflowResult& result = last->result;
      first = std::make_unique<FirstOutput>();
      first->digest = r.digest;
      first->candidates = DigestPairs(result.candidate_pairs);
      first->subprocess_shards = result.shard_stats.subprocess &&
                                 result.shard_stats.shards.size() == config.num_shards;
      first->quality["hits"] = result.crowd_stats.num_hits;
      first->quality["crowd_cost_usd"] = result.crowd_stats.cost_dollars;
      first->quality["best_f1"] = eval::BestF1(result.pr_curve);
      first->quality["cluster_f1"] = core::EvaluateClusters(last->clusters, dataset).f1;
    }
    last.reset();
  };
  CROWDER_RETURN_NOT_OK(Repeat(opt, tracer, report, rep, settle));
  if (!first) return Status::Internal("no repetition produced an output");

  if (opt.workload == "batch-sparse") {
    report->AddCheck("candidates == serial similarity::AllPairsJoin",
                     first->candidates == reference_candidates,
                     first->candidates + " vs " + reference_candidates);
  } else if (opt.workload == "batch-dense") {
    report->AddCheck("streaming output == materialized twin (ranked, crowd stats, clusters)",
                     first->digest == reference_output, first->digest + " vs " + reference_output);
  } else {
    report->AddCheck("sharded candidates == in-process single-process pass",
                     first->candidates == reference_candidates,
                     first->candidates + " vs " + reference_candidates);
    report->AddCheck("machine pass ran in crowder_shardd subprocesses", first->subprocess_shards);
  }
  report->records = n;
  report->quality = first->quality;
  if (!opt.trace) return Status::OK();

  // ---- Traced run only: counters the driver seams do not return. ----
  // One more untimed driver run supplies the output the direct calls are
  // checked against. For batch-dense it is the materialized twin, which the
  // streaming == materialized check makes identical.
  const bool dense = opt.workload == "batch-dense";
  CROWDER_ASSIGN_OR_RETURN(
      const BatchOutput materialized,
      RunBatch(dataset, dense ? twin_config : config,
               dense ? ClusterRule::kTransitiveClosure : spec.clusters, tracer));
  report->AddCheck("untimed driver run == first repetition",
                   BatchDigest(materialized) == first->digest);
  const core::WorkflowResult& result = materialized.result;
  Clock::time_point t = Clock::now();
  const similarity::JoinInput input =
      core::internal::BuildJoinInput(dataset, core::CandidateStrategy::kAllPairsJoin, nullptr);
  report->Layer("text.tokenize_s", SecondsSince(t));
  uint64_t tokens = 0;
  for (const auto& set : input.sets) tokens += set.size();
  report->Layer("text.tokens", static_cast<double>(tokens));
  const std::string driver_candidates = DigestPairs(result.candidate_pairs);

  if (opt.workload == "batch-sparse") {
    // The single-threaded baseline, timed next to the parallel join below so
    // that both run on the same warm process.
    t = Clock::now();
    CROWDER_ASSIGN_OR_RETURN(auto serial, similarity::AllPairsJoin(input, join_options));
    report->Layer("similarity.serial_join_s", SecondsSince(t));
    similarity::SortPairs(&serial);
    report->AddCheck("direct serial AllPairsJoin == driver candidates",
                     DigestPairs(serial) == driver_candidates);
  }

  similarity::ParallelJoinOptions parallel;
  parallel.num_threads = config.num_threads;
  similarity::JoinStats join_stats;
  const double cpu0 = CpuSeconds(RUSAGE_SELF);
  t = Clock::now();
  CROWDER_ASSIGN_OR_RETURN(auto joined, similarity::ParallelAllPairsJoin(input, join_options,
                                                                        parallel, &join_stats));
  report->Layer("similarity.join_s", SecondsSince(t));
  report->Layer("similarity.join_cpu_s", CpuSeconds(RUSAGE_SELF) - cpu0);
  report->Layer("similarity.pair_verifications",
                static_cast<double>(join_stats.pair_verifications));
  report->Layer("similarity.candidate_pairs", static_cast<double>(joined.size()));
  report->AddCheck("direct ParallelAllPairsJoin == driver candidates",
                   DigestPairs(joined) == driver_candidates);

  if (config.aggregation == core::AggregationMethod::kDawidSkene) {
    const aggregate::VoteTable& votes = result.crowd_stats.votes;
    t = Clock::now();
    CROWDER_ASSIGN_OR_RETURN(auto ds, aggregate::RunDawidSkene(votes));
    report->Layer("aggregate.dawid_skene_s", SecondsSince(t));
    uint64_t num_votes = 0;
    for (const auto& v : votes) num_votes += v.size();
    report->Layer("aggregate.em_iterations", ds.iterations);
    report->Layer("aggregate.votes", static_cast<double>(num_votes));
    std::unordered_map<uint64_t, double> ranked_score;
    for (const auto& p : result.ranked) ranked_score[crowd::PairKey(p.a, p.b)] = p.score;
    bool same = ds.match_probability.size() == result.candidate_pairs.size();
    for (size_t i = 0; same && i < result.candidate_pairs.size(); ++i) {
      const auto& p = result.candidate_pairs[i];
      auto it = ranked_score.find(crowd::PairKey(p.a, p.b));
      // The driver ranks by probability + 1e-7 * machine likelihood
      // (core/stages.cc MakeRankedPair); the same expression is exact here.
      same = it != ranked_score.end() && it->second == ds.match_probability[i] + 1e-7 * p.score;
    }
    report->AddCheck("direct RunDawidSkene == driver probabilities", same);
  }

  t = Clock::now();
  CROWDER_ASSIGN_OR_RETURN(auto curve, eval::PrCurve(result.ranked, result.total_matches));
  report->Layer("eval.pr_curve_s", SecondsSince(t));
  bool same_curve = curve.size() == result.pr_curve.size();
  for (size_t i = 0; same_curve && i < curve.size(); ++i) {
    same_curve = curve[i].n == result.pr_curve[i].n &&
                 curve[i].precision == result.pr_curve[i].precision &&
                 curve[i].recall == result.pr_curve[i].recall;
  }
  report->AddCheck("direct eval::PrCurve == driver PR curve", same_curve);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// serve-ingest: one closed-loop ingest caller, one open-loop query thread.
// ---------------------------------------------------------------------------

constexpr double kQueryRate = 2000.0;  // queries per second, open loop

struct QueryLoop {
  std::atomic<bool> stop{false};
  std::vector<double> latency_us;  // from each query's due time
  double max_late_ms = 0;          // how late the generator ran
  uint64_t attempted = 0;
  uint64_t errors = 0;
};

void RunQueries(const serve::EntityResolutionService& service, uint64_t seed, Tracer* tracer,
                QueryLoop* loop) {
  tls_thread = 1;
  ScopedSpan root(tracer, "serve.query_loop");
  Rng rng(seed);
  while (!loop->stop.load(std::memory_order_acquire) &&
         service.CurrentSnapshot()->num_records == 0) {
    std::this_thread::yield();
  }
  const Clock::time_point start = Clock::now();
  const std::chrono::nanoseconds interval(static_cast<int64_t>(1e9 / kQueryRate));
  for (int64_t i = 0;; ++i) {
    const Clock::time_point due = start + interval * i;
    std::this_thread::sleep_until(due);
    if (loop->stop.load(std::memory_order_acquire)) break;
    const Clock::time_point sent = Clock::now();
    loop->max_late_ms =
        std::max(loop->max_late_ms, std::chrono::duration<double, std::milli>(sent - due).count());
    bool ok = false;
    {
      ScopedSpan span(tracer, "serve.Query");
      const uint32_t records = service.CurrentSnapshot()->num_records;
      ok = service.Query(static_cast<uint32_t>(rng.Uniform(records))).ok();
    }
    loop->latency_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - due).count());
    ++loop->attempted;
    if (!ok) ++loop->errors;
  }
}

Status RunServeWorkload(const Options& opt, const data::Dataset& dataset, Tracer* tracer,
                        Report* report) {
  const serve::ServiceConfig config = ServeConfigFor(opt, dataset);
  const uint32_t n = static_cast<uint32_t>(dataset.table.num_records());
  report->records = n;

  // The reference, once, outside the timed region. Only its digest is kept.
  std::string reference_digest;
  {
    CROWDER_ASSIGN_OR_RETURN(const serve::ServiceReport reference,
                             serve::BatchResolve(dataset, config));
    reference_digest = DigestClusters(reference.clusters) + DigestServeCrowd(reference.crowd);
  }

  std::unique_ptr<serve::ServiceReport> last;  // the output `rep` leaves for `settle`
  std::unique_ptr<FirstOutput> first;
  auto rep = [&](Rep* r) {
    const Clock::time_point t = Clock::now();
    std::vector<double> insert_us;
    insert_us.reserve(n);
    QueryLoop loop;
    Result<serve::ServiceReport> finished = Status::Internal("not run");
    double ingest_s = 0, finish_s = 0;
    uint64_t insert_errors = 0;
    {
      ScopedSpan root(tracer, "repetition");
      auto created = [&] {
        ScopedSpan span(tracer, "serve.Create");
        return serve::EntityResolutionService::Create(config);
      }();
      if (!created.ok()) {
        r->status = created.status().ToString();
        return;
      }
      serve::EntityResolutionService& service = **created;
      std::thread queries(RunQueries, std::cref(service), opt.seed * 7919 + 1, tracer, &loop);
      const Clock::time_point ingest = Clock::now();
      for (uint32_t i = 0; i < n; ++i) {
        const Clock::time_point begin = Clock::now();
        bool ok = false;
        {
          ScopedSpan span(tracer, "serve.Insert");
          ok = service.InsertDatasetRecord(dataset, i).ok();
        }
        insert_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - begin).count());
        if (!ok) ++insert_errors;
      }
      ingest_s = SecondsSince(ingest);
      const Clock::time_point drain = Clock::now();
      Status flushed;
      {
        ScopedSpan span(tracer, "serve.Flush");
        flushed = service.Flush();
      }
      loop.stop.store(true, std::memory_order_release);
      queries.join();
      {
        ScopedSpan span(tracer, "serve.Finish");
        finished = flushed.ok() ? service.Finish() : Result<serve::ServiceReport>(flushed);
      }
      finish_s = SecondsSince(drain);
    }
    r->wall_s = SecondsSince(t);
    r->ingest_s = ingest_s;
    report->attempted += n + loop.attempted;
    report->failed += insert_errors + loop.errors;
    if (!finished.ok()) {
      r->status = finished.status().ToString();
      return;
    }
    r->digest = DigestClusters(finished->clusters) + DigestServeCrowd(finished->crowd);
    if (r->traced) {
      const serve::ServiceStats& s = finished->stats;
      report->Layer("serve.candidates", static_cast<double>(s.candidate_pairs));
      report->Layer("serve.index_rebuilds", static_cast<double>(s.index_rebuilds));
      report->Layer("serve.rounds", static_cast<double>(s.rounds));
      report->Layer("serve.hits_posted", static_cast<double>(s.hits_posted));
      report->Layer("serve.epochs_published", static_cast<double>(s.epochs_published));
      report->Layer("serve.finish_s", finish_s);
      report->Layer("serve.queries", static_cast<double>(loop.attempted));
      report->Layer("serve.query_generator_late_ms", loop.max_late_ms);
      report->Layer("crowd.assignments", finished->crowd.num_assignments);
    } else {
      // Latency samples come from untraced repetitions only.
      report->insert_us.insert(report->insert_us.end(), insert_us.begin(), insert_us.end());
      report->query_us.insert(report->query_us.end(), loop.latency_us.begin(),
                              loop.latency_us.end());
      report->Layer("serve.insert_busy_s", [&] {
        double sum = 0;
        for (double us : insert_us) sum += us;
        return sum / 1e6;
      }());
    }
    last = std::make_unique<serve::ServiceReport>(std::move(*finished));
  };
  auto settle = [&](const Rep& r) {
    if (last && !first) {
      first = std::make_unique<FirstOutput>();
      first->digest = r.digest;
      first->quality["hits"] = static_cast<double>(last->stats.hits_posted);
      first->quality["crowd_cost_usd"] = last->crowd.cost_dollars;
      first->quality["cluster_f1"] = core::EvaluateClusters(last->clusters, dataset).f1;
    }
    last.reset();
  };
  CROWDER_RETURN_NOT_OK(Repeat(opt, tracer, report, rep, settle));
  if (!first) return Status::Internal("no repetition produced an output");
  report->AddCheck("final partition and crowd accounting == serve::BatchResolve",
                   first->digest == reference_digest, first->digest + " vs " + reference_digest);
  report->quality = first->quality;
  return Status::OK();
}

// ---------------------------------------------------------------------------

std::string ToJson(const Report& report, const Options& opt) {
  std::ostringstream out;
  out << "{\"workload\": " << Quote(report.workload) << ", \"seed\": " << opt.seed
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"records\": " << report.records
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"peak_rss_per_rep\": " << (report.peak_rss_per_rep ? "true" : "false")
      << ", \"generate_s\": " << NumList(report.generate_s)
      << ", \"setup_s\": " << NumList(report.setup_s) << ", \"reps\": [";
  for (size_t i = 0; i < report.reps.size(); ++i) {
    const Rep& r = report.reps[i];
    out << (i ? ", " : "") << "{\"run\": " << r.run << ", \"traced\": "
        << (r.traced ? "true" : "false") << ", \"wall_s\": " << Num(r.wall_s)
        << ", \"cpu_s\": " << Num(r.cpu_s) << ", \"peak_rss_mb\": " << Num(r.peak_rss_mb)
        << ", \"ingest_s\": " << Num(r.ingest_s) << ", \"digest\": " << Quote(r.digest)
        << ", \"status\": " << Quote(r.status) << "}";
  }
  out << "], \"checks\": [";
  for (size_t i = 0; i < report.checks.size(); ++i) {
    const Check& c = report.checks[i];
    out << (i ? ", " : "") << "{\"name\": " << Quote(c.name) << ", \"ok\": "
        << (c.ok ? "true" : "false") << ", \"detail\": " << Quote(c.detail) << "}";
  }
  out << "], \"quality\": {";
  bool comma = false;
  for (const auto& [k, v] : report.quality) {
    out << (comma ? ", " : "") << Quote(k) << ": " << Num(v);
    comma = true;
  }
  out << "}, \"insert_us\": " << NumList(report.insert_us)
      << ", \"query_us\": " << NumList(report.query_us) << ", \"layers\": {";
  comma = false;
  for (const auto& [k, v] : report.layers) {
    out << (comma ? ", " : "") << Quote(k) << ": " << NumList(v);
    comma = true;
  }
  out << "}}";
  return out.str();
}

Result<Options> ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument(key + " needs a value");
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--shardd") {
      opt.shardd = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Status::InvalidArgument("unknown flag " + key);
    }
  }
  if (opt.workload != "batch-sparse" && opt.workload != "batch-dense" &&
      opt.workload != "serve-ingest" && opt.workload != "shard-machine") {
    return Status::InvalidArgument("unknown workload '" + opt.workload + "'");
  }
  if (opt.workload == "shard-machine" && opt.shardd.empty()) {
    return Status::InvalidArgument("shard-machine needs --shardd");
  }
  return opt;
}

Status Main(const Options& opt) {
  Report report;
  report.workload = opt.workload;

  // The first set-up makes the dataset the workload runs on; Repeat samples
  // the set-up again between repetitions.
  std::unique_ptr<data::Dataset> dataset;
  CROWDER_RETURN_NOT_OK(SetUp(opt, &report, &dataset));

  Tracer tracer;
  if (opt.workload == "serve-ingest") {
    CROWDER_RETURN_NOT_OK(RunServeWorkload(opt, *dataset, &tracer, &report));
  } else {
    CROWDER_RETURN_NOT_OK(RunBatchWorkload(opt, *dataset, &tracer, &report));
  }
  if (opt.trace && !opt.trace_out.empty()) CROWDER_RETURN_NOT_OK(tracer.Write(opt.trace_out));
  std::cout << ToJson(report, opt) << std::endl;
  return Status::OK();
}

}  // namespace
}  // namespace perfbench
}  // namespace crowder

int main(int argc, char** argv) {
  crowder::Result<crowder::perfbench::Options> opt =
      crowder::Status::InvalidArgument("unparsable arguments");
  try {
    opt = crowder::perfbench::ParseArgs(argc, argv);
  } catch (const std::exception&) {  // std::stoull / std::stod on a bad number
  }
  if (!opt.ok()) {
    std::cerr << "crowder_perfbench: " << opt.status().ToString() << "\n";
    return 2;
  }
  const crowder::Status status = crowder::perfbench::Main(*opt);
  if (!status.ok()) {
    std::cerr << "crowder_perfbench: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
