// fleetbench — open-loop benchmark of the PPR serving fleet.
//
// One process builds a fleet through the public API, drives it with
// seeded open-loop traffic from at most three load threads (Poisson
// reads, completions, the ordered update feed), checks every answer it
// reports on, and prints the end-to-end metrics. With --trace 1 it runs
// the same workload and seed twice — untraced, then traced — and prints
// the per-layer metrics, the tracing overhead (traced minus untraced)
// and writes the spans it recorded around each call into a layer.
//
//   fleetbench --workload read_tcp|feed_replicated|estimator_sharded
//              --seed N --seconds S --trace 0|1
//              [--workdir DIR] [--spans FILE]
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it are the human-readable report: a RUN descriptor (host,
// seed, offered rates, sample counts) and one line per metric with its
// unit and the number of samples behind it. See README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/power_iteration.h"
#include "core/cpu_dispatch.h"
#include "estimator/estimator_index.h"
#include "gen/datasets.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_stats.h"
#include "index/ppr_index.h"
#include "loadgen.h"
#include "net/ppr_server.h"
#include "net/wire.h"
#include "router/shard_backend.h"
#include "router/sharded_service.h"
#include "server/ppr_service.h"
#include "storage/durable_store.h"
#include "stream/edge_stream.h"
#include "stream/sliding_window.h"
#include "util/numa.h"
#include "util/parallel.h"

namespace {

using dppr::DynamicGraph;
using dppr::QueryResponse;
using dppr::RequestStatus;
using dppr::UpdateBatch;
using dppr::VertexId;
using perfbench::Clock;
using perfbench::LatencyLog;
using perfbench::MillisBetween;
using perfbench::Percentile;
using perfbench::Rng;

const Clock::time_point kProcessStart = Clock::now();

// ------------------------------------------------------------ workloads

constexpr int kHubs = 16;
constexpr double kEps = 1e-6;
constexpr double kBatchRatio = 0.001;
constexpr int kTopK = 5;
constexpr int kWalkCount = 4;
/// Share of the run the feed spends at its fixed rate; the rest is the
/// back-to-back phase (one batch outstanding).
constexpr double kFixedRateShare = 0.75;
/// Rounds per run, each on a fresh fleet; setup_s is the median of their
/// set-ups.
constexpr int kRounds = 10;
/// Sample times (`LatencyLog::at_s`) of round r start at r times this, so
/// no window spans two rounds.
constexpr double kRoundSpacingSeconds = 1000.0;
/// Read percentiles are the median over windows of this many seconds of
/// each window's percentile (see LatencyLog::WindowedP).
constexpr double kWindowSeconds = 1.0;
constexpr size_t kWindowMinSamples = 100;
/// Traced runs replay one read in this many through every layer.
constexpr uint64_t kChainEvery = 32;
/// Batches and reads each fresh fleet serves before its clock starts, so
/// first-touch allocation and the first log writes are not measured. The
/// warm-up is the benchmark's own traffic, so setup_s ends before it.
constexpr int kWarmupBatches = 3;
constexpr int kWarmupReads = 200;
/// Oracle slack on top of eps (power iteration converges to 1e-12).
constexpr double kOracleSlack = 1e-9;

struct Workload {
  const char* name;
  bool tcp;          ///< shards served by PprServers over loopback
  int shards;
  int replicas;      ///< per slot (round-robin reads when > 1)
  bool durable;      ///< WAL with fsync on every replica
  bool estimator;    ///< estimator on, every hub a target
  double read_rate;  ///< Poisson reads per second
  double feed_rate;  ///< batches per second in the fixed-rate phase
  /// Share of reads that are estimator verbs (pair, hybrid, reverse).
  double estimator_share;
};

constexpr Workload kWorkloads[] = {
    {"read_tcp", true, 2, 1, false, false, 4000, 0, 0.0},
    {"feed_replicated", false, 1, 2, true, false, 4000, 5, 0.0},
    {"estimator_sharded", false, 2, 1, false, true, 4000, 5, 0.5},
};

/// Everything a round derives from its seed.
struct Inputs {
  VertexId num_vertices = 0;
  std::vector<dppr::Edge> initial;
  std::vector<UpdateBatch> batches;
  std::vector<VertexId> hubs;
};

Inputs MakeInputs(uint64_t seed) {
  dppr::DatasetSpec spec;
  if (!dppr::FindDataset("pokec-sim", &spec).ok()) std::abort();
  const dppr::EdgeStream stream = dppr::EdgeStream::RandomPermutation(
      dppr::GenerateDataset(spec, /*scale_shift=*/0), seed);
  dppr::SlidingWindow window(&stream, 0.1);
  Inputs in;
  in.num_vertices = stream.NumVertices();
  in.initial = window.InitialEdges();
  const auto batch = window.BatchForRatio(kBatchRatio);
  while (window.CanSlide(batch)) in.batches.push_back(window.NextBatch(batch));
  const DynamicGraph graph =
      DynamicGraph::FromEdges(in.initial, in.num_vertices);
  in.hubs = dppr::TopOutDegreeVertices(graph, kHubs);
  return in;
}

// ----------------------------------------------------------------- fleet

/// The system under test, built and started through the public API.
class Fleet {
 public:
  Fleet(const Workload& w, const Inputs& in, const std::string& data_dir,
        uint64_t seed)
      : workload_(w) {
    dppr::ShardedServiceOptions options;
    options.index.ppr.eps = kEps;
    options.service.estimator.enabled = w.estimator;
    options.service.estimator.walks_per_vertex = kWalkCount;
    options.service.estimator.seed = seed;
    if (w.tcp) {
      // Each shard is an in-process serving stack behind a PprServer;
      // a --shards=0 router joins them over loopback, then adds the hubs
      // through the ring.
      options.num_shards = 0;
      router_ = std::make_unique<dppr::ShardedPprService>(
          in.initial, in.num_vertices, std::vector<VertexId>{}, options);
      router_->Start();
      for (int i = 0; i < w.shards; ++i) {
        stacks_.push_back(std::make_unique<dppr::LocalShardBackend>(
            in.initial, in.num_vertices, std::vector<VertexId>{},
            options.index, options.service));
        stacks_.back()->Start();
        servers_.push_back(std::make_unique<dppr::net::PprServer>(
            stacks_.back()->service(), dppr::net::PprServerOptions{}));
        if (!servers_.back()->Start().ok()) Fail("PprServer::Start");
        const int slot =
            router_->AddRemoteShard("127.0.0.1", servers_.back()->port());
        if (slot < 0) Fail("AddRemoteShard");
        stack_of_slot_[slot] = i;
      }
      for (VertexId h : in.hubs) {
        if (router_->AddSource(h).status != RequestStatus::kOk) {
          Fail("AddSource");
        }
      }
    } else {
      options.num_shards = w.shards;
      options.replicas = w.replicas;
      if (w.replicas > 1) {
        options.read_policy = dppr::ReadPolicy::kRoundRobinLive;
        options.max_epoch_lag = 8;
      }
      if (w.durable) {
        options.data_dir = data_dir;
        options.durability.fsync_on_commit = true;
      }
      router_ = std::make_unique<dppr::ShardedPprService>(
          in.initial, in.num_vertices, in.hubs, options);
      router_->Start();
    }
    if (w.estimator) {
      for (VertexId h : in.hubs) {
        if (router_->AddTarget(h).status != RequestStatus::kOk) {
          Fail("AddTarget");
        }
      }
    }
  }

  ~Fleet() {
    router_->Stop();
    for (auto& server : servers_) server->Stop();
    for (auto& stack : stacks_) stack->Stop();
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  dppr::ShardedPprService& router() { return *router_; }

  /// The router's backend for the primary of `s`'s slot — on TCP
  /// workloads the RemoteShardBackend whose client owns the connection.
  dppr::ShardBackend* PrimaryBackend(VertexId s) {
    const int slot = router_->OwnerOf(s);
    return router_->ReplicaBackendForTesting(slot, router_->PrimaryOf(slot));
  }

  /// The serving stack (PprService) that answers `s` on its primary.
  dppr::PprService* Service(VertexId s) {
    const int slot = router_->OwnerOf(s);
    if (workload_.tcp) return stacks_[stack_of_slot_.at(slot)]->service();
    auto* local = dynamic_cast<dppr::LocalShardBackend*>(
        router_->ReplicaBackendForTesting(slot, router_->PrimaryOf(slot)));
    return local == nullptr ? nullptr : local->service();
  }

 private:
  [[noreturn]] static void Fail(const char* what) {
    std::fprintf(stderr, "fleet setup failed: %s\n", what);
    std::exit(2);
  }

  const Workload& workload_;
  std::unique_ptr<dppr::ShardedPprService> router_;
  // TCP workloads only: the shard stacks and their network skins.
  std::vector<std::unique_ptr<dppr::LocalShardBackend>> stacks_;
  std::vector<std::unique_ptr<dppr::net::PprServer>> servers_;
  std::map<int, int> stack_of_slot_;
};

// --------------------------------------------------------------- tracing

/// One timed call into a layer, times from the start of its round's
/// measured window. Spans of one read share `request` (the read's index);
/// spans of one batch share it too (kFeedRequest | batch).
struct Span {
  const char* name;
  double start_us;
  double end_us;
  uint64_t id;      ///< unique within a round
  uint64_t parent;  ///< 0 = root
  uint64_t request;
  int round;
};

constexpr uint64_t kFeedRequest = uint64_t{1} << 62;

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Spans of one recording thread in one round, kept in memory until the
/// run ends.
class SpanLog {
 public:
  SpanLog(uint64_t id_base, Clock::time_point t0, int round)
      : next_id_(id_base), t0_(t0), round_(round) {}
  uint64_t NewId() { return ++next_id_; }
  void Add(const char* name, Clock::time_point start, Clock::time_point end,
           uint64_t id, uint64_t parent, uint64_t request) {
    spans_.push_back({name, Micros(t0_, start), Micros(t0_, end), id, parent,
                      request, round_});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  Clock::time_point t0_;
  int round_;
  std::vector<Span> spans_;
};

/// Per-layer measurements of a traced run.
struct LayerSamples {
  // Read chain (self time = call minus the call one layer down).
  std::vector<double> router_self_us, net_self_us, server_self_us;
  std::vector<double> index_read_us, index_topk_us;
  std::vector<double> frame_encode_us, frame_decode_us, read_bytes;
  std::vector<double> pair_us, hybrid_us, reverse_topk_us;
  // Feed chain on the benchmark-owned replica.
  std::vector<double> log_batch_ms, apply_batch_ms, restore_ms, push_ms;
  std::vector<double> estimator_apply_ms;
  int64_t across_sources_batches = 0;
  int64_t replica_updates = 0;
  int64_t log_bytes = 0;
  std::vector<double> checkpoint_ms;  ///< one per round (durable only)
  dppr::PushCounters counters;
  int64_t replica_batches = 0;
};

/// A benchmark-owned replica the feed thread drives with each batch after
/// the fleet acks it, in the maintenance thread's order: log, index,
/// estimator.
struct OwnedReplica {
  DynamicGraph graph;
  std::unique_ptr<dppr::EstimatorIndex> estimator;
  std::unique_ptr<dppr::PprIndex> index;
  std::unique_ptr<dppr::storage::DurableStore> store;

  OwnedReplica(const Workload& w, const Inputs& in, const std::string& dir,
               uint64_t seed)
      : graph(DynamicGraph::FromEdges(in.initial, in.num_vertices)) {
    if (w.estimator) {
      dppr::EstimatorOptions options;
      options.enabled = true;
      options.walks_per_vertex = kWalkCount;
      options.seed = seed;
      estimator = std::make_unique<dppr::EstimatorIndex>(graph, options);
      for (VertexId h : in.hubs) estimator->AddTarget(h);
    }
    dppr::IndexOptions options;
    options.ppr.eps = kEps;
    index = std::make_unique<dppr::PprIndex>(&graph, in.hubs, options);
    index->Initialize();
    if (w.durable) {
      dppr::storage::DurableStoreOptions durability;
      durability.fsync_on_commit = true;
      store = std::make_unique<dppr::storage::DurableStore>(dir, durability);
      if (!store->Open().ok()) {
        std::fprintf(stderr, "owned replica: cannot open %s\n", dir.c_str());
        std::exit(2);
      }
    }
  }

  // `index` points at `graph`.
  OwnedReplica(const OwnedReplica&) = delete;
  OwnedReplica& operator=(const OwnedReplica&) = delete;

  /// Applies a warm-up batch, untimed.
  void Warm(const UpdateBatch& batch) {
    if (store && !store->LogBatch(batch, 1).ok()) std::abort();
    index->ApplyBatch(batch);
    if (estimator) estimator->ApplyBatch(batch, 1);
  }

  void Apply(const UpdateBatch& batch, uint64_t request, SpanLog* log,
             LayerSamples* out) {
    const uint64_t root = log->NewId();
    const Clock::time_point start = Clock::now();
    if (store) {
      const uint64_t before = store->log_end_offset();
      const Clock::time_point t0 = Clock::now();
      if (!store->LogBatch(batch, 1).ok()) std::abort();
      const Clock::time_point t1 = Clock::now();
      log->Add("storage.log_batch", t0, t1, log->NewId(), root, request);
      out->log_batch_ms.push_back(MillisBetween(t0, t1));
      out->log_bytes += static_cast<int64_t>(store->log_end_offset() - before);
    }
    const Clock::time_point t0 = Clock::now();
    index->ApplyBatch(batch);
    const Clock::time_point t1 = Clock::now();
    log->Add("index.apply_batch", t0, t1, log->NewId(), root, request);
    const dppr::IndexBatchStats& stats = index->last_batch_stats();
    out->apply_batch_ms.push_back(MillisBetween(t0, t1));
    out->restore_ms.push_back(stats.restore_wall_seconds * 1e3);
    out->push_ms.push_back(stats.push_wall_seconds * 1e3);
    out->across_sources_batches += stats.across_sources ? 1 : 0;
    out->counters.Add(stats.sources_total.counters);
    if (estimator) {
      const Clock::time_point e0 = Clock::now();
      estimator->ApplyBatch(batch, 1);
      const Clock::time_point e1 = Clock::now();
      log->Add("estimator.apply_batch", e0, e1, log->NewId(), root, request);
      out->estimator_apply_ms.push_back(MillisBetween(e0, e1));
    }
    log->Add("feed.replica_apply", start, Clock::now(), root, 0, request);
    out->replica_updates += static_cast<int64_t>(batch.size());
    ++out->replica_batches;
  }
};

// ------------------------------------------------------------ checking

enum class Verb { kQuery, kTopK, kPair, kHybrid, kReverseTopK };

const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kQuery: return "query";
    case Verb::kTopK: return "topk";
    case Verb::kPair: return "pair";
    case Verb::kHybrid: return "hybrid";
    case Verb::kReverseTopK: return "reverse_topk";
  }
  return "?";
}

bool IsEstimatorVerb(Verb v) {
  return v == Verb::kPair || v == Verb::kHybrid || v == Verb::kReverseTopK;
}

struct ReadMeta {
  Verb verb = Verb::kQuery;
  VertexId a = 0;  ///< source (forward, pair) or target (reverse)
  VertexId b = 0;  ///< vertex (query) or target (pair)
  /// Batches every replica had acked when the read was sent: a forward
  /// answer must be at least this many epochs past the source's start.
  int64_t acked = 0;
};

/// Collects correctness violations; the first few of the process are
/// printed.
class Verdict {
 public:
  void Violation(const std::string& what) {
    static std::atomic<int> printed{0};
    if (printed.fetch_add(1) < 10) {
      std::fprintf(stderr, "VIOLATION: %s\n", what.c_str());
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++count_;
  }
  int64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }

 private:
  mutable std::mutex mu_;
  int64_t count_ = 0;
};

/// An answer p ± eps of a probability: truth is in [0, 1], so the value
/// is within eps of that range (the lower bound is clamped at 0).
bool ValidEstimate(const dppr::PointEstimate& e, double eps) {
  return std::isfinite(e.value) && e.value >= -eps - kOracleSlack &&
         e.value <= 1 + eps + kOracleSlack && e.lower <= e.upper &&
         e.value <= e.upper;
}

bool ValidTopK(const dppr::GuaranteedTopK& t) {
  if (t.entries.empty() || t.entries.size() > static_cast<size_t>(kTopK)) {
    return false;
  }
  for (size_t i = 1; i < t.entries.size(); ++i) {
    if (t.entries[i].score > t.entries[i - 1].score) return false;
  }
  return true;
}

/// Structural check of one OK answer, plus the epoch floor for forward
/// reads (every replica applied `meta.acked` batches before the send).
void CheckAnswer(const ReadMeta& meta, const QueryResponse& r,
                 const std::map<VertexId, uint64_t>& start_epoch,
                 Verdict* verdict) {
  bool ok = true;
  switch (meta.verb) {
    case Verb::kQuery: ok = ValidEstimate(r.estimate, kEps); break;
    case Verb::kTopK: ok = ValidTopK(r.topk); break;
    case Verb::kPair:
    case Verb::kHybrid:
      ok = ValidEstimate(r.estimate, dppr::EstimatorOptions{}.eps);
      break;
    case Verb::kReverseTopK: ok = ValidTopK(r.topk); break;
  }
  if (!ok) {
    verdict->Violation(std::string("malformed ") + VerbName(meta.verb) +
                       " answer for " + std::to_string(meta.a));
  }
  if (!IsEstimatorVerb(meta.verb)) {
    const uint64_t floor =
        start_epoch.at(meta.a) + static_cast<uint64_t>(meta.acked);
    if (r.epoch < floor) {
      verdict->Violation("stale " + std::string(VerbName(meta.verb)) +
                         " for source " + std::to_string(meta.a) +
                         ": epoch " + std::to_string(r.epoch) + " < " +
                         std::to_string(floor));
    }
  }
}

// ------------------------------------------------------------- one run

struct RunOptions {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string workdir;
};

/// Router and server counters of one fleet, summed over rounds.
struct FleetCounters {
  int64_t standby_reads = 0;
  int64_t stale_retries = 0;
  int64_t update_retries = 0;
  int64_t reroutes = 0;
  int64_t shed = 0;
  int64_t served_during_maintenance = 0;
  int64_t batches_applied = 0;
  std::vector<double> staleness_epochs;  ///< every OK read's epoch lag
  std::vector<double> batch_p99_ms;      ///< one per round

  void Add(const dppr::RouterReport& r) {
    standby_reads += r.standby_reads;
    stale_retries += r.stale_retries;
    update_retries += r.update_retries;
    reroutes += r.reroutes;
    shed += r.combined.queries_shed_queue_full +
            r.combined.queries_shed_deadline;
    served_during_maintenance += r.combined.served_during_maintenance;
    batches_applied += r.combined.batches_applied;
    const std::vector<double> lag = r.staleness.Samples();
    staleness_epochs.insert(staleness_epochs.end(), lag.begin(), lag.end());
    batch_p99_ms.push_back(r.combined.batch_p99_ms);
  }
};

/// The measurements of one run: every round's, pooled.
struct RunResult {
  std::vector<double> setup_s;  ///< one per round
  /// Reads due in the fixed-rate phase (the read metrics), reads due in
  /// the back-to-back phase (counted for failures only), and the acks the
  /// update metrics come from. `at_s` is offset by round, so windows of
  /// different rounds never merge.
  LatencyLog read, estimator, b2b_reads, ack;
  std::vector<double> late_ms;
  int64_t b2b_updates = 0;
  std::vector<double> b2b_updates_per_s;  ///< one per round
  /// Back-to-back batches whose ack is not an ack sample (workloads with
  /// a fixed-rate phase): counted for attempts and failures only.
  int64_t untimed_batches = 0;
  int64_t untimed_failed = 0;
  int64_t violations = 0;
  int64_t gate_checks = 0;
  FleetCounters fleet;
  LayerSamples layers;
  int64_t net_unavailable = 0;
  std::vector<Span> spans;
  size_t updates_per_batch = 0;
  VertexId num_vertices = 0;
  size_t window_edges = 0;

  /// Median over rounds, like the ack percentiles (see AckP).
  double FeedUpdatesPerSecond() const {
    return Percentile(b2b_updates_per_s, 50);
  }
};

/// Draws the next read of the workload's mix.
ReadMeta DrawRead(const Workload& w, const Inputs& in, Rng* rng) {
  ReadMeta m;
  if (w.estimator_share > 0 && rng->Uniform() < w.estimator_share) {
    const uint64_t pick = rng->Below(3);
    m.verb = pick == 0 ? Verb::kPair
                       : (pick == 1 ? Verb::kHybrid : Verb::kReverseTopK);
    const VertexId t = in.hubs[rng->Below(in.hubs.size())];
    if (m.verb == Verb::kReverseTopK) {
      m.a = t;
    } else {
      m.a = static_cast<VertexId>(rng->Below(in.num_vertices));
      m.b = t;
    }
    return m;
  }
  m.verb = rng->Below(4) == 0 ? Verb::kTopK : Verb::kQuery;
  m.a = in.hubs[rng->Below(in.hubs.size())];
  m.b = static_cast<VertexId>(rng->Below(in.num_vertices));
  return m;
}

std::future<QueryResponse> IssueAsync(dppr::ShardedPprService& router,
                                      const ReadMeta& m) {
  switch (m.verb) {
    case Verb::kQuery: return router.QueryVertexAsync(m.a, m.b);
    case Verb::kTopK: return router.TopKAsync(m.a, kTopK);
    case Verb::kPair: return router.QueryPairAsync(m.a, m.b);
    case Verb::kHybrid: return router.HybridPairAsync(m.a, m.b);
    case Verb::kReverseTopK: return router.ReverseTopKAsync(m.a, kTopK);
  }
  std::abort();
}

/// Traced runs: replays one sampled read through every layer, one call
/// per layer, each issued when the one above it has answered:
///
///   router (ShardedPprService) -> net (the router's RemoteShardBackend,
///   TCP only) -> server (PprService) -> index (PprIndex, synchronous)
///
/// or, for an estimator verb, router -> EstimatorIndex. Every call but
/// the in-memory ones is asynchronous and the sender polls the chain
/// between sends, so tracing never stops the sender from sending: a
/// sender that blocked would leave the connection idle and change the
/// traffic it measures. One chain is in flight at a time.
class ReadChain {
 public:
  ReadChain(Fleet* fleet, bool tcp,
            const std::map<VertexId, uint64_t>* start_epoch, SpanLog* log,
            LayerSamples* out, Verdict* verdict)
      : fleet_(fleet), tcp_(tcp), start_epoch_(start_epoch), log_(log),
        out_(out), verdict_(verdict) {}

  bool active() const { return step_ != Step::kIdle; }

  void Start(const ReadMeta& m, uint64_t request) {
    m_ = m;
    request_ = request;
    root_ = log_->NewId();
    const Clock::time_point now = Clock::now();
    Issue(Step::kRouter, now, IssueAsync(fleet_->router(), m_));
  }

  /// Advances the chain if the call in flight has answered. Returns
  /// whether a chain is (still) in flight.
  bool Poll() {
    if (step_ == Step::kIdle) return false;
    // A deferred future (replicated slot) cannot be polled; its .get()
    // runs the router's failover and staleness checks here.
    if (pending_.wait_for(std::chrono::seconds(0)) ==
        std::future_status::timeout) {
      return true;
    }
    const QueryResponse r = pending_.get();
    const Clock::time_point resolved = Clock::now();
    const double us = Micros(issued_, resolved);
    const bool topk = m_.verb == Verb::kTopK;
    const Step done = step_;
    step_ = Step::kIdle;
    if (done == Step::kRouter) {
      log_->Add("router.read", issued_, resolved, root_, 0, request_);
      if (r.status != RequestStatus::kOk) return false;
      CheckAnswer(m_, r, *start_epoch_, verdict_);
      router_us_ = us;
      if (IsEstimatorVerb(m_.verb)) {
        TimeEstimator();
        return false;
      }
      if (tcp_) {
        dppr::ShardBackend* backend = fleet_->PrimaryBackend(m_.a);
        const Clock::time_point now = Clock::now();
        Issue(Step::kNet, now,
              topk ? backend->TopKAsync(m_.a, kTopK, 0)
                   : backend->QueryVertexAsync(m_.a, m_.b, 0));
      } else {
        IssueServer();
      }
    } else if (done == Step::kNet) {
      parent_ = log_->NewId();
      log_->Add("net.read", issued_, resolved, parent_, root_, request_);
      if (r.status != RequestStatus::kOk) return false;
      net_us_ = us;
      TimeCodec(r);
      IssueServer();
    } else {
      const uint64_t server_id = log_->NewId();
      log_->Add("server.read", issued_, resolved, server_id,
                tcp_ ? parent_ : root_, request_);
      if (r.status != RequestStatus::kOk) return false;
      const dppr::PprIndex* index = service_->index();
      const Clock::time_point i0 = Clock::now();
      const dppr::SourceReadResult read =
          topk ? index->TopKForSource(m_.a, kTopK)
               : index->QueryVertexForSource(m_.a, m_.b);
      const Clock::time_point i1 = Clock::now();
      log_->Add(topk ? "index.topk" : "index.read", i0, i1, log_->NewId(),
                server_id, request_);
      if (read.status != dppr::SourceReadResult::Status::kOk) return false;
      const double index_us = Micros(i0, i1);
      out_->router_self_us.push_back(router_us_ - (tcp_ ? net_us_ : us));
      if (tcp_) out_->net_self_us.push_back(net_us_ - us);
      out_->server_self_us.push_back(us - index_us);
      (topk ? out_->index_topk_us : out_->index_read_us).push_back(index_us);
    }
    return active();
  }

 private:
  enum class Step { kIdle, kRouter, kNet, kServer };

  /// `issued` is taken before the call, so the span covers submission.
  void Issue(Step step, Clock::time_point issued,
             std::future<QueryResponse> pending) {
    step_ = step;
    issued_ = issued;
    pending_ = std::move(pending);
  }

  void IssueServer() {
    service_ = fleet_->Service(m_.a);
    const Clock::time_point now = Clock::now();
    Issue(Step::kServer, now,
          m_.verb == Verb::kTopK ? service_->TopKAsync(m_.a, kTopK)
                                 : service_->QueryVertexAsync(m_.a, m_.b));
  }

  /// The estimator layer answers in memory, on the caller's thread.
  void TimeEstimator() {
    const VertexId target = m_.verb == Verb::kReverseTopK ? m_.a : m_.b;
    dppr::PprService* service = fleet_->Service(target);
    dppr::EstimatorIndex* est =
        service == nullptr ? nullptr : service->estimator();
    if (est == nullptr) return;
    const Clock::time_point e0 = Clock::now();
    if (m_.verb == Verb::kPair) {
      (void)est->QueryPair(m_.a, m_.b);
    } else if (m_.verb == Verb::kHybrid) {
      (void)est->HybridPair(m_.a, m_.b);
    } else {
      (void)est->ReverseTopK(m_.a, kTopK);
    }
    const Clock::time_point e1 = Clock::now();
    log_->Add("estimator.read", e0, e1, log_->NewId(), root_, request_);
    (m_.verb == Verb::kPair     ? out_->pair_us
     : m_.verb == Verb::kHybrid ? out_->hybrid_us
                                : out_->reverse_topk_us)
        .push_back(Micros(e0, e1));
  }

  /// The frame codec for the same request and answer, timed alone.
  void TimeCodec(const QueryResponse& answer) {
    namespace net = dppr::net;
    const bool topk = m_.verb == Verb::kTopK;
    net::FrameHeader header;
    header.verb = topk ? net::Verb::kTopK : net::Verb::kQueryVertex;
    header.request_id = request_;
    const Clock::time_point c0 = Clock::now();
    std::string request_payload;
    if (topk) {
      net::EncodeTopKRequest({m_.a, kTopK, 0}, &request_payload);
    } else {
      net::EncodeQueryVertexRequest({m_.a, m_.b, 0}, &request_payload);
    }
    header.payload_bytes = static_cast<uint32_t>(request_payload.size());
    std::string request_frame;
    net::EncodeFrameHeader(header, &request_frame);
    request_frame += request_payload;
    std::string response_payload;
    net::EncodeQueryResponse(answer, &response_payload);
    const Clock::time_point c1 = Clock::now();
    net::FrameHeader decoded_header;
    bool decoded = net::DecodeFrameHeader(request_frame.data(),
                                          net::kDefaultMaxFramePayload,
                                          &decoded_header)
                       .ok();
    if (topk) {
      net::TopKRequest req;
      decoded &= net::DecodeTopKRequest(request_payload, &req).ok();
    } else {
      net::QueryVertexRequest req;
      decoded &= net::DecodeQueryVertexRequest(request_payload, &req).ok();
    }
    QueryResponse echoed;
    decoded &= net::DecodeQueryResponsePayload(response_payload, &echoed).ok();
    const Clock::time_point c2 = Clock::now();
    if (!decoded) verdict_->Violation("frame codec round trip failed");
    out_->frame_encode_us.push_back(Micros(c0, c1));
    out_->frame_decode_us.push_back(Micros(c1, c2));
    out_->read_bytes.push_back(static_cast<double>(
        request_frame.size() + net::kFrameHeaderBytes +
        response_payload.size()));
  }

  Fleet* fleet_;
  bool tcp_;
  const std::map<VertexId, uint64_t>* start_epoch_;
  SpanLog* log_;
  LayerSamples* out_;
  Verdict* verdict_;

  Step step_ = Step::kIdle;
  ReadMeta m_;
  uint64_t request_ = 0;
  uint64_t root_ = 0;
  uint64_t parent_ = 0;  ///< the net span (TCP)
  std::future<QueryResponse> pending_;
  Clock::time_point issued_;
  dppr::PprService* service_ = nullptr;
  double router_us_ = 0.0;
  double net_us_ = 0.0;
};

/// The k-th largest of `values` (0 when there are fewer than k).
double KthLargest(std::vector<double> values, int k) {
  if (values.size() < static_cast<size_t>(k)) return 0.0;
  std::nth_element(values.begin(), values.begin() + (k - 1), values.end(),
                   std::greater<double>());
  return values[static_cast<size_t>(k - 1)];
}

/// Whether a top-k answer whose scores are each within `eps` of `truth`
/// picked the right vertices: its k-th score is within 2 eps of the
/// oracle's k-th largest, and it lists every vertex whose true score clears
/// that k-th largest by more than 2 eps (such a vertex outranks, by its
/// estimate, every vertex outside the true top-k).
bool MatchesOracleTopK(const dppr::GuaranteedTopK& t,
                       const std::vector<double>& truth, double eps) {
  const double kth = KthLargest(truth, kTopK);
  const double kth_score = t.entries.size() < static_cast<size_t>(kTopK)
                               ? 0.0
                               : t.entries[kTopK - 1].score;
  if (std::fabs(kth_score - kth) > 2 * eps + kOracleSlack) return false;
  for (size_t v = 0; v < truth.size(); ++v) {
    if (truth[v] <= kth + 2 * eps + kOracleSlack) continue;
    const auto listed = std::find_if(
        t.entries.begin(), t.entries.end(),
        [v](const dppr::ScoredVertex& e) { return e.id == v; });
    if (listed == t.entries.end()) return false;
  }
  return true;
}

/// pi_s(t) for every source s at once: the forward PPR of
/// ForwardPowerIterationPpr read by target. A walk at s stops there with
/// probability alpha (always, when s has no out-edges) and otherwise moves
/// to a uniform out-neighbour, so
///   x(s) = [s == t] * (alpha + (1 - alpha) * [dout(s) == 0])
///          + (1 - alpha) * mean over s -> u of x(u),
/// iterated from 0 until the sup-norm change is below `tol`.
std::vector<double> ReversePowerIteration(
    const DynamicGraph& g, VertexId t,
    const dppr::PowerIterationOptions& options) {
  const double alpha = options.alpha;
  std::vector<double> x(g.NumVertices(), 0.0), next(g.NumVertices());
  for (int it = 0; it < options.max_iterations; ++it) {
    double change = 0.0;
    for (VertexId s = 0; s < g.NumVertices(); ++s) {
      const VertexId out = g.OutDegree(s);
      double value = 0.0;
      if (out == 0) {
        value = s == t ? 1.0 : 0.0;
      } else {
        double sum = 0.0;
        for (VertexId u : g.OutNeighbors(s)) sum += x[u];
        value = (s == t ? alpha : 0.0) + (1 - alpha) * sum / out;
      }
      change = std::max(change, std::fabs(value - x[s]));
      next[s] = value;
    }
    x.swap(next);
    if (change < options.tol) break;
  }
  return x;
}

/// The post-run correctness gate on the quiesced fleet. Returns the
/// number of checks made; violations go to `verdict`.
int64_t RunGate(Fleet* fleet, const Workload& w, const Inputs& in,
                int64_t acked, const std::map<VertexId, uint64_t>& start_epoch,
                uint64_t seed, Verdict* verdict) {
  DynamicGraph final_graph =
      DynamicGraph::FromEdges(in.initial, in.num_vertices);
  for (int64_t b = 0; b < acked; ++b) {
    for (const dppr::EdgeUpdate& u : in.batches[static_cast<size_t>(b)]) {
      final_graph.Apply(u);
    }
  }
  dppr::ShardedPprService& router = fleet->router();
  dppr::PowerIterationOptions oracle_options;
  Rng rng(seed ^ 0x6A7EULL);
  int64_t checks = 0;
  const auto near = [](double value, double truth, double eps) {
    return std::fabs(value - truth) <= eps + kOracleSlack;
  };

  // Forward answers against power iteration on the final graph.
  for (VertexId s : in.hubs) {
    const std::vector<double> truth =
        dppr::PowerIterationPpr(final_graph, s, oracle_options);
    const uint64_t want_epoch =
        start_epoch.at(s) + static_cast<uint64_t>(acked);
    for (int i = 0; i < 4; ++i) {
      const VertexId v = i == 0 ? s
                                : static_cast<VertexId>(
                                      rng.Below(in.num_vertices));
      const QueryResponse r = router.Query(s, v);
      ++checks;
      if (r.status != RequestStatus::kOk || r.epoch != want_epoch ||
          !near(r.estimate.value, truth[v], kEps)) {
        verdict->Violation(
            "gate: query(" + std::to_string(s) + "," + std::to_string(v) +
            ") = " + std::to_string(r.estimate.value) + " @epoch " +
            std::to_string(r.epoch) + ", oracle " + std::to_string(truth[v]) +
            " @epoch " + std::to_string(want_epoch));
      }
    }
    // Each entry's score is its vertex's true score, and the entries are
    // the true top-k as far as eps can tell.
    const QueryResponse top = router.TopK(s, kTopK);
    ++checks;
    bool top_ok = top.status == RequestStatus::kOk && ValidTopK(top.topk);
    for (const dppr::ScoredVertex& e : top.topk.entries) {
      top_ok &= near(e.score, truth[e.id], kEps);
    }
    top_ok &= MatchesOracleTopK(top.topk, truth, kEps);
    if (!top_ok) {
      verdict->Violation("gate: topk(" + std::to_string(s) +
                         ") disagrees with the oracle");
    }
  }

  // Pair answers inside their interval; hybrid inside the pair interval;
  // reverse top-k scores within the estimator's eps.
  if (w.estimator) {
    const double est_eps = dppr::EstimatorOptions{}.eps;
    for (size_t i = 0; i < 4 && i < in.hubs.size(); ++i) {
      const VertexId t = in.hubs[i];
      for (int j = 0; j < 3; ++j) {
        const auto s = static_cast<VertexId>(rng.Below(in.num_vertices));
        const double truth = dppr::ForwardPowerIterationPpr(
            final_graph, s, oracle_options)[t];
        const QueryResponse pair = router.QueryPair(s, t);
        const QueryResponse hybrid = router.HybridPair(s, t);
        checks += 2;
        if (pair.status != RequestStatus::kOk ||
            truth < pair.estimate.lower - kOracleSlack ||
            truth > pair.estimate.upper + kOracleSlack) {
          verdict->Violation("gate: pair(" + std::to_string(s) + "," +
                             std::to_string(t) + ") interval misses " +
                             std::to_string(truth));
        }
        if (hybrid.status != RequestStatus::kOk ||
            hybrid.estimate.value < pair.estimate.lower - 1e-15 ||
            hybrid.estimate.value > pair.estimate.upper + 1e-15) {
          verdict->Violation("gate: hybrid(" + std::to_string(s) + "," +
                             std::to_string(t) +
                             ") leaves the pair interval");
        }
      }
      const QueryResponse rev = router.ReverseTopK(t, kTopK);
      ++checks;
      bool rev_ok = rev.status == RequestStatus::kOk && ValidTopK(rev.topk);
      const std::vector<double> by_source =
          ReversePowerIteration(final_graph, t, oracle_options);
      for (const dppr::ScoredVertex& e : rev.topk.entries) {
        const double truth = dppr::ForwardPowerIterationPpr(
            final_graph, e.id, oracle_options)[t];
        rev_ok &= near(e.score, truth, est_eps);
        // The per-target oracle must agree with the per-source one.
        if (!near(by_source[e.id], truth, 0.0)) {
          verdict->Violation("gate: reverse oracle disagrees with forward "
                             "power iteration at " + std::to_string(e.id));
        }
      }
      rev_ok &= MatchesOracleTopK(rev.topk, by_source, est_eps);
      if (!rev_ok) {
        verdict->Violation("gate: reverse_topk(" + std::to_string(t) +
                           ") disagrees with the oracle");
      }
    }
  }

  // Primary and standby agree at equal epochs.
  if (w.replicas > 1) {
    for (int slot : router.ShardIds()) {
      const int primary_index = router.PrimaryOf(slot);
      dppr::ShardBackend* primary =
          router.ReplicaBackendForTesting(slot, primary_index);
      for (VertexId s : router.SourcesOnShard(slot)) {
        const auto v = static_cast<VertexId>(rng.Below(in.num_vertices));
        const QueryResponse p = primary->QueryVertexAsync(s, v, 0).get();
        for (int r = 0; r < w.replicas; ++r) {
          if (r == primary_index) continue;
          const QueryResponse q = router.ReplicaBackendForTesting(slot, r)
                                      ->QueryVertexAsync(s, v, 0)
                                      .get();
          ++checks;
          if (p.status != RequestStatus::kOk ||
              q.status != RequestStatus::kOk || p.epoch != q.epoch ||
              std::fabs(p.estimate.value - q.estimate.value) > 2 * kEps) {
            verdict->Violation("gate: replicas of slot " +
                               std::to_string(slot) + " disagree on (" +
                               std::to_string(s) + "," + std::to_string(v) +
                               ")");
          }
        }
      }
    }
  }
  return checks;
}

/// One round: set up a fresh fleet (timed), warm it up, measure
/// `opt.seconds`, gate.
/// Adds its measurements to `result`.
void RunRound(const RunOptions& opt, int round, RunResult* result) {
  const Workload& w = *opt.workload;
  const Clock::time_point began = round == 0 ? kProcessStart : Clock::now();
  const std::string dir = opt.workdir + "/round-" + std::to_string(round);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Each round has its own inputs (window, hubs, batches, reads), all
  // derived from the run's seed: a run then spans ten inputs, and no one
  // window's cost decides it.
  const uint64_t round_seed = opt.seed * 1000 + static_cast<uint64_t>(round);
  const Inputs in = MakeInputs(round_seed);
  auto fleet = std::make_unique<Fleet>(w, in, dir + "/fleet", round_seed);
  result->setup_s.push_back(
      std::chrono::duration<double>(Clock::now() - began).count());
  std::unique_ptr<OwnedReplica> owned;
  if (opt.traced) {
    owned = std::make_unique<OwnedReplica>(w, in, dir + "/owned", round_seed);
  }
  std::map<VertexId, uint64_t> start_epoch;
  for (VertexId h : in.hubs) {
    const QueryResponse r = fleet->router().Query(h, h);
    if (r.status != RequestStatus::kOk) {
      std::fprintf(stderr, "hub %u unreadable after set-up\n", h);
      std::exit(2);
    }
    start_epoch[h] = r.epoch;
  }
  // Warm-up: the same verbs the run will use, through the router.
  for (int b = 0; b < kWarmupBatches; ++b) {
    if (fleet->router().ApplyUpdates(in.batches[b]).status !=
        RequestStatus::kOk) {
      std::fprintf(stderr, "warm-up batch %d failed\n", b);
      std::exit(2);
    }
    if (owned) owned->Warm(in.batches[b]);
  }
  {
    Rng rng(round_seed ^ 0x3A7ULL);
    for (int i = 0; i < kWarmupReads; ++i) {
      (void)IssueAsync(fleet->router(), DrawRead(w, in, &rng)).get();
    }
  }
  result->updates_per_batch = in.batches.front().size();
  result->num_vertices = in.num_vertices;
  result->window_edges = in.initial.size();
  // Windows of rounds never overlap.
  const double at_offset = kRoundSpacingSeconds * round;

  // --- The measured window. --------------------------------------------
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const Clock::time_point b2b_start = at(opt.seconds * kFixedRateShare);
  const Clock::time_point end = at(opt.seconds);
  // A workload with a fixed-rate feed keeps reading beside its
  // back-to-back phase; one without (read_tcp) stops reading first, so its
  // feed runs alone and its back-to-back acks are its ack samples.
  const bool fixed_rate_feed = w.feed_rate > 0;
  const Clock::time_point reads_end = fixed_rate_feed ? end : b2b_start;

  Verdict verdict;
  // Batches every replica has applied, warm-up included.
  std::atomic<int64_t> acked{kWarmupBatches};
  std::mutex results_mu;  // guards the read logs of `result`
  perfbench::Collector<QueryResponse, ReadMeta> collector(
      [&](const ReadMeta& m, Clock::time_point due, QueryResponse r,
          Clock::time_point resolved) {
        LatencyLog& log = due >= b2b_start ? result->b2b_reads
                          : IsEstimatorVerb(m.verb) ? result->estimator
                                                    : result->read;
        const double due_s = at_offset + MillisBetween(t0, due) / 1e3;
        std::lock_guard<std::mutex> lock(results_mu);
        if (r.status != RequestStatus::kOk) {
          log.Failed(due_s);
          if (r.status == RequestStatus::kUnavailable) {
            ++result->net_unavailable;
          }
          return;
        }
        log.Ok(MillisBetween(due, resolved), due_s);
        CheckAnswer(m, r, start_epoch, &verdict);
      });

  SpanLog read_spans(0, t0, round);
  SpanLog feed_spans(uint64_t{1} << 40, t0, round);
  std::thread completions([&] { collector.Run(); });
  std::thread sender([&] {
    perfbench::PoissonSchedule schedule(w.read_rate, round_seed * 2 + 1, t0);
    Rng rng(round_seed * 2 + 2);
    ReadChain chain(fleet.get(), w.tcp, &start_epoch, &read_spans,
                    &result->layers, &verdict);
    const std::vector<double> late = perfbench::SendOnSchedule(
        &schedule, reads_end,
        [&](uint64_t index, Clock::time_point due) {
          ReadMeta m = DrawRead(w, in, &rng);
          m.acked = acked.load(std::memory_order_acquire);
          collector.Submit(m, due, IssueAsync(fleet->router(), m));
          if (opt.traced && index % kChainEvery == 0 && !chain.active()) {
            chain.Start(m, index);
          }
        },
        [&] { return chain.Poll(); });
    result->late_ms.insert(result->late_ms.end(), late.begin(), late.end());
    collector.Close();
  });
  std::thread feed([&] {
    size_t next = kWarmupBatches;
    const auto send = [&](Clock::time_point due, bool timed) {
      const UpdateBatch& batch = in.batches[next];
      const uint64_t request = kFeedRequest | next;
      const Clock::time_point f0 = Clock::now();
      const dppr::MaintResponse r = fleet->router().ApplyUpdates(batch);
      const Clock::time_point f1 = Clock::now();
      ++next;
      if (opt.traced) {
        feed_spans.Add("router.apply_updates", f0, f1, feed_spans.NewId(), 0,
                       request);
      }
      if (!timed) ++result->untimed_batches;
      if (r.status != RequestStatus::kOk) {
        if (timed) {
          result->ack.Failed(at_offset + MillisBetween(t0, due) / 1e3);
        } else {
          ++result->untimed_failed;
        }
        return false;
      }
      acked.store(static_cast<int64_t>(next), std::memory_order_release);
      if (timed) {
        result->ack.Ok(MillisBetween(due, f1),
                       at_offset + MillisBetween(t0, due) / 1e3);
      }
      if (owned) owned->Apply(batch, request, &feed_spans, &result->layers);
      return true;
    };
    // Fixed-rate phase: batch i is due at t0 + (i + 1) / rate.
    if (fixed_rate_feed) {
      for (int64_t i = 1;; ++i) {
        const Clock::time_point due = at(static_cast<double>(i) / w.feed_rate);
        if (due >= b2b_start || next >= in.batches.size()) break;
        perfbench::WaitUntil(due);
        if (!send(due, true)) return;
      }
    }
    // Back-to-back phase: one batch outstanding. Without a fixed-rate
    // phase these acks are the workload's ack samples (due = sent).
    perfbench::WaitUntil(b2b_start);
    const Clock::time_point started = Clock::now();
    Clock::time_point last = started;
    int64_t updates = 0;
    while (Clock::now() < end && next < in.batches.size()) {
      const size_t size = in.batches[next].size();
      if (!send(Clock::now(), !fixed_rate_feed)) return;
      updates += static_cast<int64_t>(size);
      last = Clock::now();
    }
    const double seconds =
        std::chrono::duration<double>(last - started).count();
    result->b2b_updates += updates;
    if (seconds > 0) {
      result->b2b_updates_per_s.push_back(static_cast<double>(updates) /
                                          seconds);
    }
  });
  sender.join();
  feed.join();
  completions.join();

  // --- Correctness gate on the quiesced fleet. -------------------------
  result->gate_checks += RunGate(fleet.get(), w, in, acked.load(),
                                 start_epoch, round_seed, &verdict);
  if (owned && owned->store) {
    // The storage layer's checkpoint time, on the owned replica.
    const Clock::time_point c0 = Clock::now();
    if (!owned->store->WriteCheckpoint(*owned->index).ok()) {
      verdict.Violation("owned replica checkpoint failed");
    }
    result->layers.checkpoint_ms.push_back(MillisBetween(c0, Clock::now()));
  }
  result->violations += verdict.count();
  result->fleet.Add(fleet->router().Report());
  for (const SpanLog* log : {&read_spans, &feed_spans}) {
    result->spans.insert(result->spans.end(), log->spans().begin(),
                         log->spans().end());
  }
  fleet.reset();
  owned.reset();
  std::filesystem::remove_all(dir);
}

/// A whole run: `rounds` rounds of `seconds / rounds` each, every one on
/// a fresh fleet, measurements pooled. Fresh fleets keep one unlucky
/// thread placement or stall from deciding a run.
RunResult RunRounds(RunOptions opt, int rounds) {
  RunResult result;
  std::filesystem::create_directories(opt.workdir);
  opt.seconds /= rounds;
  for (int round = 0; round < rounds; ++round) RunRound(opt, round, &result);
  std::filesystem::remove_all(opt.workdir);
  return result;
}

// ---------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  const char* unit;
  int64_t samples;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double P(const std::vector<double>& v, double q) { return Percentile(v, q); }

int64_t sz(const std::vector<double>& v) {
  return static_cast<int64_t>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A failed request's latency is +inf; a percentile that lands on one
/// reads as the whole run (the request never succeeded within it).
double Finite(double ms, double run_seconds) {
  return std::isfinite(ms) ? ms : run_seconds * 1e3;
}

int64_t Attempted(const RunResult& r) {
  return r.read.attempted + r.estimator.attempted + r.b2b_reads.attempted +
         r.ack.attempted + r.untimed_batches;
}

int64_t Failed(const RunResult& r) {
  return r.read.failed + r.estimator.failed + r.b2b_reads.failed +
         r.ack.failed + r.untimed_failed;
}

/// Read percentiles are windowed (see kWindowSeconds); the whole-phase
/// values are printed beside them.
double ReadP(const LatencyLog& log, double q, double seconds) {
  return Finite(log.WindowedP(q, kWindowSeconds, kWindowMinSamples), seconds);
}

/// Ack percentiles are the median over rounds of each round's percentile
/// (a fixed-rate round holds about ten acks): a fsync stall or a
/// descheduled vCPU in one round moves one value.
double AckP(const LatencyLog& log, double q, double seconds) {
  return Finite(log.WindowedP(q, kRoundSpacingSeconds, 5), seconds);
}

std::vector<Metric> EndToEnd(const RunResult& r, const Workload& w,
                             double seconds) {
  const auto n = [](const LatencyLog& l) { return l.attempted; };
  std::vector<Metric> m = {
      {"setup_s", P(r.setup_s, 50), "s", sz(r.setup_s)},
      {"read_p50_ms", ReadP(r.read, 50, seconds), "ms", n(r.read)},
      {"read_p95_ms", ReadP(r.read, 95, seconds), "ms", n(r.read)},
      {"read_p99_ms", ReadP(r.read, 99, seconds), "ms", n(r.read)},
      {"update_ack_p50_ms", AckP(r.ack, 50, seconds), "ms", n(r.ack)},
      {"update_ack_p90_ms", AckP(r.ack, 90, seconds), "ms", n(r.ack)},
      {"feed_updates_per_s", r.FeedUpdatesPerSecond(), "1/s", r.b2b_updates},
      {"peak_rss_mb", PeakRssMb(), "MB", 1},
  };
  if (w.estimator) {
    m.push_back({"estimator_p50_ms", ReadP(r.estimator, 50, seconds), "ms",
                 n(r.estimator)});
    m.push_back({"estimator_p99_ms", ReadP(r.estimator, 99, seconds), "ms",
                 n(r.estimator)});
  }
  m.push_back({"failed_share",
               Ratio(static_cast<double>(Failed(r)),
                     static_cast<double>(Attempted(r))),
               "share", Attempted(r)});
  return m;
}

std::vector<Metric> PerLayer(const RunResult& t, const RunResult& u,
                             double seconds, double host_late_p99) {
  const LayerSamples& L = t.layers;
  const FleetCounters& c = t.fleet;
  const double updates = static_cast<double>(L.replica_updates);
  const double batches = static_cast<double>(L.replica_batches);
  const dppr::PushCounters& k = L.counters;
  return {
      {"net.read_self_us_p50", P(L.net_self_us, 50), "us", sz(L.net_self_us)},
      {"net.read_self_us_p99", P(L.net_self_us, 99), "us", sz(L.net_self_us)},
      {"net.frame_encode_us", P(L.frame_encode_us, 50), "us",
       sz(L.frame_encode_us)},
      {"net.frame_decode_us", P(L.frame_decode_us, 50), "us",
       sz(L.frame_decode_us)},
      {"net.bytes_per_read", P(L.read_bytes, 50), "bytes", sz(L.read_bytes)},
      {"net.unavailable", static_cast<double>(t.net_unavailable), "count", 1},
      {"router.read_self_us_p50", P(L.router_self_us, 50), "us",
       sz(L.router_self_us)},
      {"router.standby_reads", static_cast<double>(c.standby_reads),
       "count", 1},
      {"router.stale_retries", static_cast<double>(c.stale_retries),
       "count", 1},
      {"router.stale_epochs_p99", P(c.staleness_epochs, 99), "epochs",
       sz(c.staleness_epochs)},
      {"router.update_retries", static_cast<double>(c.update_retries),
       "count", 1},
      {"router.reroutes", static_cast<double>(c.reroutes), "count", 1},
      {"server.read_self_us_p50", P(L.server_self_us, 50), "us",
       sz(L.server_self_us)},
      {"server.read_self_us_p99", P(L.server_self_us, 99), "us",
       sz(L.server_self_us)},
      {"server.shed",
       static_cast<double>(c.shed),
       "count", 1},
      {"server.served_during_maintenance",
       static_cast<double>(c.served_during_maintenance), "count", 1},
      {"server.batch_p99_ms", P(c.batch_p99_ms, 50), "ms", c.batches_applied},
      {"index.read_us_p50", P(L.index_read_us, 50), "us", sz(L.index_read_us)},
      {"index.topk_us_p50", P(L.index_topk_us, 50), "us", sz(L.index_topk_us)},
      {"index.apply_batch_ms_p50", P(L.apply_batch_ms, 50), "ms",
       sz(L.apply_batch_ms)},
      {"index.apply_batch_ms_p90", P(L.apply_batch_ms, 90), "ms",
       sz(L.apply_batch_ms)},
      {"index.restore_ms_p50", P(L.restore_ms, 50), "ms", sz(L.restore_ms)},
      {"index.push_ms_p50", P(L.push_ms, 50), "ms", sz(L.push_ms)},
      {"index.across_sources_share",
       Ratio(static_cast<double>(L.across_sources_batches), batches), "share",
       L.replica_batches},
      {"core.push_ops_per_update",
       Ratio(static_cast<double>(k.push_ops), updates), "ops/update",
       L.replica_batches},
      {"core.edge_traversals_per_update",
       Ratio(static_cast<double>(k.edge_traversals), updates), "ops/update",
       L.replica_batches},
      {"core.restore_ops_per_update",
       Ratio(static_cast<double>(k.restore_ops), updates), "ops/update",
       L.replica_batches},
      {"core.iterations_per_batch",
       Ratio(static_cast<double>(k.iterations), batches), "rounds",
       L.replica_batches},
      {"core.dense_round_share",
       Ratio(static_cast<double>(k.dense_rounds),
             static_cast<double>(k.iterations)),
       "share", L.replica_batches},
      {"core.random_bytes_per_update",
       Ratio(static_cast<double>(k.random_bytes), updates), "bytes/update",
       L.replica_batches},
      {"estimator.apply_batch_ms_p50", P(L.estimator_apply_ms, 50), "ms",
       sz(L.estimator_apply_ms)},
      {"estimator.apply_batch_ms_p90", P(L.estimator_apply_ms, 90), "ms",
       sz(L.estimator_apply_ms)},
      {"estimator.pair_us_p50", P(L.pair_us, 50), "us", sz(L.pair_us)},
      {"estimator.hybrid_us_p50", P(L.hybrid_us, 50), "us", sz(L.hybrid_us)},
      {"estimator.reverse_topk_us_p50", P(L.reverse_topk_us, 50), "us",
       sz(L.reverse_topk_us)},
      {"storage.log_batch_ms_p50", P(L.log_batch_ms, 50), "ms",
       sz(L.log_batch_ms)},
      {"storage.log_batch_ms_p90", P(L.log_batch_ms, 90), "ms",
       sz(L.log_batch_ms)},
      {"storage.log_bytes_per_update",
       Ratio(static_cast<double>(L.log_bytes), updates), "bytes/update",
       sz(L.log_batch_ms)},
      {"storage.checkpoint_ms", P(L.checkpoint_ms, 50), "ms",
       sz(L.checkpoint_ms)},
      {"loadgen.late_p99_ms", P(t.late_ms, 99), "ms", sz(t.late_ms)},
      {"host.wakeup_late_p99_ms", host_late_p99, "ms", 1000},
      {"trace.overhead_read_p50_ms",
       ReadP(t.read, 50, seconds) - ReadP(u.read, 50, seconds), "ms",
       t.read.attempted},
      {"trace.overhead_read_p99_ms",
       ReadP(t.read, 99, seconds) - ReadP(u.read, 99, seconds), "ms",
       t.read.attempted},
      {"trace.overhead_update_ack_p50_ms",
       AckP(t.ack, 50, seconds) - AckP(u.ack, 50, seconds), "ms",
       t.ack.attempted},
      {"trace.overhead_feed_updates_per_s",
       t.FeedUpdatesPerSecond() - u.FeedUpdatesPerSecond(), "1/s",
       t.b2b_updates},
  };
}

void WriteSpans(const std::string& path, const RunResult& r) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (const Span& s : r.spans) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"round\": %d, \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"id\": %" PRIu64
                 ", \"parent\": %" PRIu64 ", \"request\": %" PRIu64 "}\n",
                 s.name, s.round, s.start_us, s.end_us, s.id, s.parent,
                 s.request);
  }
  std::fclose(f);
}

void PrintMetric(const Metric& m) {
  std::printf("  %-36s %16.6f %-12s samples=%" PRId64 "\n", m.name.c_str(),
              m.value, m.unit, m.samples);
}

std::string Arg(int argc, char** argv, const std::string& key,
                const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == "--" + key) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  // Whatever happens, the process ends within 170 s.
  alarm(165);
  const std::string name = Arg(argc, argv, "workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload read_tcp|feed_replicated|"
                 "estimator_sharded --seed N --seconds S --trace 0|1 "
                 "[--workdir DIR] [--spans FILE]\n");
    return 2;
  }
  RunOptions opt;
  opt.workload = workload;
  opt.seed = std::stoull(Arg(argc, argv, "seed", "1"));
  opt.seconds = std::stod(Arg(argc, argv, "seconds", "10"));
  const bool trace = Arg(argc, argv, "trace", "0") == "1";
  opt.workdir = Arg(argc, argv, "workdir",
                    ".bench_build/work-" + std::to_string(getpid()));
  const std::string spans_path = Arg(
      argc, argv, "spans",
      ".bench_build/spans/" + name + "-seed" + std::to_string(opt.seed) +
          ".jsonl");

  // A traced run makes two passes of half the length each, so it takes
  // about as long as an untraced one.
  if (trace) opt.seconds /= 2;
  const RunResult untraced = RunRounds(opt, kRounds);
  RunResult traced;
  if (trace) {
    opt.traced = true;
    traced = RunRounds(opt, kRounds);
    WriteSpans(spans_path, traced);
  }
  const double host_late_p99 =
      Percentile(perfbench::ProbeWakeupLateness(1000, 1.0), 99);
  const RunResult& shown = trace ? traced : untraced;

  std::printf(
      "RUN {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"cores\": %u, \"simd\": \"%s\", "
      "\"numa_nodes\": %d, \"omp_threads\": %d, \"offered_reads_per_s\": %g, "
      "\"offered_batches_per_s\": %g, \"fixed_rate_share\": %g, "
      "\"estimator_share\": %g, \"vertices\": %u, \"window_edges\": %zu, "
      "\"updates_per_batch\": %zu, \"loadgen_late_p99_ms\": %.4f, "
      "\"host_wakeup_late_p99_ms\": %.4f, \"samples\": {\"read\": %" PRId64
      ", \"estimator\": %" PRId64 ", \"ack\": %" PRId64
      ", \"b2b_updates\": %" PRId64 ", \"gate_checks\": %" PRId64 "}}\n",
      workload->name, opt.seed, opt.seconds, trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      dppr::SimdLevelName(dppr::ActiveSimdLevel()),
      dppr::numa::GetTopology().NumNodes(), dppr::NumThreads(),
      workload->read_rate, workload->feed_rate, kFixedRateShare,
      workload->estimator_share, shown.num_vertices, shown.window_edges,
      shown.updates_per_batch, Percentile(shown.late_ms, 99), host_late_p99,
      shown.read.attempted, shown.estimator.attempted,
      shown.ack.attempted, shown.b2b_updates, shown.gate_checks);

  std::printf("end-to-end (%s run):\n", trace ? "untraced" : "this");
  const std::vector<Metric> e2e =
      EndToEnd(untraced, *workload, opt.seconds);
  for (const Metric& m : e2e) PrintMetric(m);
  std::printf("pooled percentiles (not windowed): read p50 %.4f p99 %.4f "
              "ms; estimator p50 %.4f p99 %.4f ms; ack p50 %.4f p90 %.4f ms; "
              "back-to-back-phase reads %" PRId64 " (failed %" PRId64 ")\n",
              untraced.read.P(50), untraced.read.P(99),
              untraced.estimator.P(50), untraced.estimator.P(99),
              untraced.ack.P(50), untraced.ack.P(90),
              untraced.b2b_reads.attempted, untraced.b2b_reads.failed);
  for (int r = 0; r < kRounds; ++r) {
    LatencyLog reads;
    for (size_t i = 0; i < untraced.read.ms.size(); ++i) {
      if (untraced.read.at_s[i] >= kRoundSpacingSeconds * r &&
          untraced.read.at_s[i] < kRoundSpacingSeconds * (r + 1)) {
        reads.Ok(untraced.read.ms[i], untraced.read.at_s[i]);
      }
    }
    std::printf("round %d: set-up %.4f s, windowed read p50 %.4f p99 %.4f "
                "ms\n",
                r, untraced.setup_s[r], ReadP(reads, 50, opt.seconds),
                ReadP(reads, 99, opt.seconds));
  }
  std::vector<Metric> layer;
  if (trace) {
    std::printf("per-layer (traced run; spans in %s):\n", spans_path.c_str());
    layer = PerLayer(traced, untraced, opt.seconds, host_late_p99);
    for (const Metric& m : layer) PrintMetric(m);
  }

  const int64_t violations = untraced.violations + traced.violations;
  const bool correct = violations == 0;
  if (!correct) {
    std::printf("GATE VIOLATED: %" PRId64
                " violation(s); replay with --workload %s --seed %" PRIu64
                "\n",
                violations, workload->name, opt.seed);
  }
  const RunResult& counted = trace ? traced : untraced;
  const int64_t attempted = Attempted(counted);
  const int64_t failed = Failed(counted);

  // The result line: the gated metrics only (see BENCHMARK.json).
  static const char* const kGatedEndToEnd[] = {
      "setup_s", "update_ack_p50_ms", "feed_updates_per_s", "peak_rss_mb"};
  std::string metrics;
  const auto add = [&](const Metric& m) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), m.value,
                  m.unit);
    metrics += buf;
  };
  if (trace) {
    for (const Metric& m : layer) add(m);
  } else {
    for (const char* gated : kGatedEndToEnd) {
      for (const Metric& m : e2e) {
        if (m.name == gated) add(m);
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
