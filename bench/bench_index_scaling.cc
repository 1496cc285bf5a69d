// Index scaling — PprIndex (pooled engines, source-parallel maintenance)
// vs the legacy serial multi-source loop (the old MultiSourcePpr: one
// engine per source, sources restored and pushed one after another),
// swept over K sources × batch size.
//
//   ./bench_index_scaling [--dataset=pokec] [--scale_shift=2]
//       [--sources=1,8,64,256] [--batch_ratios=0.0005,0.002]
//       [--slides=6] [--threads=0] [--query_threads=2] [--eps=1e-6]
//       [--json=PATH]
//
// --json=PATH writes the sweep in the same machine-readable document
// shape as bench_server_load (a "config" object plus one "rows" entry
// per cell), so the CI perf artifacts share one schema and the bench
// trajectory is diffable across commits with the same tooling.
//
// Reported per cell: wall-clock maintenance throughput in source-updates/s
// (K maintained vectors × edge updates consumed, per second of wall time),
// the index-over-legacy speedup, the index's push work next to it (push
// ops and edge traversals per edge update, summed over sources, and the
// share of push rounds that ran dense), the reusable scratch held by each
// strategy, and — with --query_threads > 0 — the snapshot-query rate
// sustained WHILE the index applied its batches (qry/s@maint), the
// baseline column for the serving benchmark (bench_server_load). The
// legacy loop's scratch grows with K (one engine per source); the index's
// grows with min(K, pool size). On a single hardware thread the two
// strategies do the same serial work and the speedup hovers around 1; the
// across-source win appears as threads grow (the speedup shape-check only
// engages at >= 8 threads and with --query_threads=0, since concurrent
// readers steal cycles only from the index side of the comparison).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/metrics.h"
#include "bench/common.h"
#include "graph/graph_stats.h"
#include "index/ppr_index.h"
#include "util/parallel.h"
#include "util/table_printer.h"
#include "util/timer.h"

using namespace dppr;        // NOLINT
using namespace dppr::bench; // NOLINT

namespace {

// The old MultiSourcePpr, reproduced as the baseline: every source owns
// its engine; per update the graph mutates once and every source restores
// against it; then every source pushes, serially.
struct LegacySerialIndex {
  DynamicGraph* graph;
  std::vector<std::unique_ptr<DynamicPpr>> pprs;

  LegacySerialIndex(DynamicGraph* g, const std::vector<VertexId>& sources,
                    const PprOptions& options)
      : graph(g) {
    for (VertexId s : sources) {
      pprs.push_back(std::make_unique<DynamicPpr>(g, s, options));
    }
  }

  void Initialize() {
    for (auto& ppr : pprs) ppr->Initialize();
  }

  void ApplyBatch(const UpdateBatch& batch) {
    for (auto& ppr : pprs) ppr->ResetStats();
    for (const EdgeUpdate& update : batch) {
      graph->Apply(update);
      for (auto& ppr : pprs) ppr->RestoreForUpdate(update);
    }
    for (auto& ppr : pprs) ppr->RunPushOnTouched(/*accumulate=*/true);
  }

  size_t ScratchBytes() const {
    size_t bytes = 0;
    for (const auto& ppr : pprs) {
      if (ppr->engine() != nullptr) bytes += ppr->engine()->ApproxScratchBytes();
    }
    return bytes;
  }
};

std::vector<int64_t> ParseInt64List(const std::string& csv) {
  std::vector<int64_t> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) out.push_back(std::stoll(token));
  return out;
}

std::vector<double> ParseDoubleList(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string token;
  while (std::getline(ss, token, ',')) out.push_back(std::stod(token));
  return out;
}

std::string FmtBytes(size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f KiB",
                static_cast<double>(bytes) / 1024.0);
  return buf;
}

/// One (K, batch) cell of the sweep, as it lands in the JSON artifact.
struct BenchRow {
  int64_t sources = 0;
  int64_t batch = 0;
  double legacy_upd_per_s = 0.0;
  double index_upd_per_s = 0.0;
  double speedup = 0.0;
  std::string mode;  ///< "across" or "intra"
  /// Index push work over the timed batches; printed, not gated.
  double push_ops_per_update = 0.0;
  double edge_traversals_per_update = 0.0;
  double dense_round_share = 0.0;
  double qry_per_s_at_maint = 0.0;  ///< 0 with --query_threads=0
  int64_t legacy_scratch_bytes = 0;
  int64_t index_scratch_bytes = 0;
  int64_t engines = 0;
};

/// Same self-describing document shape as bench_server_load's artifact:
/// {"bench": ..., "config": {...}, "rows": [{...}]}. Hand-rolled — the
/// values are numbers and fixed labels, nothing needs escaping.
bool WriteJson(const std::string& path, const ArgParser& args,
               const std::vector<BenchRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"index_scaling\",\n");
  // "variant" is part of the config on purpose: the regression gate
  // compares configs verbatim, so switching the push kernel re-seeds the
  // baseline instead of comparing different kernels' throughput.
  std::fprintf(f,
               "  \"config\": {\"dataset\": \"%s\", \"threads\": %d, "
               "\"query_threads\": %lld, \"slides\": %lld, \"eps\": %g, "
               "\"scale_shift\": %lld, \"variant\": \"%s\"},\n",
               args.GetString("dataset", "pokec").c_str(), NumThreads(),
               static_cast<long long>(args.GetInt("query_threads", 2)),
               static_cast<long long>(args.GetInt("slides", 6)),
               args.GetDouble("eps", 1e-6),
               static_cast<long long>(args.GetInt("scale_shift", 2)),
               args.GetString("variant", "adaptive").c_str());
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    std::fprintf(
        f,
        "    {\"sources\": %lld, \"batch\": %lld, "
        "\"legacy_upd_per_s\": %.1f, \"index_upd_per_s\": %.1f, "
        "\"speedup\": %.3f, \"mode\": \"%s\", "
        "\"push_ops_per_update\": %.1f, "
        "\"edge_traversals_per_update\": %.1f, \"dense_round_share\": %.3f, "
        "\"qry_per_s_at_maint\": %.1f, \"legacy_scratch_bytes\": %lld, "
        "\"index_scratch_bytes\": %lld, \"engines\": %lld}%s\n",
        static_cast<long long>(row.sources),
        static_cast<long long>(row.batch), row.legacy_upd_per_s,
        row.index_upd_per_s, row.speedup, row.mode.c_str(),
        row.push_ops_per_update, row.edge_traversals_per_update, row.dense_round_share,
        row.qry_per_s_at_maint,
        static_cast<long long>(row.legacy_scratch_bytes),
        static_cast<long long>(row.index_scratch_bytes),
        static_cast<long long>(row.engines),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  if (auto st = args.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  PrintHeader("Index scaling",
              "PprIndex vs legacy serial multi-source loop (K x batch)",
              args);

  const int threads = static_cast<int>(args.GetInt("threads", 0));
  if (threads > 0) SetNumThreads(threads);
  const int query_threads =
      static_cast<int>(args.GetInt("query_threads", 2));
  const int slides = static_cast<int>(args.GetInt("slides", 6));
  const double eps = args.GetDouble("eps", 1e-6);
  const auto source_counts =
      ParseInt64List(args.GetString("sources", "1,8,64,256"));
  const auto batch_ratios =
      ParseDoubleList(args.GetString("batch_ratios", "0.0005,0.002"));
  const int scale_shift = static_cast<int>(args.GetInt("scale_shift", 2));
  const std::string json_path = args.GetString("json", "");
  PushVariant variant = PushVariant::kAdaptive;
  if (auto st =
          ParsePushVariant(args.GetString("variant", "adaptive"), &variant);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const bool numa = args.GetBool("numa", false);
  std::vector<BenchRow> json_rows;

  DatasetSpec spec;
  if (auto st = FindDataset(args.GetString("dataset", "pokec"), &spec);
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("threads=%d query_threads=%d\n\n", NumThreads(),
              query_threads);
  TablePrinter table({"K", "batch", "legacy_upd/s", "index_upd/s",
                      "speedup", "mode", "pushes/upd", "edges/upd",
                      "dense",
                      "qry/s@maint", "legacy_scratch",
                      "index_scratch", "engines"});

  // The recorded batches depend on the ratio only, so the workload is
  // generated once per ratio and every K replays the same batches.
  for (double ratio : batch_ratios) {
    Workload workload = MakeWorkload(spec, scale_shift);
    SlidingWindow window(&workload.stream, 0.1);
    const auto initial = window.InitialEdges();
    const EdgeCount batch_size = window.BatchForRatio(ratio);
    std::vector<UpdateBatch> batches;
    for (int s = 0; s < slides && window.CanSlide(batch_size); ++s) {
      batches.push_back(window.NextBatch(batch_size));
    }
    if (batches.empty()) continue;

    for (int64_t num_sources : source_counts) {
      DynamicGraph legacy_graph =
          DynamicGraph::FromEdges(initial, workload.num_vertices);
      DynamicGraph index_graph =
          DynamicGraph::FromEdges(initial, workload.num_vertices);
      const std::vector<VertexId> sources = TopOutDegreeVertices(
          legacy_graph, static_cast<VertexId>(num_sources));

      PprOptions options;
      options.eps = eps;
      options.variant = variant;
      LegacySerialIndex legacy(&legacy_graph, sources, options);
      IndexOptions index_options;
      index_options.ppr = options;
      index_options.numa_aware_engines = numa;
      PprIndex index(&index_graph, sources, index_options);
      legacy.Initialize();
      index.Initialize();

      WallTimer legacy_timer;
      for (const UpdateBatch& batch : batches) legacy.ApplyBatch(batch);
      const double legacy_seconds = legacy_timer.Seconds();

      // Concurrent snapshot readers hammer the index during its timed
      // maintenance loop: queries served per second while ApplyBatch runs
      // is the serving-layer baseline (readers are lock-free snapshot
      // loads, but they do compete for cores with the maintenance work).
      std::atomic<bool> serving{query_threads > 0};
      std::atomic<int64_t> queries_served{0};
      std::vector<std::thread> readers;
      for (int t = 0; t < query_threads; ++t) {
        readers.emplace_back([&, t] {
          VertexId v = static_cast<VertexId>(t);
          int64_t local = 0;
          while (serving.load(std::memory_order_acquire)) {
            const size_t i = static_cast<size_t>(local) % sources.size();
            (void)index.QueryVertex(i, v);
            v = (v + 7) % index_graph.NumVertices();
            ++local;
          }
          queries_served.fetch_add(local, std::memory_order_relaxed);
        });
      }
      PushCounters work;
      WallTimer index_timer;
      for (const UpdateBatch& batch : batches) {
        index.ApplyBatch(batch);
        work.Add(index.last_batch_stats().sources_total.counters);
      }
      const double index_seconds = index_timer.Seconds();
      serving.store(false, std::memory_order_release);
      for (auto& reader : readers) reader.join();

      // Cross-validate: both strategies maintain the same eps guarantee
      // over identically evolved graphs.
      double worst_err = 0.0;
      for (size_t i = 0; i < sources.size(); ++i) {
        worst_err = std::max(worst_err,
                             MaxAbsError(legacy.pprs[i]->Estimates(),
                                         index.Source(i).Estimates()));
      }
      ShapeCheck("K=" + std::to_string(num_sources) +
                     " all sources agree within 2*eps",
                 worst_err <= 2 * eps, "err=" + std::to_string(worst_err));

      const double edge_updates = static_cast<double>(batches.size()) * 2.0 *
                                  static_cast<double>(batch_size);
      const double total_source_updates =
          static_cast<double>(sources.size()) * edge_updates;
      const double legacy_tp = total_source_updates / legacy_seconds;
      const double index_tp = total_source_updates / index_seconds;
      const double speedup = legacy_seconds / index_seconds;
      const double pushes_per_update =
          static_cast<double>(work.push_ops) / edge_updates;
      const double edges_per_update =
          static_cast<double>(work.edge_traversals) / edge_updates;
      const double dense_share =
          work.iterations > 0 ? static_cast<double>(work.dense_rounds) /
                                    static_cast<double>(work.iterations)
                              : 0.0;

      table.AddRow(
          {TablePrinter::FmtInt(num_sources),
           TablePrinter::FmtInt(2 * batch_size),
           TablePrinter::FmtSci(legacy_tp, 2),
           TablePrinter::FmtSci(index_tp, 2),
           TablePrinter::Fmt(speedup, 2),
           index.last_batch_stats().across_sources ? "across" : "intra",
           TablePrinter::FmtSci(pushes_per_update, 2),
           TablePrinter::FmtSci(edges_per_update, 2),
           TablePrinter::Fmt(dense_share, 2),
           query_threads > 0
               ? TablePrinter::FmtSci(
                     static_cast<double>(queries_served.load()) /
                         index_seconds,
                     2)
               : "-",
           FmtBytes(legacy.ScratchBytes()),
           FmtBytes(index.ApproxScratchBytes()),
           TablePrinter::FmtInt(index.NumPooledEngines())});

      BenchRow row;
      row.sources = num_sources;
      row.batch = 2 * batch_size;
      row.legacy_upd_per_s = legacy_tp;
      row.index_upd_per_s = index_tp;
      row.speedup = speedup;
      row.mode =
          index.last_batch_stats().across_sources ? "across" : "intra";
      row.push_ops_per_update = pushes_per_update;
      row.edge_traversals_per_update = edges_per_update;
      row.dense_round_share = dense_share;
      row.qry_per_s_at_maint =
          query_threads > 0 && index_seconds > 0
              ? static_cast<double>(queries_served.load()) / index_seconds
              : 0.0;
      row.legacy_scratch_bytes =
          static_cast<int64_t>(legacy.ScratchBytes());
      row.index_scratch_bytes =
          static_cast<int64_t>(index.ApproxScratchBytes());
      row.engines = index.NumPooledEngines();
      json_rows.push_back(std::move(row));

      // Scratch must scale with min(K, pool), not K: once K exceeds the
      // pool, the legacy loop's per-source engines dominate the index's.
      if (num_sources > 2 * index.NumPooledEngines()) {
        ShapeCheck("K=" + std::to_string(num_sources) +
                       " pooled scratch below legacy per-source scratch",
                   index.ApproxScratchBytes() < legacy.ScratchBytes(),
                   FmtBytes(index.ApproxScratchBytes()) + " vs " +
                       FmtBytes(legacy.ScratchBytes()));
      }
      // Readers must observe a non-trivial maintenance window to be
      // scheduled at all — on small cells (tiny K, one core) the whole
      // loop can finish in microseconds, so only assert when the window
      // was long enough to make "zero queries served" meaningful.
      if (query_threads > 0 && index_seconds > 0.05) {
        ShapeCheck("K=" + std::to_string(num_sources) +
                       " queries served during maintenance",
                   queries_served.load() > 0,
                   std::to_string(queries_served.load()));
      }
      // The acceptance bar from the issue: >= 2x for 64-source maintenance
      // on >= 8 threads. Only meaningful with real hardware parallelism
      // and without concurrent readers skewing the index side.
      if (NumThreads() >= 8 && num_sources >= 64 && query_threads == 0) {
        ShapeCheck("K=" + std::to_string(num_sources) +
                       " index >= 2x legacy on >= 8 threads",
                   speedup >= 2.0,
                   "speedup=" + std::to_string(speedup));
      }
    }
  }
  table.Print();
  if (!json_path.empty()) {
    if (!WriteJson(json_path, args, json_rows)) {
      std::fprintf(stderr, "could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu rows to %s\n", json_rows.size(),
                json_path.c_str());
  }
  return ShapeCheckExitCode();
}
