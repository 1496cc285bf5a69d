// Micro-benchmarks of the push-kernel family — the before/after evidence
// for the adaptive dense/sparse direction switch and the runtime-dispatched
// SIMD sweeps (src/core/README.md).
//
//   ./bench_micro_kernels [--scale=12] [--degree=10] [--eps=1e-6]
//       [--reps=5] [--batch=64] [--batch_reps=200] [--seed=9]
//       [--json=PATH]
//
// Two row families:
//  * primitive rows — the three cpu_dispatch.h primitives (masked residual
//    snapshot, neighbor-run gather-sum, fused self-update+flag) timed per
//    SIMD level over flat arrays; the scalar/AVX2 gap in isolation.
//  * push rows — full maintenance kernels (opt = Algorithm 4 baseline,
//    adaptive = Ligra switch, dense = adaptive with the threshold forced
//    so every round pulls, signed = the one-thread signed run every
//    serving push takes) in two regimes: "scratch" (from-scratch
//    initialization: huge frontiers, the dense kernel's home turf) and
//    "batch" (small sliding batches: tiny frontiers, where adaptive must
//    match opt within noise because it IS opt there).
//
// The binary shape-checks that adaptive and signed each converge to the
// estimates opt does (<= 2 eps apart) before reporting, so a throughput row can
// never come from a kernel that silently diverged. --json=PATH writes the
// same {"bench", "config", "rows"} document shape as bench_server_load;
// CI uploads it as the BENCH_micro_kernels.json artifact.

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/cpu_dispatch.h"
#include "core/dynamic_ppr.h"
#include "gen/generators.h"
#include "graph/dynamic_graph.h"
#include "util/args.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/timer.h"

using namespace dppr;  // NOLINT

namespace {

struct Row {
  std::string kernel;
  std::string simd;
  std::string regime;
  int64_t reps = 0;
  double seconds = 0.0;
  double m_ops_per_s = 0.0;  ///< primitive: Melems/s; push: Medge-traversals/s
  int64_t iterations = 0;    ///< push rows only
  int64_t dense_rounds = 0;  ///< push rows only
};

void PrintRow(const Row& row) {
  std::printf("%-12s %-8s %-10s reps=%-5lld %9.4fs %10.1f Mops/s"
              " iters=%-6lld dense=%lld\n",
              row.kernel.c_str(), row.simd.c_str(), row.regime.c_str(),
              static_cast<long long>(row.reps), row.seconds, row.m_ops_per_s,
              static_cast<long long>(row.iterations),
              static_cast<long long>(row.dense_rounds));
}

bool WriteJson(const std::string& path, const ArgParser& args,
               const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"micro_kernels\",\n");
  std::fprintf(f,
               "  \"config\": {\"scale\": %lld, \"degree\": %lld, "
               "\"eps\": %g, \"seed\": %lld, \"threads\": %d, "
               "\"simd_hw\": \"%s\"},\n",
               static_cast<long long>(args.GetInt("scale", 12)),
               static_cast<long long>(args.GetInt("degree", 10)),
               args.GetDouble("eps", 1e-6),
               static_cast<long long>(args.GetInt("seed", 9)), NumThreads(),
               SimdLevelName(HardwareSimdLevel()));
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"simd\": \"%s\", "
                 "\"regime\": \"%s\", \"reps\": %lld, \"seconds\": %.6f, "
                 "\"m_ops_per_s\": %.2f, \"iterations\": %lld, "
                 "\"dense_rounds\": %lld}%s\n",
                 row.kernel.c_str(), row.simd.c_str(), row.regime.c_str(),
                 static_cast<long long>(row.reps), row.seconds,
                 row.m_ops_per_s, static_cast<long long>(row.iterations),
                 static_cast<long long>(row.dense_rounds),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

// ----------------------------------------------------------- primitives

std::vector<Row> BenchPrimitives(const std::vector<SimdLevel>& levels) {
  constexpr int64_t kN = 1 << 20;
  constexpr int64_t kRun = 16;  ///< neighbor-run length for the gather
  constexpr int64_t kReps = 20;
  std::vector<double> r(kN), p(kN, 0.0), w(kN);
  std::vector<uint8_t> flags(kN), next(kN);
  std::vector<VertexId> idx(kN);
  Rng rng(31);
  for (int64_t i = 0; i < kN; ++i) {
    r[i] = 1e-6 * static_cast<double>(rng.NextBounded(1000));
    flags[i] = rng.NextBounded(2) != 0 ? 1 : 0;
    idx[i] = static_cast<VertexId>(rng.NextBounded(kN));
  }

  std::vector<Row> rows;
  volatile double sink = 0.0;
  for (SimdLevel level : levels) {
    {
      WallTimer t;
      for (int64_t rep = 0; rep < kReps; ++rep) {
        simdops::BuildMaskedResiduals(level, flags.data(), r.data(), w.data(),
                                      kN);
      }
      const double s = t.Seconds();
      rows.push_back({"build_mask", SimdLevelName(level), "flat", kReps, s,
                      static_cast<double>(kReps * kN) / s / 1e6, 0, 0});
    }
    {
      WallTimer t;
      double acc = 0.0;
      for (int64_t rep = 0; rep < kReps; ++rep) {
        for (int64_t lo = 0; lo + kRun <= kN; lo += kRun) {
          acc += simdops::GatherSum(level, w.data(), idx.data() + lo, kRun);
        }
      }
      sink = sink + acc;
      const double s = t.Seconds();
      rows.push_back({"gather_sum", SimdLevelName(level), "flat", kReps, s,
                      static_cast<double>(kReps * (kN / kRun) * kRun) / s /
                          1e6,
                      0, 0});
    }
    {
      WallTimer t;
      int64_t flagged = 0;
      for (int64_t rep = 0; rep < kReps; ++rep) {
        flagged += simdops::SelfUpdateAndFlag(level, p.data(), r.data(),
                                              w.data(), 0.15, 1e-7,
                                              /*positive_phase=*/true,
                                              next.data(), 0, kN);
        // Undo so every rep sees the same state.
        for (int64_t i = 0; i < kN; ++i) {
          p[i] -= 0.15 * w[i];
          r[i] += w[i];
        }
      }
      sink = sink + static_cast<double>(flagged);
      const double s = t.Seconds();
      rows.push_back({"self_update", SimdLevelName(level), "flat", kReps, s,
                      static_cast<double>(kReps * kN) / s / 1e6, 0, 0});
    }
  }
  (void)sink;
  return rows;
}

// ---------------------------------------------------------- push kernels

struct KernelConfig {
  std::string name;
  PushVariant variant = PushVariant::kOpt;
  int64_t dense_threshold_den = 20;
  /// Push through ParallelPushEngine::RunSigned (DynamicPpr::SetSignedPush).
  bool signed_push = false;
};

PprOptions MakeOptions(const KernelConfig& kernel, double eps,
                       bool force_scalar) {
  PprOptions options;
  options.eps = eps;
  options.variant = kernel.variant;
  options.dense_threshold_den = kernel.dense_threshold_den;
  options.force_scalar_kernels = force_scalar;
  return options;
}

Row BenchScratch(const DynamicGraph& g, const KernelConfig& kernel,
                 double eps, bool force_scalar, int64_t reps,
                 std::vector<double>* estimates_out) {
  const PprOptions options = MakeOptions(kernel, eps, force_scalar);
  double seconds = 0.0;
  int64_t edges = 0, iters = 0, dense = 0;
  for (int64_t rep = 0; rep < reps; ++rep) {
    DynamicPpr ppr(const_cast<DynamicGraph*>(&g), 0, options);
    ppr.SetSignedPush(kernel.signed_push);
    WallTimer t;
    ppr.Initialize();
    seconds += t.Seconds();
    edges += ppr.last_stats().counters.edge_traversals;
    iters += ppr.last_stats().counters.iterations;
    dense += ppr.last_stats().counters.dense_rounds;
    if (rep + 1 == reps && estimates_out != nullptr) {
      *estimates_out = ppr.Estimates();
    }
  }
  return {kernel.name,
          force_scalar ? "scalar" : SimdLevelName(ActiveSimdLevel()),
          "scratch",
          reps,
          seconds,
          seconds > 0 ? static_cast<double>(edges) / seconds / 1e6 : 0.0,
          iters,
          dense};
}

Row BenchBatch(const DynamicGraph& base, const KernelConfig& kernel,
               double eps, bool force_scalar, int64_t batch_size,
               int64_t batch_reps, uint64_t seed) {
  const PprOptions options = MakeOptions(kernel, eps, force_scalar);
  DynamicGraph g = base;  // ApplyBatch mutates the graph
  DynamicPpr ppr(&g, 0, options);
  ppr.SetSignedPush(kernel.signed_push);
  ppr.Initialize();
  const auto n = g.NumVertices();
  Rng rng(seed);
  double seconds = 0.0;
  int64_t edges = 0, iters = 0, dense = 0;
  for (int64_t rep = 0; rep < batch_reps; ++rep) {
    UpdateBatch inserts;
    inserts.reserve(static_cast<size_t>(batch_size));
    for (int64_t i = 0; i < batch_size; ++i) {
      inserts.push_back(EdgeUpdate::Insert(
          static_cast<VertexId>(rng.NextBounded(static_cast<uint64_t>(n))),
          static_cast<VertexId>(rng.NextBounded(static_cast<uint64_t>(n)))));
    }
    UpdateBatch deletes;
    deletes.reserve(inserts.size());
    for (const EdgeUpdate& u : inserts) {
      deletes.push_back(EdgeUpdate::Delete(u.u, u.v));
    }
    WallTimer t;
    ppr.ApplyBatch(inserts);
    edges += ppr.last_stats().counters.edge_traversals;
    iters += ppr.last_stats().counters.iterations;
    dense += ppr.last_stats().counters.dense_rounds;
    ppr.ApplyBatch(deletes);  // restore the graph: steady-state reps
    seconds += t.Seconds();
    edges += ppr.last_stats().counters.edge_traversals;
    iters += ppr.last_stats().counters.iterations;
    dense += ppr.last_stats().counters.dense_rounds;
  }
  return {kernel.name,
          force_scalar ? "scalar" : SimdLevelName(ActiveSimdLevel()),
          "batch",
          batch_reps,
          seconds,
          seconds > 0 ? static_cast<double>(edges) / seconds / 1e6 : 0.0,
          iters,
          dense};
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double max_diff = 0.0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  if (auto st = args.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const int64_t scale = args.GetInt("scale", 12);
  const int64_t degree = args.GetInt("degree", 10);
  const double eps = args.GetDouble("eps", 1e-6);
  const int64_t reps = args.GetInt("reps", 5);
  const int64_t batch_size = args.GetInt("batch", 64);
  const int64_t batch_reps = args.GetInt("batch_reps", 200);
  const auto seed = static_cast<uint64_t>(args.GetInt("seed", 9));
  const std::string json_path = args.GetString("json", "");
  for (const std::string& key : args.UnusedKeys()) {
    std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
    return 1;
  }

  std::printf("micro-kernels: rmat scale=%lld degree=%lld eps=%g threads=%d "
              "simd_hw=%s\n\n",
              static_cast<long long>(scale), static_cast<long long>(degree),
              eps, NumThreads(), SimdLevelName(HardwareSimdLevel()));

  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (HardwareSimdLevel() != SimdLevel::kScalar) {
    levels.push_back(HardwareSimdLevel());
  }

  std::vector<Row> rows = BenchPrimitives(levels);
  for (const Row& row : rows) PrintRow(row);
  std::printf("\n");

  const DynamicGraph g = DynamicGraph::FromEdges(
      GenerateRmat({.scale = static_cast<int>(scale),
                    .avg_degree = static_cast<double>(degree),
                    .seed = seed}),
      static_cast<VertexId>(int64_t{1} << scale));

  const std::vector<KernelConfig> kernels = {
      {"opt", PushVariant::kOpt, 20},
      {"adaptive", PushVariant::kAdaptive, 20},
      // Threshold forced huge: every non-empty round runs dense — the
      // pull sweep in isolation.
      {"dense", PushVariant::kAdaptive, int64_t{1} << 60},
      {"signed", PushVariant::kOpt, 20, /*signed_push=*/true},
  };

  std::vector<double> opt_estimates, adaptive_estimates, signed_estimates;
  for (const KernelConfig& kernel : kernels) {
    const bool uses_simd = kernel.variant == PushVariant::kAdaptive;
    for (SimdLevel level : levels) {
      const bool force_scalar = level == SimdLevel::kScalar;
      if (!uses_simd && !force_scalar) continue;  // kOpt has no SIMD path
      std::vector<double>* capture = nullptr;
      if (force_scalar && kernel.name == "opt") capture = &opt_estimates;
      if (force_scalar && kernel.name == "adaptive") {
        capture = &adaptive_estimates;
      }
      if (force_scalar && kernel.name == "signed") capture = &signed_estimates;
      Row row = BenchScratch(g, kernel, eps, force_scalar, reps, capture);
      PrintRow(row);
      rows.push_back(row);
      row = BenchBatch(g, kernel, eps, force_scalar, batch_size, batch_reps,
                       seed + 1);
      PrintRow(row);
      rows.push_back(row);
    }
  }

  // Shape check: the adaptive kernel and the signed run must land on the
  // same answer as the Algorithm 4 baseline — all are eps-approximations
  // of the same vector, so their estimates can differ by at most 2 eps.
  bool ok = true;
  std::printf("\n");
  for (const auto& [name, estimates] :
       {std::pair{"adaptive", &adaptive_estimates},
        std::pair{"signed", &signed_estimates}}) {
    const double diff = MaxAbsDiff(opt_estimates, *estimates);
    const bool row_ok = !opt_estimates.empty() && !estimates->empty() &&
                        diff <= 2.0 * eps;
    std::printf("shape-check: %s matches opt: %s (max |dp| = %.3g)\n", name,
                row_ok ? "OK" : "VIOLATED", diff);
    ok = ok && row_ok;
  }

  if (!json_path.empty()) {
    if (!WriteJson(json_path, args, rows)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu rows)\n", json_path.c_str(), rows.size());
  }
  return ok ? 0 : 1;
}
