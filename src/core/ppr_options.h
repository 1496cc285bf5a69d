// Configuration shared by every PPR maintenance engine.

#ifndef DPPR_CORE_PPR_OPTIONS_H_
#define DPPR_CORE_PPR_OPTIONS_H_

#include <string>

#include "util/status.h"

namespace dppr {

/// \brief Which push implementation maintains the vector (paper Table 3
/// plus the sequential baseline and the footnote-2 alternative).
enum class PushVariant {
  kSequential,    ///< Algorithm 2 (CPU-Base / CPU-Seq)
  kVanilla,       ///< Algorithm 3: no eager, UniqueEnqueue dedup
  kEager,         ///< eager propagation only (global dedup flags)
  kDupDetect,     ///< local duplicate detection only (Alg. 3 order)
  kOpt,           ///< Algorithm 4: eager + local duplicate detection
  kSortAggregate, ///< footnote 2: sort-and-aggregate instead of atomics
  kAdaptive,      ///< per-iteration dense/sparse switch over kOpt + the
                  ///< SIMD dense pull sweep (see src/core/README.md)
};

const char* PushVariantName(PushVariant variant);

/// Parses "opt" / "vanilla" / "eager" / "dupdetect" / "seq" /
/// "sortaggregate" / "adaptive" (case-sensitive).
Status ParsePushVariant(const std::string& name, PushVariant* variant);

/// \brief Parameters of the maintenance scheme (paper Table 2 defaults).
struct PprOptions {
  double alpha = 0.15;  ///< teleport probability
  double eps = 1e-7;    ///< error threshold (|pi - p| <= eps on convergence)
  /// kAdaptive is the serving default: it runs the kOpt push until an
  /// iteration's frontier goes wide, then switches to the SIMD dense
  /// sweep — on every workload measured it is at-or-better than kOpt,
  /// which remains available for the paper's Table 3 ablations.
  PushVariant variant = PushVariant::kAdaptive;

  /// If true, parallel frontier initialization scans all vertices (the
  /// literal Algorithm 3 line 1); if false, only vertices touched by
  /// RestoreInvariant are scanned — equivalent outcome (untouched vertices
  /// satisfy |r| <= eps by the previous convergence) but O(batch) instead
  /// of O(n). Benches flip this for the init-strategy ablation.
  bool full_scan_frontier_init = false;

  /// Record per-iteration frontier sizes (bench_fig9 reads these).
  bool record_iteration_trace = false;

  /// Run every round through the parallel code path (atomics included)
  /// even when the round is small or one thread is configured. Used by
  /// the Fig. 10 scalability bench so thread counts compare the same
  /// per-operation costs; leave false for best wall-clock (the engine
  /// then falls back to plain sequential arithmetic for tiny rounds).
  bool force_parallel_rounds = false;

  /// Estimated edge traversals below which a round runs sequentially
  /// with plain arithmetic (the §3.1 small-frontier fallback). Break-even
  /// depends on core count and atomic-add cost; the default suits 2-8
  /// cores, and `bench_ablation --thresholds=...` sweeps it.
  int64_t parallel_round_min_work = 8192;

  /// kAdaptive's direction switch (the Ligra heuristic): an iteration
  /// goes DENSE when |frontier| + sum of frontier in-degrees exceeds
  /// |E| / dense_threshold_den. 20 is Ligra's classic denominator; raise
  /// it to switch earlier (a huge value forces dense whenever the
  /// frontier is non-empty — the bench/test forcing knob), set 0 to
  /// disable dense mode entirely (kAdaptive then degenerates to kOpt).
  /// Applies only to team runs: a push nested in an enclosing parallel
  /// region (PprIndex's across-source push) runs on one thread in the
  /// engine's signed one-phase loop and never reaches a round kernel, so
  /// it never goes dense (dense would remove no atomics there yet sweep
  /// all |V| + |E|).
  int64_t dense_threshold_den = 20;

  /// Pins the vectorized sweeps to their scalar fallbacks regardless of
  /// what the CPU supports (runtime dispatch stays, the choice is just
  /// forced). The DPPR_FORCE_SCALAR_KERNELS environment variable forces
  /// the same thing process-wide; see core/cpu_dispatch.h.
  bool force_scalar_kernels = false;

  Status Validate() const;
};

}  // namespace dppr

#endif  // DPPR_CORE_PPR_OPTIONS_H_
