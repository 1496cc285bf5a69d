// The parallel push kernels — one per row of the paper's Table 3, plus the
// sorting-and-aggregate alternative of footnote 2.
//
//                     | eager propagation | local duplicate detection
//   kOpt (Alg. 4)     |        yes        |        yes
//   kEager            |        yes        |        no (UniqueEnqueue)
//   kDupDetect        |        no         |        yes
//   kVanilla (Alg. 3) |        no         |        no (UniqueEnqueue)
//
// Every kernel executes ONE frontier iteration: two parallel sessions
// (self-update and neighbor-propagation) separated by a barrier, emitting
// the next frontier into `frontier`'s thread buffers. The engine
// (parallel_push.cc) loops kernels until the frontier drains and owns the
// flush/swap between iterations.

#ifndef DPPR_CORE_PUSH_KERNELS_H_
#define DPPR_CORE_PUSH_KERNELS_H_

#include <utility>
#include <vector>

#include "core/frontier.h"
#include "core/ppr_options.h"
#include "core/ppr_state.h"
#include "core/push_common.h"
#include "graph/dynamic_graph.h"
#include "util/counters.h"
#include "util/macros.h"
#include "util/parallel.h"

namespace dppr {

/// Scratch buffers reused across iterations (allocated once per engine).
struct PushScratch {
  /// Residual values of frontier vertices — the paper's S (Alg. 3) / E
  /// (Alg. 4) sets, stored positionally (frontier index -> value).
  std::vector<double> frontier_w;

  /// Per-thread (target, increment) buffers for the sort-aggregate kernel.
  struct alignas(kCacheLineSize) ThreadPairs {
    std::vector<std::pair<VertexId, double>> items;
  };
  static_assert(alignof(ThreadPairs) == kCacheLineSize,
                "per-thread pair buffers must be cache-line aligned or "
                "neighboring threads false-share the vector headers");
  std::vector<ThreadPairs> thread_pairs;

  /// Merged pair buffer for the sort-aggregate kernel.
  std::vector<std::pair<VertexId, double>> merged_pairs;

  /// All-vertex masked residual snapshot for the dense pull sweep
  /// (push_adaptive.cc): w[v] = in-frontier ? r[v] : 0.
  std::vector<double> dense_w;
};

/// Everything one push iteration needs.
struct PushContext {
  const DynamicGraph* graph = nullptr;
  PprState* state = nullptr;
  double alpha = 0.15;
  double eps = 1e-7;
  Phase phase = Phase::kPos;
  Frontier* frontier = nullptr;
  PushScratch* scratch = nullptr;
  ThreadCounters* counters = nullptr;
  /// False when the engine decided this round is too small to parallelize
  /// (§3.1's small-frontier observation): the kernel then runs on one
  /// thread and may use plain arithmetic instead of atomics.
  bool parallel_round = true;
  /// Engine options, consulted by the adaptive kernel for the dense
  /// threshold and the scalar-kernel override. May be null (tests driving
  /// kernels directly); defaults then apply.
  const PprOptions* options = nullptr;
};

void PushIterationVanilla(const PushContext& ctx);
void PushIterationEager(const PushContext& ctx);
void PushIterationDupDetect(const PushContext& ctx);
void PushIterationOpt(const PushContext& ctx);
void PushIterationSortAggregate(const PushContext& ctx);

/// One bulk-synchronous dense (pull-direction) iteration: snapshot masked
/// residuals, gather per destination over its out-neighbor run, fused
/// self-update + full-scan next-frontier regeneration. Requires the
/// frontier in dense mode. No atomics — each destination has one writer.
void PushIterationDense(const PushContext& ctx);

/// Direction-adaptive iteration (the Ligra heuristic): goes dense when
/// |frontier| + sum of frontier in-degrees exceeds |E| / dense_threshold_den,
/// converting the frontier representation as needed, and otherwise
/// delegates to PushIterationOpt. Only team runs reach it; a push nested
/// in an enclosing parallel region never goes dense (see push_adaptive.cc).
void PushIterationAdaptive(const PushContext& ctx);

namespace internal {

/// Loop over frontier indices; body(i, tid). Runs inline on one thread
/// when the engine flagged the round as sequential.
template <typename Body>
void ForEachFrontierIndex(int64_t n, bool parallel, Body&& body) {
  if (!parallel || NumThreads() == 1) {
    for (int64_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
#pragma omp parallel for schedule(dynamic, 64)
  for (int64_t i = 0; i < n; ++i) {
    body(i, omp_get_thread_num());
  }
}

/// r += delta returning the before-value; atomic only when the round has
/// concurrent writers. The branch is perfectly predicted within a round.
inline double FetchAdd(double* addr, double delta, bool atomic) {
  if (atomic) return AtomicFetchAddDouble(addr, delta);
  const double pre = *addr;
  *addr = pre + delta;
  return pre;
}

inline double Load(const double* addr, bool atomic) {
  return atomic ? AtomicLoadDouble(addr) : *addr;
}

}  // namespace internal
}  // namespace dppr

#endif  // DPPR_CORE_PUSH_KERNELS_H_
