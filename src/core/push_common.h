// Shared vocabulary of the push kernels.

#ifndef DPPR_CORE_PUSH_COMMON_H_
#define DPPR_CORE_PUSH_COMMON_H_

#include <cstdint>

namespace dppr {

/// Grain of every dense (all-vertex) kernel sweep, shared so each kernel
/// does not invent its own: 512 vertices of byte flags span exactly 8
/// cache lines, so two threads working adjacent grains never write the
/// same line (the LSGraph Map.cpp grainsize observation), and 512 doubles
/// amortize one OpenMP dynamic-scheduling claim over 4 KiB of sweep.
inline constexpr int64_t kDenseGrain = 512;

/// How many neighbors ahead the CSR-run walks prefetch. Adjacency runs
/// are contiguous but the residuals they index are random-access; eight
/// slots ahead covers the L2 miss latency at push-loop issue rates.
inline constexpr int64_t kPrefetchDistance = 8;

/// Software prefetch of a line about to be read / written. Hints only —
/// correctness never depends on them.
inline void PrefetchRead(const void* addr) {
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/1);
}
inline void PrefetchWrite(const void* addr) {
  __builtin_prefetch(addr, /*rw=*/1, /*locality=*/1);
}

/// The two passes of a team push and of Algorithm 2: positive residuals
/// first, then negative ones (Algorithm 2 lines 1-4, Algorithm 3 lines
/// 1-6). Within a phase all pushed mass has one sign, so residuals move
/// monotonically — the property local duplicate detection relies on
/// (§4.2). A push nested in an enclosing parallel region runs on one
/// thread, needs no such detection, and pushes both signs in one signed
/// phase instead (ParallelPushEngine::Run).
enum class Phase { kPos, kNeg };

/// pushCond of Algorithm 3: does residual `r` activate a vertex?
inline bool PushCond(double r, double eps, Phase phase) {
  return phase == Phase::kPos ? r > eps : r < -eps;
}

/// PushCondLocal of Algorithm 4: did this atomic increment carry the
/// residual across the activation threshold? Exactly one incrementing
/// thread observes the crossing (monotonicity), so the caller may enqueue
/// without any shared duplicate check.
inline bool PushCondLocal(double r_pre, double r_cur, double eps,
                          Phase phase) {
  return !PushCond(r_pre, eps, phase) && PushCond(r_cur, eps, phase);
}

}  // namespace dppr

#endif  // DPPR_CORE_PUSH_COMMON_H_
