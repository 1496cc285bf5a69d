// ParallelLocalPush engine: drives a push-kernel variant to convergence.
//
// A team run mirrors Algorithm 3's outer structure: a positive phase
// followed by a negative phase, each iterating the variant's kernel until
// the frontier drains. A run nested in an enclosing parallel region
// (PprIndex's across-source push) runs on one thread instead and pushes
// residuals of either sign in one signed phase (see RunSigned). Frontier
// initialization supports both the literal full vertex scan of Algorithm 3
// line 1 and the batch-local seeding from the vertices RestoreInvariant
// touched (equivalent results; see PprOptions).

#ifndef DPPR_CORE_PARALLEL_PUSH_H_
#define DPPR_CORE_PARALLEL_PUSH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/frontier.h"
#include "core/ppr_options.h"
#include "core/ppr_state.h"
#include "core/push_kernels.h"
#include "graph/dynamic_graph.h"
#include "util/counters.h"

namespace dppr {

/// \brief Work and timing accounting for one maintenance step (a batch, a
/// single update, or an initialization).
struct PushStats {
  PushCounters counters;
  /// Rounds of a team run's positive and negative phase. A signed run
  /// (ParallelPushEngine::RunSigned) counts its rounds only in
  /// counters.iterations and leaves both at 0.
  int pos_iterations = 0;
  int neg_iterations = 0;
  double restore_seconds = 0.0;
  double push_seconds = 0.0;
  /// Sum over updates of |Δr(u)| applied by RestoreInvariant — the
  /// quantity Lemma 3 bounds.
  double total_residual_change = 0.0;
  /// Frontier size per iteration, recorded when
  /// PprOptions::record_iteration_trace is set (bench_fig9).
  std::vector<int64_t> frontier_trace;

  void Reset() { *this = PushStats(); }
  double TotalSeconds() const { return restore_seconds + push_seconds; }

  /// Accumulates another step's stats into this one (PprIndex sums the
  /// per-source stats of a batch this way). Summed *_seconds count total
  /// CPU-side work and OVERSTATE wall clock when sources ran concurrently
  /// — wall clock is reported separately (PprIndex::LastBatchSeconds).
  void Add(const PushStats& other);
};

/// \brief Reusable parallel push driver (owns frontier + scratch buffers).
class ParallelPushEngine {
 public:
  ParallelPushEngine(const PprOptions& options, int max_threads);

  /// Pushes until every |r| <= eps, accumulating into *stats. `touched`
  /// seeds the frontier (ignored under full-scan init).
  ///
  /// Outside a parallel region the run forks thread teams and takes the
  /// paper's two monotone phases (positives, then negatives) through the
  /// configured variant's kernel: monotone residuals are what let the
  /// threads of a round detect duplicate enqueues without locks (§4.2).
  /// Under an enclosing region (PprIndex's across-source push) the run is
  /// one thread's, so monotonicity buys nothing: Run hands it to RunSigned.
  void Run(const DynamicGraph& g, PprState* state,
           std::span<const VertexId> touched, PushStats* stats);

  /// The one-thread run: pushes residuals of either sign in ONE signed
  /// phase with kOpt's round structure, whatever the variant, so
  /// opposite-signed waves of a batch cancel instead of travelling the same
  /// paths one after the other. An all-positive run (Initialize) pushes bit
  /// for bit what a one-thread kOpt run does. Run calls it when nested;
  /// an index at one thread asks for it directly
  /// (DynamicPpr::SetSignedPush).
  void RunSigned(const DynamicGraph& g, PprState* state,
                 std::span<const VertexId> touched, PushStats* stats);

  const PprOptions& options() const { return options_; }

  /// Approximate heap footprint of the reusable buffers (frontier, dedup
  /// flags, kernel scratch, per-thread counters). The engine-pool sizing
  /// argument rests on this number growing with pool size, not with the
  /// number of maintained sources.
  size_t ApproxScratchBytes() const;

 private:
  int64_t InitFrontier(const DynamicGraph& g, const PprState& state,
                       Phase phase, std::span<const VertexId> touched);
  void RunPhase(const DynamicGraph& g, PprState* state, Phase phase,
                std::span<const VertexId> touched, PushStats* stats);

  PprOptions options_;
  Frontier frontier_;
  PushScratch scratch_;
  ThreadCounters thread_counters_;
  /// Frontier membership of a signed run, one byte per vertex (current
  /// frontier or already enqueued for the next round). Plain bytes: a
  /// signed run has no concurrent writers. All clear between runs.
  std::vector<uint8_t> queued_;
  /// A signed run's current and next frontier, n + 1 slots each (see
  /// RunSigned).
  std::vector<VertexId> signed_current_;
  std::vector<VertexId> signed_next_;
};

}  // namespace dppr

#endif  // DPPR_CORE_PARALLEL_PUSH_H_
