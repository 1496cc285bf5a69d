// DynamicPpr — the library's main entry point.
//
// Maintains an eps-approximate PPR vector for one source over a mutating
// graph, implementing the full two-step scheme of the paper: per update,
// apply the mutation + RestoreInvariant (Algorithm 1); per batch, one
// local push (Algorithm 2 sequential, or Algorithms 3/4 parallel,
// selected by PprOptions::variant).
//
// Typical use:
//   DynamicGraph graph = ...;               // initial window
//   PprOptions options;                     // alpha/eps/variant
//   DynamicPpr ppr(&graph, source, options);
//   ppr.Initialize();                       // from-scratch computation
//   for (UpdateBatch batch : stream) ppr.ApplyBatch(batch);
//   double score = ppr.Estimates()[v];      // |pi(v) - score| <= eps

#ifndef DPPR_CORE_DYNAMIC_PPR_H_
#define DPPR_CORE_DYNAMIC_PPR_H_

#include <memory>
#include <span>
#include <vector>

#include "core/parallel_push.h"
#include "core/ppr_options.h"
#include "core/ppr_state.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"

namespace dppr {

/// \brief Incrementally maintained eps-approximate PPR vector.
///
/// Does not own the graph; the graph must outlive this object. All updates
/// to the graph while a DynamicPpr is attached must flow through
/// ApplyBatch / ApplySingleUpdates (or, for externally applied mutations,
/// RestoreForUpdate) so the invariant stays intact.
class DynamicPpr {
 public:
  DynamicPpr(DynamicGraph* graph, VertexId source, const PprOptions& options);

  /// Engine-injecting constructor: pushes run on `engine` (not owned; may
  /// be null, reverting to the self-owned engine). PprIndex maintains K
  /// sources over a pool of min(K, threads) engines through this — state
  /// is per-source, engines are pooled.
  DynamicPpr(DynamicGraph* graph, VertexId source, const PprOptions& options,
             ParallelPushEngine* engine);

  /// Computes the vector from scratch on the current graph: resets to the
  /// unit-residual state (p = 0, r = e_source; Figure 3 a(1)/b(1)) and
  /// pushes to convergence.
  void Initialize();

  /// Batch maintenance (the paper's method): applies every update to the
  /// graph, restores the invariant per update, then runs ONE push.
  void ApplyBatch(const UpdateBatch& batch);

  /// CPU-Base protocol: restore + full push after EVERY single update.
  /// Orders of magnitude slower on batches; kept as the paper's baseline.
  void ApplySingleUpdates(const UpdateBatch& batch);

  /// Estimates p (index = vertex id). Valid after Initialize().
  const std::vector<double>& Estimates() const { return state_.p; }

  /// Residuals r; max |r| <= eps after any maintenance call.
  const std::vector<double>& Residuals() const { return state_.r; }

  const PprState& state() const { return state_; }
  VertexId source() const { return state_.source; }
  const PprOptions& options() const { return options_; }
  DynamicGraph* graph() { return graph_; }
  const DynamicGraph* graph() const { return graph_; }

  /// Work/timing of the most recent Initialize/ApplyBatch/
  /// ApplySingleUpdates call.
  const PushStats& last_stats() const { return stats_; }

  /// Clears accumulated stats (used by external orchestration before a
  /// RestoreForUpdate / RunPushOnTouched sequence).
  void ResetStats() { stats_.Reset(); }

  /// Credits externally timed restore work (PprIndex times each source's
  /// whole journal replay instead of paying two clock reads per update).
  void AddRestoreSeconds(double seconds) {
    stats_.restore_seconds += seconds;
  }

  /// Adopts a previously checkpointed state (see core/serialization.h).
  /// The state's source must match this instance's and its vector length
  /// must not exceed the current graph (it is grown to |V| if shorter).
  /// The caller is responsible for the checkpoint matching the graph —
  /// resuming against a different graph silently yields garbage, exactly
  /// like any other database restored against the wrong WAL.
  void RestoreFromState(PprState state);

  // --- Building blocks for external orchestration (PprIndex) ------------

  /// Restores the invariant for `update` assuming the graph mutation was
  /// ALREADY applied by the caller. Accumulates the touched vertex.
  void RestoreForUpdate(const EdgeUpdate& update);

  /// RestoreForUpdate against a journaled post-update out-degree instead
  /// of a live graph read. Because the graph is not consulted, many
  /// sources can replay the same journal concurrently (each owns its
  /// state) while still observing per-update intermediate graph
  /// correctness — the foundation of PprIndex's source-parallel restore.
  void RestoreForUpdate(const EdgeUpdate& update, VertexId dout_after);

  /// Coalesced restore: re-solves the invariant at `u` directly against
  /// the current graph, replacing the replay of EVERY journaled update
  /// whose first endpoint is u (see SolveInvariantAtVertex for why the
  /// result is path-independent). Accumulates u as touched. The caller
  /// reports the replays this absorbed via NoteCoalescedRestores.
  void RestoreVertexDirect(VertexId u);

  /// Accounts `skipped` journal entries that were absorbed by
  /// RestoreVertexDirect calls instead of being replayed (keeps the
  /// before/after pair restore_input_updates vs restore_ops meaningful).
  void NoteCoalescedRestores(int64_t skipped) {
    stats_.counters.restore_input_updates += skipped;
  }

  /// Pushes the residuals accumulated by RestoreForUpdate calls and clears
  /// the touched set. Resets stats beforehand unless `accumulate`.
  void RunPushOnTouched(bool accumulate = false);

  /// Replaces the push engine (non-owning). Pass nullptr to revert to the
  /// lazily created self-owned engine. The engine's alpha/eps/variant must
  /// match this instance's options. Callers are responsible for never
  /// running two sources on one engine concurrently.
  void SetEngine(ParallelPushEngine* engine);

  /// Runs this instance's engine pushes as the one-thread signed run
  /// (ParallelPushEngine::RunSigned) instead of letting Run choose the
  /// shape. PprIndex turns it on while it pushes at one thread; off by
  /// default, so a standalone instance keeps its variant's kernel.
  void SetSignedPush(bool on) { signed_push_ = on; }

  /// The engine pushes currently run on (null until the first parallel
  /// push when no engine was injected).
  const ParallelPushEngine* engine() const {
    return external_engine_ != nullptr ? external_engine_
                                       : owned_engine_.get();
  }

 private:
  void Push(std::span<const VertexId> touched);

  DynamicGraph* graph_;
  PprOptions options_;
  PprState state_;
  ParallelPushEngine* external_engine_ = nullptr;  ///< injected, not owned
  std::unique_ptr<ParallelPushEngine> owned_engine_;  ///< lazy fallback
  bool signed_push_ = false;
  std::vector<VertexId> touched_;
  PushStats stats_;
};

}  // namespace dppr

#endif  // DPPR_CORE_DYNAMIC_PPR_H_
