// The recalculation engine: the application layer that makes formula-graph
// queries latency-critical (Sec. I of the paper).
//
// On every update the engine asks the formula graph for the transitive
// dependents of the changed cell — exactly the step DataSpread performs
// before returning control to the user — then re-evaluates those formulas.
// The dirty-set identification time and size are reported per update so
// benchmarks and examples can attribute latency to the graph query.

#ifndef TACO_EVAL_RECALC_H_
#define TACO_EVAL_RECALC_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "eval/evaluator.h"
#include "eval/value_version.h"
#include "graph/dependency_graph.h"
#include "sheet/sheet.h"

namespace taco {

struct CutoffContext;  // eval/wave_plan.h

/// Outcome of one update (or one batch of updates).
struct RecalcResult {
  std::vector<Range> dirty;        ///< Ranges of formulas needing recalc.
  uint64_t dirty_cells = 0;        ///< Total dirty formula cells.
  uint64_t recalculated = 0;       ///< Formulas actually re-evaluated.
  /// Dirty formulas pruned by value-change cutoff (prior value restored
  /// instead of recomputed). Zero when cutoff is off or didn't apply.
  /// `recalculated + cells_skipped_cutoff == dirty_formulas` always.
  uint64_t cells_skipped_cutoff = 0;
  /// Total dirty formula cells the pass was responsible for (evaluated
  /// plus cutoff-skipped).
  uint64_t dirty_formulas = 0;
  uint64_t recalc_passes = 0;      ///< Merged recalc passes (1 per batch).
  uint64_t edits_applied = 0;      ///< Sheet/graph mutations performed.
  double find_dependents_ms = 0;   ///< Time spent in FindDependents.
  double eval_ms = 0;              ///< Time spent re-evaluating formulas.
  /// The same two phases in integer nanoseconds (the ms fields are
  /// derived from these). Trace spans and histograms keep ns end-to-end;
  /// a FindDependents probe on a small sheet runs in single-digit µs,
  /// which a double-ms aggregate quietly rounds into noise.
  uint64_t find_dependents_ns = 0;
  uint64_t eval_ns = 0;
  uint64_t barrier_wait_ns = 0;    ///< Wave-barrier wait (parallel only).
  uint64_t waves = 0;              ///< Topological waves executed (0 = inline).
  uint64_t max_wave_cells = 0;     ///< Largest wave, in formula cells.
};

/// How the engine re-evaluates a dirty set. kParallel only takes effect
/// when an executor is plugged in (set_executor); without one the engine
/// silently stays serial, so taco_core keeps no thread dependency.
enum class RecalcMode {
  kSerial,    ///< One thread, dirty-range enumeration order.
  kParallel,  ///< Wave-scheduled across the plugged-in executor.
};

/// What a recalc pass over a dirty set does, without evaluating
/// anything: the summary of the WavePlan (eval/wave_plan.h) the pass
/// builds and runs. This is the inspectable unit behind the EXPLAIN
/// protocol verb; since execution runs the same plan, its waves and
/// granularity always match the pass a mutation would run.
struct RecalcPlan {
  enum class Granularity {
    kSerialInline,   ///< Evaluated on the calling thread, no waves.
    kCellGranular,   ///< Per-cell nodes, Kahn waves.
    kRangeGranular,  ///< Disjoint dirty ranges as nodes, R-tree edges.
  };

  Granularity granularity = Granularity::kSerialInline;
  /// The threshold that made the decision, as a compact machine-greppable
  /// token (e.g. "dirty_area(12)<min_parallel_cells(64)").  Never empty.
  std::string decision;
  int width = 1;                     ///< Wave-execution width (threads).
  /// The plan models a cutoff pass: the width/min_parallel_cells serial
  /// short-circuits don't apply (cutoff always builds waves when the
  /// granularity budgets allow), and `wave_cutoff_eligible` is filled.
  /// A serial-inline cutoff plan prunes nothing.
  bool cutoff = false;
  uint64_t dirty_ranges = 0;         ///< Disjoint dirty rectangles.
  uint64_t dirty_area = 0;           ///< Total cells covered by them.
  uint64_t dirty_formulas = 0;       ///< Formula cells among them.
  uint64_t edges = 0;                ///< Dependency edges the plan expanded.
  uint64_t cycle_cells = 0;          ///< Nodes on/downstream of cycles.
  std::vector<uint64_t> wave_cells;  ///< Work units per topological wave.
  /// Per-wave upper bound on cutoff pruning (cutoff plans only): work
  /// units with no direct seed input. Whether they actually skip depends
  /// on runtime values, so execution's skip count is <= the sum of this.
  std::vector<uint64_t> wave_cutoff_eligible;

  uint64_t waves() const { return wave_cells.size(); }
  uint64_t max_wave_cells() const;
  std::string_view granularity_name() const;
};

/// The pluggable parallel-execution seam between the engine (taco_core,
/// thread-free) and the wave scheduler (taco_sched, owns the threads).
/// An executor must evaluate EVERY dirty formula cell of `dirty` into
/// `evaluator`'s cache with results cell-for-cell identical to the
/// serial path — including #CYCLE!/error outcomes — before returning
/// (src/sched/recalc_scheduler.h documents how that determinism is
/// achieved).
class RecalcExecutor {
 public:
  /// What the executor did, for RecalcResult's wave metrics.
  struct Outcome {
    uint64_t recalculated = 0;    ///< Formula cells evaluated.
    /// Formula cells pruned by value-change cutoff (prior restored).
    uint64_t cells_skipped_cutoff = 0;
    /// Total formula cells of the pass (recalculated + skipped).
    uint64_t dirty_formulas = 0;
    uint64_t waves = 0;           ///< Topological waves executed.
    uint64_t max_wave_cells = 0;  ///< Largest wave, in formula cells.
    uint64_t barrier_wait_ns = 0; ///< Time the coordinator spent blocked
                                  ///  on wave barriers (contention signal:
                                  ///  eval_ns minus this is compute).
  };

  virtual ~RecalcExecutor() = default;

  /// Evaluates every dirty formula cell. `dirty` ranges are disjoint;
  /// the evaluator has already been invalidated for them. When `cutoff`
  /// is non-null the executor MAY prune dependents of value-unchanged
  /// cells, restoring their captured prior values instead — the cache
  /// must still end up cell-for-cell identical to a full pass.
  virtual Outcome Execute(const Sheet& sheet, Evaluator* evaluator,
                          std::span<const Range> dirty,
                          const CutoffContext* cutoff) = 0;

  /// Plans (without executing) the pass Execute would run for `dirty`.
  /// Read-only and side-effect-free.  `seeds` (the edited rectangles)
  /// and `cutoff` describe the cutoff configuration the pass would run
  /// with; they only affect the plan when cutoff is on.  The default
  /// implementation, for executors that do not plan, reports a
  /// serial-inline plan with decision "no_planner".
  virtual RecalcPlan Plan(const Sheet& sheet, std::span<const Range> dirty,
                          std::span<const Range> seeds, bool cutoff) const;
};

/// One deferred cell mutation, for batched application. Constructed via
/// the factory helpers; `range` is used by kClearRange, `cell` by the
/// others.
struct Edit {
  enum class Kind { kSetNumber, kSetText, kSetFormula, kClearRange };

  Kind kind = Kind::kSetNumber;
  Cell cell;
  Range range;
  double number = 0;
  std::string text;  ///< Text value or formula source (no leading '=').

  static Edit SetNumber(const Cell& cell, double value);
  static Edit SetText(const Cell& cell, std::string value);
  static Edit SetFormula(const Cell& cell, std::string text);
  static Edit ClearRange(const Range& range);
};

/// An ordered list of edits applied with a single merged dirty-set
/// computation and recalc pass (RecalcEngine::ApplyBatch).
using EditBatch = std::vector<Edit>;

/// Couples a Sheet, a DependencyGraph, and an Evaluator into a live
/// spreadsheet engine. The graph implementation is pluggable — pass a
/// TacoGraph for compressed operation or a NoCompGraph as the baseline.
class RecalcEngine {
 public:
  /// `sheet` and `graph` must outlive the engine. The graph must already
  /// reflect the sheet's dependencies (BuildGraphFromSheet).
  RecalcEngine(Sheet* sheet, DependencyGraph* graph);

  /// Updates a literal cell and recalculates its dependents.
  Result<RecalcResult> SetNumber(const Cell& cell, double value);
  Result<RecalcResult> SetText(const Cell& cell, std::string value);

  /// Replaces a cell's formula (clear + insert in the graph) and
  /// recalculates.
  Result<RecalcResult> SetFormula(const Cell& cell, std::string_view text);

  /// Clears a range of cells, removing their dependencies.
  Result<RecalcResult> ClearRange(const Range& range);

  /// Applies every edit of `batch` in order, then performs ONE merged
  /// dirty-set computation and recalc pass instead of one per edit — the
  /// serving-path batching the paper's latency argument calls for. Each
  /// dirty formula is re-evaluated at most once per batch regardless of
  /// how many edits dirtied it; the result's `recalc_passes` is 1 and
  /// `edits_applied` is batch.size().
  ///
  /// Batches are not atomic: a failing edit (e.g. a formula parse error)
  /// stops application at that edit (applying nothing of it), but the
  /// edits before it stay applied and their merged recalc still runs
  /// before the error is returned, so the engine is always left
  /// consistent. When `partial` is non-null and the batch fails, it
  /// receives the recalc outcome of the edits that DID apply (zeroed
  /// when none did) — callers tracking work done must not lose it just
  /// because the Result carries an error.
  Result<RecalcResult> ApplyBatch(const EditBatch& batch,
                                  RecalcResult* partial = nullptr);

  /// Current value of a cell (cached; evaluates on demand).
  Value GetValue(const Cell& cell) { return evaluator_.EvaluateCell(cell); }

  /// What a mutation of `target` would recalculate, without mutating:
  /// the dependency-closure half of EXPLAIN.  Runs the exact dirty-set
  /// recipe of RecalculateMerged (FindDependents per disjoint seed,
  /// union disjointified) and then asks the active executor to Plan the
  /// pass; an engine in serial mode (or without an executor) plans the
  /// pass it runs itself: width 1, serial inline without cutoff, waves
  /// with it.  Non-const only because graph queries update
  /// the graph's query counters; no sheet/graph/evaluator/version state
  /// changes.
  struct ExplainInfo {
    std::vector<Range> seeds;        ///< Disjointified seed rectangles.
    std::vector<Range> dirty;        ///< The would-be dirty ranges.
    uint64_t dirty_cells = 0;        ///< Area covered by `dirty`.
    uint64_t find_dependents_ns = 0; ///< Closure query time (measured).
    RecalcMode mode = RecalcMode::kSerial;
    bool parallel_active = false;    ///< kParallel AND an executor plugged.
    bool cutoff = false;             ///< Value-change cutoff enabled.
    RecalcPlan plan;
  };
  ExplainInfo Explain(const Range& target);

  /// The version-publication hook at the recalc commit point: builds the
  /// immutable ValueVersion succeeding the last published one, covering
  /// `touched` (the commit's seed rectangles plus its dirty ranges).
  /// Serial and parallel commits call this identically — by the
  /// executor's contract the evaluator cache holds the same committed
  /// values either way, so the published version is mode-independent.
  /// NOT thread-safe; the caller serializes it with mutations (the
  /// session lock) and hands the result to readers via an atomic store.
  std::shared_ptr<const ValueVersion> PublishVersion(
      std::span<const Range> touched);

  /// The most recently published version (null before the first commit).
  const std::shared_ptr<const ValueVersion>& latest_version() const {
    return version_;
  }

  /// Plugs in (or clears) the parallel executor; `executor` must outlive
  /// the engine. Switching the executor or mode between operations is
  /// safe — recalc consults both at the start of each pass.
  void set_executor(RecalcExecutor* executor) { executor_ = executor; }

  /// Selects the recalc path. kParallel without an executor runs serial.
  void set_mode(RecalcMode mode) { mode_ = mode; }
  RecalcMode mode() const { return mode_; }

  /// Toggles value-change cutoff: recalc passes compare each committed
  /// value against its prior and prune dependents reachable only
  /// through unchanged cells (eval/wave_plan.h documents why results stay
  /// cell-for-cell identical). Applies to the serial path directly and
  /// is forwarded to the executor on parallel passes. Off by default.
  void set_cutoff(bool cutoff) { cutoff_ = cutoff; }
  bool cutoff() const { return cutoff_; }

 private:
  /// Invalidates and re-evaluates everything depending on `changed`.
  RecalcResult Recalculate(const Range& changed);

  /// Merged variant: one FindDependents sweep over every changed range,
  /// one de-duplicated re-evaluation pass.
  RecalcResult RecalculateMerged(std::span<const Range> changed);

  /// Mutates sheet + graph for one edit without recalculating; appends
  /// the changed rectangle to `changed`.
  Status ApplyEditNoRecalc(const Edit& edit, std::vector<Range>* changed);

  Sheet* sheet_;
  DependencyGraph* graph_;
  Evaluator evaluator_;
  RecalcExecutor* executor_ = nullptr;
  RecalcMode mode_ = RecalcMode::kSerial;
  bool cutoff_ = false;
  std::shared_ptr<const ValueVersion> version_;  ///< Last published.
};

}  // namespace taco

#endif  // TACO_EVAL_RECALC_H_
