// The parallel recalculation scheduler: wave-based execution of the
// dirty subgraph.
//
// After a batch of edits, RecalcEngine knows WHAT to re-evaluate (the
// merged dirty ranges from FindDependents). Dependent-cell recomputation
// is a topological traversal of the dirty subgraph, which parallelizes
// naturally by level: every unit in wave k depends — among dirty units —
// only on units in waves < k, so one wave's units can be evaluated
// concurrently and the next wave starts after a barrier.
//
// The scheduler owns only the threads. Planning and execution are the
// thread-free builder and runner of eval/wave_plan.h, the same pair the
// serial engine runs at width 1: Plan() returns the built plan's summary
// and Execute() builds the plan, then runs it with this scheduler's pool
// injected as the wave dispatcher. So EXPLAIN prints the plan Execute
// runs. The builder picks the granularity per pass by budget:
//   * Cell-granular (the default): each dirty formula cell is a unit;
//     its direct precedents come from its parsed references, intersected
//     with the dirty set through a (col, row)-sorted index. Bounded by
//     `max_cells` dirty area and `max_edges` distinct cell-level edges.
//   * Range-granular (the fallback): when a cell-granular budget fails,
//     each disjoint dirty range's formula cells form one unit and an
//     R-tree over the ranges resolves reference overlaps into range-level
//     edges. A range evaluates in enumeration order inside one task, so
//     intra-range chains cost nothing to schedule.
//   * Serial inline: without cutoff, dirty sets below
//     `min_parallel_cells` or a width of 1; and, cutoff or not, dirty
//     sets that fail both granularities' budgets (`max_ranges`). Evaluated
//     on the calling thread exactly like RecalcMode::kSerial.
//
// Determinism contract — parallel results are CELL-FOR-CELL IDENTICAL
// to serial recalc, errors and #CYCLE! included:
//   * Acyclic dirty formulas are pure functions of committed inputs:
//     same AST, same operand values, same result, on any thread. A wave
//     unit's dirty precedents are committed by earlier waves' barriers;
//     its clean precedents never change during the pass (a formula that
//     transitively depends on an edit is dirty by definition), so
//     worker-local lazy evaluation of clean cells is race-free and
//     yields the serial values.
//   * Workers never write the shared evaluator. Each worker evaluates
//     into a private overlay evaluator (read-through to the shared
//     cache); the runner commits a wave's results single-threaded after
//     the wave's WaitGroup barrier.
//   * Cells on or downstream of reference cycles never become ready in
//     Kahn's algorithm. These leftovers are evaluated serially, in the
//     same dirty-range enumeration order as the serial path, AFTER all
//     waves — so cycle detection sees the same first-touch order and
//     reports exactly the serial #CYCLE! pattern. (An intra-range cycle
//     in range-granular mode stays inside one task, which evaluates the
//     range in enumeration order — again the serial order.)
//
// This determinism is what makes the MVCC read path mode-independent:
// when Execute returns, the shared evaluator cache holds exactly the
// values a serial pass would have produced, so the ValueVersion the
// session publishes at this commit point (RecalcEngine::PublishVersion,
// still under the session lock) is identical whichever path ran — the
// final barrier doubles as the version boundary readers observe.
//
// The scheduler holds no per-pass state: one instance is safely shared
// by every session of a service, and concurrent Execute calls interleave
// on the shared ThreadPool without blocking each other's progress.

#ifndef TACO_SCHED_RECALC_SCHEDULER_H_
#define TACO_SCHED_RECALC_SCHEDULER_H_

#include <cstdint>
#include <span>

#include "eval/recalc.h"
#include "eval/wave_plan.h"
#include "sched/thread_pool.h"

namespace taco {

/// The planner's thresholds and budgets (eval/wave_plan.h) plus the
/// wave-execution width.
struct SchedulerOptions : PlanOptions {
  /// Wave-execution width: tasks per wave (clamped to the pool size).
  int threads = 4;
};

/// Wave-based RecalcExecutor over a shared ThreadPool. The pool must
/// outlive the scheduler and must NOT be the pool the caller itself runs
/// on (a wave barrier inside a pool task would deadlock a fully loaded
/// pool); the workbook service keeps a dedicated recalc pool for this.
class RecalcScheduler : public RecalcExecutor {
 public:
  /// `pool` may be null, which degrades every pass to serial inline.
  explicit RecalcScheduler(ThreadPool* pool, SchedulerOptions options = {});

  /// Builds the pass's WavePlan and runs it, dispatching each wide
  /// enough wave to the pool. `cutoff` non-null enables value-change
  /// cutoff for the pass (see eval/wave_plan.h for the contract): units
  /// whose dirty precedents all committed unchanged are pruned, in both
  /// granularities. The width/min_parallel_cells serial short-circuits
  /// don't apply under cutoff — small or width-1 passes still build
  /// waves and evaluate them inline so pruning can happen.
  Outcome Execute(const Sheet& sheet, Evaluator* evaluator,
                  std::span<const Range> dirty,
                  const CutoffContext* cutoff) override;

  /// The EXPLAIN dry run: the summary of the plan Execute would build for
  /// the same sheet and dirty set. Evaluates nothing. With `cutoff` it
  /// also reports the per-wave upper bound of prunable cells (units with
  /// no direct seed input) in `wave_cutoff_eligible`.
  RecalcPlan Plan(const Sheet& sheet, std::span<const Range> dirty,
                  std::span<const Range> seeds, bool cutoff) const override;

  const SchedulerOptions& options() const { return options_; }

 private:
  WavePlan Build(const Sheet& sheet, std::span<const Range> dirty,
                 std::span<const Range> seeds, bool cutoff) const;

  ThreadPool* pool_;
  SchedulerOptions options_;
};

}  // namespace taco

#endif  // TACO_SCHED_RECALC_SCHEDULER_H_
