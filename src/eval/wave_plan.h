// The recalc wave planner and runner: one thread-free plan builder and
// one wave runner behind every recalc pass — the serial engine, the wave
// scheduler (src/sched) and the EXPLAIN dry run.
//
// Dependent-cell recomputation is a topological traversal of the dirty
// subgraph. Following Francoeur's recompute-set algorithms, a pass
// computes one topological order and then executes it:
//   * BuildWavePlan enumerates every dirty formula cell, in dirty-range
//     enumeration order (the serial order), into one flat cell array and
//     groups the cells into work units: one cell each (cell-granular),
//     one dirty range's cells each (range-granular), or all of them in
//     one unit (serial inline). It resolves references into unit-level
//     edges and cuts a Kahn order of the units into waves: every unit of
//     wave k depends, among dirty units, only on units of waves < k.
//     Units that never become ready (on or downstream of a reference
//     cycle) form the leftover. The decision and its threshold are
//     recorded as a RecalcPlan, which is what EXPLAIN prints.
//   * RunWavePlan executes the plan wave by wave and then replays the
//     leftover in node order. A wave's units are independent, so they
//     may run on worker threads; the runner takes that parallelism as an
//     injected dispatch function and stays thread-free itself.
//
// Value-change cutoff. Full recalc re-evaluates the whole transitive
// closure of a dirty set even when most recomputed values come out
// identical (a constant overwritten with the same constant, an IF/MIN
// that absorbs the change, a chain where the delta dies two hops in).
// With a CutoffContext the runner compares each committed value against
// its prior cached value: units reachable ONLY through unchanged units
// are pruned from later waves and their prior values restored instead of
// recomputed.
//
// Correctness argument (why cutoff output is cell-for-cell identical to
// full recalc, by construction):
//   * Acyclic dirty formulas are pure functions of their precedents. A
//     unit is pruned only when it has no direct seed input (no reference
//     overlapping an edited rectangle, no cell itself edited) and every
//     dirty precedent unit committed value-unchanged — so every input of
//     its cells holds exactly the value it held before the edit, and
//     re-evaluating them would reproduce the prior values bit-for-bit.
//   * Pruning requires a captured prior for every cell of the unit: a
//     cell whose value was never cached (cold cache, fresh session)
//     always evaluates.
//   * The leftover replays in node order exactly like the un-cut serial
//     path, so #CYCLE! placement is order-identical. Cutoff NEVER applies
//     to it, and a serial-inline plan is all leftover.

#ifndef TACO_EVAL_WAVE_PLAN_H_
#define TACO_EVAL_WAVE_PLAN_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/evaluator.h"
#include "eval/recalc.h"
#include "eval/value.h"
#include "sheet/sheet.h"

namespace taco {

/// Per-pass cutoff state, captured by the engine BEFORE the dirty set is
/// invalidated: the edited rectangles (whose dependents must always
/// evaluate) and the prior cached value of every dirty formula cell that
/// had one. A cell absent from `prior` is treated as changed.
struct CutoffContext {
  std::vector<Range> seeds;
  std::unordered_map<Cell, Value> prior;
};

/// Snapshots the cached value of every dirty formula cell into
/// `ctx->prior`. Must run before the evaluator is invalidated for the
/// pass (the whole point is remembering what the cells were worth).
void CapturePriorValues(const Sheet& sheet, const Evaluator& evaluator,
                        std::span<const Range> dirty, CutoffContext* ctx);

/// The planner's thresholds and budgets. The wave scheduler takes them
/// through SchedulerOptions; the serial engine plans with the defaults.
struct PlanOptions {
  /// Without cutoff, dirty sets smaller than this (dirty area, then
  /// formula cells) evaluate serially inline — planning overhead would
  /// exceed the work.
  uint64_t min_parallel_cells = 64;

  /// Waves with fewer cells left to evaluate than this run inline on the
  /// calling thread instead of paying task dispatch (chain-shaped
  /// subgraphs produce thousands of single-cell waves).
  uint64_t min_parallel_wave = 32;

  /// Cell-granular planning budgets; exceeding either falls back to
  /// range-granular leveling. `max_cells` bounds the dirty AREA (a
  /// sparse million-cell rectangle must not become a million nodes);
  /// `max_edges` bounds the distinct cell-level edges (a SUM over a dirty
  /// column expands to one edge per dirty cell in it).
  uint64_t max_cells = 1u << 20;
  uint64_t max_edges = 4u << 20;

  /// Range-granular budget, checked only when a cell-granular budget
  /// failed: more disjoint dirty ranges than this and the pass runs
  /// serial inline (range edge discovery would dominate).
  uint64_t max_ranges = 4096;
};

/// One recalc pass, planned. Units are offsets into one flat cell array
/// and edges and waves are flat offset arrays, so building a plan costs
/// no allocation per unit.
struct WavePlan {
  /// What EXPLAIN prints: granularity, decision token, per-wave cells.
  RecalcPlan summary;
  /// Every dirty formula cell, in dirty-range enumeration order.
  std::vector<Cell> cells;
  /// Unit u is cells[unit_begin[u], unit_begin[u + 1]).
  std::vector<uint32_t> unit_begin;
  /// The units depending on unit u are
  /// dependents[dependent_begin[u], dependent_begin[u + 1]).
  std::vector<uint32_t> dependent_begin;
  std::vector<uint32_t> dependents;
  /// Unit reads an edited rectangle directly (a reference overlaps a
  /// seed, or one of its cells was edited): cutoff never prunes it.
  std::vector<char> forced;
  /// Every unit once: wave by wave (each wave in unit order), then the
  /// leftover in unit order. Wave w is order[wave_begin[w],
  /// wave_begin[w + 1]); the leftover starts at wave_begin.back().
  std::vector<uint32_t> order;
  std::vector<uint32_t> wave_begin;

  size_t units() const { return unit_begin.size() - 1; }
};

/// Plans the pass over the disjoint `dirty` ranges. `seeds` (the edited
/// rectangles) only matter with `cutoff`. `width` is how many workers
/// the runner may use. Without cutoff, a width of 1 plans serial inline
/// with `serial_reason` as the decision token. Reads only the sheet.
WavePlan BuildWavePlan(const Sheet& sheet, std::span<const Range> dirty,
                       std::span<const Range> seeds, bool cutoff, int width,
                       const PlanOptions& options, std::string serial_reason);

/// Evaluates one unit of the running plan with a worker's evaluator.
using UnitEvaluator = std::function<void(Evaluator& worker, uint32_t unit)>;

/// Calls `eval_unit` for every unit of one wave on worker threads and
/// returns once all calls finished (the wave barrier). Workers must
/// evaluate into private evaluators that only read the shared one.
using WaveDispatch = std::function<void(std::span<const uint32_t> units,
                                        const UnitEvaluator& eval_unit)>;

/// Executes `plan` into `evaluator`, which the pass already invalidated.
/// Per wave, in order:
///   1. prune and prime (cutoff plans only): a unit whose dirty
///      precedents all committed unchanged gets its priors restored —
///      before dispatch, because workers read the shared cache;
///   2. evaluate the rest, inline on the calling thread or through
///      `dispatch`. A wave runs inline when the plan's width is 1,
///      `dispatch` is empty, one unit is left, or fewer than
///      `min_parallel_wave` cells are;
///   3. commit single-threaded: prime dispatched results and, under
///      cutoff, mark the dependents of every unit that changed.
/// Then the leftover replays un-cut in node order. Prunes only when the
/// plan was built with cutoff and `cutoff` is non-null. The returned
/// barrier time is zero: the dispatcher measures its own barrier.
RecalcExecutor::Outcome RunWavePlan(const WavePlan& plan, Evaluator* evaluator,
                                    const CutoffContext* cutoff,
                                    uint64_t min_parallel_wave,
                                    const WaveDispatch& dispatch = {});

}  // namespace taco

#endif  // TACO_EVAL_WAVE_PLAN_H_
