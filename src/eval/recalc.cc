#include "eval/recalc.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/clock.h"
#include "common/range_set.h"
#include "eval/wave_plan.h"
#include "formula/references.h"

namespace taco {

Edit Edit::SetNumber(const Cell& cell, double value) {
  Edit edit;
  edit.kind = Kind::kSetNumber;
  edit.cell = cell;
  edit.number = value;
  return edit;
}

Edit Edit::SetText(const Cell& cell, std::string value) {
  Edit edit;
  edit.kind = Kind::kSetText;
  edit.cell = cell;
  edit.text = std::move(value);
  return edit;
}

Edit Edit::SetFormula(const Cell& cell, std::string text) {
  Edit edit;
  edit.kind = Kind::kSetFormula;
  edit.cell = cell;
  edit.text = std::move(text);
  return edit;
}

Edit Edit::ClearRange(const Range& range) {
  Edit edit;
  edit.kind = Kind::kClearRange;
  edit.range = range;
  return edit;
}

uint64_t RecalcPlan::max_wave_cells() const {
  uint64_t max_cells = 0;
  for (uint64_t cells : wave_cells) max_cells = std::max(max_cells, cells);
  return max_cells;
}

std::string_view RecalcPlan::granularity_name() const {
  switch (granularity) {
    case Granularity::kSerialInline:  return "serial-inline";
    case Granularity::kCellGranular:  return "cell-granular";
    case Granularity::kRangeGranular: return "range-granular";
  }
  return "?";
}

namespace {

/// The plan of a pass the engine runs itself: the scheduler's planner
/// and runner at width 1 with the default budgets, so EXPLAIN on a
/// serial engine shows the plan that runs.
WavePlan PlanEnginePass(const Sheet& sheet, std::span<const Range> dirty,
                        std::span<const Range> seeds, bool cutoff,
                        const RecalcExecutor* executor) {
  return BuildWavePlan(sheet, dirty, seeds, cutoff, /*width=*/1, PlanOptions{},
                       executor == nullptr ? "no_executor" : "mode=serial");
}

}  // namespace

RecalcPlan RecalcExecutor::Plan(const Sheet& sheet,
                                std::span<const Range> dirty,
                                std::span<const Range> /*seeds*/,
                                bool cutoff) const {
  RecalcPlan plan = BuildWavePlan(sheet, dirty, {}, /*cutoff=*/false,
                                  /*width=*/1, PlanOptions{}, "no_planner")
                        .summary;
  plan.cutoff = cutoff;
  return plan;
}

RecalcEngine::RecalcEngine(Sheet* sheet, DependencyGraph* graph)
    : sheet_(sheet), graph_(graph), evaluator_(sheet) {}

RecalcResult RecalcEngine::Recalculate(const Range& changed) {
  return RecalculateMerged({&changed, 1});
}

RecalcResult RecalcEngine::RecalculateMerged(std::span<const Range> changed) {
  RecalcResult result;
  result.recalc_passes = 1;

  // One merged dirty-set computation: query the dependents of each distinct
  // changed rectangle and collapse the union into disjoint ranges so the
  // re-evaluation pass below visits each dirty formula exactly once.
  std::vector<Range> seeds = DisjointifyRanges(changed);
  std::vector<Range> dirty_union;
  auto start = SteadyNow();
  for (const Range& seed : seeds) {
    std::vector<Range> dirty = graph_->FindDependents(seed);
    dirty_union.insert(dirty_union.end(), dirty.begin(), dirty.end());
  }
  result.dirty = DisjointifyRanges(dirty_union);
  result.find_dependents_ns = NsSince(start);
  result.find_dependents_ms = double(result.find_dependents_ns) / 1e6;

  for (const Range& range : result.dirty) result.dirty_cells += range.Area();

  // Cutoff needs the dirty cells' prior values, which invalidation is
  // about to destroy — capture them first. The capture holds no more
  // values than the cache entries the pass invalidates.
  CutoffContext ctx;
  if (cutoff_) {
    ctx.seeds = seeds;
    CapturePriorValues(*sheet_, evaluator_, result.dirty, &ctx);
  }

  for (const Range& seed : seeds) evaluator_.Invalidate(seed);
  for (const Range& range : result.dirty) evaluator_.Invalidate(range);

  auto eval_start = SteadyNow();
  const CutoffContext* cutoff = cutoff_ ? &ctx : nullptr;
  RecalcExecutor::Outcome outcome;
  if (mode_ == RecalcMode::kParallel && executor_ != nullptr) {
    outcome = executor_->Execute(*sheet_, &evaluator_, result.dirty, cutoff);
  } else {
    outcome = RunWavePlan(
        PlanEnginePass(*sheet_, result.dirty, seeds, cutoff_, executor_),
        &evaluator_, cutoff, PlanOptions{}.min_parallel_wave);
  }
  result.recalculated = outcome.recalculated;
  result.cells_skipped_cutoff = outcome.cells_skipped_cutoff;
  result.dirty_formulas = outcome.dirty_formulas;
  result.waves = outcome.waves;
  result.max_wave_cells = outcome.max_wave_cells;
  result.barrier_wait_ns = outcome.barrier_wait_ns;
  result.eval_ns = NsSince(eval_start);
  result.eval_ms = double(result.eval_ns) / 1e6;
  return result;
}

RecalcEngine::ExplainInfo RecalcEngine::Explain(const Range& target) {
  ExplainInfo info;
  info.mode = mode_;
  info.parallel_active = mode_ == RecalcMode::kParallel && executor_ != nullptr;
  info.cutoff = cutoff_;

  // The exact dirty-set recipe of RecalculateMerged, minus invalidation.
  info.seeds = DisjointifyRanges({&target, 1});
  std::vector<Range> dirty_union;
  auto start = SteadyNow();
  for (const Range& seed : info.seeds) {
    std::vector<Range> dirty = graph_->FindDependents(seed);
    dirty_union.insert(dirty_union.end(), dirty.begin(), dirty.end());
  }
  info.dirty = DisjointifyRanges(dirty_union);
  info.find_dependents_ns = NsSince(start);
  for (const Range& range : info.dirty) info.dirty_cells += range.Area();

  info.plan = info.parallel_active
                  ? executor_->Plan(*sheet_, info.dirty, info.seeds, cutoff_)
                  : PlanEnginePass(*sheet_, info.dirty, info.seeds, cutoff_,
                                   executor_)
                        .summary;
  return info;
}

std::shared_ptr<const ValueVersion> RecalcEngine::PublishVersion(
    std::span<const Range> touched) {
  // A freshly set formula's own cell is NOT in the dirty set (only its
  // dependents are) and is evaluated lazily — but a published version
  // must carry its committed value, so `touched` always includes the
  // seed rectangles. Evaluating here, before readers see the version,
  // keeps the lazy path out of the lock-free read side entirely.
  uint64_t id = version_ != nullptr ? version_->id() + 1 : 1;
  version_ = ValueVersion::Delta(id, version_, *sheet_, &evaluator_, touched);
  return version_;
}

Status RecalcEngine::ApplyEditNoRecalc(const Edit& edit,
                                       std::vector<Range>* changed) {
  switch (edit.kind) {
    case Edit::Kind::kSetNumber:
      // Replacing a formula cell also drops its outgoing dependencies.
      if (sheet_->IsFormulaCell(edit.cell)) {
        TACO_RETURN_IF_ERROR(graph_->RemoveFormulaCells(Range(edit.cell)));
      }
      TACO_RETURN_IF_ERROR(sheet_->SetNumber(edit.cell, edit.number));
      changed->push_back(Range(edit.cell));
      return Status::OK();
    case Edit::Kind::kSetText:
      if (sheet_->IsFormulaCell(edit.cell)) {
        TACO_RETURN_IF_ERROR(graph_->RemoveFormulaCells(Range(edit.cell)));
      }
      TACO_RETURN_IF_ERROR(sheet_->SetText(edit.cell, edit.text));
      changed->push_back(Range(edit.cell));
      return Status::OK();
    case Edit::Kind::kSetFormula: {
      // Parse/store the new formula BEFORE dropping the old one's graph
      // edges: a parse failure must leave sheet and graph untouched, not
      // a formula cell with its dependencies removed.
      bool was_formula = sheet_->IsFormulaCell(edit.cell);
      TACO_RETURN_IF_ERROR(sheet_->SetFormula(edit.cell, edit.text));
      if (was_formula) {
        TACO_RETURN_IF_ERROR(graph_->RemoveFormulaCells(Range(edit.cell)));
      }

      // Register the new formula's dependencies (an update is modeled as
      // clear + insert, Sec. IV-C).
      const CellContent* content = sheet_->Get(edit.cell);
      std::vector<A1Reference> refs =
          ExtractReferences(*content->formula().ast);
      std::unordered_set<Range> seen;
      for (const A1Reference& ref : refs) {
        if (!seen.insert(ref.range).second) continue;
        Dependency dep;
        dep.prec = ref.range;
        dep.dep = edit.cell;
        dep.head_flags = ref.head_flags;
        dep.tail_flags = ref.tail_flags;
        TACO_RETURN_IF_ERROR(graph_->AddDependency(dep));
      }
      changed->push_back(Range(edit.cell));
      return Status::OK();
    }
    case Edit::Kind::kClearRange:
      TACO_RETURN_IF_ERROR(graph_->RemoveFormulaCells(edit.range));
      TACO_RETURN_IF_ERROR(sheet_->ClearRange(edit.range));
      changed->push_back(edit.range);
      return Status::OK();
  }
  return Status::Internal("unknown edit kind");
}

Result<RecalcResult> RecalcEngine::SetNumber(const Cell& cell, double value) {
  return ApplyBatch({Edit::SetNumber(cell, value)});
}

Result<RecalcResult> RecalcEngine::SetText(const Cell& cell,
                                           std::string value) {
  return ApplyBatch({Edit::SetText(cell, std::move(value))});
}

Result<RecalcResult> RecalcEngine::SetFormula(const Cell& cell,
                                              std::string_view text) {
  return ApplyBatch({Edit::SetFormula(cell, std::string(text))});
}

Result<RecalcResult> RecalcEngine::ClearRange(const Range& range) {
  return ApplyBatch({Edit::ClearRange(range)});
}

Result<RecalcResult> RecalcEngine::ApplyBatch(const EditBatch& batch,
                                              RecalcResult* partial) {
  if (partial != nullptr) *partial = RecalcResult{};
  std::vector<Range> changed;
  changed.reserve(batch.size());
  Status failure = Status::OK();
  uint64_t applied = 0;
  for (const Edit& edit : batch) {
    failure = ApplyEditNoRecalc(edit, &changed);
    if (!failure.ok()) break;
    ++applied;
  }
  if (changed.empty()) {
    if (!failure.ok()) return failure;
    return RecalcResult{};  // Empty batch: nothing changed, no recalc pass.
  }
  RecalcResult result = RecalculateMerged(changed);
  result.edits_applied = applied;
  // A failing edit stops the batch, but the edits before it were applied
  // and recalculated above, leaving the engine consistent; the partial
  // outcome is reported through `partial` alongside the error.
  if (!failure.ok()) {
    if (partial != nullptr) *partial = std::move(result);
    return failure;
  }
  return result;
}

}  // namespace taco
