#include "eval/wave_plan.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <numeric>
#include <tuple>
#include <utility>

#include "common/range_set.h"
#include "formula/references.h"
#include "rtree/rtree.h"

namespace taco {

void CapturePriorValues(const Sheet& sheet, const Evaluator& evaluator,
                        std::span<const Range> dirty, CutoffContext* ctx) {
  for (const Range& range : dirty) {
    for (const Cell& cell : EnumerateCells(range)) {
      if (!sheet.IsFormulaCell(cell)) continue;
      if (const Value* cached = evaluator.FindCached(cell)) {
        ctx->prior.emplace(cell, *cached);
      }
    }
  }
}

namespace {

/// Formats "lhs(value)cmp rhs(threshold)" decision tokens for plans.
std::string Decision(const char* format, uint64_t a, uint64_t b) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), format, a, b);
  return buffer;
}

/// Expands every cell's references into unit-level edges, each
/// (precedent -> dependent) pair once, and marks seed-forced units.
/// `for_each_unit(range, fn)` calls fn(unit) for every unit with a cell
/// in `range`. With `self_edges` a unit referencing itself blocks
/// forever — exactly the serial #CYCLE! case the leftover replays;
/// without, intra-unit references resolve by in-order evaluation.
/// Returns false once more than `max_edges` edges were found.
template <typename ForEachUnit>
bool Link(WavePlan* plan, std::span<const Expr* const> asts,
          std::span<const Range> seeds, bool self_edges, uint64_t max_edges,
          const ForEachUnit& for_each_unit, std::vector<uint32_t>* indeg) {
  const uint32_t units = static_cast<uint32_t>(plan->units());
  plan->forced.assign(units, 0);
  indeg->assign(units, 0);
  // last[p] is the newest dependent linked from p; dependents are
  // visited in ascending order, so it dedups without a hash set.
  std::vector<uint32_t> last(units, std::numeric_limits<uint32_t>::max());
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::vector<A1Reference> refs;
  for (uint32_t d = 0; d < units; ++d) {
    if (!self_edges) last[d] = d;
    char& forced = plan->forced[d];
    for (uint32_t c = plan->unit_begin[d]; c < plan->unit_begin[d + 1]; ++c) {
      if (!forced && CoversCell(seeds, plan->cells[c])) forced = 1;
      refs.clear();
      ExtractReferences(*asts[c], &refs);
      for (const A1Reference& ref : refs) {
        if (!ref.range.IsValid()) continue;
        if (!forced && std::any_of(seeds.begin(), seeds.end(),
                                   [&](const Range& seed) {
                                     return ref.range.Overlaps(seed);
                                   })) {
          forced = 1;
        }
        for_each_unit(ref.range, [&](uint32_t p) {
          if (last[p] == d) return;
          last[p] = d;
          edges.emplace_back(p, d);
          ++(*indeg)[d];
        });
        if (edges.size() > max_edges) {
          plan->summary.edges = edges.size();
          return false;
        }
      }
    }
  }
  plan->summary.edges = edges.size();

  // Counting sort into CSR, reusing `last` as the fill cursor.
  plan->dependent_begin.assign(units + 1, 0);
  for (const auto& [p, d] : edges) ++plan->dependent_begin[p + 1];
  std::partial_sum(plan->dependent_begin.begin(), plan->dependent_begin.end(),
                   plan->dependent_begin.begin());
  last.assign(plan->dependent_begin.begin(), plan->dependent_begin.end() - 1);
  plan->dependents.resize(edges.size());
  for (const auto& [p, d] : edges) plan->dependents[last[p]++] = d;
  return true;
}

/// Cuts Kahn's order of the units into waves (`indeg` is consumed).
/// Each wave is sorted so the partition is canonical; units still
/// blocked at the end follow as the leftover, in unit order.
void Level(WavePlan* plan, std::vector<uint32_t> indeg) {
  const uint32_t units = static_cast<uint32_t>(plan->units());
  std::vector<uint32_t>& order = plan->order;
  order.reserve(units);
  for (uint32_t u = 0; u < units; ++u) {
    if (indeg[u] == 0) order.push_back(u);
  }
  uint32_t begin = 0;
  while (begin < order.size()) {
    plan->wave_begin.push_back(begin);
    const uint32_t end = static_cast<uint32_t>(order.size());
    for (uint32_t k = begin; k < end; ++k) {
      const uint32_t u = order[k];
      for (uint32_t e = plan->dependent_begin[u];
           e < plan->dependent_begin[u + 1]; ++e) {
        if (--indeg[plan->dependents[e]] == 0) {
          order.push_back(plan->dependents[e]);
        }
      }
    }
    std::sort(order.begin() + end, order.end());
    begin = end;
  }
  plan->wave_begin.push_back(begin);
  for (uint32_t u = 0; u < units; ++u) {
    if (indeg[u] > 0) order.push_back(u);
  }
}

/// Fills the summary's per-wave rows and cycle count from a leveled plan.
void Summarize(WavePlan* plan) {
  RecalcPlan& summary = plan->summary;
  auto size = [&](uint32_t u) {
    return uint64_t{plan->unit_begin[u + 1] - plan->unit_begin[u]};
  };
  const size_t waves = plan->wave_begin.size() - 1;
  summary.wave_cells.reserve(waves);
  if (summary.cutoff) summary.wave_cutoff_eligible.reserve(waves);
  for (size_t w = 0; w < waves; ++w) {
    uint64_t cells = 0;
    uint64_t eligible = 0;
    for (uint32_t k = plan->wave_begin[w]; k < plan->wave_begin[w + 1]; ++k) {
      cells += size(plan->order[k]);
      if (!plan->forced[plan->order[k]]) eligible += size(plan->order[k]);
    }
    summary.wave_cells.push_back(cells);
    // Upper bound: units with no direct seed input MAY skip when their
    // dirty precedents all commit unchanged and every prior is cached —
    // unknowable in a dry run.
    if (summary.cutoff) summary.wave_cutoff_eligible.push_back(eligible);
  }
  for (size_t k = plan->wave_begin.back(); k < plan->order.size(); ++k) {
    summary.cycle_cells += size(plan->order[k]);
  }
}

}  // namespace

WavePlan BuildWavePlan(const Sheet& sheet, std::span<const Range> dirty,
                       std::span<const Range> seeds, bool cutoff, int width,
                       const PlanOptions& options,
                       std::string serial_reason) {
  WavePlan plan;
  RecalcPlan& summary = plan.summary;
  summary.cutoff = cutoff;
  summary.width = width;
  summary.dirty_ranges = dirty.size();
  for (const Range& range : dirty) summary.dirty_area += range.Area();
  if (!cutoff) seeds = {};

  // Every dirty formula cell in serial order; dirty range j's cells
  // start at range_begin[j].
  std::vector<const Expr*> asts;
  std::vector<uint32_t> range_begin;
  range_begin.reserve(dirty.size() + 1);
  for (const Range& range : dirty) {
    range_begin.push_back(static_cast<uint32_t>(plan.cells.size()));
    for (const Cell& cell : EnumerateCells(range)) {
      const CellContent* content = sheet.Get(cell);
      if (content == nullptr || !content->IsFormula()) continue;
      plan.cells.push_back(cell);
      asts.push_back(content->formula().ast.get());
    }
  }
  const uint32_t n = static_cast<uint32_t>(plan.cells.size());
  range_begin.push_back(n);
  summary.dirty_formulas = n;

  // Serial inline: one unit holding every cell, replayed as the leftover.
  auto serial_inline = [&](std::string decision) {
    summary.granularity = RecalcPlan::Granularity::kSerialInline;
    summary.decision = std::move(decision);
    plan.unit_begin = {0, n};
    plan.dependent_begin = {0, 0};
    plan.forced = {0};
    plan.order = {0};
    plan.wave_begin = {0};
    return std::move(plan);
  };
  // Without cutoff, small or width-1 passes skip planning. A cutoff pass
  // always levels: waves are what let it prune, even inline.
  if (!cutoff && width <= 1) return serial_inline(std::move(serial_reason));
  if (!cutoff && summary.dirty_area < options.min_parallel_cells) {
    return serial_inline(
        Decision("dirty_area(%" PRIu64 ")<min_parallel_cells(%" PRIu64 ")",
                 summary.dirty_area, options.min_parallel_cells));
  }

  std::vector<uint32_t> indeg;
  if (summary.dirty_area <= options.max_cells) {
    if (!cutoff && n < options.min_parallel_cells) {
      return serial_inline(
          Decision("dirty_formulas(%" PRIu64 ")<min_parallel_cells(%" PRIu64
                   ")",
                   n, options.min_parallel_cells));
    }
    // Cell-granular: unit i is cell i. A reference finds the dirty cells
    // inside it through a (col, row)-sorted index, visiting only columns
    // that hold dirty cells.
    plan.unit_begin.resize(n + 1);
    std::iota(plan.unit_begin.begin(), plan.unit_begin.end(), 0u);
    struct Slot {
      int32_t col, row;
      uint32_t unit;
      bool operator<(const Slot& o) const {
        return std::tie(col, row) < std::tie(o.col, o.row);
      }
    };
    std::vector<Slot> index;
    index.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      index.push_back({plan.cells[i].col, plan.cells[i].row, i});
    }
    std::sort(index.begin(), index.end());
    auto cells_in = [&](const Range& r, const auto& fn) {
      auto it = std::lower_bound(index.begin(), index.end(),
                                 Slot{r.head.col, r.head.row, 0});
      while (it != index.end() && it->col <= r.tail.col) {
        if (it->row < r.head.row) {
          it = std::lower_bound(it, index.end(), Slot{it->col, r.head.row, 0});
        } else if (it->row > r.tail.row) {
          it = std::lower_bound(it, index.end(),
                                Slot{it->col + 1, r.head.row, 0});
        } else {
          fn((it++)->unit);
        }
      }
    };
    if (Link(&plan, asts, seeds, /*self_edges=*/true, options.max_edges,
             cells_in, &indeg)) {
      summary.granularity = RecalcPlan::Granularity::kCellGranular;
      summary.decision = Decision("edges(%" PRIu64 ")<=max_edges(%" PRIu64 ")",
                                  summary.edges, options.max_edges);
      Level(&plan, std::move(indeg));
      Summarize(&plan);
      return plan;
    }
    summary.decision = Decision("edges(%" PRIu64 ")>max_edges(%" PRIu64 ")",
                                summary.edges, options.max_edges);
  } else {
    summary.decision =
        Decision("dirty_area(%" PRIu64 ")>max_cells(%" PRIu64 ")",
                 summary.dirty_area, options.max_cells);
  }

  if (dirty.size() > options.max_ranges) {
    return serial_inline(
        Decision("dirty_ranges(%" PRIu64 ")>max_ranges(%" PRIu64 ")",
                 dirty.size(), options.max_ranges));
  }
  // Range-granular: a unit is one dirty range's formula cells, and an
  // R-tree over the ranges turns each reference into range-level edges.
  plan.unit_begin.clear();
  RTree ranges;
  for (size_t j = 0; j < dirty.size(); ++j) {
    if (range_begin[j] == range_begin[j + 1]) continue;
    ranges.Insert(dirty[j], plan.unit_begin.size());
    plan.unit_begin.push_back(range_begin[j]);
  }
  plan.unit_begin.push_back(n);
  auto ranges_in = [&](const Range& r, const auto& fn) {
    ranges.ForEachOverlap(
        r, [&](const Range&, RTree::EntryId id) { fn(uint32_t(id)); });
  };
  Link(&plan, asts, seeds, /*self_edges=*/false,
       std::numeric_limits<uint64_t>::max(), ranges_in, &indeg);
  summary.granularity = RecalcPlan::Granularity::kRangeGranular;
  Level(&plan, std::move(indeg));
  Summarize(&plan);
  return plan;
}

RecalcExecutor::Outcome RunWavePlan(const WavePlan& plan, Evaluator* evaluator,
                                    const CutoffContext* cutoff,
                                    uint64_t min_parallel_wave,
                                    const WaveDispatch& dispatch) {
  RecalcExecutor::Outcome outcome;
  outcome.dirty_formulas = plan.cells.size();
  outcome.waves = plan.summary.waves();
  outcome.max_wave_cells = plan.summary.max_wave_cells();
  if (!plan.summary.cutoff) cutoff = nullptr;
  const bool inline_only = plan.summary.width <= 1 || !dispatch;

  // marked[u]: a dirty precedent of u committed a changed value. Forced
  // and prior-less units are checked when their wave comes up.
  std::vector<char> marked(cutoff != nullptr ? plan.units() : 0);
  auto needs_eval = [&](uint32_t u) {
    if (cutoff == nullptr || marked[u] || plan.forced[u]) return true;
    for (uint32_t c = plan.unit_begin[u]; c < plan.unit_begin[u + 1]; ++c) {
      if (!cutoff->prior.contains(plan.cells[c])) return true;
    }
    return false;
  };
  // Compare-and-mark: a committed value that differs from its prior (or
  // had none) un-prunes every dependent of its unit.
  auto changed = [&](uint32_t c, const Value& now) {
    auto it = cutoff->prior.find(plan.cells[c]);
    return it == cutoff->prior.end() || !(now == it->second);
  };
  auto mark_dependents = [&](uint32_t u) {
    for (uint32_t e = plan.dependent_begin[u]; e < plan.dependent_begin[u + 1];
         ++e) {
      marked[plan.dependents[e]] = 1;
    }
  };

  std::vector<Value> values;  // Dispatched results, by cell offset.
  std::vector<uint32_t> eval_units;
  for (size_t w = 0; w + 1 < plan.wave_begin.size(); ++w) {
    // 1. Prune and prime, before any worker reads the shared cache.
    eval_units.clear();
    uint64_t eval_cells = 0;
    for (uint32_t k = plan.wave_begin[w]; k < plan.wave_begin[w + 1]; ++k) {
      const uint32_t u = plan.order[k];
      if (needs_eval(u)) {
        eval_units.push_back(u);
        eval_cells += plan.unit_begin[u + 1] - plan.unit_begin[u];
        continue;
      }
      for (uint32_t c = plan.unit_begin[u]; c < plan.unit_begin[u + 1]; ++c) {
        evaluator->Prime(plan.cells[c], cutoff->prior.at(plan.cells[c]));
        ++outcome.cells_skipped_cutoff;
      }
    }
    // 2. Evaluate; 3. commit with compare-and-mark.
    const bool inline_wave = inline_only || eval_units.size() < 2 ||
                             eval_cells < min_parallel_wave;
    if (!inline_wave) {
      if (values.empty()) values.resize(plan.cells.size());
      dispatch(eval_units, [&](Evaluator& worker, uint32_t u) {
        for (uint32_t c = plan.unit_begin[u]; c < plan.unit_begin[u + 1];
             ++c) {
          values[c] = worker.EvaluateCell(plan.cells[c]);
        }
      });
    }
    for (uint32_t u : eval_units) {
      bool any_changed = false;
      for (uint32_t c = plan.unit_begin[u]; c < plan.unit_begin[u + 1]; ++c) {
        if (inline_wave) {
          Value now = evaluator->EvaluateCell(plan.cells[c]);
          if (cutoff != nullptr && !any_changed) any_changed = changed(c, now);
        } else {
          if (cutoff != nullptr && !any_changed) {
            any_changed = changed(c, values[c]);
          }
          evaluator->Prime(plan.cells[c], std::move(values[c]));
        }
        ++outcome.recalculated;
      }
      if (any_changed) mark_dependents(u);
    }
  }
  // The leftover replays un-cut, in node order: the serial first-touch
  // order #CYCLE! patterns pin.
  for (size_t k = plan.wave_begin.back(); k < plan.order.size(); ++k) {
    const uint32_t u = plan.order[k];
    for (uint32_t c = plan.unit_begin[u]; c < plan.unit_begin[u + 1]; ++c) {
      evaluator->EvaluateCell(plan.cells[c]);
      ++outcome.recalculated;
    }
  }
  return outcome;
}

}  // namespace taco
