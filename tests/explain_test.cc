// EXPLAIN dry-run planner (RecalcEngine::Explain / RecalcScheduler::Plan)
// against what the real recalc then does.
//
// The planner's whole contract is "EXPLAIN prints the plan that runs" —
// so one table-driven check explains an edit, performs it, and asserts
// the plan predicted the pass the engine actually ran, across every
// granularity, with cutoff on and off, on TACO and NoComp.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "eval/recalc.h"
#include "graph/nocomp_graph.h"
#include "sched/recalc_scheduler.h"
#include "sched/thread_pool.h"
#include "sheet/sheet.h"
#include "taco/taco_graph.h"

namespace taco {
namespace {

std::unique_ptr<DependencyGraph> MakeGraph(bool taco) {
  if (taco) return std::make_unique<TacoGraph>();
  return std::make_unique<NoCompGraph>();
}

/// Sheet + graph + engine, optionally wired to a wave scheduler.
struct Rig {
  Rig(bool taco, RecalcExecutor* executor)
      : graph(MakeGraph(taco)), engine(&sheet, graph.get()) {
    if (executor != nullptr) {
      engine.set_executor(executor);
      engine.set_mode(RecalcMode::kParallel);
    }
  }
  Sheet sheet;
  std::unique_ptr<DependencyGraph> graph;
  RecalcEngine engine;
};

/// No serial fast path, every wave dispatched — tiny workloads still
/// exercise the planner's wave machinery.
SchedulerOptions EagerOptions() {
  SchedulerOptions options;
  options.threads = 3;
  options.min_parallel_cells = 1;
  options.min_parallel_wave = 1;
  return options;
}

// ---------------------------------------------------------------------------
// Sheet shapes. Each builds its formulas and returns the edit to explain
// and then perform (the explain target is the edited cell).
// ---------------------------------------------------------------------------

/// 200 independent dependents of A1: one wide wave.
Edit FanOut(RecalcEngine* engine) {
  EditBatch setup = {Edit::SetNumber(Cell{1, 1}, 10.0)};
  for (int r = 1; r <= 200; ++r) {
    setup.push_back(Edit::SetFormula(Cell{2, r}, "$A$1*" + std::to_string(r)));
  }
  EXPECT_TRUE(engine->ApplyBatch(setup).ok());
  return Edit::SetNumber(Cell{1, 1}, 3.0);
}

/// B1 = A1+1, B[r] = B[r-1]+1: one single-cell wave per link.
Edit Chain(RecalcEngine* engine) {
  EditBatch setup = {Edit::SetNumber(Cell{1, 1}, 1.0),
                     Edit::SetFormula(Cell{2, 1}, "A1+1")};
  for (int r = 2; r <= 150; ++r) {
    setup.push_back(
        Edit::SetFormula(Cell{2, r}, "B" + std::to_string(r - 1) + "+1"));
  }
  EXPECT_TRUE(engine->ApplyBatch(setup).ok());
  return Edit::SetNumber(Cell{1, 1}, 5.0);
}

/// An A1 <-> B1 cycle seeded off D1, a dependent that can never become
/// ready (C1), and an acyclic bystander (C2) that schedules normally.
Edit CycleWithDownstream(RecalcEngine* engine) {
  EXPECT_TRUE(engine
                  ->ApplyBatch({Edit::SetNumber(Cell{4, 1}, 1.0),
                                Edit::SetFormula(Cell{1, 1}, "COUNT(B1)+D1*0"),
                                Edit::SetFormula(Cell{2, 1}, "COUNT(A1)+D1*0"),
                                Edit::SetFormula(Cell{3, 1}, "A1+B1"),
                                Edit::SetFormula(Cell{3, 2}, "D1*10")})
                  .ok());
  return Edit::SetNumber(Cell{4, 1}, 2.0);
}

/// Two dependents of A1: below any sensible parallel threshold.
Edit Tiny(RecalcEngine* engine) {
  EXPECT_TRUE(engine
                  ->ApplyBatch({Edit::SetNumber(Cell{1, 1}, 2.0),
                                Edit::SetFormula(Cell{2, 1}, "A1*3"),
                                Edit::SetFormula(Cell{2, 2}, "B1+1")})
                  .ok());
  return Edit::SetNumber(Cell{1, 1}, 4.0);
}

/// B[r] = SUM($A$1:A[r]), C[r] = B[r]*2: 40 cell-level edges.
Edit PrefixSums(RecalcEngine* engine) {
  EditBatch setup;
  for (int r = 1; r <= 40; ++r) {
    const std::string row = std::to_string(r);
    setup.push_back(Edit::SetNumber(Cell{1, r}, r * 1.0));
    setup.push_back(Edit::SetFormula(Cell{2, r}, "SUM($A$1:A" + row + ")"));
    setup.push_back(Edit::SetFormula(Cell{3, r}, "B" + row + "*2"));
  }
  EXPECT_TRUE(engine->ApplyBatch(setup).ok());
  return Edit::SetNumber(Cell{1, 1}, 100.0);
}

/// B1 = IF(A1>100,1,0) collapses A1 to 0/1 and B2..B6 each add one.
/// The edit to 20 doesn't flip the absorber, so nothing past wave 1
/// changes; the edit to 500 flips it and every link re-evaluates.
Edit AbsorbingChain(RecalcEngine* engine, double edit_value) {
  EditBatch setup = {Edit::SetNumber(Cell{1, 1}, 10.0),
                     Edit::SetFormula(Cell{2, 1}, "IF(A1>100,1,0)")};
  for (int r = 2; r <= 6; ++r) {
    setup.push_back(
        Edit::SetFormula(Cell{2, r}, "B" + std::to_string(r - 1) + "+1"));
  }
  EXPECT_TRUE(engine->ApplyBatch(setup).ok());
  return Edit::SetNumber(Cell{1, 1}, edit_value);
}

/// The absorbing chain laid out on a diagonal (B2 absorbs A1, then C3,
/// D4, ... each add one), so no two formula cells share a row or column
/// and every graph returns one dirty range per cell: a fragmented dirty
/// set that still has a long prunable tail.
Edit FragmentedAbsorbingChain(RecalcEngine* engine) {
  EditBatch setup = {Edit::SetNumber(Cell{1, 1}, 10.0),
                     Edit::SetFormula(Cell{2, 2}, "IF(A1>100,1,0)")};
  for (int i = 3; i <= 12; ++i) {
    setup.push_back(
        Edit::SetFormula(Cell{i, i}, Cell{i - 1, i - 1}.ToString() + "+1"));
  }
  EXPECT_TRUE(engine->ApplyBatch(setup).ok());
  return Edit::SetNumber(Cell{1, 1}, 20.0);
}

// ---------------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------------

/// How the pass is executed: by the engine alone, by the engine with a
/// scheduler plugged in but switched to serial mode, or by the scheduler.
enum class Runner { kEngine, kEngineSerialMode, kScheduler };

struct PlanCase {
  const char* name;
  Edit (*shape)(RecalcEngine*);
  Runner runner;
  SchedulerOptions options;  // Used by kScheduler (and pool sizing).
  bool cutoff;
  RecalcPlan::Granularity granularity;
  const char* decision;  // A substring the decision token must contain.
  // Shape-specific expectations; nullopt leaves a figure to the generic
  // explained == executed check.
  std::optional<uint64_t> waves = std::nullopt;
  std::optional<uint64_t> cycle_cells = std::nullopt;
  std::optional<uint64_t> skipped = std::nullopt;
};

SchedulerOptions WithMinParallelCells(uint64_t cells) {
  SchedulerOptions options;
  options.threads = 3;
  options.min_parallel_cells = cells;
  return options;
}

SchedulerOptions WithBudgets(uint64_t max_edges, uint64_t max_ranges) {
  SchedulerOptions options = EagerOptions();
  options.max_edges = max_edges;
  options.max_ranges = max_ranges;
  return options;
}

constexpr auto kCell = RecalcPlan::Granularity::kCellGranular;
constexpr auto kRange = RecalcPlan::Granularity::kRangeGranular;
constexpr auto kInline = RecalcPlan::Granularity::kSerialInline;

Edit AbsorbedChain(RecalcEngine* engine) { return AbsorbingChain(engine, 20); }
Edit FlippedChain(RecalcEngine* engine) { return AbsorbingChain(engine, 500); }

const PlanCase kPlanCases[] = {
    // Cell-granular waves.
    {"fanout", FanOut, Runner::kScheduler, EagerOptions(), false, kCell,
     "<=max_edges", 1, 0},
    {"fanout_cutoff", FanOut, Runner::kScheduler, EagerOptions(), true, kCell,
     "<=max_edges", 1, 0, 0},
    {"chain", Chain, Runner::kScheduler, EagerOptions(), false, kCell,
     "<=max_edges", 150, 0},
    {"cycle", CycleWithDownstream, Runner::kScheduler, EagerOptions(), false,
     kCell, "<=max_edges", 1, 3},
    {"cycle_cutoff", CycleWithDownstream, Runner::kScheduler, EagerOptions(),
     true, kCell, "<=max_edges", 1, 3},
    {"absorbed_chain_cutoff", AbsorbedChain, Runner::kScheduler,
     EagerOptions(), true, kCell, "<=max_edges", 6, 0, 5},
    {"flipped_chain_cutoff", FlippedChain, Runner::kScheduler, EagerOptions(),
     true, kCell, "<=max_edges", 6, 0, 0},
    // The engine alone runs the same planner at width 1: cutoff levels
    // the pass into waves (and prunes), no cutoff stays inline.
    {"engine_cutoff", AbsorbedChain, Runner::kEngine, EagerOptions(), true,
     kCell, "<=max_edges", 6, 0, 5},
    {"engine", AbsorbedChain, Runner::kEngine, EagerOptions(), false, kInline,
     "no_executor", 0},
    {"engine_serial_mode", AbsorbedChain, Runner::kEngineSerialMode,
     EagerOptions(), false, kInline, "mode=serial", 0},
    // Range-granular via the edge budget.
    {"edge_budget", PrefixSums, Runner::kScheduler, WithBudgets(4, 4096),
     false, kRange, ">max_edges"},
    {"edge_budget_cutoff", PrefixSums, Runner::kScheduler,
     WithBudgets(4, 4096), true, kRange, ">max_edges"},
    {"fragmented_edge_budget_cutoff", FragmentedAbsorbingChain,
     Runner::kScheduler, WithBudgets(1, 4096), true, kRange, ">max_edges", 11,
     0, 10},
    // Serial inline via min_parallel_cells.
    {"tiny", Tiny, Runner::kScheduler, WithMinParallelCells(1000), false,
     kInline, "min_parallel_cells", 0},
    {"tiny_cutoff", Tiny, Runner::kScheduler, WithMinParallelCells(1000), true,
     kCell, "<=max_edges", 2},
    // max_ranges only gates range-granular leveling: a fragmented set
    // within the cell budgets stays cell-granular and keeps cutoff.
    {"fragmented", FragmentedAbsorbingChain, Runner::kScheduler,
     WithBudgets(4u << 20, 2), false, kCell, "<=max_edges", 11},
    {"fragmented_cutoff", FragmentedAbsorbingChain, Runner::kScheduler,
     WithBudgets(4u << 20, 2), true, kCell, "<=max_edges", 11, 0, 10},
    {"fragmented_engine_cutoff", FragmentedAbsorbingChain, Runner::kEngine,
     EagerOptions(), true, kCell, "<=max_edges", 11, 0, 10},
    // Past both granularities' budgets: the max_ranges fallback.
    {"fragmented_over_budgets", FragmentedAbsorbingChain, Runner::kScheduler,
     WithBudgets(1, 2), false, kInline, ">max_ranges", 0},
    {"fragmented_over_budgets_cutoff", FragmentedAbsorbingChain,
     Runner::kScheduler, WithBudgets(1, 2), true, kInline, ">max_ranges", 0,
     std::nullopt, 0},
};

/// Explains `edit` on a warmed rig, performs it, and asserts that the
/// executed pass is the explained one.
void ExpectExplainedIsExecuted(const PlanCase& c, bool taco) {
  SCOPED_TRACE(std::string(c.name) + (taco ? " on TACO" : " on NoComp"));
  ThreadPool pool(c.options.threads);
  RecalcScheduler scheduler(&pool, c.options);
  Rig rig(taco, c.runner == Runner::kEngine ? nullptr : &scheduler);
  if (c.runner == Runner::kEngineSerialMode) {
    rig.engine.set_mode(RecalcMode::kSerial);
  }
  rig.engine.set_cutoff(c.cutoff);
  const Edit edit = c.shape(&rig.engine);
  // Warm every cell: a freshly set formula's own cell is evaluated
  // lazily, and a cell with no cached prior can never be pruned.
  if (std::optional<Range> used = rig.sheet.UsedRange()) {
    for (const Cell& cell : EnumerateCells(*used)) rig.engine.GetValue(cell);
  }

  RecalcEngine::ExplainInfo info = rig.engine.Explain(Range(edit.cell));
  const RecalcPlan& plan = info.plan;
  EXPECT_EQ(info.parallel_active, c.runner == Runner::kScheduler);
  EXPECT_EQ(info.cutoff, c.cutoff);
  EXPECT_EQ(plan.cutoff, c.cutoff);
  EXPECT_EQ(plan.granularity, c.granularity) << plan.granularity_name();
  EXPECT_NE(plan.decision.find(c.decision), std::string::npos)
      << plan.decision;
  // One eligibility row per wave, on cutoff plans only.
  EXPECT_EQ(plan.wave_cutoff_eligible.size(),
            c.cutoff ? plan.wave_cells.size() : 0u);
  if (c.waves) {
    EXPECT_EQ(plan.waves(), *c.waves);
  }
  if (c.cycle_cells) {
    EXPECT_EQ(plan.cycle_cells, *c.cycle_cells);
  }

  auto result = rig.engine.ApplyBatch({edit});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->dirty_cells, info.dirty_cells);
  EXPECT_EQ(result->dirty.size(), info.dirty.size());
  EXPECT_EQ(result->waves, plan.waves());
  EXPECT_EQ(result->max_wave_cells, plan.max_wave_cells());
  EXPECT_EQ(result->dirty_formulas, plan.dirty_formulas);
  EXPECT_EQ(result->recalculated + result->cells_skipped_cutoff,
            result->dirty_formulas);
  // Eligibility is the planner's upper bound on what execution prunes.
  uint64_t eligible = 0;
  for (uint64_t cells : plan.wave_cutoff_eligible) eligible += cells;
  EXPECT_LE(result->cells_skipped_cutoff, eligible);
  if (c.skipped) {
    EXPECT_EQ(result->cells_skipped_cutoff, *c.skipped);
  }
}

class ExplainTest : public ::testing::TestWithParam<bool> {};

TEST_P(ExplainTest, ExplainedPlanIsTheExecutedPass) {
  for (const PlanCase& c : kPlanCases) ExpectExplainedIsExecuted(c, GetParam());
}

TEST_P(ExplainTest, ExplainIsSideEffectFreeAndRepeatable) {
  ThreadPool pool(3);
  RecalcScheduler scheduler(&pool, EagerOptions());
  Rig rig(GetParam(), &scheduler);

  ASSERT_TRUE(rig.engine.SetNumber(Cell{1, 1}, 10.0).ok());
  for (int r = 1; r <= 20; ++r) {
    ASSERT_TRUE(
        rig.engine.SetFormula(Cell{2, r}, "$A$1+" + std::to_string(r)).ok());
  }
  Value before = rig.engine.GetValue(Cell{2, 5});
  uint64_t version_before = rig.engine.latest_version() != nullptr
                                ? rig.engine.latest_version()->id()
                                : 0;

  RecalcEngine::ExplainInfo first = rig.engine.Explain(Range(1, 1, 1, 1));
  RecalcEngine::ExplainInfo second = rig.engine.Explain(Range(1, 1, 1, 1));

  // Dry run: same answer twice, no value change, no version published.
  EXPECT_EQ(first.dirty_cells, second.dirty_cells);
  EXPECT_EQ(first.plan.wave_cells, second.plan.wave_cells);
  EXPECT_EQ(first.plan.decision, second.plan.decision);
  EXPECT_EQ(rig.engine.GetValue(Cell{2, 5}), before);
  uint64_t version_after = rig.engine.latest_version() != nullptr
                               ? rig.engine.latest_version()->id()
                               : 0;
  EXPECT_EQ(version_after, version_before);
}

INSTANTIATE_TEST_SUITE_P(Graphs, ExplainTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Taco" : "NoComp";
                         });

}  // namespace
}  // namespace taco
