#include "sched/recalc_scheduler.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "eval/evaluator.h"

namespace taco {

RecalcScheduler::RecalcScheduler(ThreadPool* pool, SchedulerOptions options)
    : pool_(pool), options_(options) {}

WavePlan RecalcScheduler::Build(const Sheet& sheet,
                                std::span<const Range> dirty,
                                std::span<const Range> seeds,
                                bool cutoff) const {
  const int width =
      pool_ == nullptr
          ? 1
          : std::max(1, std::min(options_.threads, pool_->num_threads()));
  std::string serial_reason;
  if (width <= 1) {
    serial_reason = "width(" + std::to_string(width) + ")<=1 no_pool(" +
                    (pool_ == nullptr ? "1" : "0") + ")";
  }
  return BuildWavePlan(sheet, dirty, seeds, cutoff, width, options_,
                       std::move(serial_reason));
}

RecalcExecutor::Outcome RecalcScheduler::Execute(const Sheet& sheet,
                                                 Evaluator* evaluator,
                                                 std::span<const Range> dirty,
                                                 const CutoffContext* cutoff) {
  const WavePlan plan =
      Build(sheet, dirty,
            cutoff != nullptr ? std::span<const Range>(cutoff->seeds)
                              : std::span<const Range>(),
            cutoff != nullptr);

  // One private overlay evaluator per task, reading through to the
  // shared cache. They persist across the waves of the pass, so a worker
  // re-reads its own earlier results without a base-cache hop; serial
  // passes never allocate them.
  std::vector<std::unique_ptr<Evaluator>> workers;
  WaitGroup group;
  uint64_t barrier_wait_ns = 0;
  auto dispatch = [&](std::span<const uint32_t> units,
                      const UnitEvaluator& eval_unit) {
    const int width = plan.summary.width;
    if (workers.empty()) {
      for (int i = 0; i < width; ++i) {
        workers.push_back(std::make_unique<Evaluator>(&sheet, evaluator));
      }
    }
    // Strided assignment balances skewed per-unit costs (e.g. the
    // growing SUM($A$1:Ar) of an FR column) across workers.
    const size_t tasks = std::min<size_t>(width, units.size());
    for (size_t t = 0; t < tasks; ++t) {
      pool_->Submit(&group, [&, t, tasks] {
        for (size_t pos = t; pos < units.size(); pos += tasks) {
          eval_unit(*workers[t], units[pos]);
        }
      });
    }
    auto barrier_start = SteadyNow();
    group.Wait();
    barrier_wait_ns += NsSince(barrier_start);
  };
  Outcome outcome = RunWavePlan(plan, evaluator, cutoff,
                                options_.min_parallel_wave, dispatch);
  outcome.barrier_wait_ns = barrier_wait_ns;
  return outcome;
}

RecalcPlan RecalcScheduler::Plan(const Sheet& sheet,
                                 std::span<const Range> dirty,
                                 std::span<const Range> seeds,
                                 bool cutoff) const {
  return Build(sheet, dirty, seeds, cutoff).summary;
}

}  // namespace taco
