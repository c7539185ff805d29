// The traced run's per-layer numbers.
//
// Part (a) comes from the server itself: the socket run is repeated
// while TRACE is polled (phase spans per mutating op, by rid), and STATS
// and METRICS are scraped at its end. Part (b) replays the untraced
// run's op stream in-process, op by op through three stacks: a real
// WorkbookService + CommandProcessor (the per-verb Execute time);
// WorkbookSessions built from their public constructors around
// bench-owned wrappers of the DependencyGraph, RecalcExecutor and
// StorageEngine interfaces plus a GroupCommitter observer; and a
// bench-owned shadow RecalcEngine per book, which times the eval
// layer's own work on each mutation. The wrappers record spans (name,
// start, end, parent, rid) in memory; the spans are written to a file
// at exit and folded into per-layer self times, whose sum the
// attribution check holds against Execute.

#ifndef PERFBENCH_TRACE_REPLAY_H_
#define PERFBENCH_TRACE_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "report.h"
#include "socket_run.h"
#include "workload.h"

namespace perfbench {

/// Part (a): the traced socket run and what the server reported at its
/// end.
struct TracedServerRun {
  RunResult run;
  std::string stats;                       ///< Service-wide STATS.
  std::vector<std::string> session_stats;  ///< STATS <session>, per book.
  std::string metrics;                     ///< METRICS exposition.
};

/// Scrapes STATS, every STATS <session> and METRICS into `traced`.
taco::Status ScrapeServer(const Workload& workload, uint16_t port,
                          TracedServerRun* traced);

/// Per-layer metrics read from the server (part a) and from the untraced
/// run's client samples.
void AddServerLayerMetrics(const Workload& workload,
                           const RunResult& untraced,
                           const TracedServerRun& traced,
                           uint64_t recovered_records, MetricSet* out);

/// For each verb, an op's unattributed time is its real in-process
/// Execute time minus the sum of its measured layer self times
/// (protocol, service, formula, taco, sched, eval, store). Its median
/// share of the op's Execute must be within kTolerance, or its median
/// within kFloorNs for verbs that take a few microseconds (below one
/// loopback round trip, where cache warmth decides the difference); and
/// no layer's children may outlast it.
struct AttributionCheck {
  static constexpr double kTolerance = 0.25;
  static constexpr double kFloorNs = 20000;
  bool ok = true;
  std::vector<std::string> lines;  ///< One per verb, human-readable.
};

/// Part (b). `snapshots` holds the generated books; `dir` is scratch
/// space (copies, WAL, the span dump).
taco::Status ReplayInProcess(const Workload& workload,
                             const RunResult& untraced,
                             const std::string& snapshots,
                             const std::string& dir, MetricSet* out,
                             AttributionCheck* attribution);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_REPLAY_H_
