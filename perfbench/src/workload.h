// Seeded workloads for the service benchmark: the workbooks a run loads
// and the per-connection op streams it sends.
//
// Everything here is a pure function of (workload name, seed): the same
// seed yields byte-identical snapshot files and op streams. The server
// under test only ever sees those files and the protocol lines.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/cell.h"
#include "common/range.h"
#include "common/status.h"
#include "sheet/sheet.h"

namespace perfbench {

/// The latency families the end-to-end metrics are split by.
enum class OpClass : uint8_t {
  kEdit,    ///< Value SET and value BATCH.
  kStruct,  ///< FORMULA, CLEAR and autofill BATCH.
  kQuery,   ///< EXPLAIN.
  kRead,    ///< GET and GETRANGE.
};

/// One protocol command of an op stream.
struct Op {
  OpClass cls = OpClass::kRead;
  int book = -1;     ///< Index into Workload::books (the session).
  std::string verb;  ///< Protocol verb, upper case.
  std::string text;  ///< The whole command, BATCH body lines included.
};

/// A column run of formula cells: one autofilled region column.
struct FormulaRun {
  int32_t col = 0;
  int32_t first_row = 0;
  int32_t last_row = 0;
  /// Mean cells referenced per formula: what evaluating one costs.
  double mean_ref_cells = 0;
  int32_t length() const { return last_row - first_row + 1; }
};

/// One generated workbook, loaded by the server as one session.
struct Book {
  std::string name;  ///< Session name (also the snapshot file stem).
  taco::Sheet sheet; ///< As generated: the oracle's starting state.
  std::vector<taco::Cell> data_cells;  ///< Number cells, column-major.
  std::vector<taco::Cell> anchors;     ///< Max-dependents / longest-path
                                       ///  heads that hold numbers.
  std::vector<FormulaRun> runs;        ///< Formula runs of >= 8 rows.
  /// Rectangles of at most 65536 cells that cover every non-blank cell:
  /// the GETRANGE requests that read the whole workbook.
  std::vector<taco::Range> read_plan;
  int32_t free_col = 1;  ///< First column right of the used range.
  uint64_t raw_dependencies = 0;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  std::vector<std::string> server_flags;  ///< Besides --listen/--wal-dir.
  bool durable = false;                   ///< Runs with a WAL directory.
  std::vector<Book> books;
  /// Sessions each writer connection owns; a session has one owner, so
  /// its acked ops have one order.
  std::vector<std::vector<int>> writers;
  bool reader = false;  ///< One more connection reading every session.

  int connections() const {
    return static_cast<int>(writers.size()) + (reader ? 1 : 0);
  }
};

/// GETRANGE rectangles of at most 65536 cells covering every non-blank
/// cell of `sheet`: adjacent columns merge while a rectangle stays at
/// most half blank.
std::vector<taco::Range> ReadPlan(const taco::Sheet& sheet);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Generates the workbooks of `name` for `seed`. InvalidArgument for an
/// unknown name.
taco::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed);

/// Writes every book as a binary snapshot `<dir>/<name>.tsnap`; returns
/// the total bytes written.
taco::Result<uint64_t> WriteSnapshots(const Workload& workload,
                                      const std::string& dir);

/// The endless, seeded op stream of one connection (writers first, then
/// the reader). Ops come in interactions — a SET and its viewport read,
/// a change and its inverse — and the stream never ends mid-way through
/// generating one.
class OpStream {
 public:
  OpStream(const Workload& workload, int connection, uint64_t seed);

  Op Next();

 private:
  void Refill();
  void RecalcInteraction();
  void StructureInteraction();
  void DurableWriterInteraction();
  void ReaderInteraction();

  // Building blocks shared by the interactions.
  void PushSet(int book, const taco::Cell& cell);
  void PushGet(int book, const taco::Cell& cell);
  void PushViewport(int book, const taco::Cell& cell);
  void PushExplain(int book, const taco::Cell& cell);
  void PushReenterPair(int book);
  void PushAutofillPair(int book);
  void PushValueBatch(int book, int edits);

  taco::Cell PickDataCell(int book);
  taco::Cell PickSetTarget(int book);  ///< 1/4 anchors, else data cells.
  int PickOwnBook();

  const Workload& workload_;
  const int connection_;
  std::mt19937_64 rng_;
  std::deque<Op> pending_;
  uint64_t interactions_ = 0;
  struct ReentryTargets {
    std::vector<taco::Cell> cells;
    size_t next = 0;  ///< Re-entries so far; they take the cells in turn.
  };
  std::map<int, ReentryTargets> reentry_targets_;  ///< By book.
  std::vector<int32_t> autofill_sizes_;  ///< The rest of the shuffled deck.
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
