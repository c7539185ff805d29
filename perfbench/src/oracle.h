// The output oracle: a serial RecalcEngine over a NoCompGraph per
// session, fed that session's acked ops in order. Every response that
// is determined by the op order is checked against it — the dirty
// count of each edit and EXPLAIN, and the values of every GET and
// GETRANGE a session's owner sent — and so are the final values of
// every cell.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/recalc.h"
#include "graph/nocomp_graph.h"
#include "sheet/sheet.h"
#include "socket_run.h"
#include "workload.h"

namespace perfbench {

/// Mismatches found so far; only the first few are kept verbatim.
struct OracleReport {
  uint64_t ops_checked = 0;
  uint64_t cells_checked = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> examples;

  void Mismatch(std::string what);
  bool ok() const { return mismatches == 0; }
};

/// NoComp whose FindDependents answers are remembered until the graph
/// next changes. Value edits dominate most op streams and never change
/// the graph, so this keeps the baseline's slow closure queries off all
/// but the first edit of each cell.
class MemoizedNoComp : public taco::DependencyGraph {
 public:
  taco::Status AddDependency(const taco::Dependency& dep) override;
  std::vector<taco::Range> FindDependents(const taco::Range& input) override;
  std::vector<taco::Range> FindPrecedents(const taco::Range& input) override {
    return inner_.FindPrecedents(input);
  }
  taco::Status RemoveFormulaCells(const taco::Range& cells) override;
  size_t NumVertices() const override { return inner_.NumVertices(); }
  size_t NumEdges() const override { return inner_.NumEdges(); }
  std::string Name() const override { return inner_.Name(); }

 private:
  taco::NoCompGraph inner_;
  std::unordered_map<taco::Range, std::vector<taco::Range>> memo_;
};

class BookOracle {
 public:
  explicit BookOracle(const Book& book);
  BookOracle(const BookOracle&) = delete;
  BookOracle& operator=(const BookOracle&) = delete;

  /// Applies one acked op (reads change nothing) and checks its response.
  void Apply(const OpRecord& record, OracleReport* report);

  /// Applies one acked op's edits to the sheet alone, unchecked: the
  /// cheap path for the tail of a long run. After it, Apply must not be
  /// called again; Values re-evaluates from scratch.
  void ApplyUnchecked(const OpRecord& record, OracleReport* report);

  /// Every non-blank cell's display text.
  std::map<taco::Cell, std::string> Values();

  /// GETRANGE rectangles covering every non-blank cell now.
  std::vector<taco::Range> ReadPlan() const;

  const std::string& name() const { return name_; }

 private:
  taco::Result<taco::RecalcResult> ApplyEdit(const taco::Edit& edit);

  /// A fresh graph and engine over the sheet as it is now.
  void Rebuild();

  /// Checks an EXPLAIN's dirty_cells against `graph`'s FindDependents.
  void CheckExplain(const OpRecord& record, MemoizedNoComp* graph,
                    OracleReport* report);

  std::string name_;
  taco::Sheet sheet_;
  std::unique_ptr<MemoizedNoComp> baseline_;  ///< The generated graph.
  std::unique_ptr<MemoizedNoComp> graph_;
  std::unique_ptr<taco::RecalcEngine> engine_;
  bool stale_ = false;  ///< Edits reached the sheet past the engine.
};

/// The edits of a SET, FORMULA, CLEAR or BATCH op, as the protocol
/// parses them.
taco::Result<taco::EditBatch> ParseEdits(const Op& op);

/// Replays every writer log of `run` onto one oracle per book (in the
/// workload's book order) and checks each response on the way.
std::vector<std::unique_ptr<BookOracle>> ReplayRun(const Workload& workload,
                                                   const RunResult& run,
                                                   OracleReport* report);

/// Compares a session's values as the server reported them against the
/// oracle's; every difference is a mismatch.
void CompareValues(const std::string& label,
                   const std::map<taco::Cell, std::string>& expected,
                   const std::map<taco::Cell, std::string>& actual,
                   OracleReport* report);

/// The check's self-test: corrupts one expected value and returns true
/// when CompareValues reports the corruption.
bool SelfTestDetectsCorruption(std::map<taco::Cell, std::string> expected,
                               const std::map<taco::Cell, std::string>& actual);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
