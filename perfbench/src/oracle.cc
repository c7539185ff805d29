#include "oracle.h"

#include <algorithm>
#include <charconv>
#include <tuple>

#include "common/a1.h"
#include "common/range_set.h"
#include "store/wal.h"

namespace perfbench {
namespace {

constexpr size_t kKeptExamples = 8;

/// Ops per session whose responses are checked one by one.
constexpr size_t kCheckedOpsPerBook = 600;

/// Whitespace-separated token `index` of a protocol line.
std::string_view Token(std::string_view line, int index) {
  size_t pos = 0;
  for (int i = 0;; ++i) {
    pos = line.find_first_not_of(' ', pos);
    if (pos == std::string_view::npos) return {};
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    if (i == index) return line.substr(pos, end - pos);
    pos = end;
  }
}

/// Everything after token `index` (a value or formula source).
std::string_view Rest(std::string_view line, int index) {
  std::string_view token = Token(line, index);
  size_t end = token.data() + token.size() - line.data();
  size_t begin = line.find_first_not_of(' ', end);
  return begin == std::string_view::npos ? std::string_view{}
                                         : line.substr(begin);
}

/// One SET/FORMULA edit line (session name already stripped).
taco::Result<taco::Edit> ParseEdit(std::string_view verb,
                                   std::string_view cell_text,
                                   std::string_view rest) {
  auto cell = taco::ParseCellA1(cell_text);
  if (!cell.ok()) return cell.status();
  if (verb == "FORMULA") {
    return taco::Edit::SetFormula(*cell, std::string(rest));
  }
  double number = 0;
  auto [ptr, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), number);
  if (ec != std::errc() || ptr != rest.data() + rest.size()) {
    return taco::Status::InvalidArgument("non-numeric SET value");
  }
  return taco::Edit::SetNumber(*cell, number);
}

}  // namespace

taco::Status MemoizedNoComp::AddDependency(const taco::Dependency& dep) {
  if (!memo_.empty()) memo_.clear();
  return inner_.AddDependency(dep);
}

std::vector<taco::Range> MemoizedNoComp::FindDependents(
    const taco::Range& input) {
  auto it = memo_.find(input);
  if (it != memo_.end()) return it->second;
  // NoComp answers cell by cell; stacking vertically adjacent pieces of
  // one column span into runs describes the same cells with far fewer
  // ranges, which the engine's per-range invalidation needs.
  std::vector<taco::Range> pieces = inner_.FindDependents(input);
  std::sort(pieces.begin(), pieces.end(),
            [](const taco::Range& a, const taco::Range& b) {
              return std::tie(a.head.col, a.tail.col, a.head.row) <
                     std::tie(b.head.col, b.tail.col, b.head.row);
            });
  std::vector<taco::Range> dependents;
  for (const taco::Range& piece : pieces) {
    if (!dependents.empty()) {
      taco::Range& last = dependents.back();
      if (last.head.col == piece.head.col && last.tail.col == piece.tail.col &&
          last.tail.row + 1 == piece.head.row) {
        last.tail.row = piece.tail.row;
        continue;
      }
    }
    dependents.push_back(piece);
  }
  memo_.emplace(input, dependents);
  return dependents;
}

taco::Status MemoizedNoComp::RemoveFormulaCells(const taco::Range& cells) {
  if (!memo_.empty()) memo_.clear();
  return inner_.RemoveFormulaCells(cells);
}

void OracleReport::Mismatch(std::string what) {
  ++mismatches;
  if (examples.size() < kKeptExamples) examples.push_back(std::move(what));
}

BookOracle::BookOracle(const Book& book)
    : name_(book.name),
      sheet_(book.sheet),
      baseline_(std::make_unique<MemoizedNoComp>()) {
  (void)taco::BuildGraphFromSheet(sheet_, baseline_.get());
  Rebuild();
}

void BookOracle::CheckExplain(const OpRecord& record, MemoizedNoComp* graph,
                              OracleReport* report) {
  std::string_view text = record.op.text;
  auto cell = taco::ParseCellA1(Token(text, 2));
  if (!cell.ok()) {
    report->Mismatch("unparsable op " + record.op.text);
    return;
  }
  uint64_t expected = taco::CoveredCellCount(
      taco::DisjointifyRanges(graph->FindDependents(taco::Range(*cell))));
  uint64_t reported = FieldU64(record.response, "dirty_cells");
  if (expected != reported) {
    report->Mismatch(record.op.text + ": dirty_cells=" +
                     std::to_string(reported) + ", NoComp FindDependents " +
                     std::to_string(expected));
  }
}

void BookOracle::Rebuild() {
  engine_.reset();
  graph_ = std::make_unique<MemoizedNoComp>();
  (void)taco::BuildGraphFromSheet(sheet_, graph_.get());
  engine_ = std::make_unique<taco::RecalcEngine>(&sheet_, graph_.get());
  stale_ = false;
}

void BookOracle::ApplyUnchecked(const OpRecord& record,
                                OracleReport* report) {
  if (!record.ok || record.op.cls == OpClass::kRead) return;
  if (record.op.cls == OpClass::kQuery) {
    // Every structural change in the op streams is undone by the next op
    // of its session, so an EXPLAIN always sees the original graph.
    ++report->ops_checked;
    CheckExplain(record, baseline_.get(), report);
    return;
  }
  auto edits = ParseEdits(record.op);
  if (!edits.ok()) {
    report->Mismatch("unparsable op: " + edits.status().ToString());
    return;
  }
  for (const taco::Edit& edit : *edits) {
    taco::Status applied = taco::ApplyEditToSheet(&sheet_, edit);
    if (!applied.ok()) {
      report->Mismatch("the oracle rejects an acked edit: " +
                       applied.ToString());
    }
  }
  stale_ = true;
}

void BookOracle::Apply(const OpRecord& record, OracleReport* report) {
  if (!record.ok) return;  // Failed ops are counted, not replayed.
  ++report->ops_checked;
  const Op& op = record.op;
  std::string_view header = std::string_view(op.text).substr(
      0, op.text.find('\n'));
  if (op.verb == "SET" || op.verb == "FORMULA" || op.verb == "CLEAR" ||
      op.verb == "BATCH") {
    auto edits = ParseEdits(op);
    if (!edits.ok()) {
      report->Mismatch("unparsable op " + std::string(header) + ": " +
                       edits.status().ToString());
      return;
    }
    // A BATCH is applied edit by edit: the same final state as one merged
    // pass, and its dirty set is the union of the edits' — the op streams
    // batch only value SETs and formulas nothing references yet, neither
    // of which changes another edit's dependents.
    std::vector<taco::Range> dirty;
    for (const taco::Edit& edit : *edits) {
      taco::Result<taco::RecalcResult> result = ApplyEdit(edit);
      if (!result.ok()) {
        report->Mismatch(std::string(header) + ": the oracle rejects it (" +
                         result.status().ToString() +
                         ") but the server acked");
        return;
      }
      dirty.insert(dirty.end(), result->dirty.begin(), result->dirty.end());
    }
    uint64_t expected =
        taco::CoveredCellCount(taco::DisjointifyRanges(dirty));
    uint64_t reported = FieldU64(record.response, "dirty");
    if (reported != expected) {
      report->Mismatch(std::string(header) + ": dirty=" +
                       std::to_string(reported) + ", NoComp oracle " +
                       std::to_string(expected));
    }
    return;
  }
  if (op.verb == "EXPLAIN") {
    CheckExplain(record, graph_.get(), report);
    return;
  }
  if (op.verb == "GET" || op.verb == "GETRANGE") {
    auto ref = taco::ParseA1(Token(header, 2));
    if (!ref.ok()) {
      report->Mismatch("unparsable op " + std::string(header));
      return;
    }
    std::map<taco::Cell, std::string> expected;
    for (const taco::Cell& cell : taco::EnumerateCells(ref->range)) {
      if (op.verb == "GETRANGE" && sheet_.Get(cell) == nullptr) continue;
      expected[cell] = engine_->GetValue(cell).ToString();
    }
    CompareValues(std::string(header), expected,
                  ParseValues(record.response), report);
    return;
  }
  report->Mismatch("unknown verb in " + std::string(header));
}

taco::Result<taco::RecalcResult> BookOracle::ApplyEdit(
    const taco::Edit& edit) {
  switch (edit.kind) {
    case taco::Edit::Kind::kSetNumber:
      return engine_->SetNumber(edit.cell, edit.number);
    case taco::Edit::Kind::kSetText:
      return engine_->SetText(edit.cell, edit.text);
    case taco::Edit::Kind::kSetFormula:
      return engine_->SetFormula(edit.cell, edit.text);
    case taco::Edit::Kind::kClearRange:
      return engine_->ClearRange(edit.range);
  }
  return taco::Status::Internal("unknown edit kind");
}

taco::Result<taco::EditBatch> ParseEdits(const Op& op) {
  std::string_view text = op.text;
  std::string_view header = text.substr(0, text.find('\n'));
  taco::EditBatch edits;
  if (op.verb == "CLEAR") {
    auto ref = taco::ParseA1(Token(header, 2));
    if (!ref.ok()) return ref.status();
    edits.push_back(taco::Edit::ClearRange(ref->range));
    return edits;
  }
  if (op.verb != "BATCH") {
    auto edit = ParseEdit(op.verb, Token(header, 2), Rest(header, 2));
    if (!edit.ok()) return edit.status();
    edits.push_back(std::move(*edit));
    return edits;
  }
  std::string_view body = text.substr(header.size());
  while (!body.empty()) {
    body.remove_prefix(1);  // The newline.
    std::string_view line = body.substr(0, body.find('\n'));
    body.remove_prefix(line.size());
    auto edit = ParseEdit(Token(line, 0), Token(line, 1), Rest(line, 1));
    if (!edit.ok()) return edit.status();
    edits.push_back(std::move(*edit));
  }
  return edits;
}

std::map<taco::Cell, std::string> BookOracle::Values() {
  if (stale_) Rebuild();
  std::vector<taco::Cell> cells;
  sheet_.ForEachCellColumnMajor(
      [&](const taco::Cell& cell, const taco::CellContent&) {
        cells.push_back(cell);
      });
  std::map<taco::Cell, std::string> values;
  for (const taco::Cell& cell : cells) {
    values[cell] = engine_->GetValue(cell).ToString();
  }
  return values;
}

std::vector<taco::Range> BookOracle::ReadPlan() const {
  return perfbench::ReadPlan(sheet_);
}

std::vector<std::unique_ptr<BookOracle>> ReplayRun(const Workload& workload,
                                                   const RunResult& run,
                                                   OracleReport* report) {
  std::vector<std::unique_ptr<BookOracle>> oracles;
  for (const Book& book : workload.books) {
    oracles.push_back(std::make_unique<BookOracle>(book));
  }
  // The reader connection's reads race the writers, so their values are
  // not determined by any one order; only writer logs are replayed.
  // Each session's first kCheckedOpsPerBook ops are checked one by one;
  // the rest only reach the final values, which keeps the serial oracle
  // within a fraction of the run however long the run is.
  std::vector<size_t> applied(oracles.size(), 0);
  for (size_t c = 0; c < workload.writers.size(); ++c) {
    for (const OpRecord& record : run.logs[c]) {
      BookOracle& oracle = *oracles[record.op.book];
      if (applied[record.op.book]++ < kCheckedOpsPerBook) {
        oracle.Apply(record, report);
      } else {
        oracle.ApplyUnchecked(record, report);
      }
    }
  }
  return oracles;
}

void CompareValues(const std::string& label,
                   const std::map<taco::Cell, std::string>& expected,
                   const std::map<taco::Cell, std::string>& actual,
                   OracleReport* report) {
  report->cells_checked += expected.size();
  for (const auto& [cell, value] : expected) {
    auto it = actual.find(cell);
    std::string got = it == actual.end() ? "(blank)" : it->second;
    if (got != value) {
      report->Mismatch(label + ": " + taco::CellToA1(cell) + " is " + got +
                       ", oracle " + value);
    }
  }
  for (const auto& [cell, value] : actual) {
    if (!expected.contains(cell)) {
      report->Mismatch(label + ": " + taco::CellToA1(cell) + " is " + value +
                       ", oracle (blank)");
    }
  }
}

bool SelfTestDetectsCorruption(
    std::map<taco::Cell, std::string> expected,
    const std::map<taco::Cell, std::string>& actual) {
  if (expected.empty()) return false;
  auto victim = std::next(expected.begin(), expected.size() / 2);
  victim->second += "1";  // "12" -> "121", "#REF!" -> "#REF!1".
  OracleReport report;
  CompareValues("self-test", expected, actual, &report);
  return report.mismatches == 1;
}

}  // namespace perfbench
