#include "workload.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/a1.h"
#include "corpus/generator.h"
#include "graph/dependency.h"
#include "store/snapshot.h"

namespace perfbench {
namespace {

using taco::Cell;
using taco::Range;

/// GETRANGE refuses rectangles over this many cells.
constexpr uint64_t kMaxReadCells = 65536;

/// Autofill mirrors only runs whose formulas read at most this many
/// cells each.
constexpr double kMaxMirrorRefCells = 16;

/// Formula re-entries target this many cells per formula run, one in
/// each of as many equal slices of the run.
constexpr int32_t kReentryTargetsPerRun = 4;

}  // namespace

std::vector<Range> ReadPlan(const taco::Sheet& sheet) {
  std::map<int32_t, std::pair<int32_t, uint64_t>> columns;  // max row, cells
  sheet.ForEachCellColumnMajor(
      [&](const Cell& cell, const taco::CellContent&) {
        auto& [max_row, cells] = columns[cell.col];
        max_row = std::max(max_row, cell.row);
        ++cells;
      });
  std::vector<Range> plan;
  auto flush = [&](int32_t first, int32_t last, int32_t rows) {
    int32_t chunk = static_cast<int32_t>(
        std::max<uint64_t>(1, kMaxReadCells / (last - first + 1)));
    for (int32_t row = 1; row <= rows; row += chunk) {
      plan.emplace_back(first, row, last, std::min(rows, row + chunk - 1));
    }
  };
  int32_t first = 0, last = 0, rows = 0;
  uint64_t cells = 0;
  for (const auto& [col, extent] : columns) {
    if (first != 0) {
      int32_t merged_rows = std::max(rows, extent.first);
      uint64_t area = uint64_t(col - first + 1) * uint64_t(merged_rows);
      if (col == last + 1 && area <= kMaxReadCells &&
          area <= 2 * (cells + extent.second)) {
        last = col;
        rows = merged_rows;
        cells += extent.second;
        continue;
      }
      flush(first, last, rows);
    }
    first = last = col;
    rows = extent.first;
    cells = extent.second;
  }
  if (first != 0) flush(first, last, rows);
  return plan;
}

namespace {

Book MakeBook(std::string name, taco::CorpusSheet generated) {
  Book book;
  book.name = std::move(name);
  book.sheet = std::move(generated.sheet);
  book.sheet.set_name(book.name);
  int32_t max_col = 0;
  FormulaRun run;
  auto close_run = [&] {
    if (run.col != 0 && run.length() >= 8) book.runs.push_back(run);
    run = FormulaRun{};
  };
  book.sheet.ForEachCellColumnMajor(
      [&](const Cell& cell, const taco::CellContent& content) {
        max_col = std::max(max_col, cell.col);
        if (content.IsNumber()) book.data_cells.push_back(cell);
        if (!content.IsFormula()) return;
        if (run.col == cell.col && run.last_row + 1 == cell.row) {
          run.last_row = cell.row;
          return;
        }
        close_run();
        run = FormulaRun{cell.col, cell.row, cell.row};
      });
  close_run();
  for (const Cell& anchor :
       {generated.max_dependents_cell, generated.longest_path_cell}) {
    const taco::CellContent* content = book.sheet.Get(anchor);
    if (content != nullptr && content->IsNumber()) {
      book.anchors.push_back(anchor);
    }
  }
  std::vector<taco::Dependency> deps = taco::CollectDependencies(book.sheet);
  std::unordered_map<Cell, uint64_t> ref_cells;
  for (const taco::Dependency& dep : deps) ref_cells[dep.dep] += dep.prec.Area();
  for (FormulaRun& r : book.runs) {
    uint64_t total = 0;
    for (int32_t row = r.first_row; row <= r.last_row; ++row) {
      total += ref_cells[Cell{r.col, row}];
    }
    r.mean_ref_cells = static_cast<double>(total) / r.length();
  }
  book.read_plan = ReadPlan(book.sheet);
  book.free_col = max_col + 2;
  book.raw_dependencies = deps.size();
  return book;
}

/// Mixes the workload seed into a generator seed (splitmix64 finalizer),
/// so neighbouring seeds give unrelated corpora.
uint32_t CorpusSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<uint32_t>(z ^ (z >> 31));
}

std::vector<Book> GenerateBooks(taco::CorpusProfile profile,
                                const std::string& prefix) {
  taco::CorpusGenerator generator(profile);
  std::vector<Book> books;
  for (int i = 0; i < profile.num_sheets; ++i) {
    books.push_back(
        MakeBook(prefix + std::to_string(i), generator.GenerateSheet(i)));
  }
  return books;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"recalc", "structure",
                                                 "durable_rw"};
  return names;
}

taco::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  Workload w;
  w.name = std::string(name);
  w.seed = seed;
  if (name == "recalc" || name == "structure") {
    // Four Github-profile workbooks of ~21k formulas each (~85k in all),
    // with data values so evaluation has inputs, and no flat sheets so
    // every book carries chains and wide fan-outs. The books come from
    // the profile's own corpus seed; --seed drives the op streams.
    taco::CorpusProfile profile = taco::CorpusProfile::Github();
    profile.num_sheets = 4;
    profile.min_formulas_per_sheet = 21000;
    profile.max_formulas_per_sheet = 21000;
    profile.flat_sheet_probability = 0;
    profile.fill_values = true;
    // Regions of 1000-2000 rows keep every op interactive: the profile's
    // tail up to 60000 rows makes a single anchor edit take over a second
    // (and the serial NoComp oracle far longer).
    profile.min_region_len = 1000;
    profile.max_region_len = 2000;
    w.books = GenerateBooks(profile, "book");
    w.writers = {{0, 1}, {2, 3}};
    w.server_flags = {"--store", "binary"};
    if (name == "recalc") {
      w.server_flags.insert(w.server_flags.end(),
                            {"--recalc-threads", "2", "--cutoff"});
    }
  } else if (name == "durable_rw") {
    // Sixteen small Enron-profile workbooks against a resident cap of 8:
    // the working set is twice the cap, so parking and reloading run on
    // the request path.
    taco::CorpusProfile profile = taco::CorpusProfile::Enron();
    profile.num_sheets = 16;
    profile.min_formulas_per_sheet = 3000;
    profile.max_formulas_per_sheet = 3000;
    profile.fill_values = true;
    w.books = GenerateBooks(profile, "book");
    w.durable = true;
    w.server_flags = {"--store", "binary", "--group-commit",
                      "--max-resident", "8"};
    w.writers = {{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14, 15}};
    w.reader = true;
  } else {
    return taco::Status::InvalidArgument("unknown workload '" +
                                         std::string(name) + "'");
  }
  for (const Book& book : w.books) {
    if (book.data_cells.empty() || book.runs.empty()) {
      return taco::Status::Internal("generated book " + book.name +
                                    " has no data cells or formula runs");
    }
  }
  return w;
}

taco::Result<uint64_t> WriteSnapshots(const Workload& workload,
                                      const std::string& dir) {
  uint64_t bytes = 0;
  for (const Book& book : workload.books) {
    std::string data = taco::WriteSheetBinary(book.sheet, "taco");
    TACO_RETURN_IF_ERROR(
        taco::WriteFileAtomic(dir + "/" + book.name + ".tsnap", data));
    bytes += data.size();
  }
  return bytes;
}

// --- OpStream --------------------------------------------------------------

OpStream::OpStream(const Workload& workload, int connection, uint64_t seed)
    : workload_(workload),
      connection_(connection),
      rng_(CorpusSeed(seed, 100 + connection)) {}

Op OpStream::Next() {
  if (pending_.empty()) Refill();
  Op op = std::move(pending_.front());
  pending_.pop_front();
  return op;
}

void OpStream::Refill() {
  bool is_reader =
      connection_ == static_cast<int>(workload_.writers.size());
  if (is_reader) {
    ReaderInteraction();
  } else if (workload_.name == "recalc") {
    RecalcInteraction();
  } else if (workload_.name == "structure") {
    StructureInteraction();
  } else {
    DurableWriterInteraction();
  }
  ++interactions_;
}

void OpStream::RecalcInteraction() {
  // A user edits a value and looks at the viewport around it.
  const std::vector<int>& own = workload_.writers[connection_];
  int book = own[interactions_ % own.size()];
  Cell cell = PickSetTarget(book);
  PushSet(book, cell);
  PushViewport(book, cell);
}

void OpStream::StructureInteraction() {
  // Two users, one per connection. The first autofills mirrored regions
  // and removes them again; the second re-enters formulas and restores
  // them, and asks for the dependents of data cells and anchors. Each
  // sends its next op as soon as the last is answered, so the server's
  // speed, not a chosen ratio, sets how the two kinds of work mix.
  const std::vector<int>& own = workload_.writers[connection_];
  int book = own[interactions_ % own.size()];
  if (connection_ == 0) {
    PushAutofillPair(book);
    return;
  }
  const Book& b = workload_.books[book];
  PushExplain(book, PickDataCell(book));
  PushReenterPair(book);
  PushExplain(book, b.anchors.empty()
                        ? PickDataCell(book)
                        : b.anchors[interactions_ / own.size() %
                                    b.anchors.size()]);
}

void OpStream::DurableWriterInteraction() {
  // Small durable edits over the connection's eight sessions: single
  // SETs, a fifth of them small BATCHes.
  int book = PickOwnBook();
  if (std::uniform_int_distribution<int>(0, 4)(rng_) == 0) {
    PushValueBatch(book, std::uniform_int_distribution<int>(2, 8)(rng_));
  } else {
    PushSet(book, PickDataCell(book));
  }
}

void OpStream::ReaderInteraction() {
  // GET : GETRANGE at 3 : 1 over every session, including parked ones.
  int book = std::uniform_int_distribution<int>(
      0, static_cast<int>(workload_.books.size()) - 1)(rng_);
  Cell cell = PickDataCell(book);
  if (interactions_ % 4 == 3) {
    PushViewport(book, cell);
  } else {
    // Half the point reads land on a formula cell next to the data.
    const Book& b = workload_.books[book];
    if (interactions_ % 2 == 1) {
      const FormulaRun& run = b.runs[std::uniform_int_distribution<size_t>(
          0, b.runs.size() - 1)(rng_)];
      cell = Cell{run.col, std::uniform_int_distribution<int32_t>(
                               run.first_row, run.last_row)(rng_)};
    }
    PushGet(book, cell);
  }
}

void OpStream::PushSet(int book, const Cell& cell) {
  int value = std::uniform_int_distribution<int>(1, 999)(rng_);
  pending_.push_back({OpClass::kEdit, book, "SET",
                      "SET " + workload_.books[book].name + " " +
                          taco::CellToA1(cell) + " " +
                          std::to_string(value)});
}

void OpStream::PushGet(int book, const Cell& cell) {
  pending_.push_back({OpClass::kRead, book, "GET",
                      "GET " + workload_.books[book].name + " " +
                          taco::CellToA1(cell)});
}

void OpStream::PushViewport(int book, const Cell& cell) {
  // A 30-row by 8-column viewport with the cell at its top-left corner.
  Range view(cell.col, cell.row, std::min(taco::kMaxCol, cell.col + 7),
             std::min(taco::kMaxRow, cell.row + 29));
  pending_.push_back({OpClass::kRead, book, "GETRANGE",
                      "GETRANGE " + workload_.books[book].name + " " +
                          taco::RangeToA1(view)});
}

void OpStream::PushExplain(int book, const Cell& cell) {
  pending_.push_back({OpClass::kQuery, book, "EXPLAIN",
                      "EXPLAIN " + workload_.books[book].name + " " +
                          taco::CellToA1(cell)});
}

void OpStream::PushReenterPair(int book) {
  // Replace one mid-run formula with a different one that also reads a
  // data cell — which fragments the run's compressed edge — then restore
  // the original text. The targets are a fixed set of cells per book,
  // re-entered in turn: a seeded row in each quarter of every formula
  // run. The graph does not re-merge a restored formula into its run's
  // edge, so fresh targets would leave it more fragmented, and every op
  // slower, the longer a run lasts; and a row from every part of every
  // run keeps the mix of cheap and costly targets (a running total's
  // head or tail) alike across seeds.
  const Book& b = workload_.books[book];
  ReentryTargets& targets = reentry_targets_[book];
  if (targets.cells.empty()) {
    for (const FormulaRun& run : b.runs) {
      const int32_t inner = run.length() - 2;  // Rows strictly inside.
      for (int32_t k = 0; k < kReentryTargetsPerRun; ++k) {
        const int32_t lo =
            run.first_row + 1 + inner * k / kReentryTargetsPerRun;
        const int32_t hi =
            run.first_row + inner * (k + 1) / kReentryTargetsPerRun;
        targets.cells.push_back(Cell{
            run.col, std::uniform_int_distribution<int32_t>(
                         lo, std::max(lo, hi))(rng_)});
      }
    }
    std::shuffle(targets.cells.begin(), targets.cells.end(), rng_);
  }
  const Cell cell = targets.cells[targets.next++ % targets.cells.size()];
  const std::string& original = b.sheet.Get(cell)->formula().text;
  std::string prefix =
      "FORMULA " + b.name + " " + taco::CellToA1(cell) + " ";
  pending_.push_back({OpClass::kStruct, book, "FORMULA",
                      prefix + "(" + original + ")+" +
                          taco::CellToA1(PickDataCell(book))});
  pending_.push_back({OpClass::kStruct, book, "FORMULA", prefix + original});
}

void OpStream::PushAutofillPair(int book) {
  // Autofill 200-2000 rows into the free column, mirroring an existing
  // run row for row (same formula text, so the same precedents), as one
  // BATCH; then CLEAR the block, leaving the graph as it was.
  // Only runs whose formulas read a few cells each qualify: a mirrored
  // running total would re-sum its whole prefix per row and turn this
  // graph-maintenance op into an evaluation one.
  const Book& b = workload_.books[book];
  std::vector<const FormulaRun*> long_runs;
  const FormulaRun* longest = &b.runs.front();
  for (const FormulaRun& run : b.runs) {
    if (run.mean_ref_cells > kMaxMirrorRefCells) continue;
    if (run.length() >= 200) long_runs.push_back(&run);
    if (longest->mean_ref_cells > kMaxMirrorRefCells ||
        run.length() > longest->length()) {
      longest = &run;
    }
  }
  const FormulaRun& run =
      long_runs.empty()
          ? *longest
          : *long_runs[std::uniform_int_distribution<size_t>(
                0, long_runs.size() - 1)(rng_)];
  // Sizes come from a deck of 200, 300, ..., 2000 rows, shuffled by the
  // seed and dealt in turn, so that every run covers the range evenly:
  // the mean cost of a few dozen uniform draws differed by a sixth
  // between seeds.
  if (autofill_sizes_.empty()) {
    for (int32_t size = 200; size <= 2000; size += 100) {
      autofill_sizes_.push_back(size);
    }
    std::shuffle(autofill_sizes_.begin(), autofill_sizes_.end(), rng_);
  }
  int32_t rows = std::min(run.length(), autofill_sizes_.back());
  autofill_sizes_.pop_back();
  int32_t first = std::uniform_int_distribution<int32_t>(
      run.first_row, run.last_row - rows + 1)(rng_);
  std::string text =
      "BATCH " + b.name + " " + std::to_string(rows);
  for (int32_t row = first; row < first + rows; ++row) {
    text += "\nFORMULA " + taco::CellToA1(Cell{b.free_col, row}) + " " +
            b.sheet.Get(Cell{run.col, row})->formula().text;
  }
  pending_.push_back({OpClass::kStruct, book, "BATCH", std::move(text)});
  pending_.push_back(
      {OpClass::kStruct, book, "CLEAR",
       "CLEAR " + b.name + " " +
           taco::RangeToA1(Range(b.free_col, first, b.free_col,
                                 first + rows - 1))});
}

void OpStream::PushValueBatch(int book, int edits) {
  std::string text =
      "BATCH " + workload_.books[book].name + " " + std::to_string(edits);
  for (int i = 0; i < edits; ++i) {
    text += "\nSET " + taco::CellToA1(PickDataCell(book)) + " " +
            std::to_string(std::uniform_int_distribution<int>(1, 999)(rng_));
  }
  pending_.push_back({OpClass::kEdit, book, "BATCH", std::move(text)});
}

Cell OpStream::PickDataCell(int book) {
  const std::vector<Cell>& cells = workload_.books[book].data_cells;
  return cells[std::uniform_int_distribution<size_t>(0, cells.size() - 1)(
      rng_)];
}

Cell OpStream::PickSetTarget(int book) {
  const Book& b = workload_.books[book];
  if (!b.anchors.empty() &&
      std::uniform_int_distribution<int>(0, 3)(rng_) == 0) {
    return b.anchors[std::uniform_int_distribution<size_t>(
        0, b.anchors.size() - 1)(rng_)];
  }
  return PickDataCell(book);
}

int OpStream::PickOwnBook() {
  const std::vector<int>& own = workload_.writers[connection_];
  return own[std::uniform_int_distribution<size_t>(0, own.size() - 1)(rng_)];
}

}  // namespace perfbench
