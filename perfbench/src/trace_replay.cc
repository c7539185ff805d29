#include "trace_replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common/a1.h"
#include "formula/parser.h"
#include "obs/rid.h"
#include "oracle.h"
#include "sched/recalc_scheduler.h"
#include "sched/thread_pool.h"
#include "service/protocol.h"
#include "service/workbook_service.h"
#include "service/workbook_session.h"
#include "store/group_commit.h"
#include "store/storage_engine.h"
#include "taco/taco_graph.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Each in-process replay stops after this long (or the whole stream).
constexpr double kReplaySeconds = 10;

/// The verbs the per-verb metrics cover, in report order.
const std::vector<std::string>& Verbs() {
  static const std::vector<std::string> verbs = {
      "SET", "BATCH", "FORMULA", "CLEAR", "GET", "GETRANGE", "EXPLAIN"};
  return verbs;
}

std::string Lower(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(c));
  return text;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Spans -------------------------------------------------------------------

enum SpanName : uint8_t {
  kExecute,             ///< One replayed op, the root.
  kFindDependents,
  kAddDependency,
  kRemoveFormulaCells,
  kBuild,               ///< BuildGraphFromSheet for a loaded book.
  kSchedPlan,           ///< RecalcExecutor::Plan (EXPLAIN's dry run).
  kPlanProbe,           ///< The bench's own Plan call inside Execute;
                        ///  excluded from attribution.
  kSchedExecute,        ///< RecalcExecutor::Execute (waves + evaluation).
  kSnapshotLoad,
  kSnapshotSave,
  kWalFlush,            ///< One group-commit fsync (committer thread).
  kSpanNames,
};

constexpr const char* kSpanNameText[kSpanNames] = {
    "service.execute",      "taco.find_dependents",
    "taco.add_dependency",  "taco.remove_formula_cells",
    "taco.build",           "sched.plan",
    "sched.plan_probe",     "sched.execute",
    "store.snapshot_load",  "store.snapshot_save",
    "store.wal_flush"};

struct Span {
  SpanName name = kExecute;
  int32_t parent = -1;
  uint64_t rid = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration() const { return end_ns - start_ns; }
};

/// In-memory span store. Nested spans come from the replay thread only;
/// the committer thread's flushes arrive detached (no parent).
class SpanRecorder {
 public:
  int32_t Begin(SpanName name) {
    int32_t id = static_cast<int32_t>(spans_.size());
    spans_.push_back(
        {name, stack_.empty() ? -1 : stack_.back(), rid_, NowNs(), 0});
    stack_.push_back(id);
    return id;
  }
  void End(int32_t id) {
    spans_[id].end_ns = NowNs();
    stack_.pop_back();
  }
  void RecordDetached(SpanName name, int64_t start_ns, int64_t end_ns) {
    std::lock_guard<std::mutex> lock(detached_mu_);
    detached_.push_back({name, -1, 0, start_ns, end_ns});
  }
  void set_rid(uint64_t rid) { rid_ = rid; }

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> detached() {
    std::lock_guard<std::mutex> lock(detached_mu_);
    return detached_;
  }

  /// One line per span: id, parent, rid, name, start and end (ns).
  void WriteTsv(const std::string& path) {
    std::ofstream out(path);
    out << "id\tparent\trid\tname\tstart_ns\tend_ns\n";
    auto write = [&](const std::vector<Span>& spans, int64_t first_id) {
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << first_id + int64_t(i) << '\t' << s.parent << '\t' << s.rid
            << '\t' << kSpanNameText[s.name] << '\t' << s.start_ns << '\t'
            << s.end_ns << '\n';
      }
    };
    write(spans_, 0);
    write(detached(), static_cast<int64_t>(spans_.size()));
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint64_t rid_ = 0;
  std::mutex detached_mu_;
  std::vector<Span> detached_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name)
      : recorder_(recorder), id_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

// --- Layer wrappers ------------------------------------------------------------

/// Exact per-layer counts gathered by the wrappers.
struct LayerCounts {
  uint64_t edge_accesses = 0;
  uint64_t result_ranges = 0;
  std::map<std::string, uint64_t> passes;  ///< By plan granularity.
  uint64_t waves = 0;
  uint64_t max_wave_cells = 0;
  uint64_t barrier_wait_ns = 0;
  uint64_t executor_passes = 0;
};

/// Times every DependencyGraph call around an owned graph. Calls made
/// while building are not recorded one by one (the build is one span).
class TracingGraph : public taco::DependencyGraph {
 public:
  TracingGraph(std::unique_ptr<taco::DependencyGraph> inner,
               SpanRecorder* recorder, LayerCounts* counts)
      : inner_(std::move(inner)), recorder_(recorder), counts_(counts) {}

  void set_recording(bool recording) { recording_ = recording; }

  taco::Status AddDependency(const taco::Dependency& dep) override {
    if (!recording_) return inner_->AddDependency(dep);
    ScopedSpan span(recorder_, kAddDependency);
    return inner_->AddDependency(dep);
  }
  std::vector<taco::Range> FindDependents(const taco::Range& input) override {
    std::vector<taco::Range> result;
    {
      ScopedSpan span(recorder_, kFindDependents);
      result = inner_->FindDependents(input);
    }
    counters_ = inner_->last_query_counters();
    counts_->edge_accesses += counters_.edge_accesses;
    counts_->result_ranges += counters_.result_ranges;
    return result;
  }
  std::vector<taco::Range> FindPrecedents(const taco::Range& input) override {
    std::vector<taco::Range> result = inner_->FindPrecedents(input);
    counters_ = inner_->last_query_counters();
    return result;
  }
  taco::Status RemoveFormulaCells(const taco::Range& cells) override {
    ScopedSpan span(recorder_, kRemoveFormulaCells);
    return inner_->RemoveFormulaCells(cells);
  }
  size_t NumVertices() const override { return inner_->NumVertices(); }
  size_t NumEdges() const override { return inner_->NumEdges(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<taco::DependencyGraph> inner_;
  SpanRecorder* recorder_;
  LayerCounts* counts_;
  bool recording_ = true;
};

/// Times the wave executor. Before each Execute it asks the executor for
/// the plan of the same pass (a probe, excluded from attribution) to
/// learn the planning cost and granularity Execute will pick.
class TracingExecutor : public taco::RecalcExecutor {
 public:
  TracingExecutor(taco::RecalcExecutor* inner, SpanRecorder* recorder,
                  LayerCounts* counts)
      : inner_(inner), recorder_(recorder), counts_(counts) {}

  Outcome Execute(const taco::Sheet& sheet, taco::Evaluator* evaluator,
                  std::span<const taco::Range> dirty,
                  const taco::CutoffContext* cutoff) override {
    taco::RecalcPlan plan;
    {
      ScopedSpan span(recorder_, kPlanProbe);
      std::span<const taco::Range> seeds;
      if (cutoff != nullptr) seeds = cutoff->seeds;
      plan = inner_->Plan(sheet, dirty, seeds, cutoff != nullptr);
    }
    ++counts_->passes[std::string(plan.granularity_name())];
    Outcome outcome;
    {
      ScopedSpan span(recorder_, kSchedExecute);
      outcome = inner_->Execute(sheet, evaluator, dirty, cutoff);
    }
    ++counts_->executor_passes;
    counts_->waves += outcome.waves;
    counts_->max_wave_cells =
        std::max(counts_->max_wave_cells, outcome.max_wave_cells);
    counts_->barrier_wait_ns += outcome.barrier_wait_ns;
    return outcome;
  }

  taco::RecalcPlan Plan(const taco::Sheet& sheet,
                        std::span<const taco::Range> dirty,
                        std::span<const taco::Range> seeds,
                        bool cutoff) const override {
    ScopedSpan span(recorder_, kSchedPlan);
    return inner_->Plan(sheet, dirty, seeds, cutoff);
  }

 private:
  taco::RecalcExecutor* inner_;
  SpanRecorder* recorder_;
  LayerCounts* counts_;
};

/// Times snapshot saves and loads of the shared storage engine.
class TracingStorage : public taco::StorageEngine {
 public:
  TracingStorage(std::unique_ptr<taco::StorageEngine> inner,
                 SpanRecorder* recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  std::string_view name() const override { return inner_->name(); }
  std::string Serialize(const taco::Sheet& sheet) const override {
    return inner_->Serialize(sheet);
  }
  taco::Result<taco::Sheet> Deserialize(std::string_view data) const override {
    return inner_->Deserialize(data);
  }
  taco::Status SaveSnapshot(const taco::Sheet& sheet, const std::string& path,
                            const taco::SnapshotMeta& meta) const override {
    ScopedSpan span(recorder_, kSnapshotSave);
    return inner_->SaveSnapshot(sheet, path, meta);
  }
  taco::Result<taco::Sheet> LoadSnapshot(
      const std::string& path, taco::SnapshotMeta* meta) const override {
    ScopedSpan span(recorder_, kSnapshotLoad);
    return inner_->LoadSnapshot(path, meta);
  }

 private:
  std::unique_ptr<taco::StorageEngine> inner_;
  SpanRecorder* recorder_;
};

// --- Replay helpers --------------------------------------------------------

/// The acked ops to replay, in the order they were sent (each
/// connection's log is already in send order, and a session has one
/// owner, so every session keeps its own order).
std::vector<const Op*> ReplayOrder(const RunResult& run) {
  std::vector<const OpRecord*> records;
  for (const std::vector<OpRecord>& log : run.logs) {
    for (const OpRecord& record : log) {
      if (record.ok) records.push_back(&record);
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const OpRecord* a, const OpRecord* b) {
                     return a->at_s < b->at_s;
                   });
  std::vector<const Op*> ops;
  for (const OpRecord* record : records) ops.push_back(&record->op);
  return ops;
}

taco::Status CopySnapshots(const Workload& workload, const std::string& from,
                           const std::string& to) {
  std::error_code ec;
  fs::create_directories(to + "/wal", ec);
  for (const Book& book : workload.books) {
    fs::copy_file(from + "/" + book.name + ".tsnap",
                  to + "/" + book.name + ".tsnap",
                  fs::copy_options::overwrite_existing, ec);
    if (ec) return taco::Status::IoError("copy snapshot: " + ec.message());
  }
  return taco::Status::OK();
}

/// The server's options for an in-process replay, except that nothing
/// is parked: a replay cannot reproduce the LRU order of concurrent
/// connections, so parking would make the two replays do different
/// work. The socket runs measure parking (service.evictions).
taco::WorkbookServiceOptions ServiceOptions(const Workload& workload,
                                            const std::string& dir) {
  taco::WorkbookServiceOptions options;
  options.max_resident_sessions = 0;
  const std::vector<std::string>& flags = workload.server_flags;
  for (size_t i = 0; i < flags.size(); ++i) {
    const std::string& flag = flags[i];
    const std::string next = i + 1 < flags.size() ? flags[i + 1] : "";
    if (flag == "--store") options.store = next;
    if (flag == "--recalc-threads") options.recalc_threads = std::stoi(next);
    if (flag == "--cutoff") options.cutoff = true;
    if (flag == "--group-commit") options.group_commit = true;
  }
  if (workload.durable) options.wal_dir = dir + "/wal";
  return options;
}

/// Per-verb Execute times (ns) of the real in-process service.
using VerbTimes = std::map<std::string, std::vector<double>>;

/// A real WorkbookService + CommandProcessor built with the server's
/// flags, loaded and warmed as the server is: the in-process Execute
/// time every attribution is held against.
class ServiceReplay {
 public:
  ServiceReplay(const Workload& workload, const std::string& dir)
      : service_(ServiceOptions(workload, dir)), processor_(&service_) {}

  taco::Status Warm(const Workload& workload, const std::string& dir) {
    for (const Book& book : workload.books) {
      std::string response = processor_.Execute(
          "LOAD " + book.name + " " + dir + "/" + book.name + ".tsnap");
      if (response.starts_with("ERR")) {
        return taco::Status::Internal(response);
      }
    }
    for (const Book& book : workload.books) {
      for (const taco::Range& range : book.read_plan) {
        processor_.Execute("GETRANGE " + book.name + " " +
                           taco::RangeToA1(range));
      }
    }
    return taco::Status::OK();
  }

  struct Timing {
    double execute_ns = 0;
    /// The protocol and registry work around the session call (parsing,
    /// lookup, metering, formatting): for a mutation, Execute minus the
    /// session's own trace span of it; for a read-only verb, which can
    /// be repeated without changing anything, Execute minus the same
    /// session call made directly.
    double protocol_ns = 0;
  };

  /// Executes one op.
  taco::Result<Timing> Execute(const Op& op) {
    Timing timing;
    auto start = Clock::now();
    std::string response = processor_.Execute(op.text);
    timing.execute_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    if (response.starts_with("ERR")) {
      return taco::Status::Internal(op.text.substr(0, op.text.find('\n')) +
                                    " -> " + response);
    }
    if (op.verb != "GET" && op.verb != "GETRANGE" && op.verb != "EXPLAIN") {
      std::vector<taco::obs::TraceSpan> newest =
          service_.metrics().trace().Newest(1);
      if (newest.empty() || newest.front().op != op.verb) {
        return taco::Status::Internal("no trace span for " + op.verb);
      }
      timing.protocol_ns =
          std::max(0.0, timing.execute_ns - double(newest.front().total_ns));
      return timing;
    }
    // Both repeats find every cache as warm as the other does.
    start = Clock::now();
    processor_.Execute(op.text);
    double again_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    std::istringstream words(op.text);
    std::string verb, name, target;
    words >> verb >> name >> target;
    auto session = service_.Get(name);
    auto ref = taco::ParseA1(target);
    if (!session.ok() || !ref.ok()) return timing;
    start = Clock::now();
    if (op.verb == "GET") {
      (*session)->GetValue(ref->range.head);
    } else if (op.verb == "GETRANGE") {
      (*session)->GetRange(ref->range);
    } else {
      (*session)->Explain(ref->range);
    }
    double direct_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    timing.protocol_ns = std::max(0.0, again_ns - direct_ns);
    return timing;
  }

 private:
  taco::WorkbookService service_;
  taco::CommandProcessor processor_;
};


/// Layer self times of one op, in ns.
struct Attribution {
  double protocol = 0, service = 0, formula = 0, taco = 0, sched = 0,
         eval = 0, store = 0;
  double probe = 0;  ///< The bench's plan probes, not the program's work.
  double total = 0;  ///< Root duration minus the plan probes.
  double sum() const {
    return protocol + service + formula + taco + sched + eval + store;
  }
};

}  // namespace

// --- Part (a) ----------------------------------------------------------------

taco::Status ScrapeServer(const Workload& workload, uint16_t port,
                          TracedServerRun* traced) {
  taco::SocketClient client;
  TACO_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
  auto stats = CallOk(client, "STATS");
  if (!stats.ok()) return stats.status();
  traced->stats = *stats;
  auto metrics = CallOk(client, "METRICS");
  if (!metrics.ok()) return metrics.status();
  traced->metrics = *metrics;
  // Resident sessions only: STATS of a parked one would reload it, with
  // fresh counters.
  auto list = CallOk(client, "LIST");
  if (!list.ok()) return list.status();
  std::istringstream names(*list);
  std::string name;
  names >> name >> name;  // "OK sessions".
  while (names >> name) {
    auto session = CallOk(client, "STATS " + name);
    if (!session.ok()) return session.status();
    traced->session_stats.push_back(*session);
  }
  (void)workload;
  return taco::Status::OK();
}

namespace {

/// The number after `key=` (or after "key " in exposition lines).
double FieldDouble(const std::string& text, const std::string& key) {
  size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    bool starts = pos == 0 || text[pos - 1] == ' ' || text[pos - 1] == '\n';
    size_t after = pos + key.size();
    if (starts && after < text.size() &&
        (text[after] == '=' || text[after] == ' ')) {
      return std::strtod(text.c_str() + after + 1, nullptr);
    }
    pos = after;
  }
  return 0;
}

}  // namespace

void AddServerLayerMetrics(const Workload& workload,
                           const RunResult& untraced,
                           const TracedServerRun& traced,
                           uint64_t recovered_records, MetricSet* out) {
  (void)workload;
  std::vector<double> lock_us, eval_us, publish_us, wal_us;
  for (const auto& [rid, span] : traced.run.spans) {
    lock_us.push_back(static_cast<double>(span.lock_us));
    publish_us.push_back(static_cast<double>(span.publish_us));
    wal_us.push_back(static_cast<double>(span.fsync_us));
    if (span.dirty > 0) eval_us.push_back(static_cast<double>(span.eval_us));
  }
  const uint64_t spans = traced.run.spans.size();
  out->Add("service.lock_wait_us.p99", Quantile(lock_us, 0.99), "us", spans);
  // Since the server started, set-up included. Every eviction parks a
  // session and every reload takes one back, so the reloads are the
  // evictions less what is still parked.
  const double evictions = FieldDouble(traced.stats, "evictions");
  out->Add("service.evictions", evictions, "count");
  out->Add("service.reloads", evictions - FieldDouble(traced.stats, "parked"),
           "count");
  out->Add("eval.eval_us.p50", Quantile(eval_us, 0.5), "us", eval_us.size());
  out->Add("eval.eval_us.p99", Quantile(eval_us, 0.99), "us", eval_us.size());
  out->Add("eval.publish_us", Mean(publish_us), "us", spans);
  double versioned = 0, locked = 0;
  for (const std::string& s : traced.session_stats) {
    versioned += FieldDouble(s, "reads_versioned");
    locked += FieldDouble(s, "reads_locked");
  }
  // Edits the traced run had acked: one per SET/FORMULA/CLEAR, one per
  // body line of a BATCH.
  double edits = 0;
  for (const std::vector<OpRecord>& log : traced.run.logs) {
    for (const OpRecord& r : log) {
      if (!r.ok || r.op.cls == OpClass::kRead || r.op.cls == OpClass::kQuery) {
        continue;
      }
      edits += r.op.verb == "BATCH"
                   ? std::count(r.op.text.begin(), r.op.text.end(), '\n')
                   : 1;
    }
  }
  out->Add("eval.reads_versioned_frac",
           versioned + locked > 0 ? versioned / (versioned + locked) : 0,
           "ratio");
  out->Add("store.wal_wait_us.p50", Quantile(wal_us, 0.5), "us", spans);
  out->Add("store.wal_wait_us.p99", Quantile(wal_us, 0.99), "us", spans);
  double flush_sum =
      FieldDouble(traced.metrics, "taco_wal_group_flush_seconds_sum");
  double flush_count =
      FieldDouble(traced.metrics, "taco_wal_group_flush_seconds_count");
  out->Add("store.flush_us", flush_count > 0 ? 1e6 * flush_sum / flush_count : 0,
           "us", static_cast<uint64_t>(flush_count));
  out->Add("store.appends_per_flush", FieldDouble(traced.stats, "mean_size"),
           "count");
  out->Add("store.wal_bytes_per_edit",
           edits > 0 ? FieldDouble(traced.stats, "wal_bytes") / edits : 0,
           "bytes");
  out->Add("store.recovered_records", static_cast<double>(recovered_records),
           "count");
  std::vector<double> bytes;
  for (const Sample& s : untraced.samples) {
    bytes.push_back(static_cast<double>(s.response_bytes));
  }
  out->Add("net.response_bytes", Mean(bytes), "bytes", bytes.size());
  double untraced_rate = untraced.attempted / untraced.seconds;
  double traced_rate = traced.run.attempted / traced.run.seconds;
  out->Add("trace.overhead_frac",
           untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate
                             : 0,
           "ratio");
}

// --- Part (b) ----------------------------------------------------------------

taco::Status ReplayInProcess(const Workload& workload,
                             const RunResult& untraced,
                             const std::string& snapshots,
                             const std::string& dir, MetricSet* out,
                             AttributionCheck* attribution) {
  std::vector<const Op*> ops = ReplayOrder(untraced);

  // Both replays run in lockstep, op by op, so the disk and the host are
  // in the same state for an op's two executions.
  // 1. The real service: per-verb in-process Execute time.
  TACO_RETURN_IF_ERROR(CopySnapshots(workload, snapshots, dir + "/service"));
  VerbTimes execute_ns;
  ServiceReplay real(workload, dir + "/service");
  TACO_RETURN_IF_ERROR(real.Warm(workload, dir + "/service"));

  // 2. Wrapped sessions.
  TACO_RETURN_IF_ERROR(CopySnapshots(workload, snapshots, dir + "/wrapped"));
  const std::string wrapped_dir = dir + "/wrapped";
  const taco::WorkbookServiceOptions options =
      ServiceOptions(workload, wrapped_dir);
  SpanRecorder recorder;
  LayerCounts counts;
  auto engine = taco::MakeStorageEngine(options.store);
  if (!engine.ok()) return engine.status();
  TracingStorage storage(std::move(*engine), &recorder);
  std::vector<uint64_t> flush_ns;
  std::mutex flush_mu;
  taco::GroupCommitOptions group;
  group.observer = [&](const taco::GroupFlushStats& f) {
    int64_t end = NowNs();
    recorder.RecordDetached(kWalFlush, end - int64_t(f.flush_ns), end);
    std::lock_guard<std::mutex> lock(flush_mu);
    flush_ns.push_back(f.flush_ns);
  };
  std::unique_ptr<taco::GroupCommitter> committer;
  if (options.group_commit && workload.durable) {
    committer = std::make_unique<taco::GroupCommitter>(group);
  }
  std::unique_ptr<taco::ThreadPool> pool;
  std::unique_ptr<taco::RecalcScheduler> scheduler;
  std::unique_ptr<TracingExecutor> executor;
  if (options.recalc_threads > 0) {
    pool = std::make_unique<taco::ThreadPool>(options.recalc_threads);
    taco::SchedulerOptions sched = options.scheduler;
    sched.threads = options.recalc_threads;
    scheduler = std::make_unique<taco::RecalcScheduler>(pool.get(), sched);
    executor = std::make_unique<TracingExecutor>(scheduler.get(), &recorder,
                                                 &counts);
  }
  taco::ServiceMetrics metrics;
  std::vector<double> build_ms;
  std::vector<double> graph_edges, graph_vertices;

  auto open = [&](const Book& book)
      -> taco::Result<std::shared_ptr<taco::WorkbookSession>> {
    std::string path = wrapped_dir + "/" + book.name + ".tsnap";
    auto sheet = storage.LoadSnapshot(path, nullptr);
    if (!sheet.ok()) return sheet.status();
    auto graph = std::make_unique<TracingGraph>(
        std::make_unique<taco::TacoGraph>(taco::TacoOptions::Full()),
        &recorder, &counts);
    TracingGraph* raw = graph.get();
    raw->set_recording(false);
    auto build_start = Clock::now();
    {
      ScopedSpan span(&recorder, kBuild);
      TACO_RETURN_IF_ERROR(taco::BuildGraphFromSheet(*sheet, raw));
    }
    build_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - build_start)
            .count());
    graph_edges.push_back(static_cast<double>(raw->NumEdges()));
    graph_vertices.push_back(static_cast<double>(raw->NumVertices()));
    raw->set_recording(true);
    auto session = std::make_shared<taco::WorkbookSession>(
        book.name, std::move(*sheet), std::move(graph), &metrics);
    session->set_backend_key("taco");
    session->ConfigureStorage(&storage);
    session->BindPath(path);
    if (workload.durable) {
      taco::WalOptions wal = options.wal;
      wal.group_commit = committer.get();
      session->ArmWal(wrapped_dir + "/wal/" + book.name + ".wal", wal);
    }
    if (executor != nullptr) session->EnableParallelRecalc(executor.get());
    if (options.cutoff) session->SetCutoff(true);
    return session;
  };

  // Load and warm every book, as the server's set-up does.
  std::vector<std::shared_ptr<taco::WorkbookSession>> sessions;
  for (const Book& book : workload.books) {
    auto opened = open(book);
    if (!opened.ok()) return opened.status();
    sessions.push_back(std::move(*opened));
    for (const taco::Range& range : book.read_plan) {
      sessions.back()->GetRange(range);
    }
  }
  const size_t warm_spans = recorder.spans().size();

  // 3. Shadow engines. The eval layer's own work on a mutation —
  // applying the edits, invalidating and re-evaluating — runs inside the
  // session's RecalcEngine, which no interface exposes. A bench-owned
  // RecalcEngine per book, built from its public constructor over the
  // book's snapshot and a graph wrapped like the session's, applies the
  // same edits in lockstep; its call minus its own graph and executor
  // spans and minus the parse time is the eval layer's self time. Its
  // graph time is its own, not the session's: an op's two executions
  // stall on the host at different moments, so one's graph time cannot
  // be taken out of the other's call.
  struct ShadowEngine {
    taco::Sheet sheet;
    std::unique_ptr<taco::DependencyGraph> graph;
    std::unique_ptr<taco::RecalcEngine> engine;
  };
  SpanRecorder shadow_recorder;
  LayerCounts shadow_counts;
  std::unique_ptr<TracingExecutor> shadow_executor;
  if (scheduler != nullptr) {
    shadow_executor = std::make_unique<TracingExecutor>(
        scheduler.get(), &shadow_recorder, &shadow_counts);
  }
  std::vector<std::unique_ptr<ShadowEngine>> shadows;
  auto shadow_storage = taco::MakeStorageEngine(options.store);
  if (!shadow_storage.ok()) return shadow_storage.status();
  for (const Book& book : workload.books) {
    auto shadow = std::make_unique<ShadowEngine>();
    // Loaded from the same snapshot as the session's sheet, so that both
    // sheets are laid out in memory alike.
    auto sheet = (*shadow_storage)->LoadSnapshot(
        wrapped_dir + "/" + book.name + ".tsnap", nullptr);
    if (!sheet.ok()) return sheet.status();
    shadow->sheet = std::move(*sheet);
    auto graph = std::make_unique<TracingGraph>(
        std::make_unique<taco::TacoGraph>(taco::TacoOptions::Full()),
        &shadow_recorder, &shadow_counts);
    graph->set_recording(false);
    TACO_RETURN_IF_ERROR(taco::BuildGraphFromSheet(shadow->sheet, graph.get()));
    graph->set_recording(true);
    shadow->graph = std::move(graph);
    shadow->engine = std::make_unique<taco::RecalcEngine>(
        &shadow->sheet, shadow->graph.get());
    if (shadow_executor != nullptr) {
      shadow->engine->set_executor(shadow_executor.get());
      shadow->engine->set_mode(taco::RecalcMode::kParallel);
    }
    shadow->engine->set_cutoff(options.cutoff);
    // Warmed as the session is: its first reads go through the engine,
    // cell by cell over the read plan.
    for (const taco::Range& range : book.read_plan) {
      for (int32_t col = range.head.col; col <= range.tail.col; ++col) {
        for (int32_t row = range.head.row; row <= range.tail.row; ++row) {
          shadow->engine->GetValue(taco::Cell{col, row});
        }
      }
    }
    shadows.push_back(std::move(shadow));
  }

  // Replay. Each op is one root span; for a mutation the session's own
  // trace span (same rid) supplies the phases no interface exposes: lock
  // wait, publish and the WAL wait.
  struct OpTrace {
    std::string verb;
    int32_t root = -1;
    taco::obs::TraceSpan phases;
    bool has_phases = false;
    taco::RecalcResult result;
    double execute_ns = 0;   ///< The real service's Execute of this op.
    double protocol_ns = 0;  ///< Its protocol share.
    double formula_ns = 0;   ///< Parsing the op's formulas.
    double engine_self_ns = 0;   ///< The shadow engine's self time.
    double engine_total_ns = 0;  ///< Its whole call.
    double engine_ns = 0;  ///< Its self time less parsing: the eval layer.
  };
  std::vector<OpTrace> traces;
  std::vector<double> chain_depth;
  std::vector<double> parse_ns;
  const auto replay_start = Clock::now();
  size_t replayed = 0;
  for (const Op* op : ops) {
    if (std::chrono::duration<double>(Clock::now() - replay_start).count() >
        kReplaySeconds) {
      break;
    }
    // Whichever replay runs second finds the code and allocator warm, so
    // the two take turns going first.
    OpTrace trace;
    auto run_real = [&]() -> taco::Status {
      auto executed = real.Execute(*op);
      if (!executed.ok()) return executed.status();
      execute_ns[op->verb].push_back(executed->execute_ns);
      trace.execute_ns = executed->execute_ns;
      trace.protocol_ns = executed->protocol_ns;
      return taco::Status::OK();
    };
    const bool real_first = replayed++ % 2 == 0;
    if (real_first) TACO_RETURN_IF_ERROR(run_real());

    uint64_t rid = taco::obs::NextRid();
    taco::obs::RidScope rid_scope(rid);
    recorder.set_rid(rid);
    trace.verb = op->verb;
    taco::WorkbookSession& session = *sessions[op->book];
    std::string_view header =
        std::string_view(op->text).substr(0, op->text.find('\n'));
    std::istringstream words{std::string(header)};
    std::string verb, name, target;
    words >> verb >> name >> target;
    const bool read_only = op->verb == "GET" || op->verb == "GETRANGE" ||
                           op->verb == "EXPLAIN";
    // The root span is the bare session call: the real replay measured
    // the protocol share (parse, lookup, formatting) around it.
    taco::Result<taco::EditBatch> edits = taco::EditBatch{};
    if (!read_only) {
      edits = ParseEdits(*op);
      if (!edits.ok()) return edits.status();
    }
    // The shadow engine and the real service take turns at going first,
    // around the wrapped session.
    auto run_shadow = [&]() -> taco::Status {
      ShadowEngine& shadow = *shadows[op->book];
      const int32_t shadow_root = shadow_recorder.Begin(kExecute);
      taco::Result<taco::RecalcResult> applied =
          shadow.engine->ApplyBatch(*edits);
      shadow_recorder.End(shadow_root);
      if (!applied.ok()) return applied.status();
      const std::vector<Span>& shadow_spans = shadow_recorder.spans();
      double children = 0;
      for (size_t i = shadow_root + 1; i < shadow_spans.size(); ++i) {
        if (shadow_spans[i].parent == shadow_root) {
          children += static_cast<double>(shadow_spans[i].duration());
        }
      }
      trace.engine_total_ns = double(shadow_spans[shadow_root].duration());
      trace.engine_self_ns = trace.engine_total_ns - children;
      return taco::Status::OK();
    };
    if (!read_only && !real_first) TACO_RETURN_IF_ERROR(run_shadow());
    trace.root = recorder.Begin(kExecute);
    if (read_only) {
      auto ref = taco::ParseA1(target);
      if (!ref.ok()) return ref.status();
      if (op->verb == "GET") {
        session.GetValue(ref->range.head);
      } else if (op->verb == "GETRANGE") {
        session.GetRange(ref->range);
      } else {
        session.Explain(ref->range);
      }
    } else {
      taco::Result<taco::RecalcResult> result =
          op->verb == "BATCH" ? session.ApplyBatch(*edits)
          : edits->front().kind == taco::Edit::Kind::kSetNumber
              ? session.SetNumber(edits->front().cell, edits->front().number)
          : edits->front().kind == taco::Edit::Kind::kSetFormula
              ? session.SetFormula(edits->front().cell, edits->front().text)
              : session.ClearRange(edits->front().range);
      if (!result.ok()) return result.status();
      trace.result = *result;
    }
    recorder.End(trace.root);
    if (!read_only) {
      std::vector<taco::obs::TraceSpan> newest = metrics.trace().Newest(1);
      if (!newest.empty() && newest.front().rid == rid) {
        trace.phases = newest.front();
        trace.has_phases = true;
      }
      chain_depth.push_back(
          static_cast<double>(session.Stats().version_chain_depth));
      // The formula layer, timed from outside on the same sources (the
      // session parses them inside its mutation, where no interface
      // exposes the parse).
      for (const taco::Edit& edit : *edits) {
        if (edit.kind != taco::Edit::Kind::kSetFormula) continue;
        auto t0 = Clock::now();
        auto ast = taco::ParseFormula(edit.text);
        if (!ast.ok()) return ast.status();
        double ns = std::chrono::duration<double, std::nano>(
                        Clock::now() - t0)
                        .count();
        parse_ns.push_back(ns);
        trace.formula_ns += ns;
      }
      if (real_first) TACO_RETURN_IF_ERROR(run_shadow());
      trace.engine_ns = trace.engine_self_ns - trace.formula_ns;
    }
    if (!real_first) TACO_RETURN_IF_ERROR(run_real());
    traces.push_back(std::move(trace));
  }
  // The snapshot save, outside any op (nothing is parked in a replay):
  // one checkpoint per book.
  for (auto& session : sessions) TACO_RETURN_IF_ERROR(session->Save());
  const std::vector<Span>& spans = recorder.spans();
  // <root>/.bench_build/work/<run>/replay -> <root>/.bench_build/spans-*.
  recorder.WriteTsv(
      (fs::path(dir).parent_path().parent_path().parent_path() /
       ("spans-" + workload.name + ".tsv"))
          .string());

  // Fold spans into per-op layer self times.
  std::vector<int32_t> root_of(spans.size(), -1);
  for (size_t i = warm_spans; i < spans.size(); ++i) {
    int32_t p = spans[i].parent;
    root_of[i] = p < 0 ? static_cast<int32_t>(i) : root_of[p];
  }
  std::map<int32_t, Attribution> by_root;
  std::vector<double> find_us, add_ns, remove_ns, load_ms, save_ms,
      sched_exec_us, probe_us;
  // Snapshots load during the warm-up and save after the replay.
  for (const Span& s : spans) {
    if (s.name == kSnapshotLoad) load_ms.push_back(s.duration() / 1e6);
    if (s.name == kSnapshotSave) save_ms.push_back(s.duration() / 1e6);
  }
  for (size_t i = warm_spans; i < spans.size(); ++i) {
    const Span& s = spans[i];
    double d = static_cast<double>(s.duration());
    Attribution& a = by_root[root_of[i]];
    switch (s.name) {
      case kExecute: a.total += d; break;
      case kFindDependents: a.taco += d; find_us.push_back(d / 1e3); break;
      case kAddDependency: a.taco += d; add_ns.push_back(d); break;
      case kRemoveFormulaCells: a.taco += d; remove_ns.push_back(d); break;
      case kBuild: a.taco += d; break;
      case kSchedPlan: a.sched += d; break;
      case kPlanProbe:
        a.total -= d;
        a.probe += d;
        probe_us.push_back(d / 1e3);
        break;
      case kSchedExecute: a.sched += d; sched_exec_us.push_back(d / 1e3); break;
      case kSnapshotLoad:
      case kSnapshotSave: a.store += d; break;
      default: break;  // Reload/evict self time stays with the service.
    }
  }
  std::map<std::string, Attribution> verb_layers;  ///< Summed per verb.
  std::map<std::string, std::vector<double>> unattributed_ns,
      unattributed_share, op_execute_ns;
  bool negative = false;
  uint64_t recalculated = 0, dirty_formulas = 0, skipped = 0, eval_ns = 0;
  for (const OpTrace& t : traces) {
    Attribution a = by_root[t.root];
    a.protocol = t.protocol_ns;
    // Children may not outlast their parent, in either stack; a little
    // slack for clock reads.
    const double children = a.taco + a.sched + a.probe + a.store;
    bool overlap = children > 1.01 * (a.total + a.probe) + 2000;
    if (t.verb == "GET" || t.verb == "GETRANGE" || t.verb == "EXPLAIN") {
      // A read is the session call alone: its span's self time is the
      // service layer's.
      a.service = a.total - a.taco - a.sched - a.store;
    } else {
      if (!t.has_phases) {
        return taco::Status::Internal("no session trace span for a " +
                                      t.verb);
      }
      // A mutation: the session span supplies the lock wait (service),
      // the publish (eval) and the WAL wait (store); the shadow engine
      // supplies the rest of the eval layer's self time. The session's
      // own bookkeeping around them is no layer's and stays
      // unattributed.
      overlap = overlap ||
                t.engine_self_ns < -(0.01 * t.engine_total_ns + 2000);
      a.service = double(t.phases.lock_wait_ns);
      a.formula = t.formula_ns;
      a.eval = t.engine_ns + double(t.phases.publish_ns);
      a.store += double(t.phases.wal_fsync_ns);
    }
    if (overlap) {
      if (!negative) {
        char line[256];
        std::snprintf(line, sizeof(line),
                      "first overlap: %s session call %.0f ns, its spans "
                      "%.0f ns; engine call %.0f ns, its self time %.0f ns",
                      t.verb.c_str(), a.total + a.probe, children,
                      t.engine_total_ns, t.engine_self_ns);
        attribution->lines.push_back(line);
      }
      negative = true;
    }
    unattributed_ns[t.verb].push_back(t.execute_ns - a.sum());
    unattributed_share[t.verb].push_back(
        t.execute_ns > 0 ? (t.execute_ns - a.sum()) / t.execute_ns : 0);
    op_execute_ns[t.verb].push_back(t.execute_ns);
    Attribution& v = verb_layers[t.verb];
    v.protocol += a.protocol;
    v.service += a.service;
    v.formula += a.formula;
    v.taco += a.taco;
    v.sched += a.sched;
    v.eval += a.eval;
    v.store += a.store;
    recalculated += t.result.recalculated;
    dirty_formulas += t.result.dirty_formulas;
    skipped += t.result.cells_skipped_cutoff;
    eval_ns += t.result.eval_ns;
  }

  // The attribution check, verb by verb: each op's unattributed time —
  // its real in-process Execute minus the sum of its measured layer self
  // times — as a share of that Execute, at the median over the verb's
  // ops. Shares, because one verb's ops differ tenfold in size (a BATCH
  // of 200 or 2000 rows); medians, because single ops of any replay can
  // stall on the host. The split shows each layer's mean.
  for (const std::string& verb : Verbs()) {
    auto it = verb_layers.find(verb);
    if (it == verb_layers.end()) continue;
    const Attribution& v = it->second;
    const double n = static_cast<double>(op_execute_ns[verb].size());
    const double execute = Quantile(op_execute_ns[verb], 0.5);
    const double gap = Quantile(unattributed_ns[verb], 0.5);
    const double share = Quantile(unattributed_share[verb], 0.5);
    bool ok = std::abs(share) <= AttributionCheck::kTolerance ||
              std::abs(gap) <= AttributionCheck::kFloorNs;
    attribution->ok = attribution->ok && ok;
    char line[384];
    std::snprintf(
        line, sizeof(line),
        "%-8s n=%-5.0f median Execute %10.1f us; median unattributed "
        "%+9.1f us, %+6.1f%% of its op's Execute %s; mean split protocol "
        "%.1f service %.1f formula %.1f taco %.1f sched %.1f eval %.1f "
        "store %.1f us",
        verb.c_str(), n, execute / 1e3, gap / 1e3, 100 * share,
        ok ? "ok" : "OUT OF TOLERANCE", v.protocol / n / 1e3,
        v.service / n / 1e3, v.formula / n / 1e3, v.taco / n / 1e3,
        v.sched / n / 1e3, v.eval / n / 1e3, v.store / n / 1e3);
    attribution->lines.push_back(line);
  }
  attribution->ok = attribution->ok && !negative;
  if (negative) {
    attribution->lines.push_back(
        "a layer's children outlasted it: spans overlap or double count");
  }

  // net and service.
  std::map<std::string, std::vector<double>> rtt_us;
  for (const Sample& s : untraced.samples) rtt_us[s.verb].push_back(s.ms * 1e3);
  for (const std::string& verb : Verbs()) {
    std::vector<double> us;
    for (double ns : execute_ns[verb]) us.push_back(ns / 1e3);
    double rtt = Quantile(rtt_us[verb], 0.5);
    out->Add("net.rtt_overhead_us." + Lower(verb),
             us.empty() || rtt_us[verb].empty() ? 0 : rtt - Quantile(us, 0.5),
             "us", us.size());
  }
  for (const std::string& verb : Verbs()) {
    std::vector<double> us;
    for (double ns : execute_ns[verb]) us.push_back(ns / 1e3);
    out->Add("service.execute_us." + Lower(verb) + ".p50", Quantile(us, 0.5),
             "us", us.size());
    out->Add("service.execute_us." + Lower(verb) + ".p99",
             Quantile(us, 0.99), "us", us.size());
  }
  out->Add("formula.parse_us", Mean(parse_ns) / 1e3, "us", parse_ns.size());
  out->Add("formula.parsed", static_cast<double>(parse_ns.size()), "count");

  // taco.
  const double queries = static_cast<double>(find_us.size());
  out->Add("taco.find_dependents_us.p50", Quantile(find_us, 0.5), "us",
           find_us.size());
  out->Add("taco.find_dependents_us.p99", Quantile(find_us, 0.99), "us",
           find_us.size());
  out->Add("taco.find_dependents_calls", queries, "count");
  out->Add("taco.edge_accesses_per_query",
           queries > 0 ? counts.edge_accesses / queries : 0, "count");
  out->Add("taco.result_ranges_per_query",
           queries > 0 ? counts.result_ranges / queries : 0, "count");
  out->Add("taco.add_dependency_us", Mean(add_ns) / 1e3, "us", add_ns.size());
  out->Add("taco.add_dependency_calls", static_cast<double>(add_ns.size()),
           "count");
  out->Add("taco.remove_formula_cells_us", Mean(remove_ns) / 1e3, "us",
           remove_ns.size());
  out->Add("taco.remove_formula_cells_calls",
           static_cast<double>(remove_ns.size()), "count");
  out->Add("taco.build_ms", Mean(build_ms), "ms", build_ms.size());
  double edges = 0, vertices = 0, raw = 0;
  for (size_t b = 0; b < workload.books.size(); ++b) {
    edges += graph_edges[b];
    vertices += graph_vertices[b];
    raw += static_cast<double>(workload.books[b].raw_dependencies);
  }
  out->Add("taco.edges", edges, "count");
  out->Add("taco.vertices", vertices, "count");
  out->Add("taco.raw_dependencies", raw, "count");
  out->Add("taco.edges_per_raw_dependency", raw > 0 ? edges / raw : 0,
           "ratio");

  // sched.
  const double passes = static_cast<double>(counts.executor_passes);
  out->Add("sched.plan_us", Mean(probe_us), "us", probe_us.size());
  out->Add("sched.execute_us", Mean(sched_exec_us), "us",
           sched_exec_us.size());
  out->Add("sched.waves_per_pass", passes > 0 ? counts.waves / passes : 0,
           "count");
  out->Add("sched.max_wave_cells", static_cast<double>(counts.max_wave_cells),
           "count");
  for (const char* granularity :
       {"serial_inline", "cell_granular", "range_granular"}) {
    out->Add(std::string("sched.passes.") + granularity,
             static_cast<double>(counts.passes[granularity]), "count");
  }
  out->Add("sched.barrier_wait_us",
           passes > 0 ? counts.barrier_wait_ns / passes / 1e3 : 0, "us");

  // eval.
  out->Add("eval.cells_evaluated", static_cast<double>(recalculated),
           "count");
  out->Add("eval.dirty_formulas", static_cast<double>(dirty_formulas),
           "count");
  out->Add("eval.ns_per_cell",
           recalculated > 0 ? double(eval_ns) / double(recalculated) : 0,
           "ns");
  out->Add("eval.cutoff_skip_frac",
           dirty_formulas > 0 ? double(skipped) / double(dirty_formulas) : 0,
           "ratio");
  out->Add("eval.version_chain_depth", Mean(chain_depth), "count",
           chain_depth.size());

  // store.
  std::vector<double> flush_us;
  {
    std::lock_guard<std::mutex> lock(flush_mu);
    for (uint64_t ns : flush_ns) flush_us.push_back(ns / 1e3);
  }
  out->Add("store.snapshot_load_ms", Mean(load_ms), "ms", load_ms.size());
  out->Add("store.snapshot_save_ms", Mean(save_ms), "ms", save_ms.size());
  out->Add("store.replay_flush_us", Mean(flush_us), "us", flush_us.size());
  sessions.clear();  // Sessions drain their WAL tickets before the committer.
  return taco::Status::OK();
}

}  // namespace perfbench
