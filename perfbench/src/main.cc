// svcbench: the service benchmark program.
//
//   svcbench --root DIR --workload recalc|structure|durable_rw --seed N
//            --seconds S --trace 0|1
//
// Generates the workload's workbooks and op streams from the seed,
// spawns the real taco_serve, loads the workbooks (several times: the
// median is setup_s), drives the server over loopback for S seconds as
// a closed loop, checks every output against the NoComp oracle, and for
// durable_rw kills the server and checks recovery. With --trace 1 it
// also repeats the run while polling TRACE/STATS/METRICS and replays the
// op stream in-process through bench-owned layer wrappers, and prints
// per-layer metrics instead of end-to-end ones.
//
// Standard output: a human-readable report, then one JSON line. All
// files go under DIR/.bench_build/work and are removed at exit.

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/socket_client.h"
#include "oracle.h"
#include "report.h"
#include "server.h"
#include "socket_run.h"
#include "trace_replay.h"
#include "workload.h"

namespace fs = std::filesystem;
using perfbench::Metric;
using perfbench::MetricSet;

namespace {

using Clock = std::chrono::steady_clock;

/// Setups per untraced run; setup_s is their median.
constexpr int kSetups = 5;

struct Args {
  std::string root = ".";
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--root") {
      args->root = value;
    } else if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string FormatNumber(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintMetrics(const char* heading, const MetricSet& set) {
  std::printf("%s\n", heading);
  for (const Metric& m : set.all()) {
    if (m.samples > 0) {
      std::printf("  %-40s %14.4f %-6s n=%llu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

/// A server with the workload's books loaded and warmed.
struct Deployment {
  std::unique_ptr<perfbench::ServerProcess> server;
  std::string dir;  ///< Snapshots (and the WAL directory, if any).
  std::vector<std::string> flags;
  double setup_seconds = 0;
};

/// Copies the generated snapshots to a fresh `dir`, spawns the server
/// and loads + warms every book; the clock runs from the spawn.
taco::Result<Deployment> Deploy(const perfbench::Workload& workload,
                                const std::string& snapshots,
                                const std::string& dir,
                                const std::string& log) {
  Deployment d;
  d.dir = dir;
  fs::create_directories(dir);
  for (const perfbench::Book& book : workload.books) {
    fs::copy_file(snapshots + "/" + book.name + ".tsnap",
                  dir + "/" + book.name + ".tsnap",
                  fs::copy_options::overwrite_existing);
  }
  d.flags = workload.server_flags;
  if (workload.durable) {
    d.flags.push_back("--wal-dir");
    d.flags.push_back(dir + "/wal");
  }
  auto start = Clock::now();
  auto server = perfbench::ServerProcess::Start(TACO_SERVE_PATH, d.flags, log);
  if (!server.ok()) return server.status();
  d.server = std::move(*server);
  TACO_RETURN_IF_ERROR(
      perfbench::LoadAndWarm(workload, d.server->port(), dir));
  d.setup_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return d;
}

/// Reads every session's final values and checks them against the
/// oracles; `label` names the phase in mismatch messages.
taco::Status CheckFinalValues(
    const perfbench::Workload& workload, uint16_t port,
    const std::vector<std::unique_ptr<perfbench::BookOracle>>& oracles,
    const std::string& label, perfbench::OracleReport* report,
    bool* self_test_ok) {
  taco::SocketClient client;
  TACO_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
  for (size_t b = 0; b < workload.books.size(); ++b) {
    perfbench::BookOracle& oracle = *oracles[b];
    auto actual = perfbench::ReadValues(client, oracle.name(),
                                        oracle.ReadPlan());
    if (!actual.ok()) return actual.status();
    std::map<taco::Cell, std::string> expected = oracle.Values();
    perfbench::CompareValues(label + " " + oracle.name(), expected, *actual,
                             report);
    if (self_test_ok != nullptr && b == 0) {
      *self_test_ok =
          perfbench::SelfTestDetectsCorruption(std::move(expected), *actual);
    }
  }
  return taco::Status::OK();
}

/// CPU ticks stolen by the hypervisor and in total, from /proc/stat: a
/// report line, so that a run on a busy host can be told apart.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostTicks ReadHostTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  HostTicks ticks;
  uint64_t value = 0;
  stat >> cpu;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

/// Whether a sample is a single-cell edit (SET, FORMULA) or a request
/// that changes nothing (GET, GETRANGE, EXPLAIN): the two latency
/// families every workload sends.
bool IsCellEdit(const perfbench::Sample& s) {
  return s.verb == "SET" || s.verb == "FORMULA";
}
bool IsLookup(const perfbench::Sample& s) {
  return s.verb == "GET" || s.verb == "GETRANGE" || s.verb == "EXPLAIN";
}

/// Adds `<name>_p<q>_ms` for each percentile q over the samples `keep`
/// selects, pooled over the whole timed run; false when there are none.
template <typename Keep>
bool AddLatency(const perfbench::RunResult& run, const std::string& name,
                std::initializer_list<int> percentiles, Keep keep,
                MetricSet* set) {
  std::vector<double> ms;
  for (const perfbench::Sample& s : run.samples) {
    if (keep(s)) ms.push_back(s.ms);
  }
  if (ms.empty()) return false;
  for (int q : percentiles) {
    set->Add(name + "_p" + std::to_string(q) + "_ms",
             perfbench::Quantile(ms, q / 100.0), "ms", ms.size());
  }
  return true;
}

/// The end-to-end metrics of one timed run: the set BENCHMARK.json gates
/// (returned), and the latencies of every family the workload sends
/// with the throughput (`reported`, printed only). Lookups, the p99 of
/// single-cell edits and the throughput moved with the hypervisor's
/// share of the host by up to a quarter between runs, against a largest
/// bound of a quarter; the gated figures moved by under a sixth.
MetricSet EndToEnd(const perfbench::RunResult& run, double setup_s,
                   double server_cpu_s, double peak_rss_mb,
                   MetricSet* reported, bool* complete) {
  MetricSet set;
  set.Add("setup_s", setup_s, "s", kSetups);
  *complete = AddLatency(run, "cell_edit", {50}, IsCellEdit, &set);
  set.Add("server_cpu_ms_per_op",
          1e3 * server_cpu_s / double(run.samples.size()), "ms",
          run.samples.size());
  set.Add("peak_rss_mb", peak_rss_mb, "MiB");
  const std::pair<perfbench::OpClass, const char*> classes[] = {
      {perfbench::OpClass::kEdit, "edit"},
      {perfbench::OpClass::kStruct, "struct_edit"},
      {perfbench::OpClass::kQuery, "query"},
      {perfbench::OpClass::kRead, "read"}};
  for (const auto& [cls, name] : classes) {
    AddLatency(run, name, {50, 99},
               [cls](const perfbench::Sample& s) { return s.cls == cls; },
               reported);
  }
  AddLatency(run, "cell_edit", {50, 99}, IsCellEdit, reported);
  AddLatency(run, "lookup", {50, 90, 99}, IsLookup, reported);
  reported->Add("ops_per_s", run.samples.size() / run.seconds, "1/s",
                run.samples.size());
  reported->Add("failed_op_frac",
                run.attempted ? double(run.failed) / double(run.attempted)
                              : 0.0,
                "ratio", run.attempted);
  return set;
}

/// Progress lines on stderr, stamped with seconds since start.
void Progress(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "svcbench [%7.2fs] %s\n",
               std::chrono::duration<double>(Clock::now() - start).count(),
               what.c_str());
}

/// Names on stderr every check that failed, so that a run that reports
/// "correct": false says why in its error output as well.
bool AllPassed(
    std::initializer_list<std::pair<bool, const char*>> checks) {
  bool all = true;
  for (const auto& [passed, what] : checks) {
    if (!passed) std::fprintf(stderr, "svcbench: check failed: %s\n", what);
    all = all && passed;
  }
  return all;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "svcbench: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: svcbench --root DIR --workload NAME --seed N --seconds S "
        "--trace 0|1");
  }
  auto workload = perfbench::MakeWorkload(args.workload, args.seed);
  if (!workload.ok()) return Fail(workload.status().ToString());

  const std::string work = fs::absolute(args.root).string() +
                           "/.bench_build/work/" + args.workload + "-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work + "/gen");
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      fs::remove_all(dir, ignored);
    }
  } cleanup{work};
  const std::string log = work + "/server.log";

  // Generated sizes: a generator change shows here before it shows in
  // any timing.
  auto snapshot_bytes = perfbench::WriteSnapshots(*workload, work + "/gen");
  if (!snapshot_bytes.ok()) return Fail(snapshot_bytes.status().ToString());
  uint64_t cells = 0, formulas = 0, runs = 0, deps = 0;
  for (const perfbench::Book& book : workload->books) {
    cells += book.sheet.cell_count();
    formulas += book.sheet.formula_cell_count();
    runs += book.runs.size();
    deps += book.raw_dependencies;
  }
  std::printf(
      "workload %s seed %llu: %zu workbooks, %llu cells, %llu formulas in "
      "%llu runs, %llu raw dependencies, %llu snapshot bytes; "
      "%d connections; server flags:",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      workload->books.size(), static_cast<unsigned long long>(cells),
      static_cast<unsigned long long>(formulas),
      static_cast<unsigned long long>(runs),
      static_cast<unsigned long long>(deps),
      static_cast<unsigned long long>(*snapshot_bytes),
      workload->connections());
  for (const std::string& flag : workload->server_flags) {
    std::printf(" %s", flag.c_str());
  }
  std::printf("%s\n", workload->durable ? " --wal-dir <work>/wal" : "");

  // Set-up, repeated: setup_s is the median; the last deployment serves
  // the timed run.
  const int setups = args.trace == 0 ? kSetups : 1;
  std::vector<double> setup_times;
  Deployment deployment;
  for (int i = 0; i < setups; ++i) {
    if (deployment.server != nullptr) {
      taco::Status stopped = deployment.server->Stop();
      if (!stopped.ok()) return Fail(stopped.ToString());
    }
    auto d = Deploy(*workload, work + "/gen",
                    work + "/setup" + std::to_string(i), log);
    if (!d.ok()) return Fail("set-up: " + d.status().ToString());
    deployment = std::move(*d);
    setup_times.push_back(deployment.setup_seconds);
  }
  const double setup_s = perfbench::Quantile(setup_times, 0.5);
  Progress("set-up done; timed run");

  const HostTicks host_before = ReadHostTicks();
  const double cpu_before = deployment.server->CpuSeconds();
  perfbench::RunResult run = perfbench::RunClosedLoop(
      *workload, deployment.server->port(), args.seconds, args.seed, false);
  const double server_cpu_s = deployment.server->CpuSeconds() - cpu_before;
  const HostTicks host_after = ReadHostTicks();
  const double peak_rss_mb = deployment.server->PeakRssMb();
  std::printf("host: %.1f%% of CPU time stolen by the hypervisor during the "
              "timed run\n",
              host_after.total > host_before.total
                  ? 100.0 * double(host_after.steal - host_before.steal) /
                        double(host_after.total - host_before.total)
                  : 0.0);
  for (const std::string& e : run.errors) {
    std::printf("op failed: %s\n", e.c_str());
  }

  // The oracle: per-op responses, then every final value.
  Progress("timed run done: " + std::to_string(run.attempted) +
           " ops; oracle replay");
  perfbench::OracleReport oracle_report;
  auto oracles = perfbench::ReplayRun(*workload, run, &oracle_report);
  Progress("oracle replay done; final values");
  bool self_test_ok = false;
  uint64_t recovered_records = 0;
  if (!workload->durable) {
    taco::Status checked =
        CheckFinalValues(*workload, deployment.server->port(), oracles,
                         "final", &oracle_report, &self_test_ok);
    if (!checked.ok()) return Fail("final read: " + checked.ToString());
  } else {
    // Durability (untimed): crash the server right after the timed run —
    // reading the final values first would park, and so checkpoint,
    // every session — restart it on the same WAL directory and
    // snapshots, and require every acked edit back: the recovered values
    // must equal the oracle's.
    deployment.server->Kill();
    auto restarted =
        perfbench::ServerProcess::Start(TACO_SERVE_PATH, deployment.flags, log);
    if (!restarted.ok()) return Fail("restart: " + restarted.status().ToString());
    deployment.server = std::move(*restarted);
    taco::SocketClient client;
    taco::Status connected =
        client.Connect("127.0.0.1", deployment.server->port());
    if (!connected.ok()) return Fail("restart: " + connected.ToString());
    for (const perfbench::Book& book : workload->books) {
      auto loaded = perfbench::CallOk(client, "LOAD " + book.name + " " +
                                                  deployment.dir + "/" +
                                                  book.name + ".tsnap");
      if (!loaded.ok()) return Fail("recovery: " + loaded.status().ToString());
    }
    auto stats = perfbench::CallOk(client, "STATS");
    if (!stats.ok()) return Fail("recovery: " + stats.status().ToString());
    recovered_records = perfbench::FieldU64(*stats, "recovered_records");
    taco::Status checked =
        CheckFinalValues(*workload, deployment.server->port(), oracles,
                         "recovered", &oracle_report, &self_test_ok);
    if (!checked.ok()) return Fail("recovered read: " + checked.ToString());
    std::printf("durability: SIGKILL + restart recovered %llu WAL records\n",
                static_cast<unsigned long long>(recovered_records));
  }

  bool complete = true;
  MetricSet reported;
  MetricSet e2e = EndToEnd(run, setup_s, server_cpu_s, peak_rss_mb,
                           &reported, &complete);
  std::printf(
      "oracle: %llu ops and %llu cell values checked, %llu mismatches; "
      "corruption self-test %s\n",
      static_cast<unsigned long long>(oracle_report.ops_checked),
      static_cast<unsigned long long>(oracle_report.cells_checked),
      static_cast<unsigned long long>(oracle_report.mismatches),
      self_test_ok ? "caught the corrupted value" : "FAILED");
  for (const std::string& m : oracle_report.examples) {
    std::printf("  mismatch: %s\n", m.c_str());
  }
  std::map<std::string, std::vector<double>> by_verb;
  for (const perfbench::Sample& s : run.samples) by_verb[s.verb].push_back(s.ms);
  std::printf("client round trip by verb (ms):\n");
  for (const auto& [verb, ms] : by_verb) {
    std::printf("  %-9s n=%-6zu p50 %9.4f  p99 %9.4f  max %9.4f\n",
                verb.c_str(), ms.size(), perfbench::Quantile(ms, 0.5),
                perfbench::Quantile(ms, 0.99), perfbench::Quantile(ms, 1));
  }
  PrintMetrics("reported, not gated (untraced run):", reported);
  PrintMetrics("end-to-end, gated (untraced run):", e2e);
  if (!complete) {
    taco::Status stopped = deployment.server->Stop();
    return Fail("no single-cell edit was answered; run longer");
  }
  // A refused or lost op is a wrong answer: the oracle skips it, and
  // dropping expensive ops would flatter every latency.
  const bool correct =
      AllPassed({{oracle_report.ok(), "oracle mismatch (see stdout)"},
                 {self_test_ok, "oracle self-test missed the corruption"},
                 {run.failed == 0, "an op of the untraced run failed"}});

  if (args.trace == 0) {
    taco::Status stopped = deployment.server->Stop();
    if (!stopped.ok()) return Fail(stopped.ToString());
    PrintJson(correct, run.attempted, run.failed, e2e.all());
    return 0;
  }

  // --- Traced run ----------------------------------------------------------
  taco::Status stopped = deployment.server->Stop();
  if (!stopped.ok()) return Fail(stopped.ToString());
  auto traced_deployment =
      Deploy(*workload, work + "/gen", work + "/traced", log);
  if (!traced_deployment.ok()) {
    return Fail("traced set-up: " + traced_deployment.status().ToString());
  }
  perfbench::TracedServerRun traced;
  traced.run = perfbench::RunClosedLoop(*workload,
                                        traced_deployment->server->port(),
                                        args.seconds, args.seed, true);
  taco::Status scraped = perfbench::ScrapeServer(
      *workload, traced_deployment->server->port(), &traced);
  if (!scraped.ok()) return Fail("scrape: " + scraped.ToString());
  stopped = traced_deployment->server->Stop();
  if (!stopped.ok()) return Fail(stopped.ToString());

  MetricSet per_layer;
  perfbench::AttributionCheck attribution;
  taco::Status replayed = perfbench::ReplayInProcess(
      *workload, run, work + "/gen", work + "/replay", &per_layer,
      &attribution);
  if (!replayed.ok()) return Fail("in-process replay: " + replayed.ToString());
  perfbench::AddServerLayerMetrics(*workload, run, traced, recovered_records,
                                   &per_layer);

  std::printf("traced run: %llu ops, %zu spans polled by rid\n",
              static_cast<unsigned long long>(traced.run.attempted),
              traced.run.spans.size());
  PrintMetrics("per-layer (traced run + in-process replay):", per_layer);
  std::printf("attribution: tolerance %.0f%%\n",
              100 * perfbench::AttributionCheck::kTolerance);
  for (const std::string& line : attribution.lines) {
    std::printf("  %s\n", line.c_str());
  }
  const bool traced_correct = AllPassed(
      {{attribution.ok, "attribution (see the attribution lines on stdout)"},
       {traced.run.failed == 0, "an op of the traced run failed"}});
  PrintJson(correct && traced_correct,
            run.attempted + traced.run.attempted,
            run.failed + traced.run.failed, per_layer.all());
  return 0;
}
