#include "socket_run.h"

#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/a1.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kKeptErrors = 5;
constexpr auto kPollInterval = std::chrono::milliseconds(20);

/// Parses one "span seq=.. rid=.. op=.. ..." line of a TRACE response.
bool ParseSpanLine(const std::string& line, PolledSpan* span) {
  if (line.rfind("span ", 0) != 0) return false;
  std::istringstream in(line.substr(5));
  std::string field;
  while (in >> field) {
    size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    if (key == "op") {
      span->op = value;
      continue;
    }
    if (value.empty() || value[0] < '0' || value[0] > '9') continue;
    uint64_t n = std::stoull(value);
    if (key == "rid") span->rid = n;
    else if (key == "total_us") span->total_us = n;
    else if (key == "lock_us") span->lock_us = n;
    else if (key == "find_us") span->find_us = n;
    else if (key == "eval_us") span->eval_us = n;
    else if (key == "publish_us") span->publish_us = n;
    else if (key == "fsync_us") span->fsync_us = n;
    else if (key == "dirty") span->dirty = n;
  }
  return span->rid != 0;
}

/// Collects TRACE spans by rid; the ring keeps 256, so polling every
/// 20 ms loses none below ~12k mutations per second.
class SpanPoller {
 public:
  void Poll(taco::SocketClient& client) {
    auto response = client.Call("TRACE");
    if (!response.ok()) return;
    std::istringstream lines(*response);
    std::string line;
    std::lock_guard<std::mutex> lock(mu_);
    while (std::getline(lines, line)) {
      PolledSpan span;
      if (ParseSpanLine(line, &span)) spans_.emplace(span.rid, span);
    }
  }
  std::map<uint64_t, PolledSpan> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, PolledSpan> spans_;
};

struct ConnectionOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
  std::vector<OpRecord> log;
  std::vector<std::string> errors;
};

void RunConnection(const Workload& workload, int connection, uint16_t port,
                   uint64_t seed, Clock::time_point run_start,
                   Clock::time_point deadline, SpanPoller* poller,
                   ConnectionOutcome* out) {
  taco::SocketClient client;
  taco::Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) {
    out->attempted = out->failed = 1;
    out->errors.push_back("connect: " + connected.ToString());
    return;
  }
  OpStream stream(workload, connection, seed);
  Clock::time_point next_poll = Clock::now() + kPollInterval;
  while (Clock::now() < deadline) {
    if (poller != nullptr && Clock::now() >= next_poll) {
      poller->Poll(client);
      next_poll = Clock::now() + kPollInterval;
    }
    Op op = stream.Next();
    auto start = Clock::now();
    auto response = client.Call(op.text);
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    ++out->attempted;
    const double at = std::chrono::duration<double>(start - run_start).count();
    bool ok = response.ok() && !response->starts_with("ERR");
    if (!ok) {
      ++out->failed;
      if (out->errors.size() < kKeptErrors) {
        out->errors.push_back(op.text.substr(0, op.text.find('\n')) +
                              " -> " +
                              (response.ok() ? *response
                                             : response.status().ToString()));
      }
    } else {
      out->samples.push_back({op.cls, op.verb, ms, response->size(), at});
    }
    out->log.push_back(
        {std::move(op), ok ? std::move(*response) : std::string(), ok, at});
    if (!response.ok()) break;  // The transport is gone.
  }
}

}  // namespace

taco::Result<std::string> CallOk(taco::SocketClient& client,
                                 const std::string& command) {
  auto response = client.Call(command);
  if (!response.ok()) return response.status();
  if (response->starts_with("ERR")) {
    return taco::Status::Internal(command.substr(0, command.find('\n')) +
                                  " -> " + *response);
  }
  return response;
}

taco::Status LoadAndWarm(const Workload& workload, uint16_t port,
                         const std::string& snapshot_dir) {
  taco::SocketClient client;
  TACO_RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
  for (const Book& book : workload.books) {
    TACO_RETURN_IF_ERROR(CallOk(client, "LOAD " + book.name + " " +
                                            snapshot_dir + "/" + book.name +
                                            ".tsnap")
                             .status());
  }
  for (const Book& book : workload.books) {
    for (const taco::Range& range : book.read_plan) {
      TACO_RETURN_IF_ERROR(
          CallOk(client, "GETRANGE " + book.name + " " +
                             taco::RangeToA1(range))
              .status());
    }
  }
  return taco::Status::OK();
}

RunResult RunClosedLoop(const Workload& workload, uint16_t port,
                        double seconds, uint64_t seed, bool poll_trace) {
  const int connections = workload.connections();
  std::vector<ConnectionOutcome> outcomes(connections);
  SpanPoller poller;
  const int polling_connection = workload.reader ? connections - 1 : -1;
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    SpanPoller* p = poll_trace && c == polling_connection ? &poller : nullptr;
    threads.emplace_back(RunConnection, std::cref(workload), c, port, seed,
                         start, deadline, p, &outcomes[c]);
  }
  if (poll_trace && polling_connection < 0) {
    // A dedicated third connection polls while the two writers run.
    threads.emplace_back([&] {
      taco::SocketClient client;
      if (!client.Connect("127.0.0.1", port).ok()) return;
      while (Clock::now() < deadline) {
        poller.Poll(client);
        std::this_thread::sleep_for(kPollInterval);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  RunResult result;
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (poll_trace) {
    // One last poll after the loop, so the newest spans are not missed.
    taco::SocketClient client;
    if (client.Connect("127.0.0.1", port).ok()) poller.Poll(client);
    result.spans = poller.Take();
  }
  for (ConnectionOutcome& o : outcomes) {
    result.attempted += o.attempted;
    result.failed += o.failed;
    result.samples.insert(result.samples.end(),
                          std::make_move_iterator(o.samples.begin()),
                          std::make_move_iterator(o.samples.end()));
    result.logs.push_back(std::move(o.log));
    for (std::string& e : o.errors) result.errors.push_back(std::move(e));
  }
  return result;
}

std::map<taco::Cell, std::string> ParseValues(const std::string& response) {
  std::map<taco::Cell, std::string> values;
  size_t pos = 0;
  while (pos < response.size()) {
    size_t eol = response.find('\n', pos);
    if (eol == std::string::npos) eol = response.size();
    std::string_view line(response.data() + pos, eol - pos);
    pos = eol + 1;
    if (!line.starts_with("VALUE ")) continue;
    line.remove_prefix(6);
    size_t space = line.find(' ');
    if (space == std::string_view::npos) continue;
    auto cell = taco::ParseCellA1(line.substr(0, space));
    if (cell.ok()) values[*cell] = std::string(line.substr(space + 1));
  }
  return values;
}

taco::Result<std::map<taco::Cell, std::string>> ReadValues(
    taco::SocketClient& client, const std::string& session,
    const std::vector<taco::Range>& ranges) {
  std::map<taco::Cell, std::string> values;
  for (const taco::Range& range : ranges) {
    auto response =
        CallOk(client, "GETRANGE " + session + " " + taco::RangeToA1(range));
    if (!response.ok()) return response.status();
    values.merge(ParseValues(*response));
  }
  return values;
}

uint64_t FieldU64(const std::string& text, const std::string& key) {
  std::string needle = key + "=";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    // Match whole keys only ("edits=" must not match "wal_edits=").
    if (pos == 0 || text[pos - 1] == ' ' || text[pos - 1] == '\n') {
      return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
    }
    pos += needle.size();
  }
  return 0;
}

}  // namespace perfbench
