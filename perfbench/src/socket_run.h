// The client side of a socket run: loading and warming the workbooks,
// the timed closed loop, and reading a session's final values.

#ifndef PERFBENCH_SOCKET_RUN_H_
#define PERFBENCH_SOCKET_RUN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/cell.h"
#include "common/status.h"
#include "net/socket_client.h"
#include "workload.h"

namespace perfbench {

/// LOADs every book from `snapshot_dir` and reads its whole used range
/// once, so lazy first evaluation happens before any timed op.
taco::Status LoadAndWarm(const Workload& workload, uint16_t port,
                         const std::string& snapshot_dir);

/// One sent op with what came back.
struct OpRecord {
  Op op;
  std::string response;
  bool ok = false;  ///< Not ERR and no transport error.
  double at_s = 0;  ///< When it was sent, in seconds into the run.
};

/// One latency sample.
struct Sample {
  OpClass cls = OpClass::kRead;
  std::string verb;
  double ms = 0;
  size_t response_bytes = 0;
  double at_s = 0;  ///< When it was sent, in seconds into the run.
};

/// A trace span as TRACE prints it (integer microseconds).
struct PolledSpan {
  uint64_t rid = 0;
  std::string op;
  uint64_t total_us = 0, lock_us = 0, find_us = 0, eval_us = 0,
           publish_us = 0, fsync_us = 0;
  uint64_t dirty = 0;
};

struct RunResult {
  double seconds = 0;  ///< Wall time of the timed loop.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
  /// Per connection (writers first, then the reader), in send order.
  std::vector<std::vector<OpRecord>> logs;
  std::vector<std::string> errors;  ///< The first few failures, verbatim.
  /// Spans polled with TRACE during the run (traced runs only), one per
  /// rid.
  std::map<uint64_t, PolledSpan> spans;
};

/// Runs every connection of `workload` as a closed loop for `seconds`.
/// With `poll_trace`, TRACE is polled every 20 ms — from a third
/// connection when the workload uses two, else from the reader between
/// its own reads — and the spans are collected by rid.
RunResult RunClosedLoop(const Workload& workload, uint16_t port,
                        double seconds, uint64_t seed, bool poll_trace);

/// Reads every non-blank cell of `ranges` in `session`: cell -> display
/// text, exactly as GETRANGE printed it.
taco::Result<std::map<taco::Cell, std::string>> ReadValues(
    taco::SocketClient& client, const std::string& session,
    const std::vector<taco::Range>& ranges);

/// One request, failing on transport errors and ERR responses.
taco::Result<std::string> CallOk(taco::SocketClient& client,
                                 const std::string& command);

/// Parses GETRANGE's VALUE lines (and GET's single VALUE line).
std::map<taco::Cell, std::string> ParseValues(const std::string& response);

/// The integer after `key=` in `text` (0 when absent).
uint64_t FieldU64(const std::string& text, const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_SOCKET_RUN_H_
