// A taco_serve child process listening on a loopback port.

#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns `binary --listen <port> <flags...>` on a free loopback port,
  /// with its stdout and stderr appended to `log_path`, and waits until
  /// it accepts connections.
  static taco::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& flags,
      const std::string& log_path);

  /// Kills the process (SIGKILL) if it still runs, and reaps it.
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// SIGTERM (a graceful drain), then waits; SIGKILL after 20 s.
  taco::Status Stop();

  /// SIGKILL and reap: a crash, for the durability check.
  void Kill();

  /// The process's peak resident set (VmHWM) in MiB; -1 when unreadable.
  double PeakRssMb() const;

  /// CPU time the process has used so far (user + system), in seconds;
  /// -1 when unreadable.
  double CpuSeconds() const;

 private:
  ServerProcess(pid_t pid, uint16_t port) : pid_(pid), port_(port) {}

  pid_t pid_;
  uint16_t port_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
