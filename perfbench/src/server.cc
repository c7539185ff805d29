#include "server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

/// Asks the kernel for a currently free loopback port. Another process
/// may take it before the server binds; Start retries on that.
uint16_t FreePort() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  uint16_t port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

bool CanConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  bool ok =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

/// True once `pid` has exited (and reaps it).
bool Exited(pid_t pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == pid;
}

}  // namespace

taco::Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& flags,
    const std::string& log_path) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    uint16_t port = FreePort();
    if (port == 0) return taco::Status::IoError("no free loopback port");
    std::vector<std::string> args = {binary, "--listen",
                                     std::to_string(port), "--bind",
                                     "127.0.0.1"};
    args.insert(args.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);

    int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                        0644);
    if (log_fd < 0) {
      return taco::Status::IoError("cannot open " + log_path + ": " +
                                   std::strerror(errno));
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      ::close(log_fd);
      return taco::Status::IoError(std::string("fork: ") +
                                   std::strerror(errno));
    }
    if (pid == 0) {
      // The server must not outlive svcbench, however svcbench ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      int null_fd = ::open("/dev/null", O_RDONLY);
      if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);

    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    bool exited = false;
    while (std::chrono::steady_clock::now() < deadline) {
      if (CanConnect(port)) {
        return std::unique_ptr<ServerProcess>(new ServerProcess(pid, port));
      }
      if (Exited(pid)) {
        exited = true;  // Most likely lost the port race: try another.
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!exited) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      return taco::Status::IoError("taco_serve did not start listening");
    }
  }
  return taco::Status::IoError("taco_serve exited at start, 5 times; see " +
                               log_path);
}

ServerProcess::~ServerProcess() { Kill(); }

taco::Status ServerProcess::Stop() {
  if (pid_ <= 0) return taco::Status::OK();
  ::kill(pid_, SIGTERM);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        return taco::Status::OK();
      }
      return taco::Status::Internal("taco_serve exited abnormally");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Kill();
  return taco::Status::Internal("taco_serve ignored SIGTERM for 20 s");
}

void ServerProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return -1;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // Reported in kB.
    }
  }
  return -1;
}

double ServerProcess::CpuSeconds() const {
  if (pid_ <= 0) return -1;
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name, which may hold spaces:
  // utime and stime are the 14th and 15th fields of the line.
  size_t close = text.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  for (int i = 3; i <= 13 && fields >> field; ++i) {
  }
  uint64_t utime = 0, stime = 0;
  if (!(fields >> utime >> stime)) return -1;
  return double(utime + stime) / double(::sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
