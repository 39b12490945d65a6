#ifndef WIREBENCH_SERVER_PROCESS_H_
#define WIREBENCH_SERVER_PROCESS_H_

// The shipped server (`themis_cli ... --serve 0`) as a child process:
// launch, wait for its port, read its CPU time and peak RSS from /proc,
// and stop it with the operator's `quit`.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace wirebench {

class ServerProcess {
 public:
  /// Starts `argv` (argv[0] is the binary path) and blocks until it
  /// prints its listening port. Null, with the reason on stderr, when the
  /// child exits or prints no port within `timeout_s`.
  static std::unique_ptr<ServerProcess> Launch(
      const std::vector<std::string>& argv, double timeout_s);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// User plus system CPU seconds the process has used so far.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM), in MB.
  double PeakRssMb() const;

  /// Sends `quit` (a draining stop) and reaps the process, killing it if
  /// it has not exited within a few seconds.
  void Stop();

 private:
  ServerProcess(pid_t pid, int stdin_fd, int stdout_fd)
      : pid_(pid), stdin_fd_(stdin_fd), stdout_fd_(stdout_fd) {}

  pid_t pid_;
  int stdin_fd_;
  int stdout_fd_;
  uint16_t port_ = 0;
};

/// Host-wide CPU counters from /proc/stat, for the steal share.
struct HostCpu {
  uint64_t steal = 0;
  uint64_t total = 0;
  static HostCpu Now();
};

/// Percent of host CPU time stolen by the hypervisor between two reads.
double StealPct(const HostCpu& before, const HostCpu& after);

}  // namespace wirebench

#endif  // WIREBENCH_SERVER_PROCESS_H_
