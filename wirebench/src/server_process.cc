#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace wirebench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

std::unique_ptr<ServerProcess> ServerProcess::Launch(
    const std::vector<std::string>& argv, double timeout_s) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
    std::perror("pipe");
    return nullptr;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return nullptr;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark, whatever ends it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    execv(args[0], args.data());
    std::perror("execv");
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  std::unique_ptr<ServerProcess> server(
      new ServerProcess(pid, in_pipe[1], out_pipe[0]));

  // The server announces "serving on 127.0.0.1:PORT" once it listens.
  const auto start = std::chrono::steady_clock::now();
  std::string text;
  const std::string marker = "serving on 127.0.0.1:";
  while (SecondsSince(start) < timeout_s) {
    pollfd pfd{server->stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) continue;
    char buf[4096];
    const ssize_t got = read(server->stdout_fd_, buf, sizeof(buf));
    if (got <= 0) break;
    text.append(buf, static_cast<size_t>(got));
    const size_t at = text.find(marker);
    if (at != std::string::npos &&
        text.find_first_not_of("0123456789", at + marker.size()) !=
            std::string::npos) {
      server->port_ = static_cast<uint16_t>(
          std::strtoul(text.c_str() + at + marker.size(), nullptr, 10));
      return server;
    }
  }
  std::fprintf(stderr, "server printed no port; its output was:\n%s\n",
               text.c_str());
  return nullptr;
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream fields(text.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  const char quit[] = "quit\n";
  signal(SIGPIPE, SIG_IGN);
  (void)!write(stdin_fd_, quit, sizeof(quit) - 1);
  close(stdin_fd_);
  int status = 0;
  const auto start = std::chrono::steady_clock::now();
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (SecondsSince(start) > 10) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  close(stdout_fd_);
  pid_ = -1;
}

HostCpu HostCpu::Now() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu out;
  uint64_t value = 0;
  for (int i = 0; i < 10 && (in >> value); ++i) {
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user.
    if (i < 8) out.total += value;
    if (i == 7) out.steal = value;
  }
  return out;
}

double StealPct(const HostCpu& before, const HostCpu& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

}  // namespace wirebench
