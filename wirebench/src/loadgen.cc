#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "util/logging.h"

namespace wirebench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// The sender sleeps until shortly before a request is due and spins the
// rest, since a wake-up from sleep can come a hundred microseconds late.
constexpr int64_t kSpinBelowNs = 200'000;
constexpr std::string_view kOkSuffix = "\"status\":\"OK\"}";

int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void SleepUntil(int64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = deadline_ns / 1'000'000'000;
  ts.tv_nsec = deadline_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// The wire puts "status" last (object keys serialize sorted), so an OK
// answer ends with it and an error carries its code there.
std::string StatusOf(std::string_view line) {
  if (line.ends_with(kOkSuffix)) return "OK";
  const std::string_view key = "\"status\":\"";
  const size_t at = line.rfind(key);
  if (at == std::string_view::npos) return "Malformed";
  const size_t begin = at + key.size();
  const size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return "Malformed";
  return std::string(line.substr(begin, end - begin));
}

// The generator's two threads run at a higher priority than the server
// where the host allows it, so on a busy 4-CPU host they wake on time
// instead of queueing behind the server's pool threads; a run where they
// still fall behind says so (gen.late_ms).
void RaiseThreadPriority() {
  setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), -10);
}

struct Pending {
  int64_t due_ns = 0;  // absolute
  size_t id = 0;
};

// Per-connection request FIFO: the sender appends and publishes, the
// receiver matches each answer line to the oldest unanswered request
// (the server answers every connection in request order).
struct ConnState {
  std::vector<Pending> pending;
  std::atomic<size_t> published{0};
  size_t sent = 0;  // sender only
  size_t done = 0;  // receiver only
  std::string inbuf;
};

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return kInf;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  if (index > 0) --index;
  return values[std::min(index, values.size() - 1)];
}

LoadGenerator::LoadGenerator(uint16_t port, size_t connections,
                             double timeout_s)
    : port_(port),
      fds_(connections, -1),
      timeout_ns_(static_cast<int64_t>(timeout_s * 1e9)) {
  for (size_t i = 0; i < connections; ++i) Connect(i);
}

LoadGenerator::~LoadGenerator() {
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
}

void LoadGenerator::Connect(size_t index) {
  if (fds_[index] >= 0) close(fds_[index]);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  THEMIS_CHECK(fd >= 0) << std::strerror(errno);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  THEMIS_CHECK(connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) == 0)
      << "connect: " << std::strerror(errno);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fds_[index] = fd;
}

PhaseResult LoadGenerator::Run(const PhasePlan& plan,
                               const std::vector<std::string>& lines) {
  const size_t num_conns = fds_.size();
  const size_t burst = plan.burst;
  THEMIS_CHECK(burst == 1 || burst == num_conns);
  const size_t num_requests = plan.arrivals.size() * burst;
  PhaseResult result;
  result.attempted = num_requests;
  result.latency_ms.assign(num_requests, kInf);
  result.late_ms.reserve(plan.arrivals.size());
  if (plan.arrivals.empty()) return result;

  std::vector<std::unique_ptr<ConnState>> conns;
  for (size_t c = 0; c < num_conns; ++c) {
    conns.push_back(std::make_unique<ConnState>());
    conns[c]->pending.resize(burst == 1 ? num_requests / num_conns + 1
                                        : plan.arrivals.size());
  }
  const auto conn_of = [&](size_t arrival, size_t k) {
    return burst == 1 ? arrival % num_conns : k;
  };

  const int64_t start = NowNs() + 5'000'000;
  const int64_t last_due = start + plan.arrivals.back().due_ns;
  std::atomic<bool> sender_done{false};

  std::thread receiver([&] {
    RaiseThreadPriority();
    const int ep = epoll_create1(0);
    THEMIS_CHECK(ep >= 0);
    for (size_t c = 0; c < num_conns; ++c) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      THEMIS_CHECK(epoll_ctl(ep, EPOLL_CTL_ADD, fds_[c], &ev) == 0);
    }
    std::vector<epoll_event> events(num_conns);
    std::vector<char> buf(1 << 16);
    bool backlog_counted = false;
    while (true) {
      const int n = epoll_wait(ep, events.data(),
                               static_cast<int>(events.size()), 2);
      const int64_t now = NowNs();
      for (int e = 0; e < n; ++e) {
        const size_t c = events[e].data.u64;
        ConnState& conn = *conns[c];
        while (true) {
          const ssize_t got =
              recv(fds_[c], buf.data(), buf.size(), MSG_DONTWAIT);
          if (got <= 0) break;
          conn.inbuf.append(buf.data(), static_cast<size_t>(got));
        }
        size_t begin = 0;
        while (true) {
          const size_t nl = conn.inbuf.find('\n', begin);
          if (nl == std::string::npos) break;
          const std::string_view line(conn.inbuf.data() + begin, nl - begin);
          begin = nl + 1;
          if (conn.done >= conn.published.load(std::memory_order_acquire)) {
            ++result.error_codes["UnexpectedAnswer"];
            continue;
          }
          const Pending& p = conn.pending[conn.done++];
          const int64_t latency = now - p.due_ns;
          const std::string status = StatusOf(line);
          if (status == "OK") {
            if (latency > timeout_ns_) {
              ++result.timeouts;
            } else {
              ++result.ok;
              result.latency_ms[p.id] = latency / 1e6;
            }
          } else if (status == "ResourceExhausted") {
            ++result.refused;
          } else {
            ++result.errors;
            ++result.error_codes[status];
          }
          if (!plan.capture.empty() && plan.capture[p.id]) {
            result.captured.emplace(p.id, std::string(line));
          }
        }
        conn.inbuf.erase(0, begin);
      }
      if (!sender_done.load(std::memory_order_acquire)) continue;
      size_t outstanding = 0;
      for (const auto& conn : conns) {
        outstanding += conn->published.load(std::memory_order_acquire) -
                       conn->done;
      }
      if (!backlog_counted) {
        result.backlog_at_end = outstanding;
        backlog_counted = true;
      }
      if (outstanding == 0 || now > last_due + timeout_ns_) {
        result.hung = outstanding;
        break;
      }
    }
    close(ep);
  });

  std::thread sender([&] {
  RaiseThreadPriority();
  std::vector<std::string> out(num_conns);
  for (size_t i = 0; i < plan.arrivals.size();) {
    const int64_t due = start + plan.arrivals[i].due_ns;
    int64_t now = NowNs();
    if (now < due) {
      // Spinning yields, so the server's threads keep the CPU when the
      // host has none to spare.
      if (due - now > kSpinBelowNs) {
        SleepUntil(due - kSpinBelowNs * 3 / 4);
      } else {
        sched_yield();
      }
      continue;
    }
    // Everything due by now goes out in one write per connection.
    size_t j = i;
    for (; j < plan.arrivals.size() && start + plan.arrivals[j].due_ns <= now;
         ++j) {
      const std::string& line = lines[plan.arrivals[j].query];
      for (size_t k = 0; k < burst; ++k) {
        ConnState& conn = *conns[conn_of(j, k)];
        conn.pending[conn.sent++] = {start + plan.arrivals[j].due_ns,
                                     j * burst + k};
        out[conn_of(j, k)] += line;
      }
    }
    for (size_t c = 0; c < num_conns; ++c) {
      if (out[c].empty()) continue;
      conns[c]->published.store(conns[c]->sent, std::memory_order_release);
      size_t off = 0;
      while (off < out[c].size()) {
        const ssize_t wrote = send(fds_[c], out[c].data() + off,
                                   out[c].size() - off, MSG_NOSIGNAL);
        if (wrote < 0 && errno == EINTR) continue;
        THEMIS_CHECK(wrote > 0) << "send: " << std::strerror(errno);
        off += static_cast<size_t>(wrote);
      }
      out[c].clear();
    }
    now = NowNs();
    for (; i < j; ++i) {
      result.late_ms.push_back((now - start - plan.arrivals[i].due_ns) / 1e6);
    }
  }
  sender_done.store(true, std::memory_order_release);
  });
  sender.join();
  receiver.join();

  result.timeouts += result.hung;
  for (size_t c = 0; c < num_conns; ++c) {
    if (conns[c]->published.load() != conns[c]->done) Connect(c);
  }
  return result;
}

}  // namespace wirebench
