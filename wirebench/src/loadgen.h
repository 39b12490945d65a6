#ifndef WIREBENCH_LOADGEN_H_
#define WIREBENCH_LOADGEN_H_

// Open-loop load generator: sends pre-scheduled requests over a few
// pipelined loopback connections, one sender thread and one receiver
// thread, and times each request from the moment it was due, so a stall
// also charges the requests queued behind it.

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wirebench {

struct Arrival {
  int64_t due_ns = 0;  // offset from the phase start
  uint32_t query = 0;  // index into the request lines
};

/// Draws a Poisson arrival process of `rate` arrivals per second over
/// `seconds`, each carrying the query `next()` returns.
template <typename Rng, typename Next>
std::vector<Arrival> PoissonArrivals(double rate, double seconds, Rng& rng,
                                     Next next) {
  std::vector<Arrival> out;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= seconds) break;
    out.push_back({static_cast<int64_t>(t * 1e9), next()});
  }
  return out;
}

struct PhasePlan {
  std::vector<Arrival> arrivals;  // ascending due times
  /// Requests per arrival. 1 spreads arrivals round-robin over the
  /// connections; a burst equal to the connection count sends the same
  /// query once on every connection.
  size_t burst = 1;
  /// Request ids (arrival * burst + k) whose response lines are kept.
  std::vector<char> capture;
};

struct PhaseResult {
  size_t attempted = 0;
  size_t ok = 0;
  size_t errors = 0;    // non-OK status other than ResourceExhausted,
                        // however late it arrived
  size_t refused = 0;   // ResourceExhausted (admission control)
  size_t timeouts = 0;  // OK after the client timeout, or never answered
  size_t hung = 0;      // subset of timeouts never answered at all
  /// Requests still unanswered when the last one was due.
  size_t backlog_at_end = 0;
  /// Latency (ms, from due time) of every attempted request; failures
  /// are +infinity so they count as over any limit.
  std::vector<double> latency_ms;
  /// Send time minus due time, per arrival (ms).
  std::vector<double> late_ms;
  std::map<std::string, size_t> error_codes;
  std::map<size_t, std::string> captured;

  size_t failed() const { return errors + refused + timeouts; }
};

/// Quantile (0..1) of `values` by nearest rank; +infinity entries sort
/// last.
double Quantile(std::vector<double> values, double q);

class LoadGenerator {
 public:
  LoadGenerator(uint16_t port, size_t connections, double timeout_s);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Runs one phase to completion: sends on schedule, then waits for the
  /// outstanding answers up to the client timeout. Connections left with
  /// unanswered requests are replaced, so the next phase starts clean.
  /// `lines` are the encoded requests (newline included), indexed by
  /// Arrival::query.
  PhaseResult Run(const PhasePlan& plan,
                  const std::vector<std::string>& lines);

 private:
  void Connect(size_t index);

  uint16_t port_;
  std::vector<int> fds_;
  int64_t timeout_ns_;
};

}  // namespace wirebench

#endif  // WIREBENCH_LOADGEN_H_
