#ifndef THEMIS_UTIL_SINGLE_FLIGHT_H_
#define THEMIS_UTIL_SINGLE_FLIGHT_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/cancel.h"
#include "util/status.h"

namespace themis {
namespace util {

/// Counters of one SingleFlight map (monotonic since construction).
struct SingleFlightStats {
  /// Keys that actually executed (one leader each).
  size_t flights = 0;
  /// Requests that attached to an already-in-flight execution instead of
  /// re-executing — the serving layer's `coalesced_hits`.
  size_t followers = 0;
  /// Followers that detached early (own deadline/cancel fired while the
  /// leader was still computing) and answered their own status.
  size_t detached = 0;
};

/// The cancellation handle a coalesced execution runs under. One exists
/// per in-flight key, owned by the flight; the executor polls it through
/// the virtual CancelToken::Check() like any other token.
///
/// Semantics (the ones the serving layer promises):
///   - Solo (no attached followers): delegates verbatim to the leader's
///     own token — a lone request behaves exactly as if single-flight did
///     not exist (deadline and disconnect-cancel tests stay bitwise).
///   - Collective (>= 1 follower attached): the leader's token is ignored
///     and execution runs until the *latest* attached deadline — the
///     leader's cancellation/deadline no longer kills work a follower
///     still wants, i.e. a follower is promoted to keep the flight alive.
///     A follower with no deadline extends the collective deadline to
///     "none".
///   - A follower detaching (its own deadline fired, or it got its
///     answer) returns governance to the leader's token when it was the
///     last one out.
///   - Cancel() on the FlightToken itself (not used by the serving paths,
///     but inherited) still aborts unconditionally.
///
/// Thread-safety: all state is atomic; Attach/Detach/Check race freely.
class FlightToken final : public CancelToken {
 public:
  /// `leader` may be null (an in-process caller without a token) and must
  /// outlive the flight — the serving layer guarantees it because the
  /// leader blocks inside the flight until execution finishes.
  explicit FlightToken(const CancelToken* leader)
      : leader_(leader),
        collective_deadline_ns_(leader != nullptr ? leader->deadline_ns()
                                                  : kNoDeadlineNs) {}

  /// Registers one follower and extends the collective deadline to cover
  /// it (a follower with no token / no deadline extends it to "none").
  void AttachFollower(const CancelToken* follower) {
    const int64_t wanted =
        follower != nullptr ? follower->deadline_ns() : kNoDeadlineNs;
    int64_t current = collective_deadline_ns_.load(std::memory_order_relaxed);
    while (current < wanted &&
           !collective_deadline_ns_.compare_exchange_weak(
               current, wanted, std::memory_order_relaxed)) {
    }
    active_followers_.fetch_add(1, std::memory_order_acq_rel);
  }

  void DetachFollower() {
    active_followers_.fetch_sub(1, std::memory_order_acq_rel);
  }

  size_t active_followers() const {
    return active_followers_.load(std::memory_order_acquire);
  }

  Status Check() const override {
    if (cancelled()) return Status::Cancelled("request cancelled");
    if (active_followers_.load(std::memory_order_acquire) == 0) {
      return CheckCancel(leader_);  // solo: exactly the leader's semantics
    }
    const int64_t deadline =
        collective_deadline_ns_.load(std::memory_order_relaxed);
    if (deadline != kNoDeadlineNs && SteadyNowNs() >= deadline) {
      return Status::DeadlineExceeded("request deadline exceeded");
    }
    return Status::OK();
  }

 private:
  const CancelToken* leader_;
  std::atomic<size_t> active_followers_{0};
  /// Grow-only maximum over the leader's and every follower's deadline.
  std::atomic<int64_t> collective_deadline_ns_;
};

/// Duplicate-suppressing execution map: concurrent Run() calls with the
/// same key execute the work once (the first caller in — the leader — runs
/// it under a FlightToken) and every other caller (a follower) blocks on
/// the leader's completion and shares the value. The memo layer above only
/// fills *after* a computation completes; this closes the window where a
/// thundering herd of identical requests races past a cold memo.
///
/// V must be copy-constructible and constructible from a Status (e.g.
/// Result<T>): a caller whose own token fires answers V(status) — a
/// follower's deadline expiry detaches it without cancelling the leader,
/// and a leader whose token fired mid-flight still publishes the value to
/// its followers before answering its own cancellation.
///
/// Followers block their calling thread (bounded by the flight's
/// execution time). On the shared ThreadPool this is safe — ParallelFor
/// is caller-claims-shards, so a leader always makes progress even when
/// every other pool thread is parked as its follower — but followers poll
/// their own token every few milliseconds so a disconnect or deadline
/// detaches promptly rather than at completion.
template <typename V>
class SingleFlight {
 public:
  SingleFlight() = default;
  SingleFlight(const SingleFlight&) = delete;
  SingleFlight& operator=(const SingleFlight&) = delete;

  /// Executes `execute(token)` once per concurrently-presented `key`.
  /// `self` (nullable) is this caller's own cancellation handle; `execute`
  /// receives the flight's collective token, which must be threaded into
  /// the cancellable work in place of `self`. A re-entrant call (below)
  /// passes `self` itself, so `execute` may receive null: poll it with
  /// util::CheckCancel.
  ///
  /// Re-entrancy: a thread that is currently executing some flight's
  /// leader work (this map or any other) never parks as a follower — the
  /// shared ThreadPool runs queued tasks while waiting (GetHelping /
  /// ParallelFor), so a leader can find itself executing a queued
  /// duplicate whose flight completes only when this very thread returns;
  /// following would deadlock (directly on its own key, or as a cycle of
  /// two leaders each following the other's flight). Such a call executes
  /// directly under the caller's own token instead — the answer is
  /// bitwise-identical by contract, only the dedup is skipped.
  template <typename Fn>
  V Run(const std::string& key, const CancelToken* self, Fn&& execute) {
    std::shared_ptr<Flight> flight;
    bool leader = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = flights_.find(key);
      if (it == flights_.end()) {
        flight = std::make_shared<Flight>(self);
        flights_.emplace(key, flight);
        ++stats_.flights;
        leader = true;
      } else if (LeaderDepth() == 0) {
        flight = it->second;
        ++stats_.followers;
      }
      // else: re-entrant duplicate on a leading thread; fall through and
      // execute directly below, never blocking a thread a flight depends
      // on (and never under mu_).
    }
    if (leader) return RunLeader(key, *flight, self, execute);
    if (flight == nullptr) return execute(self);
    return RunFollower(*flight, self);
  }

  SingleFlightStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Flight {
    explicit Flight(const CancelToken* leader) : token(leader) {}
    FlightToken token;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    /// Set exactly once, before `done`; never mutated after — followers
    /// copy it without holding `mu` past the done check.
    std::unique_ptr<const V> value;
  };

  /// Count of flights whose leader work is running on this thread, across
  /// every SingleFlight instance — the re-entrancy guard Run() consults.
  static int& LeaderDepth() {
    static thread_local int depth = 0;
    return depth;
  }

  struct LeaderScope {
    LeaderScope() { ++LeaderDepth(); }
    ~LeaderScope() { --LeaderDepth(); }
  };

  template <typename Fn>
  V RunLeader(const std::string& key, Flight& flight, const CancelToken* self,
              Fn& execute) {
    // The value (or a Status-wrapped failure) is always published: a
    // leader that threw and unwound without resolving the flight would
    // strand every follower and poison the key.
    V result = [&]() -> V {
      LeaderScope leading;
      try {
        return execute(static_cast<const CancelToken*>(&flight.token));
      } catch (const std::exception& e) {
        return V(Status::Internal(
            std::string("coalesced execution failed: ") + e.what()));
      } catch (...) {
        return V(Status::Internal("coalesced execution failed"));
      }
    }();
    {
      std::lock_guard<std::mutex> lock(flight.mu);
      flight.value = std::make_unique<const V>(std::move(result));
      flight.done = true;
    }
    flight.cv.notify_all();
    {
      // Late callers key a fresh flight from here on; the finished one
      // stays alive through the followers' shared_ptrs.
      std::lock_guard<std::mutex> lock(mu_);
      flights_.erase(key);
    }
    // The leader answers its *own* token: if it fired mid-flight while
    // followers kept the execution alive, the leader reports its own
    // cancellation/deadline even though the value was published.
    if (self != nullptr) {
      Status own = self->Check();
      if (!own.ok()) return V(std::move(own));
    }
    return *flight.value;
  }

  V RunFollower(Flight& flight, const CancelToken* self) {
    flight.token.AttachFollower(self);
    {
      std::unique_lock<std::mutex> lock(flight.mu);
      while (!flight.done) {
        // Bounded waits so a follower notices its own token firing while
        // the leader is still deep in a long scan.
        flight.cv.wait_for(lock, std::chrono::milliseconds(5));
        if (flight.done) break;
        if (self != nullptr) {
          Status own = self->Check();
          if (!own.ok()) {
            lock.unlock();
            flight.token.DetachFollower();
            {
              std::lock_guard<std::mutex> stats_lock(mu_);
              ++stats_.detached;
            }
            return V(std::move(own));
          }
        }
      }
    }
    flight.token.DetachFollower();
    if (self != nullptr) {
      Status own = self->Check();
      if (!own.ok()) return V(std::move(own));
    }
    return *flight.value;
  }

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  SingleFlightStats stats_;
};

}  // namespace util
}  // namespace themis

#endif  // THEMIS_UTIL_SINGLE_FLIGHT_H_
