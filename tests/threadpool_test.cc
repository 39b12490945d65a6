// Tests for the shared execution runtime: util::ThreadPool (FIFO
// ordering, exception propagation through futures, nested submission and
// nested ParallelFor without deadlock), DefaultParallelism/
// ResolveParallelism, the cost-aware LruCache admission policy, and the
// util::SingleFlight duplicate-suppression map (leader/follower value
// sharing, follower-deadline detach, leader-cancel promotion).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.h"
#include "util/lru_cache.h"
#include "util/single_flight.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace themis::util {
namespace {

TEST(DefaultParallelismTest, PositiveAndEnvOverridable) {
  unsetenv("THEMIS_NUM_THREADS");
  EXPECT_GE(DefaultParallelism(), 1u);

  setenv("THEMIS_NUM_THREADS", "3", 1);
  EXPECT_EQ(DefaultParallelism(), 3u);
  // Garbage and zero fall back to the hardware default.
  setenv("THEMIS_NUM_THREADS", "0", 1);
  EXPECT_GE(DefaultParallelism(), 1u);
  unsetenv("THEMIS_NUM_THREADS");
}

TEST(DefaultParallelismTest, ResolveHonorsExplicitRequest) {
  EXPECT_EQ(ResolveParallelism(7), 7u);
  EXPECT_EQ(ResolveParallelism(0), DefaultParallelism());
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPoolTest, SingleWorkerRunsTasksInFifoOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([i, &order] { order.push_back(i); }));
  }
  for (auto& f : futures) f.get();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The pool stays usable after a task threw.
  auto ok = pool.Submit([] { return 7; });
  EXPECT_EQ(ok.get(), 7);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> counts(kN);
    pool.ParallelFor(0, kN, [&](size_t i) { counts[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(5, 6, [&](size_t i) {
    EXPECT_EQ(i, 5u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.ParallelFor(0, 64, [&](size_t i) {
      if (i % 3 == 1) throw std::invalid_argument(std::to_string(i));
      completed.fetch_add(1);
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "1");  // lowest failing index, deterministic
  }
  // Every non-throwing shard still ran to completion (21 of 64 throw).
  EXPECT_EQ(completed.load(), 64 - 21);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  for (size_t workers : {1u, 2u}) {
    ThreadPool pool(workers);
    std::atomic<int> inner_calls{0};
    pool.ParallelFor(0, 8, [&](size_t) {
      pool.ParallelFor(0, 8, [&](size_t) { inner_calls.fetch_add(1); });
    });
    EXPECT_EQ(inner_calls.load(), 64);
  }
}

TEST(ThreadPoolTest, NestedSubmitWithGetHelpingDoesNotDeadlock) {
  // A task on a saturated 1-worker pool submits a subtask and blocks on
  // it; GetHelping runs queued work while waiting, so this completes.
  ThreadPool pool(1);
  auto outer = pool.Submit([&pool] {
    auto inner = pool.Submit([] { return 13; });
    return pool.GetHelping(inner) + 1;
  });
  EXPECT_EQ(pool.GetHelping(outer), 14);
}

TEST(ThreadPoolTest, DeeplyNestedMixedSubmissionCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.ParallelFor(0, 4, [&](size_t) {
    auto mid = pool.Submit([&] {
      pool.ParallelFor(0, 4, [&](size_t) { leaves.fetch_add(1); });
    });
    pool.GetHelping(mid);
  });
  EXPECT_EQ(leaves.load(), 16);
}

TEST(LruCacheCostTest, CostAwareEvictionFreesEnoughSpace) {
  LruCache<int, int> cache(100);
  EXPECT_TRUE(cache.Put(1, 10, 60));
  EXPECT_TRUE(cache.Put(2, 20, 30));
  EXPECT_EQ(cache.total_cost(), 90u);
  // Inserting 50 must evict key 1 (LRU, cost 60) to fit.
  EXPECT_TRUE(cache.Put(3, 30, 50));
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(2).has_value());
  EXPECT_EQ(cache.total_cost(), 80u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheCostTest, OversizedEntryIsRejectedNotAdmitted) {
  LruCache<int, int> cache(100);
  EXPECT_TRUE(cache.Put(1, 10, 40));
  // Costlier than the whole capacity: rejected, resident entries survive.
  EXPECT_FALSE(cache.Put(2, 20, 101));
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_EQ(cache.rejections(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheCostTest, OverwriteReplacesCost) {
  LruCache<int, int> cache(100);
  EXPECT_TRUE(cache.Put(1, 10, 80));
  EXPECT_TRUE(cache.Put(1, 11, 20));  // same key, smaller cost
  EXPECT_EQ(cache.total_cost(), 20u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(LruCacheCostTest, UnitCostsKeepEntryCountSemantics) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.total_cost(), 2u);
  EXPECT_FALSE(cache.Get(1).has_value());
}

TEST(SingleFlightTest, LeaderExecutesOnceAndFollowersShareTheValue) {
  SingleFlight<Result<int>> flights;
  std::promise<void> leader_entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> executions{0};

  std::vector<Result<int>> answers(3, Result<int>(Status::Internal("unset")));
  std::thread leader([&] {
    answers[0] = flights.Run("key", nullptr, [&](const util::CancelToken*) {
      executions.fetch_add(1);
      leader_entered.set_value();
      released.wait();
      return Result<int>(42);
    });
  });
  leader_entered.get_future().wait();  // the flight is in the map

  std::vector<std::thread> follower_threads;
  for (size_t i = 1; i <= 2; ++i) {
    follower_threads.emplace_back([&flights, &answers, i] {
      // Executing here would be the bug this layer exists to prevent.
      answers[i] = flights.Run("key", nullptr, [](const util::CancelToken*) {
        ADD_FAILURE() << "duplicate key re-executed";
        return Result<int>(-1);
      });
    });
  }
  while (flights.stats().followers < 2) std::this_thread::yield();
  release.set_value();
  leader.join();
  for (std::thread& t : follower_threads) t.join();

  EXPECT_EQ(executions.load(), 1);
  for (const auto& answer : answers) {
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(*answer, 42);
  }
  const SingleFlightStats stats = flights.stats();
  EXPECT_EQ(stats.flights, 1u);
  EXPECT_EQ(stats.followers, 2u);
  EXPECT_EQ(stats.detached, 0u);
}

TEST(SingleFlightTest, ReentrantDuplicateOnALeadingThreadExecutesDirectly) {
  // The ThreadPool runs queued tasks while waiting (GetHelping /
  // ParallelFor), so a leader mid-execution can pick up a queued
  // duplicate of its own in-flight key. Following would deadlock — the
  // flight completes only when this very thread returns — so the nested
  // call must execute directly. Without the re-entrancy guard this test
  // hangs instead of failing.
  SingleFlight<Result<int>> flights;
  auto result = flights.Run("key", nullptr, [&](const util::CancelToken*) {
    auto nested =
        flights.Run("key", nullptr,
                    [](const util::CancelToken*) { return Result<int>(5); });
    EXPECT_TRUE(nested.ok());
    return Result<int>(*nested + 1);
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 6);
  // The nested execution bypassed the map: one flight, no followers.
  EXPECT_EQ(flights.stats().flights, 1u);
  EXPECT_EQ(flights.stats().followers, 0u);
}

TEST(SingleFlightTest, AThrowingLeaderStillResolvesItsFollowers) {
  SingleFlight<Result<int>> flights;
  std::promise<void> leader_entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();

  Result<int> leader_answer(Status::Internal("unset"));
  std::thread leader([&] {
    leader_answer =
        flights.Run("key", nullptr,
                    [&](const util::CancelToken*) -> Result<int> {
                      leader_entered.set_value();
                      released.wait();
                      throw std::runtime_error("executor blew up");
                    });
  });
  leader_entered.get_future().wait();

  Result<int> follower_answer(Status::Internal("unset"));
  std::thread follower([&] {
    follower_answer = flights.Run(
        "key", nullptr,
        [](const util::CancelToken*) { return Result<int>(-1); });
  });
  while (flights.stats().followers < 1) std::this_thread::yield();
  release.set_value();
  leader.join();
  follower.join();

  // Both get the wrapped failure; neither hangs on a poisoned key.
  EXPECT_EQ(leader_answer.status().code(), StatusCode::kInternal);
  EXPECT_EQ(follower_answer.status().code(), StatusCode::kInternal);
  // And the key is usable again afterwards.
  auto retry = flights.Run(
      "key", nullptr, [](const util::CancelToken*) { return Result<int>(3); });
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(*retry, 3);
}

TEST(SingleFlightTest, SequentialRunsDoNotCoalesce) {
  // Coalescing is a property of *concurrent* presentation; sequential
  // duplicates belong to the memo layer above.
  SingleFlight<Result<int>> flights;
  auto once = [](const util::CancelToken*) { return Result<int>(7); };
  EXPECT_EQ(*flights.Run("key", nullptr, once), 7);
  EXPECT_EQ(*flights.Run("key", nullptr, once), 7);
  EXPECT_EQ(flights.stats().flights, 2u);
  EXPECT_EQ(flights.stats().followers, 0u);
}

TEST(SingleFlightTest, SoloFlightDelegatesToTheLeadersToken) {
  SingleFlight<Result<int>> flights;
  util::CancelToken own;
  own.Cancel();
  // With no followers the flight token must answer exactly as the
  // leader's own token would — a lone request is untouched by coalescing.
  auto result = flights.Run("key", &own, [](const util::CancelToken* token) {
    return Result<int>(token->Check());
  });
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(SingleFlightTest, FollowerDeadlineDetachesWithoutCancellingTheLeader) {
  SingleFlight<Result<int>> flights;
  std::promise<void> leader_entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();

  Result<int> leader_answer(Status::Internal("unset"));
  std::thread leader([&] {
    leader_answer =
        flights.Run("key", nullptr, [&](const util::CancelToken* token) {
          leader_entered.set_value();
          released.wait();
          // The follower detached long ago; governance is back with the
          // (token-less) leader, so the flight is still live.
          return Result<int>(util::CheckCancel(token).ok() ? 7 : -1);
        });
  });
  leader_entered.get_future().wait();

  // A follower whose own 1ms budget lapses while the leader is parked
  // must answer DeadlineExceeded itself — and must NOT kill the flight.
  util::CancelToken short_deadline(/*deadline_ms=*/1);
  auto follower_answer =
      flights.Run("key", &short_deadline, [](const util::CancelToken*) {
        ADD_FAILURE() << "duplicate key re-executed";
        return Result<int>(-1);
      });
  EXPECT_EQ(follower_answer.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(flights.stats().detached, 1u);

  release.set_value();
  leader.join();
  ASSERT_TRUE(leader_answer.ok()) << leader_answer.status().ToString();
  EXPECT_EQ(*leader_answer, 7);
}

TEST(SingleFlightTest, LeaderCancellationPromotesAnAttachedFollower) {
  SingleFlight<Result<int>> flights;
  std::promise<void> leader_entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  util::CancelToken leader_token;

  Result<int> leader_answer(Status::Internal("unset"));
  std::atomic<bool> flight_survived{false};
  std::thread leader([&] {
    leader_answer =
        flights.Run("key", &leader_token, [&](const util::CancelToken* token) {
          leader_entered.set_value();
          released.wait();
          // The leader's token has fired, but a follower is attached: the
          // collective token must keep the execution alive for it.
          flight_survived.store(token->Check().ok());
          return Result<int>(9);
        });
  });
  leader_entered.get_future().wait();

  Result<int> follower_answer(Status::Internal("unset"));
  std::thread follower([&] {
    follower_answer =
        flights.Run("key", nullptr, [](const util::CancelToken*) {
          ADD_FAILURE() << "duplicate key re-executed";
          return Result<int>(-1);
        });
  });
  while (flights.stats().followers < 1) std::this_thread::yield();

  leader_token.Cancel();
  release.set_value();
  leader.join();
  follower.join();

  EXPECT_TRUE(flight_survived.load());
  // The follower got the published value; the leader answers its own
  // cancellation even though the work completed.
  ASSERT_TRUE(follower_answer.ok()) << follower_answer.status().ToString();
  EXPECT_EQ(*follower_answer, 9);
  EXPECT_EQ(leader_answer.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(flights.stats().detached, 0u);
}

}  // namespace
}  // namespace themis::util
