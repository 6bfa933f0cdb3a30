// Tests for the lock-free SPSC ring (engine/spsc_ring.hpp): FIFO and
// close semantics mirroring BoundedQueue, index wrap-around, blocking
// backpressure, role-claim enforcement, a two-thread stress whose
// conservation counters the TSan CI job runs race-free, and a park/wake
// stress in which a lost wake-up hangs the test. Blocking tests wait for
// the blocked side's park count to advance, never for wall-clock time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/spsc_ring.hpp"

namespace {

using posg::engine::SpscBind;
using posg::engine::SpscRing;

/// Yields until `parks()` exceeds `seen` — i.e. the side re-checked its
/// condition, found it unmet and entered its wait — and returns the new
/// count.
template <typename Parks>
std::uint64_t await_park(Parks parks, std::uint64_t seen) {
  std::uint64_t now = parks();
  while (now == seen) {
    std::this_thread::yield();
    now = parks();
  }
  return now;
}

TEST(SpscRing, FifoOrder) {
  SpscRing<int> ring(8);
  SpscBind produce(ring.producer_role());
  SpscBind consume(ring.consumer_role());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.push(i));
  }
  std::vector<int> out;
  EXPECT_EQ(ring.pop_all(out), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  ring.debug_validate();
}

TEST(SpscRing, CapacityIsLogicalNotStorage) {
  // Storage rounds up to a power of two (5 -> 8) but the blocking
  // contract must honour the requested capacity: five elements fit, and a
  // sixth push parks the producer until a pop frees room.
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 5u);
  std::atomic<bool> sixth{false};
  std::thread producer([&] {
    SpscBind produce(ring.producer_role());
    std::vector<int> batch{0, 1, 2, 3, 4};
    EXPECT_EQ(ring.push_all(batch), 5u);
    EXPECT_TRUE(ring.push(5));
    sixth = true;
  });
  // Either the producer parks, or (were the ring bounded by its 8 slots)
  // the sixth push returns: wait for whichever comes first.
  while (ring.producer_parks() == 0 && !sixth.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(sixth.load());
  EXPECT_EQ(ring.size(), 5u);
  {
    SpscBind consume(ring.consumer_role());
    std::vector<int> out;
    EXPECT_EQ(ring.pop_all(out), 5u);
    producer.join();
    EXPECT_TRUE(sixth.load());
    ring.close();  // a failed expectation above then ends in 0, not a hang
    EXPECT_EQ(ring.pop_all(out), 1u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  }
  ring.debug_validate();
}

TEST(SpscRing, IndexWrapAroundKeepsFifo) {
  // Far more elements than storage slots: the monotonic indexes must wrap
  // through the mask without reordering or losing elements.
  SpscRing<int> ring(4);
  SpscBind produce(ring.producer_role());
  SpscBind consume(ring.consumer_role());
  int next_in = 0;
  int next_out = 0;
  std::vector<int> out;
  for (int round = 0; round < 64; ++round) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(ring.push(next_in++));
    }
    out.clear();
    EXPECT_EQ(ring.pop_all(out), 3u);
    for (int value : out) {
      EXPECT_EQ(value, next_out++);
    }
  }
  EXPECT_EQ(ring.pushed(), 192u);
  EXPECT_EQ(ring.popped(), 192u);
  ring.debug_validate();
}

TEST(SpscRing, PushAllPreservesFifoAndClearsInput) {
  SpscRing<int> ring(10);
  SpscBind produce(ring.producer_role());
  SpscBind consume(ring.consumer_role());
  std::vector<int> batch{1, 2, 3, 4};
  EXPECT_EQ(ring.push_all(batch), 4u);
  EXPECT_TRUE(batch.empty());
  std::vector<int> out{-1};  // pop_all appends, never overwrites
  EXPECT_EQ(ring.pop_all(out), 4u);
  EXPECT_EQ(out, (std::vector<int>{-1, 1, 2, 3, 4}));
  ring.debug_validate();
}

TEST(SpscRing, CloseDrainsRemainingThenSignalsEnd) {
  SpscRing<int> ring(8);
  SpscBind produce(ring.producer_role());
  SpscBind consume(ring.consumer_role());
  ring.push(1);
  ring.push(2);
  ring.close();
  std::vector<int> out;
  EXPECT_EQ(ring.pop_all(out), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
  EXPECT_EQ(ring.pop_all(out), 0u);  // closed and drained
}

TEST(SpscRing, CloseRejectsNewPushes) {
  SpscRing<int> ring(8);
  SpscBind produce(ring.producer_role());
  ring.close();
  EXPECT_FALSE(ring.push(1));
  EXPECT_TRUE(ring.closed());
  EXPECT_EQ(ring.rejected(), 1u);
  std::vector<int> batch{1, 2, 3};
  EXPECT_EQ(ring.push_all(batch), 0u);
  EXPECT_EQ(ring.rejected(), 4u);
  ring.debug_validate();
}

TEST(SpscRing, PushBlocksWhenFullUntilConsumerFreesRoom) {
  SpscRing<int> ring(1);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    SpscBind produce(ring.producer_role());
    EXPECT_TRUE(ring.push(1));
    EXPECT_TRUE(ring.push(2));
    pushed = true;
  });
  await_park([&] { return ring.producer_parks(); }, 0);
  EXPECT_FALSE(pushed.load());  // backpressure: producer waits
  EXPECT_EQ(ring.pushed(), 1u);
  {
    SpscBind consume(ring.consumer_role());
    std::vector<int> out;
    EXPECT_GE(ring.pop_all(out), 1u);
    producer.join();
    EXPECT_TRUE(pushed.load());
    while (ring.size() > 0) {
      ring.pop_all(out);
    }
    EXPECT_EQ(out.back(), 2);
  }
  EXPECT_GT(ring.full_spins(), 0u);  // the waits were counted
  ring.debug_validate();
}

TEST(SpscRing, PopAllBlocksUntilPush) {
  SpscRing<int> ring(4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    SpscBind consume(ring.consumer_role());
    std::vector<int> out;
    EXPECT_EQ(ring.pop_all(out), 1u);
    EXPECT_EQ(out, std::vector<int>{7});
    got = true;
  });
  await_park([&] { return ring.consumer_parks(); }, 0);
  EXPECT_FALSE(got.load());
  EXPECT_EQ(ring.popped(), 0u);
  {
    SpscBind produce(ring.producer_role());
    ring.push(7);
  }
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(SpscRing, CloseWakesBlockedConsumer) {
  SpscRing<int> ring(4);
  std::thread consumer([&] {
    SpscBind consume(ring.consumer_role());
    std::vector<int> out;
    EXPECT_EQ(ring.pop_all(out), 0u);
  });
  await_park([&] { return ring.consumer_parks(); }, 0);
  EXPECT_EQ(ring.popped(), 0u);
  ring.close();
  consumer.join();
}

TEST(SpscRing, CloseWakesBlockedProducer) {
  SpscRing<int> ring(1);
  std::thread producer([&] {
    SpscBind produce(ring.producer_role());
    EXPECT_TRUE(ring.push(1));
    EXPECT_FALSE(ring.push(2));
  });
  await_park([&] { return ring.producer_parks(); }, 0);
  EXPECT_EQ(ring.pushed(), 1u);
  EXPECT_EQ(ring.rejected(), 0u);
  ring.close();
  producer.join();
  EXPECT_EQ(ring.rejected(), 1u);
  ring.debug_validate();
}

TEST(SpscRing, RejectsZeroCapacity) {
  EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
}

TEST(SpscRingDeath, SecondRoleClaimAborts) {
  // Two producers on an SPSC ring is corruption, not contention — the
  // runtime half of the role capability must make it a hard abort.
  SpscRing<int> ring(4);
  ring.producer_role().claim();
  EXPECT_DEATH(ring.producer_role().claim(), "second claimant");
  ring.producer_role().unclaim();
}

TEST(SpscRing, TwoThreadStressConservation) {
  // One producer thread, one consumer thread, a deliberately tiny ring so
  // both the full-wait and the empty-wait paths run constantly. The TSan
  // job runs this test; any ordering bug in the release/acquire pairs
  // shows up as a data race on the slot array.
  constexpr int kTotal = 100000;
  SpscRing<int> ring(8);
  std::thread producer([&] {
    SpscBind produce(ring.producer_role());
    std::vector<int> batch;
    for (int i = 0; i < kTotal; ++i) {
      if (i % 3 == 0) {
        // Keep the push order strictly increasing: drain the staged batch
        // before the single push so FIFO is checkable end to end.
        if (!batch.empty()) {
          const std::size_t staged = batch.size();  // push_all clears it
          EXPECT_EQ(ring.push_all(batch), staged);
        }
        EXPECT_TRUE(ring.push(i));
      } else {
        batch.push_back(i);
        if (batch.size() == 5) {
          EXPECT_EQ(ring.push_all(batch), 5u);  // push_all clears the batch
        }
      }
    }
    if (!batch.empty()) {
      const std::size_t remainder = batch.size();  // push_all clears it
      EXPECT_EQ(ring.push_all(batch), remainder);
    }
    ring.close();
  });
  std::vector<int> received;
  received.reserve(kTotal);
  {
    SpscBind consume(ring.consumer_role());
    std::vector<int> out;
    while (ring.pop_all(out) > 0) {
      received.insert(received.end(), out.begin(), out.end());
      out.clear();
    }
  }
  producer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kTotal));
  // Per-source FIFO with a single source means globally ordered.
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)], i);
  }
  ring.debug_validate();
  EXPECT_EQ(ring.pushed(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(ring.popped(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(ring.rejected(), 0u);
}

TEST(SpscRing, EveryHandOffThroughParkAndWakeIsDelivered) {
  // Each phase forces one side into its wait before the peer acts, so
  // every hand-off crosses the park/wake handshake. A missed wake-up
  // leaves a side waiting forever: the test then hangs until the ctest
  // timeout instead of passing.
  constexpr int kHandOffs = 5000;

  // Phase 1: the producer pushes only after the consumer parked on the
  // empty ring, so every element must wake it.
  {
    SpscRing<int> ring(8);
    std::vector<int> received;
    std::thread consumer([&] {
      SpscBind consume(ring.consumer_role());
      std::vector<int> out;
      while (ring.pop_all(out) > 0) {
      }
      received = std::move(out);
    });
    {
      SpscBind produce(ring.producer_role());
      std::uint64_t seen = 0;
      for (int i = 0; i < kHandOffs; ++i) {
        seen = await_park([&] { return ring.consumer_parks(); }, seen);
        EXPECT_TRUE(ring.push(i));
      }
    }
    ring.close();
    consumer.join();
    ASSERT_EQ(received.size(), static_cast<std::size_t>(kHandOffs));
    for (int i = 0; i < kHandOffs; ++i) {
      ASSERT_EQ(received[static_cast<std::size_t>(i)], i);
    }
    EXPECT_GE(ring.consumer_parks(), static_cast<std::uint64_t>(kHandOffs));
    ring.debug_validate();
  }

  // Phase 2: a capacity-1 ring, and the consumer pops only after the
  // producer parked on it, so every push after the first waits for the
  // consumer's wake.
  {
    SpscRing<int> ring(1);
    std::thread producer([&] {
      SpscBind produce(ring.producer_role());
      for (int i = 0; i < kHandOffs; ++i) {
        ASSERT_TRUE(ring.push(i));
      }
      ring.close();
    });
    std::vector<int> received;
    {
      SpscBind consume(ring.consumer_role());
      std::uint64_t seen = 0;
      for (;;) {
        std::uint64_t parks = ring.producer_parks();
        while (parks == seen && !ring.closed()) {
          std::this_thread::yield();
          parks = ring.producer_parks();
        }
        seen = parks;
        if (ring.pop_all(received) == 0) {
          break;
        }
      }
    }
    producer.join();
    ASSERT_EQ(received.size(), static_cast<std::size_t>(kHandOffs));
    for (int i = 0; i < kHandOffs; ++i) {
      ASSERT_EQ(received[static_cast<std::size_t>(i)], i);
    }
    EXPECT_GE(ring.producer_parks(), static_cast<std::uint64_t>(kHandOffs - 1));
    ring.debug_validate();
  }

  // Phase 3: close() races a park on both ends. Each round closes after a
  // different number of yields, so the close lands before, during and
  // after the waits; both blocked calls must still return.
  for (int round = 0; round < 200; ++round) {
    SpscRing<int> ring(1);
    std::thread consumer([&] {
      SpscBind consume(ring.consumer_role());
      std::vector<int> out;
      EXPECT_EQ(ring.pop_all(out), 0u);
    });
    SpscRing<int> full(1);
    std::thread producer([&] {
      SpscBind produce(full.producer_role());
      EXPECT_TRUE(full.push(round));
      EXPECT_FALSE(full.push(round + 1));
    });
    while (full.pushed() == 0) {  // the first push never blocks
      std::this_thread::yield();
    }
    for (int i = 0; i < round % 50; ++i) {
      std::this_thread::yield();
    }
    ring.close();
    full.close();
    consumer.join();
    producer.join();
    ring.debug_validate();
    full.debug_validate();
    EXPECT_EQ(full.pushed(), 1u);
    EXPECT_EQ(full.rejected(), 1u);
    SpscBind consume(full.consumer_role());
    std::vector<int> out;
    EXPECT_EQ(full.pop_all(out), 1u);
    EXPECT_EQ(out, std::vector<int>{round});
    EXPECT_EQ(full.pop_all(out), 0u);
  }
}

TEST(SpscRing, MoveOnlyPayloadsTransferWithoutCopy) {
  // unique_ptr payloads prove the hand-off path is move-only end to end.
  SpscRing<std::unique_ptr<int>> ring(8);
  SpscBind produce(ring.producer_role());
  SpscBind consume(ring.consumer_role());
  std::vector<std::unique_ptr<int>> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(std::make_unique<int>(i));
  }
  EXPECT_EQ(ring.push_all(batch), 4u);
  std::vector<std::unique_ptr<int>> out;
  EXPECT_EQ(ring.pop_all(out), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(out[static_cast<std::size_t>(i)], nullptr);
    EXPECT_EQ(*out[static_cast<std::size_t>(i)], i);
  }
}

}  // namespace
