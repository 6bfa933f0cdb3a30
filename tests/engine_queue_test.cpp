// Tests for the engine's bounded blocking queue.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "engine/queue.hpp"

namespace {

using posg::engine::BoundedQueue;

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> queue(10);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.push(i));
  }
  for (int i = 0; i < 5; ++i) {
    const auto value = queue.pop();
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, i);
  }
}

TEST(BoundedQueue, SizeTracksContents) {
  BoundedQueue<int> queue(10);
  EXPECT_EQ(queue.size(), 0u);
  queue.push(1);
  queue.push(2);
  EXPECT_EQ(queue.size(), 2u);
  queue.pop();
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedQueue, PopBlocksUntilPush) {
  BoundedQueue<int> queue(4);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    const auto value = queue.pop();
    EXPECT_TRUE(value.has_value());
    EXPECT_EQ(*value, 7);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  queue.push(7);
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(BoundedQueue, PushBlocksWhenFull) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(2));
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // backpressure: producer waits
  EXPECT_EQ(queue.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.pop().value(), 2);
}

TEST(BoundedQueue, CloseDrainsRemainingThenSignalsEnd) {
  BoundedQueue<int> queue(10);
  queue.push(1);
  queue.push(2);
  queue.close();
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_EQ(queue.pop().value(), 2);
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(BoundedQueue, CloseRejectsNewPushes) {
  BoundedQueue<int> queue(10);
  queue.close();
  EXPECT_FALSE(queue.push(1));
  EXPECT_TRUE(queue.closed());
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(4);
  std::thread consumer([&] { EXPECT_FALSE(queue.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  consumer.join();
}

TEST(BoundedQueue, CloseWakesBlockedProducer) {
  BoundedQueue<int> queue(1);
  queue.push(1);
  std::thread producer([&] { EXPECT_FALSE(queue.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
}

TEST(BoundedQueue, ManyProducersOneConsumer) {
  BoundedQueue<int> queue(8);
  const int per_producer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < per_producer; ++i) {
        queue.push(p * per_producer + i);
      }
    });
  }
  std::vector<bool> seen(4 * per_producer, false);
  for (int i = 0; i < 4 * per_producer; ++i) {
    const auto value = queue.pop();
    ASSERT_TRUE(value.has_value());
    ASSERT_FALSE(seen[*value]);
    seen[*value] = true;
  }
  for (auto& t : producers) {
    t.join();
  }
}

TEST(BoundedQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), std::invalid_argument);
}

// ------------------------------------------------------ batched APIs

TEST(BoundedQueue, PushAllPreservesFifoAndClearsInput) {
  BoundedQueue<int> queue(10);
  std::vector<int> batch{1, 2, 3, 4};
  EXPECT_EQ(queue.push_all(batch), 4u);
  EXPECT_TRUE(batch.empty());
  for (int i = 1; i <= 4; ++i) {
    EXPECT_EQ(queue.pop().value(), i);
  }
  queue.debug_validate();
}

TEST(BoundedQueue, PopAllDrainsEverythingInOrder) {
  BoundedQueue<int> queue(10);
  for (int i = 0; i < 6; ++i) {
    queue.push(i);
  }
  std::vector<int> out{-1};  // pop_all appends, never overwrites
  EXPECT_EQ(queue.pop_all(out), 6u);
  EXPECT_EQ(out, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(queue.size(), 0u);
  queue.debug_validate();
}

TEST(BoundedQueue, PopAllSignalsEndOfStreamWithZero) {
  BoundedQueue<int> queue(4);
  queue.push(9);
  queue.close();
  std::vector<int> out;
  EXPECT_EQ(queue.pop_all(out), 1u);
  EXPECT_EQ(queue.pop_all(out), 0u);  // closed and drained
  EXPECT_EQ(out, std::vector<int>{9});
}

TEST(BoundedQueue, PushAllLargerThanCapacityStreamsThrough) {
  // A batch bigger than the queue must stream in chunks against a live
  // consumer rather than deadlock or overflow capacity.
  BoundedQueue<int> queue(3);
  std::vector<int> received;
  std::thread consumer([&] {
    std::vector<int> out;
    while (queue.pop_all(out) > 0) {
      queue.debug_validate();  // occupancy <= capacity mid-stream too
      received.insert(received.end(), out.begin(), out.end());
      out.clear();
    }
  });
  std::vector<int> batch(100);
  for (int i = 0; i < 100; ++i) {
    batch[i] = i;
  }
  EXPECT_EQ(queue.push_all(batch), 100u);
  queue.close();
  consumer.join();
  ASSERT_EQ(received.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(received[i], i);
  }
  queue.debug_validate();
  EXPECT_EQ(queue.pushed(), 100u);
  EXPECT_EQ(queue.popped(), 100u);
  EXPECT_EQ(queue.rejected(), 0u);
}

TEST(BoundedQueue, PushAllOnClosedQueueRejectsWholeBatch) {
  BoundedQueue<int> queue(10);
  queue.close();
  std::vector<int> batch{1, 2, 3};
  EXPECT_EQ(queue.push_all(batch), 0u);
  EXPECT_EQ(queue.rejected(), 3u);
  queue.debug_validate();
}

TEST(BoundedQueue, CloseMidBatchRejectsExactlyTheSuffix) {
  // Producer stages a batch far larger than capacity with no consumer;
  // close() must reject exactly the not-yet-admitted suffix and the
  // accounting must balance (debug_validate's conservation invariant).
  BoundedQueue<int> queue(2);
  std::atomic<std::size_t> accepted{0};
  std::thread producer([&] {
    std::vector<int> batch(50, 7);
    accepted = queue.push_all(batch);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_EQ(accepted.load(), 2u);  // capacity admitted, the rest refused
  EXPECT_EQ(queue.pushed(), 2u);
  EXPECT_EQ(queue.rejected(), 48u);
  queue.debug_validate();
  std::vector<int> out;
  EXPECT_EQ(queue.pop_all(out), 2u);
  EXPECT_EQ(queue.pop_all(out), 0u);
  queue.debug_validate();
}

TEST(BoundedQueue, BatchedConservationUnderConcurrentProducers) {
  // Mixed per-tuple and batched producers against a batched consumer:
  // every element pushed is popped exactly once, and debug_validate's
  // conservation counters hold at interleaved validation points.
  BoundedQueue<int> queue(16);
  const int per_producer = 400;
  const int producers_n = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < producers_n; ++p) {
    producers.emplace_back([&queue, p] {
      if (p % 2 == 0) {
        std::vector<int> batch;
        for (int i = 0; i < per_producer; ++i) {
          batch.push_back(p * per_producer + i);
          if (batch.size() == 7 || i + 1 == per_producer) {
            queue.push_all(batch);
          }
        }
      } else {
        for (int i = 0; i < per_producer; ++i) {
          queue.push(p * per_producer + i);
        }
      }
    });
  }
  std::vector<bool> seen(producers_n * per_producer, false);
  std::size_t total = 0;
  std::vector<int> out;
  while (total < seen.size()) {
    const std::size_t delivered = queue.pop_all(out);
    ASSERT_GT(delivered, 0u);
    total += delivered;
    for (int value : out) {
      ASSERT_FALSE(seen[static_cast<std::size_t>(value)]);
      seen[static_cast<std::size_t>(value)] = true;
    }
    out.clear();
    queue.debug_validate();
  }
  for (auto& t : producers) {
    t.join();
  }
  queue.debug_validate();
  EXPECT_EQ(queue.pushed(), static_cast<std::uint64_t>(producers_n * per_producer));
  EXPECT_EQ(queue.popped(), queue.pushed());
  EXPECT_EQ(queue.rejected(), 0u);
}

// A payload that counts copies but moves silently: the batched hand-off
// path (push_all -> internal ring -> pop_all) must be move-only end to
// end, or heavy tuple Values would be duplicated once per hop.
struct CopyProbe {
  int value = 0;
  static std::atomic<int> copies;

  CopyProbe() = default;
  explicit CopyProbe(int v) : value(v) {}
  CopyProbe(const CopyProbe& other) : value(other.value) { copies.fetch_add(1); }
  CopyProbe& operator=(const CopyProbe& other) {
    value = other.value;
    copies.fetch_add(1);
    return *this;
  }
  CopyProbe(CopyProbe&&) noexcept = default;
  CopyProbe& operator=(CopyProbe&&) noexcept = default;
};

std::atomic<int> CopyProbe::copies{0};

TEST(BoundedQueue, BatchedPathNeverCopiesPayloads) {
  BoundedQueue<CopyProbe> queue(64);
  CopyProbe::copies = 0;
  std::vector<CopyProbe> batch;
  for (int i = 0; i < 32; ++i) {
    batch.emplace_back(i);
  }
  EXPECT_EQ(queue.push_all(batch), 32u);
  std::vector<CopyProbe> out;
  EXPECT_EQ(queue.pop_all(out), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].value, i);
  }
  EXPECT_EQ(CopyProbe::copies.load(), 0);
}

}  // namespace
