// obs::Metrics under real contention: many threads hammering one registry,
// collect() racing the writers. Runs under the `concurrency` ctest label,
// so the ThreadSanitizer CI job covers the sharded update paths.
#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.hpp"

namespace subg::obs {
namespace {

TEST(MetricsConcurrency, CountersAreExactAcrossThreads) {
  Metrics m;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < kPerThread; ++i) {
        m.add("shared");
        m.add("weighted", 3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Snapshot s = m.collect();
  EXPECT_EQ(s.counter("shared"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.counter("weighted"),
            static_cast<std::uint64_t>(kThreads) * kPerThread * 3);
}

TEST(MetricsConcurrency, GaugesMergeByMaxAcrossShards) {
  // A gauge keeps the maximum of every write, so the result is 9 whether
  // the two threads share a shard or not.
  Metrics m;
  m.gauge("high_water", 5.0);
  std::thread t([&m] { m.gauge("high_water", 9.0); });
  t.join();
  Snapshot s = m.collect();
  ASSERT_EQ(s.gauges.count("high_water"), 1u);
  EXPECT_DOUBLE_EQ(s.gauges.at("high_water"), 9.0);
}

TEST(MetricsConcurrency, SpansSumExactlyAcrossThreads) {
  Metrics m;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 1'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < kPerThread; ++i) m.span_add("lane", 0.5);
    });
  }
  for (std::thread& t : threads) t.join();
  Snapshot s = m.collect();
  ASSERT_EQ(s.spans.count("lane"), 1u);
  EXPECT_EQ(s.spans.at("lane").count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(s.spans.at("lane").seconds, kThreads * kPerThread * 0.5);
}

TEST(MetricsConcurrency, CollectRacesWritersSafely) {
  Metrics m;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      do {  // at least one write even if stop wins the startup race
        m.add("racing");
        m.gauge("racing.gauge", 1.0);
        m.span_add("racing.span", 0.001);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  // Concurrent snapshots must be internally consistent and monotone in the
  // counter (each collect happens-after everything an earlier one saw).
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    Snapshot s = m.collect();
    EXPECT_GE(s.counter("racing"), last);
    last = s.counter("racing");
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  EXPECT_GT(m.collect().counter("racing"), 0u);
}

}  // namespace
}  // namespace subg::obs
