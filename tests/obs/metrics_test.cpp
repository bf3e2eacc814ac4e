// obs::Metrics — single-threaded semantics of the search-metrics registry.
// (Cross-shard merging under real contention is covered by
// metrics_concurrency_test.cpp, which runs under the TSan `concurrency`
// label.)
#include "obs/metrics.hpp"

#include "gtest/gtest.h"

namespace subg::obs {
namespace {

TEST(Metrics, CountersAccumulate) {
  Metrics m;
  m.add("a");
  m.add("a", 4);
  m.add("b", 2);
  Snapshot s = m.collect();
  EXPECT_EQ(s.counter("a"), 5u);
  EXPECT_EQ(s.counter("b"), 2u);
  EXPECT_EQ(s.counter("absent"), 0u);
}

TEST(Metrics, GaugesKeepTheHighWaterMarkWithinAThread) {
  Metrics m;
  m.gauge("depth", 3.0);
  m.gauge("depth", 1.0);  // same thread = same shard: a lower write is kept out
  m.gauge("width", 1.0);
  m.gauge("width", 4.0);  // a higher one raises the mark
  Snapshot s = m.collect();
  ASSERT_EQ(s.gauges.count("depth"), 1u);
  EXPECT_DOUBLE_EQ(s.gauges.at("depth"), 3.0);
  EXPECT_DOUBLE_EQ(s.gauges.at("width"), 4.0);
}

TEST(Metrics, SpansSumCountAndSeconds) {
  Metrics m;
  m.span_add("phase", 0.25);
  m.span_add("phase", 0.5);
  Snapshot s = m.collect();
  ASSERT_EQ(s.spans.count("phase"), 1u);
  EXPECT_EQ(s.spans.at("phase").count, 2u);
  EXPECT_DOUBLE_EQ(s.spans.at("phase").seconds, 0.75);
}

TEST(Metrics, EmptySnapshot) {
  Metrics m;
  Snapshot s = m.collect();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.to_text(), "");
}

TEST(Metrics, NullSafeHelpersAreNoOps) {
  count(nullptr, "x");
  gauge(nullptr, "x", 1.0);
  span_add(nullptr, "x", 1.0);

  Metrics m;
  count(&m, "x", 3);
  gauge(&m, "g", 2.0);
  span_add(&m, "s", 0.1);
  Snapshot s = m.collect();
  EXPECT_EQ(s.counter("x"), 3u);
  EXPECT_EQ(s.gauges.count("g"), 1u);
  EXPECT_EQ(s.spans.count("s"), 1u);
}

TEST(Metrics, SpanTimerRecordsOnDestruction) {
  Metrics m;
  {
    Metrics::SpanTimer timer(&m, "scoped");
  }
  { Metrics::SpanTimer timer(nullptr, "scoped"); }  // null sink: no-op
  Snapshot s = m.collect();
  ASSERT_EQ(s.spans.count("scoped"), 1u);
  EXPECT_EQ(s.spans.at("scoped").count, 1u);
  EXPECT_GE(s.spans.at("scoped").seconds, 0.0);
}

TEST(Metrics, ToTextIsSortedAndKindGrouped) {
  Metrics m;
  m.add("b.count", 2);
  m.add("a.count", 1);
  m.gauge("g", 1.5);
  m.span_add("s", 0.0);
  EXPECT_EQ(m.collect().to_text(),
            "counter a.count 1\n"
            "counter b.count 2\n"
            "gauge g 1.5\n"
            "span s 1 0\n");
}

}  // namespace
}  // namespace subg::obs
