// Tests of the benchmark's own helpers on hand-computed inputs: medians,
// quartiles (matching Python's statistics.quantiles(v, n=4)), the
// "at least ten samples beyond" percentile rule, and span self time.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

using perfbench::Span;

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::median({7.0}), 7.0);
  EXPECT_THROW((void)perfbench::median({}), std::invalid_argument);
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto q = perfbench::quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q2, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const auto r = perfbench::quartiles({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(r.q1, 1.5);
  EXPECT_DOUBLE_EQ(r.q2, 4.0);
  EXPECT_DOUBLE_EQ(r.q3, 12.0);
  // Two values: statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
  const auto t = perfbench::quartiles({3, 1});
  EXPECT_DOUBLE_EQ(t.q1, 0.5);
  EXPECT_DOUBLE_EQ(t.q3, 3.5);
  EXPECT_THROW((void)perfbench::quartiles({1.0}), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(perfbench::samples_beyond(1000, 99.0), 10u);
  EXPECT_TRUE(perfbench::percentile_supported(1000, 99.0));
  EXPECT_FALSE(perfbench::percentile_supported(999, 99.0));
  EXPECT_EQ(perfbench::samples_beyond(100, 90.0), 10u);
  EXPECT_TRUE(perfbench::percentile_supported(100, 90.0));
  EXPECT_FALSE(perfbench::percentile_supported(99, 90.0));
  EXPECT_TRUE(perfbench::percentile_supported(20, 50.0));
  EXPECT_FALSE(perfbench::percentile_supported(19, 50.0));
  EXPECT_FALSE(perfbench::percentile_supported(100000, 100.0));
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, reversed
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(perfbench::percentile(v, 50.0), 500.0);
  v.pop_back();  // 999 samples cannot support p99
  EXPECT_THROW((void)perfbench::percentile(v, 99.0), std::invalid_argument);
}

TEST(SelfTime, ChildrenSubtractOnce) {
  // root [0, 10) with children [1, 3) and [2, 6) (overlap counted once) and
  // a grandchild [4, 5) inside the second child.
  std::vector<Span> spans(4);
  spans[0] = {"net.run", 0.0, 10.0, -1, 1};
  spans[1] = {"nn.a", 1.0, 3.0, 0, 1};
  spans[2] = {"nn.b", 2.0, 6.0, 0, 1};
  spans[3] = {"isa.c", 4.0, 5.0, 2, 1};
  const std::vector<double> self = perfbench::self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0);  // covered [1, 6)
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);         // 4 minus the grandchild's 1
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  const auto by_layer = perfbench::self_time_by_layer(spans);
  EXPECT_DOUBLE_EQ(by_layer.at("net"), 5.0);
  EXPECT_DOUBLE_EQ(by_layer.at("nn"), 5.0);
  EXPECT_DOUBLE_EQ(by_layer.at("isa"), 1.0);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  std::vector<Span> spans(2);
  spans[0] = {"core.fold", 0.0, 2.0, -1, 7};
  spans[1] = {"core.spill", 1.5, 3.0, 0, 7};
  const std::vector<double> self = perfbench::self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 1.5);
  EXPECT_DOUBLE_EQ(self[1], 1.5);
  EXPECT_EQ(perfbench::layer_of("core.fold"), "core");
  EXPECT_EQ(perfbench::layer_of("bare"), "bare");
}

TEST(Tracer, NestsSpansAndSkipsWhenDisabled) {
  perfbench::Tracer tr(true);
  {
    perfbench::Tracer::Scope outer(tr, "net.run", 3);
    perfbench::Tracer::Scope inner(tr, "nn.pass", 3);
  }
  ASSERT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.spans()[0].parent, -1);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  EXPECT_EQ(tr.spans()[1].id, 3u);
  EXPECT_LE(tr.spans()[1].end_s, tr.spans()[0].end_s);
  tr.set_enabled(false);
  { perfbench::Tracer::Scope s(tr, "nn.pass", 4); }
  EXPECT_EQ(tr.spans().size(), 2u);
}

}  // namespace
