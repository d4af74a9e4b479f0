#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"

namespace tsg {
namespace {

TEST(Parallel, ForVisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ForEmptyRange) {
  int calls = 0;
  parallel_for(5, 5, [&](int) { ++calls; });
  parallel_for(7, 3, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Parallel, ForStaticCoversRange) {
  std::vector<std::atomic<int>> hits(777);
  parallel_for_static(0, 777, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ForPropagatesException) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [&](int i) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, ReduceSumsCorrectly) {
  const long expected = 999L * 1000 / 2;
  const long got = parallel_reduce(0, 1000, 0L, [](int i) { return static_cast<long>(i); });
  EXPECT_EQ(got, expected);
}

TEST(Parallel, ReduceEmptyReturnsInit) {
  EXPECT_EQ(parallel_reduce(0, 0, 41, [](int) { return 1; }), 41);
}

TEST(Parallel, ThreadCountGuardRestores) {
  const int before = num_threads();
  {
    ThreadCountGuard guard(1);
    EXPECT_EQ(num_threads(), 1);
    std::atomic<int> count{0};
    parallel_for(0, 50, [&](int) { count++; });
    EXPECT_EQ(count.load(), 50);
  }
  EXPECT_EQ(num_threads(), before);
}

TEST(Parallel, NonZeroBeginOffset) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(40, 100, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (int i = 0; i < 40; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 0);
  for (int i = 40; i < 100; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

}  // namespace
}  // namespace tsg
