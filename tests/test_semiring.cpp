// Semiring-generic tiled SpGEMM/SpMV: algebraic correctness against
// brute-force semiring products.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>

#include "common/random.h"
#include "common/status.h"
#include "core/semiring_spgemm.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "test_support.h"

namespace tsg {
namespace {

/// Brute-force dense semiring product restricted to structurally reachable
/// entries (matching the tiled method's structural-output semantics).
template <class S>
void dense_semiring_product(const Csr<double>& a, const Csr<double>& b,
                            std::vector<double>& out, std::vector<bool>& present) {
  const std::size_t rows = static_cast<std::size_t>(a.rows);
  const std::size_t cols = static_cast<std::size_t>(b.cols);
  out.assign(tsg::checked_size_mul(rows, cols), S::identity());
  present.assign(tsg::checked_size_mul(rows, cols), false);
  for (index_t i = 0; i < a.rows; ++i) {
    for (offset_t ka = a.row_ptr[i]; ka < a.row_ptr[i + 1]; ++ka) {
      const index_t k = a.col_idx[ka];
      for (offset_t kb = b.row_ptr[k]; kb < b.row_ptr[k + 1]; ++kb) {
        const std::size_t idx = static_cast<std::size_t>(i) * cols +
                                static_cast<std::size_t>(b.col_idx[kb]);
        out[idx] = S::reduce(out[idx], S::combine(a.val[ka], b.val[kb]));
        present[idx] = true;
      }
    }
  }
}

template <class S>
void check_semiring(const Csr<double>& a, const Csr<double>& b, const char* what) {
  SCOPED_TRACE(what);
  std::vector<double> expected;
  std::vector<bool> present;
  dense_semiring_product<S>(a, b, expected, present);

  const Csr<double> c = spgemm_semiring<S>(a, b);
  ASSERT_TRUE(c.validate().empty()) << c.validate();

  // Every stored entry matches; every present entry is stored.
  std::size_t stored = 0;
  for (index_t i = 0; i < c.rows; ++i) {
    for (offset_t k = c.row_ptr[i]; k < c.row_ptr[i + 1]; ++k) {
      const std::size_t idx = static_cast<std::size_t>(i) * c.cols +
                              static_cast<std::size_t>(c.col_idx[k]);
      ASSERT_TRUE(present[idx]) << "(" << i << "," << c.col_idx[k] << ")";
      ASSERT_NEAR(c.val[k], expected[idx], 1e-9);
      ++stored;
    }
  }
  std::size_t expected_count = 0;
  for (bool p : present) expected_count += p ? 1 : 0;
  EXPECT_EQ(stored, expected_count);
}

TEST(Semiring, PlusTimesMatchesOrdinarySpgemm) {
  const Csr<double> a = gen::erdos_renyi(90, 90, 600, 1);
  test::expect_equal(spgemm_reference(a, a), spgemm_semiring<PlusTimes<double>>(a, a),
                     "plus-times");
}

TEST(Semiring, MinPlusOnRandom) {
  const Csr<double> a = gen::erdos_renyi(70, 70, 500, 2);
  check_semiring<MinPlus<double>>(a, a, "min-plus");
  const Csr<double> col_diag = test::make_col_diag();
  check_semiring<MinPlus<double>>(col_diag, col_diag, "min-plus column+diagonal");
}

TEST(Semiring, MinPlusRectangular) {
  const Csr<double> a = gen::erdos_renyi(40, 60, 300, 3);
  const Csr<double> b = gen::erdos_renyi(60, 35, 280, 4);
  check_semiring<MinPlus<double>>(a, b, "min-plus rect");
}

TEST(Semiring, OrAndReachability) {
  Csr<double> a = gen::rmat(8, 4.0, 5);
  for (auto& v : a.val) v = 1.0;
  check_semiring<OrAnd<double>>(a, a, "or-and");
}

TEST(Semiring, MaxTimes) {
  // Probabilities in (0,1]: max-times = most reliable two-hop path.
  Csr<double> a = gen::erdos_renyi(60, 60, 400, 6, {0.05, 1.0});
  check_semiring<MaxTimes<double>>(a, a, "max-times");
}

/// Plus-times that records, from inside the numeric pass, the largest
/// worker rank and worker bound it ran under.
struct WorkerRecordingPlusTimes {
  static inline std::atomic<int> max_rank{0};
  static inline std::atomic<int> max_bound{0};
  static void raise(std::atomic<int>& seen, int v) {
    int cur = seen.load(std::memory_order_relaxed);
    while (v > cur && !seen.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static double identity() { return 0.0; }
  static double combine(double a, double b) {
    raise(max_rank, worker_rank());
    raise(max_bound, max_workers());
    return a * b;
  }
  static double reduce(double a, double b) { return a + b; }
};

TEST(Semiring, ContextThreadCountReachesTheSemiringPass) {
  // A context configured for one thread runs the whole semiring multiply
  // on one thread, even in a process set to four.
  const ThreadCountGuard process(4);
  const TileMatrix<double> t = csr_to_tile(gen::erdos_renyi(1200, 1200, 12000, 77));
  SpgemmContext ctx(SpgemmContext::Config{}.with_threads(1));
  (void)tile_spgemm_semiring<WorkerRecordingPlusTimes>(ctx, t, t);
  EXPECT_EQ(WorkerRecordingPlusTimes::max_rank.load(), 0);
  EXPECT_EQ(WorkerRecordingPlusTimes::max_bound.load(), 1);
  EXPECT_EQ(num_threads(), 4) << "the context must restore the process setting";
}

TEST(Semiring, SpmvMinPlusRelaxation) {
  // One (min,+) SpMV from a distance vector is one Bellman-Ford step over
  // incoming edges: y[i] = min_j (w(i,j) + x[j]).
  const Csr<double> w = gen::erdos_renyi(50, 50, 300, 7, {0.1, 2.0});
  const TileMatrix<double> t = csr_to_tile(w);
  tracked_vector<double> x(50);
  Xoshiro256 rng(8);
  for (auto& v : x) v = rng.next_double() * 10.0;

  tracked_vector<double> y;
  tile_spmv_semiring<MinPlus<double>>(t, x, y);
  for (index_t i = 0; i < 50; ++i) {
    double expected = std::numeric_limits<double>::infinity();
    for (offset_t k = w.row_ptr[i]; k < w.row_ptr[i + 1]; ++k) {
      expected = std::min(expected,
                          w.val[k] + x[static_cast<std::size_t>(w.col_idx[k])]);
    }
    ASSERT_DOUBLE_EQ(y[static_cast<std::size_t>(i)], expected) << i;
  }
}

TEST(Semiring, SpmvOrAndIsFrontierExpansion) {
  Csr<double> a = gen::erdos_renyi(64, 64, 250, 9);
  for (auto& v : a.val) v = 1.0;
  const TileMatrix<double> t = csr_to_tile(a);
  tracked_vector<double> x(64, 0.0);
  x[5] = 1.0;
  tracked_vector<double> y;
  tile_spmv_semiring<OrAnd<double>>(t, x, y);
  for (index_t i = 0; i < 64; ++i) {
    bool reaches = false;
    for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      if (a.col_idx[k] == 5) reaches = true;
    }
    ASSERT_EQ(y[static_cast<std::size_t>(i)] != 0.0, reaches) << i;
  }
}

}  // namespace
}  // namespace tsg
