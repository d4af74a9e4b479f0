// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>

#include "baselines/reference.h"
#include "common/status.h"
#include "gen/generators.h"
#include "matrix/compare.h"
#include "matrix/csr.h"

namespace tsg::test {

/// Bounded future wait: get() with a deadline, so a service bug (a worker
/// that never resolves a promise) fails the test instead of hanging the
/// whole suite until the ctest timeout. This is the sanctioned answer to
/// tsg-lint's unbounded-wait rule; the one naked get() below runs only
/// after the future is known ready.
template <class T>
T await(std::future<T>& future,
        std::chrono::milliseconds timeout = std::chrono::seconds(60)) {
  if (future.wait_for(timeout) != std::future_status::ready) {
    ADD_FAILURE() << "future not ready after " << timeout.count()
                  << " ms (worker lost or deadlocked)";
    throw Error(Status::deadline_exceeded("test await() timed out"));
  }
  return future.get();  // tsg-lint: allow(unbounded-wait) -- ready above
}

template <class T>
T await(std::future<T>&& future,
        std::chrono::milliseconds timeout = std::chrono::seconds(60)) {
  return await<T>(future, timeout);
}

/// Assert two CSR matrices are structurally identical with values equal to
/// a relative tolerance.
inline void expect_equal(const Csr<double>& expected, const Csr<double>& actual,
                         const std::string& context = {}, double rel_tol = 1e-10) {
  CompareOptions opt;
  opt.rel_tol = rel_tol;
  const CompareResult r = compare(expected, actual, opt);
  EXPECT_TRUE(r.equal) << context << ": " << r.message;
}

/// Byte-for-byte equality of two CSR matrices' three arrays (memcmp, not a
/// tolerance compare: layouts of one product must not differ by one ulp).
template <class T>
void expect_csr_bytes_equal(const Csr<T>& x, const Csr<T>& y, const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(x.rows, y.rows);
  ASSERT_EQ(x.cols, y.cols);
  ASSERT_EQ(x.row_ptr.size(), y.row_ptr.size());
  ASSERT_EQ(x.col_idx.size(), y.col_idx.size());
  ASSERT_EQ(x.val.size(), y.val.size());
  EXPECT_EQ(std::memcmp(x.row_ptr.data(), y.row_ptr.data(), x.row_ptr.size() * sizeof(offset_t)),
            0)
      << "row_ptr";
  if (!x.col_idx.empty()) {
    EXPECT_EQ(
        std::memcmp(x.col_idx.data(), y.col_idx.data(), x.col_idx.size() * sizeof(index_t)), 0)
        << "col_idx";
    EXPECT_EQ(std::memcmp(x.val.data(), y.val.data(), x.val.size() * sizeof(T)), 0) << "val";
  }
}

/// A rows x cols matrix holding the single entry (r, c) = 1.
inline Csr<double> single_entry(index_t rows, index_t cols, index_t r, index_t c) {
  Csr<double> m(rows, cols);
  for (index_t i = r + 1; i <= rows; ++i) m.row_ptr[static_cast<std::size_t>(i)] = 1;
  m.col_idx.assign(1, c);
  m.val.assign(1, 1.0);
  return m;
}

/// Validate any SpGEMM implementation against the serial reference on the
/// product C = A*B.
template <class Fn>
void check_against_reference(const Csr<double>& a, const Csr<double>& b, Fn&& fn,
                             const std::string& context = {}, double rel_tol = 1e-10) {
  const Csr<double> expected = spgemm_reference(a, b);
  const Csr<double> actual = fn(a, b);
  ASSERT_TRUE(actual.validate().empty()) << context << ": " << actual.validate();
  EXPECT_TRUE(actual.rows_sorted()) << context << ": rows not sorted";
  expect_equal(expected, actual, context, rel_tol);
}

/// A mixed bag of small-to-medium matrices exercising all structure classes;
/// used by the parameterised validation sweeps.
struct GenCase {
  std::string name;
  Csr<double> (*make)();
};

inline Csr<double> make_er_small() { return gen::erdos_renyi(97, 97, 400, 42); }
inline Csr<double> make_er_rect() { return gen::erdos_renyi(120, 75, 900, 43); }
inline Csr<double> make_er_dense() { return gen::erdos_renyi(64, 64, 2200, 44); }
inline Csr<double> make_rmat_small() { return gen::rmat(9, 4.0, 45); }
inline Csr<double> make_stencil() { return gen::stencil_5pt(23, 17); }
inline Csr<double> make_stencil9() { return gen::stencil_9pt(19, 21); }
inline Csr<double> make_band() { return gen::banded(300, 7, 46); }
inline Csr<double> make_band_wide() { return gen::banded(150, 40, 47); }
inline Csr<double> make_blocks() { return gen::dense_blocks(6, 20, 48); }
inline Csr<double> make_blocks_large() { return gen::dense_blocks(3, 50, 49); }
inline Csr<double> make_clustered() { return gen::clustered_rows(200, 3, 6, 50); }
inline Csr<double> make_hyper_sparse() { return gen::erdos_renyi(2000, 2000, 3000, 51); }
/// 64 tile rows: A*A meets two-tile A rows with a 64-tile B column, long
/// enough for the indexed intersection's binary-search branch.
inline Csr<double> make_col_diag() { return gen::column_plus_diagonal(1024, 52); }

/// B for a rectangular A*B with B != A: make_er_rect() (120 x 75) times this
/// (75 x 90).
inline Csr<double> make_er_rect_rhs() { return gen::erdos_renyi(75, 90, 700, 61); }

/// A pair whose product is empty although the tile layouts meet: A's only
/// entry sits in column 0, B's only entry in row 1 of the same tile, so
/// step 1 keeps no tile.
inline Csr<double> make_empty_product_lhs() { return single_entry(20, 20, 0, 0); }
inline Csr<double> make_empty_product_rhs() { return single_entry(20, 20, 1, 0); }

}  // namespace tsg::test
