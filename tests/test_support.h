// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
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

}  // namespace tsg::test
