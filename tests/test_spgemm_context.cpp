// SpgemmContext: the one request contract every product honours, workspace
// pooling, cost-binned scheduling, and the Config builder / environment
// plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/memory.h"
#include "core/spgemm_context.h"
#include "core/tile_transpose.h"
#include "matrix/convert.h"
#include "matrix/ops.h"
#include "matrix/transpose.h"
#include "test_support.h"

namespace tsg {
namespace {

using TileRequest = Request<TileMatrix<double>>;
using CsrRequest = Request<Csr<double>>;

const std::vector<test::GenCase>& cases() {
  static const std::vector<test::GenCase> list = {
      {"er_small", test::make_er_small},     {"er_rect", test::make_er_rect},
      {"er_dense", test::make_er_dense},     {"rmat_small", test::make_rmat_small},
      {"stencil", test::make_stencil},       {"band", test::make_band},
      {"band_wide", test::make_band_wide},   {"blocks", test::make_blocks},
      {"clustered", test::make_clustered},   {"hyper_sparse", test::make_hyper_sparse},
  };
  return list;
}

/// Right-hand operand for a sweep case: A itself, or A^T when A is
/// rectangular (so the product is always well-formed).
Csr<double> rhs_for(const Csr<double>& a) {
  return a.rows == a.cols ? a : transpose(a);
}

void expect_bit_identical(const Csr<double>& x, const Csr<double>& y,
                          const std::string& context) {
  ASSERT_EQ(x.rows, y.rows) << context;
  ASSERT_EQ(x.row_ptr, y.row_ptr) << context;
  ASSERT_EQ(x.col_idx, y.col_idx) << context;
  for (std::size_t k = 0; k < x.val.size(); ++k) {
    ASSERT_EQ(x.val[k], y.val[k]) << context << " val[" << k << "]";
  }
}

template <class V>
void expect_bytes_equal(const tracked_vector<V>& x, const tracked_vector<V>& y,
                        const std::string& what) {
  ASSERT_EQ(x.size(), y.size()) << what << " size";
  if (!x.empty()) {
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(V)), 0) << what;
  }
}

/// Every array of two C's, byte for byte: structure, empty tiles and values.
void expect_same_bytes(const TileMatrix<double>& x, const TileMatrix<double>& y,
                       const std::string& context) {
  ASSERT_EQ(x.rows, y.rows) << context;
  ASSERT_EQ(x.cols, y.cols) << context;
  expect_bytes_equal(x.tile_ptr, y.tile_ptr, context + " tile_ptr");
  expect_bytes_equal(x.tile_col_idx, y.tile_col_idx, context + " tile_col_idx");
  expect_bytes_equal(x.tile_nnz, y.tile_nnz, context + " tile_nnz");
  expect_bytes_equal(x.row_ptr, y.row_ptr, context + " row_ptr");
  expect_bytes_equal(x.mask, y.mask, context + " mask");
  expect_bytes_equal(x.row_idx, y.row_idx, context + " row_idx");
  expect_bytes_equal(x.col_idx, y.col_idx, context + " col_idx");
  expect_bytes_equal(x.val, y.val, context + " val");
}
void expect_same_bytes(const Csr<double>& x, const Csr<double>& y, const std::string& context) {
  test::expect_csr_bytes_equal(x, y, context);
}

Csr<double> as_csr(const TileMatrix<double>& c) { return tile_to_csr(c); }
Csr<double> as_csr(const Csr<double>& c) { return c; }

// ------------------------------------------------------ the one contract --
//
// Every (op, form) pair runs through SpgemmContext::try_run and must honour
// the same contract: a corrupted or mis-shaped operand is a Status, the
// device budget chunks bit-identically or refuses, a stopped token is a
// Status and leaves the context reusable, the context's thread count
// reaches the numeric pass, and C is the serial reference product.

enum class Op { kPlain, kAat, kMasked, kMinPlus };
enum class Form { kTile, kCsr };

const char* op_name(Op op) {
  switch (op) {
    case Op::kPlain: return "plain";
    case Op::kAat: return "aat";
    case Op::kMasked: return "masked";
    case Op::kMinPlus: return "min_plus";
  }
  return "?";
}

/// Plus-times or min-plus, recording from inside the numeric pass the
/// largest worker rank and worker bound it ran under.
template <class S>
struct Recording {
  static inline std::atomic<int> max_rank{-1};
  static inline std::atomic<int> max_bound{-1};
  static void reset() {
    max_rank = -1;
    max_bound = -1;
  }
  static void raise(std::atomic<int>& seen, int v) {
    int cur = seen.load(std::memory_order_relaxed);
    while (v > cur && !seen.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  static double identity() { return S::identity(); }
  static double combine(double a, double b) {
    raise(max_rank, worker_rank());
    raise(max_bound, max_workers());
    return S::combine(a, b);
  }
  static double reduce(double a, double b) { return S::reduce(a, b); }
};

/// The request of `op` on (A, B, M) in the operands' form, run on `ctx`.
/// A*A^T multiplies by B^T: with B aliasing A that is A*A^T itself, with a
/// distinct B it lets B be corrupted on its own. The semirings default to
/// the ops' own and can be swapped for recording ones.
template <class Plus = PlusTimes<double>, class Min = MinPlus<double>, class Matrix>
Expected<SpgemmResult<Matrix>> run_op(SpgemmContext& ctx, Op op, const Matrix& a,
                                      const Matrix& b, const Matrix& m) {
  switch (op) {
    case Op::kPlain: return ctx.try_run(Request<Matrix, Plus>{&a, &b});
    case Op::kAat:
      return ctx.try_run(Request<Matrix, Plus>{.a = &a, .b = &b, .transpose_b = true});
    case Op::kMasked: return ctx.try_run(Request<Matrix, Plus>{&a, &b, &m});
    case Op::kMinPlus: return ctx.try_run(Request<Matrix, Min>{&a, &b});
  }
  return Status::invalid_argument("unknown op");
}

/// A min-plus (or plus-times) product in CSR, serially, in ascending k per
/// entry, restricted to M's pattern when given: the reference every tile
/// result is checked against.
template <class S>
Csr<double> serial_product(const Csr<double>& a, const Csr<double>& b, const Csr<double>* m) {
  Csr<double> c(a.rows, b.cols);
  std::vector<double> acc(static_cast<std::size_t>(b.cols), S::identity());
  std::vector<char> hit(static_cast<std::size_t>(b.cols), 0);
  for (index_t i = 0; i < a.rows; ++i) {
    for (offset_t ka = a.row_ptr[i]; ka < a.row_ptr[i + 1]; ++ka) {
      const index_t k = a.col_idx[ka];
      for (offset_t kb = b.row_ptr[k]; kb < b.row_ptr[k + 1]; ++kb) {
        const auto j = static_cast<std::size_t>(b.col_idx[kb]);
        acc[j] = S::reduce(acc[j], S::combine(a.val[ka], b.val[kb]));
        hit[j] = 1;
      }
    }
    for (index_t j = 0; j < b.cols; ++j) {
      const auto jj = static_cast<std::size_t>(j);
      bool keep = hit[jj] != 0;
      if (keep && m != nullptr) {
        keep = false;
        for (offset_t q = m->row_ptr[i]; q < m->row_ptr[i + 1]; ++q) keep |= m->col_idx[q] == j;
      }
      if (keep) {
        c.col_idx.push_back(j);
        c.val.push_back(acc[jj]);
      }
      acc[jj] = S::identity();
      hit[jj] = 0;
    }
    c.row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<offset_t>(c.col_idx.size());
  }
  return c;
}

/// The reference C of `op` on CSR operands.
Csr<double> reference_of(Op op, const Csr<double>& a, const Csr<double>& b,
                         const Csr<double>& m) {
  switch (op) {
    case Op::kPlain: return spgemm_reference(a, b);
    case Op::kAat: return spgemm_reference(a, transpose(b));
    case Op::kMasked: return structural_mask(spgemm_reference(a, b), m);
    case Op::kMinPlus: return serial_product<MinPlus<double>>(a, b, nullptr);
  }
  return {};
}

/// Operands in the form under test.
template <class Matrix>
Matrix in_form(const Csr<double>& m) {
  if constexpr (std::is_same_v<Matrix, Csr<double>>) {
    return m;
  } else {
    return csr_to_tile(m);
  }
}

/// A square A, a distinct B and a distinct mask M, so each can be
/// corrupted on its own.
struct Operands {
  Csr<double> a, b, m;
};
Operands probe_operands() {
  return {gen::erdos_renyi(200, 200, 2000, 5), gen::erdos_renyi(200, 200, 1800, 6),
          gen::erdos_renyi(200, 200, 1500, 7)};
}

/// One way to break an operand of either form, and the code it must get.
template <class Matrix>
struct Corruption {
  const char* name;
  void (*apply)(Matrix&);
  StatusCode code;
};

std::vector<Corruption<TileMatrix<double>>> corruptions(const TileMatrix<double>*) {
  return {
      {"tile_nnz wrapped negative", [](TileMatrix<double>& t) { t.tile_nnz.back() = -7; },
       StatusCode::kIndexOverflow},
      {"mask array emptied", [](TileMatrix<double>& t) { t.mask = {}; },
       StatusCode::kInvalidArgument},
      {"col_idx truncated", [](TileMatrix<double>& t) { t.col_idx.pop_back(); },
       StatusCode::kInvalidArgument},
      {"row_ptr truncated", [](TileMatrix<double>& t) { t.row_ptr.pop_back(); },
       StatusCode::kInvalidArgument},
  };
}
std::vector<Corruption<Csr<double>>> corruptions(const Csr<double>*) {
  return {
      {"row_ptr non-monotone",
       [](Csr<double>& m) { m.row_ptr[1] = m.row_ptr.back() + 1; },
       StatusCode::kInvalidArgument},
      {"col_idx truncated", [](Csr<double>& m) { m.col_idx.pop_back(); },
       StatusCode::kInvalidArgument},
  };
}

/// Restores the process-wide budget override on scope exit.
struct BudgetOverrideGuard {
  ~BudgetOverrideGuard() { set_device_memory_budget_bytes(0); }
};

struct ContractCase {
  Op op;
  Form form;
};

class RequestContract : public ::testing::TestWithParam<ContractCase> {
 protected:
  /// Run the body with Matrix = the form under test.
  template <class Body>
  void in_form_under_test(Body&& body) {
    if (GetParam().form == Form::kTile) {
      body.template operator()<TileMatrix<double>>();
    } else {
      body.template operator()<Csr<double>>();
    }
  }
  Op op() const { return GetParam().op; }
};

TEST_P(RequestContract, CorruptedOperandIsAStatusNotACrash) {
  in_form_under_test([&]<class Matrix>() {
    const Operands in = probe_operands();
    const Matrix a = in_form<Matrix>(in.a);
    const Matrix b = in_form<Matrix>(in.b);
    const Matrix m = in_form<Matrix>(in.m);
    SpgemmContext ctx;
    for (const Corruption<Matrix>& c : corruptions(&a)) {
      Matrix bad_a = a;
      c.apply(bad_a);
      Matrix bad_b = b;
      c.apply(bad_b);
      Matrix bad_m = m;
      c.apply(bad_m);
      struct Role {
        const char* name;
        const Matrix *a, *b, *m;
      };
      std::vector<Role> roles = {
          {"A (B aliased)", &bad_a, &bad_a, &m},
          {"A", &bad_a, &b, &m},
          {"B", &a, &bad_b, &m},
      };
      if (op() == Op::kMasked) roles.push_back({"M", &a, &b, &bad_m});
      for (const Role& r : roles) {
        const Status s = run_op(ctx, op(), *r.a, *r.b, *r.m).status();
        EXPECT_EQ(s.code(), c.code) << c.name << " in " << r.name << ": " << s.to_string();
      }
    }
    // The context survives every rejected operand.
    EXPECT_TRUE(run_op(ctx, op(), a, b, m).ok());
  });
}

TEST_P(RequestContract, MisShapedOperandIsADimensionMismatch) {
  in_form_under_test([&]<class Matrix>() {
    // A is 40x60. B is 40x60 (60 != 40) for A*B, and 40x70 for A*B^T; the
    // masked product gets a fitting B and a 40x30 M instead.
    const Matrix a = in_form<Matrix>(gen::erdos_renyi(40, 60, 200, 5));
    const bool masked = op() == Op::kMasked;
    const Matrix b = in_form<Matrix>(op() == Op::kAat ? gen::erdos_renyi(40, 70, 200, 6)
                                     : masked         ? gen::erdos_renyi(60, 40, 200, 6)
                                                      : gen::erdos_renyi(40, 60, 200, 6));
    const Matrix m = in_form<Matrix>(gen::erdos_renyi(40, masked ? 30 : 40, 100, 7));
    SpgemmContext ctx;
    Expected<SpgemmResult<Matrix>> run = run_op(ctx, op(), a, b, m);
    EXPECT_EQ(run.status().code(), StatusCode::kDimensionMismatch);
    // value() throws tsg::Error carrying the same Status.
    try {
      (void)std::move(run).value();
      ADD_FAILURE() << "value() of a failed run must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), StatusCode::kDimensionMismatch);
    }
    // kOff trusts structure but still refuses incompatible shapes.
    SpgemmContext off(SpgemmContext::Config{}.with_validation(ValidationLevel::kOff));
    EXPECT_EQ(run_op(off, op(), a, b, m).status().code(), StatusCode::kDimensionMismatch);
  });
}

TEST_P(RequestContract, OneMegabyteBudgetChunksBitIdenticallyOrRefuses) {
  BudgetOverrideGuard guard;
  in_form_under_test([&]<class Matrix>() {
    const Operands probe = probe_operands();
    const std::vector<Operands> inputs = {
        probe,
        {gen::rmat(10, 4.0, 81), gen::rmat(10, 4.0, 82), gen::erdos_renyi(1024, 1024, 9000, 83)},
    };
    int chunked = 0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const std::string what = "input " + std::to_string(i);
      const Matrix a = in_form<Matrix>(inputs[i].a);
      const Matrix b = in_form<Matrix>(inputs[i].b);
      const Matrix m = in_form<Matrix>(inputs[i].m);
      // The budget is process-wide and set when a context is built, so each
      // context runs everything it needs before the next one is built.
      SpgemmContext roomy(SpgemmContext::Config{}.with_device_mem_mb(4096));
      const SpgemmResult<Matrix> gold = run_op(roomy, op(), a, b, m).value();
      EXPECT_EQ(gold.timings.chunks, 1) << what;
      SpgemmContext squeezed(SpgemmContext::Config{}.with_device_mem_mb(1));
      Expected<SpgemmResult<Matrix>> got = run_op(squeezed, op(), a, b, m);
      ASSERT_TRUE(got.ok()) << what << ": " << got.status().to_string();
      expect_same_bytes(gold.c, got->c, what);
      if (got->timings.chunks < 2) continue;
      ++chunked;
      EXPECT_TRUE(got->timings.budget_limited) << what;
      SpgemmContext strict(
          SpgemmContext::Config{}.with_device_mem_mb(1).with_degradation(false));
      EXPECT_EQ(run_op(strict, op(), a, b, m).status().code(), StatusCode::kBudgetExceeded)
          << what;
    }
    EXPECT_GT(chunked, 0) << "1 MB chunked no input";
  });
}

TEST_P(RequestContract, StoppedTokenIsAStatusAndLeavesTheContextReusable) {
  in_form_under_test([&]<class Matrix>() {
    const Operands in = probe_operands();
    const Matrix a = in_form<Matrix>(in.a);
    const Matrix b = in_form<Matrix>(in.b);
    const Matrix m = in_form<Matrix>(in.m);
    SpgemmContext fresh;
    const SpgemmResult<Matrix> want = run_op(fresh, op(), a, b, m).value();

    CancelSource cancelled;
    cancelled.request_cancel();
    CancelSource expired;
    expired.set_deadline(std::chrono::steady_clock::now() - std::chrono::seconds(1));
    const std::pair<CancelToken, StatusCode> stops[] = {
        {cancelled.token(), StatusCode::kCancelled},
        {expired.token(), StatusCode::kDeadlineExceeded},
    };
    SpgemmContext ctx;
    for (const auto& [token, code] : stops) {
      ctx.set_cancel_token(token);
      EXPECT_EQ(run_op(ctx, op(), a, b, m).status().code(), code);
    }
    ctx.set_cancel_token({});
    expect_same_bytes(want.c, run_op(ctx, op(), a, b, m).value().c, "after disarm");
  });
}

TEST_P(RequestContract, ContextThreadCountReachesTheNumericPass) {
  // A context configured for one thread runs the whole request on one
  // thread, even in a process set to four, and restores the process setting.
  const ThreadCountGuard process(4);
  in_form_under_test([&]<class Matrix>() {
    using Plus = Recording<PlusTimes<double>>;
    using Min = Recording<MinPlus<double>>;
    const Csr<double> big = gen::erdos_renyi(1200, 1200, 12000, 77);
    const Matrix a = in_form<Matrix>(big);
    Plus::reset();
    Min::reset();
    SpgemmContext ctx(SpgemmContext::Config{}.with_threads(1));
    ASSERT_TRUE((run_op<Plus, Min>(ctx, op(), a, a, a).ok()));
    const bool min_plus = op() == Op::kMinPlus;
    EXPECT_EQ((min_plus ? Min::max_rank : Plus::max_rank).load(), 0);
    EXPECT_EQ((min_plus ? Min::max_bound : Plus::max_bound).load(), 1);
    EXPECT_EQ(num_threads(), 4) << "the context must restore the process setting";
  });
}

TEST_P(RequestContract, MatchesTheSerialReference) {
  in_form_under_test([&]<class Matrix>() {
    const Operands in = probe_operands();
    SpgemmContext ctx;
    const Csr<double> want = reference_of(op(), in.a, in.b, in.m);
    const Matrix a = in_form<Matrix>(in.a);
    const Matrix b = in_form<Matrix>(in.b);
    const Matrix m = in_form<Matrix>(in.m);
    test::expect_equal(want, as_csr(run_op(ctx, op(), a, b, m).value().c), op_name(op()));
  });
}

std::vector<ContractCase> contract_cases() {
  std::vector<ContractCase> out;
  for (Op op : {Op::kPlain, Op::kAat, Op::kMasked, Op::kMinPlus}) {
    for (Form form : {Form::kTile, Form::kCsr}) out.push_back({op, form});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(OpsAndForms, RequestContract, ::testing::ValuesIn(contract_cases()),
                         [](const auto& info) {
                           return std::string(op_name(info.param.op)) +
                                  (info.param.form == Form::kTile ? "_tile" : "_csr");
                         });

TEST(MaskedMinPlus, MatchesTheSerialReference) {
  // A masked semiring request: min-plus restricted to M, in both forms.
  const Operands in = probe_operands();
  const Csr<double> want = serial_product<MinPlus<double>>(in.a, in.b, &in.m);
  SpgemmContext ctx;
  using CsrMinPlus = Request<Csr<double>, MinPlus<double>>;
  test::expect_equal(want, ctx.try_run(CsrMinPlus{&in.a, &in.b, &in.m}).value().c, "csr");
  const TileMatrix<double> a = csr_to_tile(in.a);
  const TileMatrix<double> b = csr_to_tile(in.b);
  const TileMatrix<double> m = csr_to_tile(in.m);
  using TileMinPlus = Request<TileMatrix<double>, MinPlus<double>>;
  test::expect_equal(want, tile_to_csr(ctx.try_run(TileMinPlus{&a, &b, &m}).value().c), "tile");
}

TEST(SpgemmContextStatus, RequestWithoutOperandsIsAStatus) {
  SpgemmContext ctx;
  const TileMatrix<double> a = csr_to_tile(test::make_er_small());
  EXPECT_EQ(ctx.try_run(TileRequest{&a, nullptr}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ctx.try_run(TileRequest{}).status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------ pooling and scheduling --

TEST(SpgemmContext, ReusedContextBitIdenticalToFresh) {
  // One context carried across every shape in the sweep must produce the
  // same bits as a fresh context per multiply: begin_call() has to fully
  // neutralise whatever the previous (differently shaped) call left in the
  // pooled buffers.
  SpgemmContext reused;
  for (const auto& c : cases()) {
    const Csr<double> a = c.make();
    const Csr<double> b = rhs_for(a);
    SpgemmContext fresh;
    const Csr<double> want = fresh.try_run(CsrRequest{&a, &b}).value().c;
    const Csr<double> got = reused.try_run(CsrRequest{&a, &b}).value().c;
    expect_bit_identical(want, got, c.name);
  }
}

TEST(SpgemmContext, RepeatedRunsThroughOneContextAreStable) {
  SpgemmContext ctx;
  const Csr<double> a = gen::rmat(10, 5.0, 77);
  const TileMatrix<double> ta = csr_to_tile(a);
  const TileSpgemmResult<double> first = ctx.try_run(TileRequest{&ta, &ta}).value();
  for (int i = 0; i < 3; ++i) {
    const TileSpgemmResult<double> again = ctx.try_run(TileRequest{&ta, &ta}).value();
    expect_bit_identical(tile_to_csr(first.c), tile_to_csr(again.c), "iteration");
  }
  test::check_against_reference(
      a, a,
      [&](const Csr<double>& x, const Csr<double>& y) {
        return ctx.try_run(CsrRequest{&x, &y}).value().c;
      },
      "vs reference");
}

TEST(SpgemmContext, WorkspaceHighWaterStopsGrowing) {
  // With a fixed thread count the pooled footprint is deterministic: it
  // fills on the first call and must not grow on any later identical call.
  SpgemmContext ctx(SpgemmContext::Config{}.with_threads(1));
  const Csr<double> a = gen::rmat(10, 5.0, 78);
  const TileMatrix<double> ta = csr_to_tile(a);
  ASSERT_TRUE(ctx.try_run(TileRequest{&ta, &ta}).ok());
  const std::size_t high_water = ctx.workspace_bytes();
  EXPECT_GT(high_water, 0u);
  for (int i = 0; i < 4; ++i) {
    const TileSpgemmResult<double> res = ctx.try_run(TileRequest{&ta, &ta}).value();
    EXPECT_EQ(ctx.workspace_bytes(), high_water) << "call " << i + 1;
    EXPECT_EQ(res.timings.workspace_bytes, high_water);
  }
  ctx.release_workspaces();
  EXPECT_EQ(ctx.workspace_bytes(), 0u);
}

TEST(SpgemmContext, BinCountersCoverAllTiles) {
  SpgemmContext ctx;
  const TileMatrix<double> ta = csr_to_tile(gen::rmat(10, 5.0, 79));
  const TileSpgemmResult<double> res = ctx.try_run(TileRequest{&ta, &ta}).value();
  offset_t binned = 0;
  for (int b = 0; b < kCostBins; ++b) binned += res.timings.bin_tiles[b];
  EXPECT_EQ(binned, res.timings.scheduled_tiles);
  EXPECT_EQ(res.timings.scheduled_tiles, res.c.num_tiles());
}

TEST(SpgemmContext, TransposeBMatchesAnExplicitTranspose) {
  const Csr<double> a = test::make_er_rect();
  const TileMatrix<double> ta = csr_to_tile(a);
  const TileMatrix<double> at = tile_transpose(ta);
  SpgemmContext ctx;
  const TileSpgemmResult<double> via_request =
      ctx.try_run(TileRequest{.a = &ta, .b = &ta, .transpose_b = true}).value();
  const TileSpgemmResult<double> via_transpose = tile_spgemm(ta, at);
  expect_same_bytes(via_transpose.c, via_request.c, "aat");
}

TEST(SpgemmContext, MaskedRequestsMatchAFreshContext) {
  const TileMatrix<double> ta = csr_to_tile(test::make_rmat_small());
  SpgemmContext ctx;
  expect_same_bytes(SpgemmContext{}.try_run(TileRequest{&ta, &ta, &ta}).value().c,
                    ctx.try_run(TileRequest{&ta, &ta, &ta}).value().c, "masked");
  // And reuse across differently shaped masked calls stays correct.
  const TileMatrix<double> tb = csr_to_tile(test::make_stencil());
  expect_same_bytes(SpgemmContext{}.try_run(TileRequest{&tb, &tb, &tb}).value().c,
                    ctx.try_run(TileRequest{&tb, &tb, &tb}).value().c, "masked-2");
}

TEST(SpgemmContext, MixedCallKindsThroughOneContext) {
  // Plain, A*A^T, masked and CSR requests interleaved on one context: each
  // begin_call() must leave no residue for the next kind of call.
  SpgemmContext ctx;
  const Csr<double> a = test::make_blocks();
  const TileMatrix<double> ta = csr_to_tile(a);
  const TileRequest requests[] = {
      {&ta, &ta}, {.a = &ta, .b = &ta, .transpose_b = true}, {&ta, &ta, &ta}};
  for (const TileRequest& req : requests) {
    expect_same_bytes(SpgemmContext{}.try_run(req).value().c, ctx.try_run(req).value().c,
                      "tile");
  }
  expect_bit_identical(ctx.try_run(CsrRequest{&a, &a}).value().c, spgemm_tile(a, a), "csr");
}

TEST(SpgemmContext, ConvertMsIsAttributed) {
  // A CSR request books its operand conversion in convert_ms, outside
  // core_ms(); a tile request has nothing to convert.
  SpgemmContext ctx;
  const Csr<double> a = gen::rmat(10, 5.0, 80);
  const TileSpgemmTimings csr = ctx.try_run(CsrRequest{&a, &a}).value().timings;
  EXPECT_GT(csr.convert_ms, 0.0);
  EXPECT_GE(csr.total_ms(), csr.core_ms());
  const TileMatrix<double> ta = csr_to_tile(a);
  EXPECT_EQ(ctx.try_run(TileRequest{&ta, &ta}).value().timings.convert_ms, 0.0);
}

TEST(SpgemmContext, ConfigBuilderComposes) {
  const SpgemmContext::Config cfg = SpgemmContext::Config{}
                                        .with_threads(2)
                                        .with_simd_level(simd::Level::kSwar)
                                        .with_device_mem_mb(64)
                                        .with_degradation(false)
                                        .with_validation(ValidationLevel::kFull)
                                        .with_nan_policy(NanPolicy::kReject);
  EXPECT_EQ(cfg.threads, 2);
  EXPECT_EQ(cfg.simd, simd::Level::kSwar);
  EXPECT_EQ(cfg.device_mem_mb, 64u);
  EXPECT_FALSE(cfg.degrade_on_budget);
  EXPECT_EQ(cfg.validation, ValidationLevel::kFull);
  EXPECT_EQ(cfg.nan_policy, NanPolicy::kReject);
}

TEST(SpgemmContext, ConfigFromEnv) {
  setenv("TSG_NUM_THREADS", "3", 1);
  setenv("TSG_DEVICE_MEM_MB", "123", 1);
  const SpgemmContext::Config cfg = SpgemmContext::Config::from_env();
  EXPECT_EQ(cfg.threads, 3);
  EXPECT_EQ(cfg.device_mem_mb, 123u);
  unsetenv("TSG_NUM_THREADS");
  unsetenv("TSG_DEVICE_MEM_MB");
  EXPECT_EQ(SpgemmContext::Config::from_env().threads, 0);

  // A context built from that config publishes the budget process-wide.
  { SpgemmContext ctx(SpgemmContext::Config{}.with_device_mem_mb(123)); }
  EXPECT_EQ(device_memory_budget_bytes(), 123u * 1024 * 1024);
  set_device_memory_budget_bytes(0);  // restore the environment default
}

TEST(SpgemmContext, ThreadConfigMatchesGlobalSetting) {
  const Csr<double> a = gen::rmat(10, 5.0, 81);
  SpgemmContext one(SpgemmContext::Config{}.with_threads(1));
  SpgemmContext four(SpgemmContext::Config{}.with_threads(4));
  expect_bit_identical(one.try_run(CsrRequest{&a, &a}).value().c,
                       four.try_run(CsrRequest{&a, &a}).value().c, "threads 1 vs 4");
}

// --- Status layer: value policy and the Expected surface. ---

TEST(SpgemmContextStatus, NanPolicyGatesNonFiniteOperands) {
  Csr<double> a = test::make_er_small();
  a.val[0] = std::numeric_limits<double>::quiet_NaN();
  const TileMatrix<double> ta = csr_to_tile(a);

  // Default (kCheap / kAllow): NaN propagates with IEEE semantics.
  SpgemmContext lax;
  EXPECT_TRUE(lax.try_run(TileRequest{&ta, &ta}).ok());

  // Full validation with kReject refuses the operand up front.
  SpgemmContext strict(SpgemmContext::Config{}
                           .with_validation(ValidationLevel::kFull)
                           .with_nan_policy(NanPolicy::kReject));
  Expected<TileSpgemmResult<double>> run = strict.try_run(TileRequest{&ta, &ta});
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);

  // Full validation alone (kAllow) accepts it: NaN is a value, not a
  // structural defect.
  SpgemmContext full(SpgemmContext::Config{}.with_validation(ValidationLevel::kFull));
  EXPECT_TRUE(full.try_run(TileRequest{&ta, &ta}).ok());
}

TEST(SpgemmContextStatus, ExpectedAccessorsRoundTrip) {
  SpgemmContext ctx;
  const TileMatrix<double> ta = csr_to_tile(test::make_er_small());
  Expected<TileSpgemmResult<double>> run = ctx.try_run(TileRequest{&ta, &ta});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.status().ok());  // ok Expected reports an ok Status
  EXPECT_EQ(run->c.nnz(), (*run).c.nnz());
  const TileSpgemmResult<double> moved = std::move(run).value();
  EXPECT_GT(moved.c.nnz(), 0);
}

TEST(SpgemmContext, FloatAndDoublePoolsAreIndependent) {
  SpgemmContext ctx;
  const Csr<double> ad = test::make_stencil();
  Csr<float> af = gen::cast_values<float>(ad);
  const Csr<double> cd = ctx.try_run(CsrRequest{&ad, &ad}).value().c;
  const Csr<float> cf = ctx.try_run(Request<Csr<float>>{&af, &af}).value().c;
  EXPECT_EQ(cd.nnz(), cf.nnz());
  EXPECT_GT(ctx.workspace_bytes(), 0u);
}

}  // namespace
}  // namespace tsg
