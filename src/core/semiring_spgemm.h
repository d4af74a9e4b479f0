// Semiring-generic TileSpGEMM: identical tile structure pipeline (steps 1
// and 2 are purely structural), with a step-3 numeric phase parameterised
// on the semiring's combine/reduce.
//
// The kernels are driven through a SpgemmContext so they share its pooled
// workspace (layout view, tile structure, per-thread pair scratch); the
// options-only overloads spin up a transient context like the other free
// functions.
//
// Semantics note: the output structure is the *structural* product — an
// entry exists wherever at least one (A_ik, B_kj) product lands, with value
// reduce over those products. For semirings whose identity annihilates
// (min-plus: +inf) this is exactly the algebraic product restricted to
// reachable entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/intersect.h"
#include "core/semiring.h"
#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/tile_kernels.h"
#include "core/tile_spgemm.h"
#include "core/validate.h"

namespace tsg {

/// C = A (x) B over the given semiring through a reusable context. The
/// operands are validated at the context's ValidationLevel / NanPolicy;
/// a failure, like a dimension mismatch, throws tsg::Error.
template <class Semiring, class T>
TileMatrix<T> tile_spgemm_semiring(SpgemmContext& ctx, const TileMatrix<T>& a,
                                   const TileMatrix<T>& b) {
  const SpgemmContext::ThreadScope threads(ctx);
  if (a.cols != b.rows) {
    throw Error(Status::dimension_mismatch("tile_spgemm_semiring: inner dimensions differ"));
  }
  // The context's operand checks, as try_run applies them (an aliased B is
  // checked once).
  const SpgemmContext::Config& cfg = ctx.config();
  if (Status s = validate_tile_operand(a, "A", cfg.validation, cfg.nan_policy); !s.ok()) {
    throw Error(s);
  }
  if (&a != &b) {
    if (Status s = validate_tile_operand(b, "B", cfg.validation, cfg.nan_policy); !s.ok()) {
      throw Error(s);
    }
  }
  const TileSpgemmOptions& options = cfg.options;
  SpgemmWorkspace<T>& ws = ctx.workspace<T>();
  ws.ensure_threads(max_workers());
  ws.begin_call();
  // Structural symbolic pass only; the semiring numeric below re-runs the
  // intersection. The plan carries the context's cancellation token, armed
  // for step 1 too as run_impl does (begin_call just cleared the previous
  // one).
  ExecutionPlan plan;
  plan.cancel = ctx.cancel_token();
  ws.cancel = plan.cancel;
  ctx.check_cancelled();

  tile_layout_csc(b, ws.b_csc);
  const TileLayoutCsc& b_csc = ws.b_csc;
  step1_tile_structure(a, b, ws, ws.structure);
  const TileStructure& structure = ws.structure;
  Step2Result symbolic = step2_symbolic(a, b, b_csc, structure, options, ws, plan);
  // Stage boundary: tiles skipped by a tripped token left holes in the
  // symbolic result — bail out before C is allocated from it.
  plan.cancel.note_progress();
  ctx.check_cancelled();

  TileMatrix<T> c(a.rows, b.cols);
  c.tile_rows = structure.tile_rows;
  c.tile_cols = structure.tile_cols;
  c.tile_ptr = structure.tile_ptr;
  c.tile_col_idx = structure.tile_col_idx;
  c.tile_nnz = std::move(symbolic.tile_nnz);
  c.row_ptr = std::move(symbolic.row_ptr);
  c.mask = std::move(symbolic.mask);
  const std::size_t nnz = static_cast<std::size_t>(c.nnz());
  c.row_idx.resize(nnz);
  c.col_idx.resize(nnz);
  c.val.resize(nnz);

  const offset_t ntiles = structure.num_tiles();
  // Materialize dispatches like step 3 proper (exact-store contract); the
  // semiring combine/reduce loop itself stays scalar — reassociating a
  // user-supplied reduce is not the dispatch family's call to make.
  const simd::NumericOps& nops = simd::numeric_ops(effective_simd_level(options));
  ws.reset_row_index(a.tile_cols);
  parallel_for(offset_t{0}, ntiles, [&](offset_t t) {
    // Cooperative cancellation every 64th tile (see step2.cpp): the numeric
    // semiring pass is the long phase here, and cancellation latency must
    // not be the whole tile range.
    if ((t & 63) == 0) {
      ws.cancel.note_progress();
      if (ws.cancel.should_stop()) return;
    }
    const index_t tile_i = structure.tile_row_idx[static_cast<std::size_t>(t)];
    const index_t tile_j = structure.tile_col_idx[static_cast<std::size_t>(t)];
    const index_t nnz_c = c.tile_nnz_of(t);
    const offset_t nz_base = c.tile_nnz[static_cast<std::size_t>(t)];
    const std::size_t base = static_cast<std::size_t>(t) * kTileDim;
    const rowmask_t* mask_c = c.mask.data() + base;
    const std::uint8_t* row_ptr_c = c.row_ptr.data() + base;

    nops.materialize(mask_c, c.row_idx.data() + nz_base, c.col_idx.data() + nz_base);
    if (nnz_c == 0) return;

    const std::vector<MatchedPair>& pairs =
        ws.slot(worker_rank()).match(a, b_csc, tile_i, tile_j);
    T slots[kTileNnzMax];
    for (index_t k = 0; k < nnz_c; ++k) slots[k] = Semiring::identity();
    for (const MatchedPair& p : pairs) {
      const offset_t a_nz = a.tile_nnz[static_cast<std::size_t>(p.tile_a)];
      const index_t a_cnt = a.tile_nnz_of(p.tile_a);
      const offset_t b_nz = b.tile_nnz[static_cast<std::size_t>(p.tile_b)];
      for (index_t k = 0; k < a_cnt; ++k) {
        const std::size_t ga = static_cast<std::size_t>(a_nz + k);
        const index_t r = a.row_idx[ga];
        const T va = a.val[ga];
        index_t lo, hi;
        b.tile_row_range(p.tile_b, a.col_idx[ga], lo, hi);
        const std::uint8_t row_base = row_ptr_c[r];
        const rowmask_t m = mask_c[r];
        for (index_t kb = lo; kb < hi; ++kb) {
          const std::size_t gb = static_cast<std::size_t>(b_nz + kb);
          T& slot = slots[row_base + mask_rank(m, b.col_idx[gb])];
          slot = Semiring::reduce(slot, Semiring::combine(va, b.val[gb]));
        }
      }
    }
    for (index_t k = 0; k < nnz_c; ++k) {
      c.val[static_cast<std::size_t>(nz_base + k)] = slots[k];
    }
  });
  // Stage boundary: values of skipped tiles were never written.
  plan.cancel.note_progress();
  ctx.check_cancelled();
  return c;
}

/// C = A (x) B over the given semiring, tile format in and out (transient
/// context).
template <class Semiring, class T>
TileMatrix<T> tile_spgemm_semiring(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                   const TileSpgemmOptions& options = {}) {
  SpgemmContext ctx(SpgemmContext::Config{}.with_options(options));
  return tile_spgemm_semiring<Semiring>(ctx, a, b);
}

/// CSR convenience wrapper.
template <class Semiring, class T>
Csr<T> spgemm_semiring(const Csr<T>& a, const Csr<T>& b,
                       const TileSpgemmOptions& options = {}) {
  return tile_to_csr(tile_spgemm_semiring<Semiring>(csr_to_tile(a), csr_to_tile(b), options));
}

/// Semiring SpMV on the tile format: y = A (x) x with a dense vector whose
/// "missing" entries are the semiring identity.
template <class Semiring, class T>
void tile_spmv_semiring(const TileMatrix<T>& a, const tracked_vector<T>& x,
                        tracked_vector<T>& y) {
  if (static_cast<index_t>(x.size()) != a.cols) {
    throw Error(Status::dimension_mismatch("tile_spmv_semiring: x size mismatch"));
  }
  y.assign(static_cast<std::size_t>(a.rows), Semiring::identity());
  parallel_for(index_t{0}, a.tile_rows, [&](index_t tr) {
    T lanes[kTileDim];
    for (index_t r = 0; r < kTileDim; ++r) lanes[r] = Semiring::identity();
    for (offset_t t = a.tile_ptr[tr]; t < a.tile_ptr[tr + 1]; ++t) {
      const index_t col_base = a.tile_col_idx[t] * kTileDim;
      const offset_t nz_base = a.tile_nnz[static_cast<std::size_t>(t)];
      const index_t count = a.tile_nnz_of(t);
      for (index_t k = 0; k < count; ++k) {
        const std::size_t g = static_cast<std::size_t>(nz_base + k);
        T& lane = lanes[a.row_idx[g]];
        lane = Semiring::reduce(
            lane, Semiring::combine(a.val[g],
                                    x[static_cast<std::size_t>(col_base + a.col_idx[g])]));
      }
    }
    const index_t row_base = tr * kTileDim;
    const index_t row_end = std::min<index_t>(row_base + kTileDim, a.rows);
    for (index_t r = row_base; r < row_end; ++r) {
      y[static_cast<std::size_t>(r)] = lanes[r - row_base];
    }
  });
}

}  // namespace tsg
