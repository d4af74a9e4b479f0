#include "core/masked_spgemm.h"

#include <new>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/tile_kernels.h"
#include "core/validate.h"

namespace tsg {

namespace {

/// Masked numeric accumulation: like step 3's sparse path but products
/// whose target position is outside the (already mask-ANDed) tile mask are
/// skipped instead of scattered.
template <class T>
void accumulate_sparse_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                              const std::vector<MatchedPair>& pairs, const rowmask_t* mask_c,
                              const std::uint8_t* row_ptr_c, T* slots) {
  for (const MatchedPair& p : pairs) {
    const offset_t a_nz = a.tile_nnz[static_cast<std::size_t>(p.tile_a)];
    const index_t a_cnt = a.tile_nnz_of(p.tile_a);
    const offset_t b_nz = b.tile_nnz[static_cast<std::size_t>(p.tile_b)];
    for (index_t k = 0; k < a_cnt; ++k) {
      const std::size_t ga = static_cast<std::size_t>(a_nz + k);
      const index_t r = a.row_idx[ga];
      const rowmask_t m = mask_c[r];
      if (m == 0) continue;  // whole output row masked away
      index_t lo, hi;
      b.tile_row_range(p.tile_b, a.col_idx[ga], lo, hi);
      const T va = a.val[ga];
      const std::uint8_t base = row_ptr_c[r];
      for (index_t kb = lo; kb < hi; ++kb) {
        const std::size_t gb = static_cast<std::size_t>(b_nz + kb);
        const index_t cb = b.col_idx[gb];
        if ((m & bit_of(cb)) == 0) continue;  // outside the mask: skip
        slots[base + mask_rank(m, cb)] += va * b.val[gb];
      }
    }
  }
}

}  // namespace

template <class T>
Expected<TileMatrix<T>> SpgemmContext::try_run_masked(const TileMatrix<T>& a,
                                                      const TileMatrix<T>& b,
                                                      const TileMatrix<T>& mask) {
  const ThreadScope threads(*this);
  if (a.cols != b.rows) {
    return Status::dimension_mismatch("masked spgemm: inner dimensions differ (A is " +
                                      std::to_string(a.rows) + "x" + std::to_string(a.cols) +
                                      ", B is " + std::to_string(b.rows) + "x" +
                                      std::to_string(b.cols) + ")");
  }
  if (mask.rows != a.rows || mask.cols != b.cols) {
    return Status::dimension_mismatch("masked spgemm: mask shape does not match A*B");
  }
  if (Status s = validate_tile_operand(a, "A", config().validation, config().nan_policy);
      !s.ok()) {
    return s;
  }
  if (Status s = validate_tile_operand(b, "B", config().validation, config().nan_policy);
      !s.ok()) {
    return s;
  }
  if (Status s = validate_tile_operand(mask, "mask", config().validation, config().nan_policy);
      !s.ok()) {
    return s;
  }
  try {
    return run_masked_impl(a, b, mask);
  } catch (const Error& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return Status::allocation_failed(
        "masked spgemm: a tracked allocation failed mid-run (real or injected); the context "
        "remains reusable");
  }
}

template <class T>
TileMatrix<T> SpgemmContext::run_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                        const TileMatrix<T>& mask) {
  return std::move(try_run_masked(a, b, mask)).value();
}

template <class T>
TileMatrix<T> SpgemmContext::run_masked_impl(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                             const TileMatrix<T>& mask) {
  const TileSpgemmOptions& options = config().options;

  SpgemmWorkspace<T>& ws = workspace<T>();
  ws.ensure_threads(max_workers());
  ws.begin_call();
  // Arm this call's cancellation token, as run_impl does (begin_call just
  // cleared the previous one), and refuse work already past its deadline.
  ws.cancel = cancel_;
  check_cancelled();
  tile_layout_csc(b, ws.b_csc);
  const TileLayoutCsc& b_csc = ws.b_csc;
  // The occupancy words, so both passes below match live pairs only.
  derive_tile_occupancy(a, b, ws);
  check_cancelled();

  // Step 1 (masked): candidate output tiles are exactly M's tiles — the
  // symbolic product can only shrink them, never add outside the mask.
  TileMatrix<T> c(a.rows, b.cols);
  const offset_t ntiles = mask.num_tiles();
  c.tile_ptr = mask.tile_ptr;
  c.tile_col_idx = mask.tile_col_idx;
  c.tile_nnz.assign(static_cast<std::size_t>(ntiles) + 1, 0);
  c.row_ptr.assign(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim), 0);
  c.mask.assign(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim), 0);

  // Expanded tile row index (mask layout is CSR over tiles), pooled in the
  // workspace structure so iterated masked products reuse its capacity.
  tracked_vector<index_t>& tile_row_idx = ws.structure.tile_row_idx;
  tile_row_idx.resize(static_cast<std::size_t>(ntiles));
  for (index_t tr = 0; tr < mask.tile_rows; ++tr) {
    for (offset_t t = mask.tile_ptr[tr]; t < mask.tile_ptr[tr + 1]; ++t) {
      tile_row_idx[static_cast<std::size_t>(t)] = tr;
    }
  }

  // Step 2 (masked): symbolic per tile, masks ANDed with M's.
  ws.reset_row_index(a.tile_cols);
  parallel_for(offset_t{0}, ntiles, [&](offset_t t) {
    // Cooperative cancellation every 64th tile (see step2.cpp). A tripped
    // token skips the tile — its mask row and tile_nnz stay 0, and the
    // pipeline layer converts the latched reason before C materializes.
    if ((t & 63) == 0) {
      ws.cancel.note_progress();
      if (ws.cancel.should_stop()) return;
    }
    const index_t tile_i = tile_row_idx[static_cast<std::size_t>(t)];
    const index_t tile_j = c.tile_col_idx[static_cast<std::size_t>(t)];
    const std::vector<MatchedPair>& pairs =
        ws.slot(worker_rank()).match(a, b_csc, ws.occ, tile_i, tile_j);

    rowmask_t mask_c[kTileDim] = {};
    for (const MatchedPair& p : pairs) {
      const rowmask_t* mask_b = b.tile_mask(p.tile_b);
      const offset_t nz_base = a.tile_nnz[static_cast<std::size_t>(p.tile_a)];
      const index_t nnz_a = a.tile_nnz_of(p.tile_a);
      for (index_t k = 0; k < nnz_a; ++k) {
        const std::size_t g = static_cast<std::size_t>(nz_base + k);
        mask_c[a.row_idx[g]] |= mask_b[a.col_idx[g]];
      }
    }
    const rowmask_t* allow = mask.tile_mask(t);
    index_t count = 0;
    const std::size_t base = static_cast<std::size_t>(t) * kTileDim;
    for (index_t r = 0; r < kTileDim; ++r) {
      const rowmask_t masked = static_cast<rowmask_t>(mask_c[r] & allow[r]);
      c.row_ptr[base + static_cast<std::size_t>(r)] = static_cast<std::uint8_t>(count);
      c.mask[base + static_cast<std::size_t>(r)] = masked;
      count += popcount16(masked);
    }
    c.tile_nnz[static_cast<std::size_t>(t) + 1] = count;
  });
  // Stage boundary: a tile skipped by a tripped token left a hole in the
  // symbolic result — bail out before C is allocated from it.
  cancel_.note_progress();
  check_cancelled();
  for (offset_t t = 0; t < ntiles; ++t) {
    c.tile_nnz[static_cast<std::size_t>(t) + 1] += c.tile_nnz[static_cast<std::size_t>(t)];
  }

  const std::size_t nnz = static_cast<std::size_t>(c.nnz());
  c.row_idx.resize(nnz);
  c.col_idx.resize(nnz);
  c.val.resize(nnz);

  // Step 3 (masked numeric). Materialize goes through the dispatched
  // numeric table (exact-store contract, safe against C's shared arrays);
  // the masked accumulator itself has no vector variant.
  const simd::NumericOps& nops = simd::numeric_ops(effective_simd_level(options));
  ws.reset_row_index(a.tile_cols);
  parallel_for(offset_t{0}, ntiles, [&](offset_t t) {
    // Same strided poll as the symbolic pass: a cancelled run leaves the
    // tile's values zero, and the check after the pass discards the run.
    if ((t & 63) == 0) {
      ws.cancel.note_progress();
      if (ws.cancel.should_stop()) return;
    }
    const index_t tile_i = tile_row_idx[static_cast<std::size_t>(t)];
    const index_t tile_j = c.tile_col_idx[static_cast<std::size_t>(t)];
    const index_t nnz_c = c.tile_nnz_of(t);
    const offset_t nz_base = c.tile_nnz[static_cast<std::size_t>(t)];
    const std::size_t base = static_cast<std::size_t>(t) * kTileDim;
    const rowmask_t* mask_c = c.mask.data() + base;
    const std::uint8_t* row_ptr_c = c.row_ptr.data() + base;

    nops.materialize(mask_c, c.row_idx.data() + nz_base, c.col_idx.data() + nz_base);
    if (nnz_c == 0) return;

    const std::vector<MatchedPair>& pairs =
        ws.slot(worker_rank()).match(a, b_csc, ws.occ, tile_i, tile_j);
    T slots[kTileNnzMax];
    for (index_t k = 0; k < nnz_c; ++k) slots[k] = T{};
    accumulate_sparse_masked(a, b, pairs, mask_c, row_ptr_c, slots);
    for (index_t k = 0; k < nnz_c; ++k) {
      c.val[static_cast<std::size_t>(nz_base + k)] = slots[k];
    }
  });
  // Stage boundary: values of skipped tiles were never written.
  cancel_.note_progress();
  check_cancelled();
  return c;
}

template <class T>
TileMatrix<T> tile_spgemm_masked(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                 const TileMatrix<T>& mask,
                                 const TileSpgemmOptions& options) {
  SpgemmContext ctx(SpgemmContext::Config{}.with_options(options));
  return ctx.run_masked(a, b, mask);
}

template <class T>
Csr<T> spgemm_tile_masked(const Csr<T>& a, const Csr<T>& b, const Csr<T>& mask,
                          const TileSpgemmOptions& options) {
  return tile_to_csr(
      tile_spgemm_masked(csr_to_tile(a), csr_to_tile(b), csr_to_tile(mask), options));
}

template Expected<TileMatrix<double>> SpgemmContext::try_run_masked(const TileMatrix<double>&,
                                                                    const TileMatrix<double>&,
                                                                    const TileMatrix<double>&);
template Expected<TileMatrix<float>> SpgemmContext::try_run_masked(const TileMatrix<float>&,
                                                                   const TileMatrix<float>&,
                                                                   const TileMatrix<float>&);
template TileMatrix<double> SpgemmContext::run_masked(const TileMatrix<double>&,
                                                      const TileMatrix<double>&,
                                                      const TileMatrix<double>&);
template TileMatrix<float> SpgemmContext::run_masked(const TileMatrix<float>&,
                                                     const TileMatrix<float>&,
                                                     const TileMatrix<float>&);
template TileMatrix<double> tile_spgemm_masked(const TileMatrix<double>&,
                                               const TileMatrix<double>&,
                                               const TileMatrix<double>&,
                                               const TileSpgemmOptions&);
template TileMatrix<float> tile_spgemm_masked(const TileMatrix<float>&,
                                              const TileMatrix<float>&,
                                              const TileMatrix<float>&,
                                              const TileSpgemmOptions&);
template Csr<double> spgemm_tile_masked(const Csr<double>&, const Csr<double>&,
                                        const Csr<double>&, const TileSpgemmOptions&);
template Csr<float> spgemm_tile_masked(const Csr<float>&, const Csr<float>&,
                                       const Csr<float>&, const TileSpgemmOptions&);

}  // namespace tsg
