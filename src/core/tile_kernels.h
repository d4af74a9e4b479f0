// Per-tile numeric kernels shared by step 3, the fused step-2+3 path, and
// the masked/semiring variants. Each kernel works on one output tile whose
// symbolic structure (16 row masks + local row pointers) is already known;
// all state fits in registers / L1, mirroring the paper's warp-local
// accumulation (Algorithm 3).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/intersect.h"
#include "core/options.h"
#include "core/simd_dispatch.h"
#include "core/tile_format.h"

namespace tsg {
namespace detail {

/// Scatter the products of all matched pairs into `slots` via popcount-rank
/// indexing (Algorithm 3 lines 4-12): the final position of column cb in
/// C's local row r is row_ptr[r] + rank of cb in mask[r].
template <class T>
inline void accumulate_pairs_sparse(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                    const MatchedPair* pairs, std::size_t pair_count,
                                    const rowmask_t* mask_c, const std::uint8_t* row_ptr_c,
                                    T* slots) {
  for (std::size_t pi = 0; pi < pair_count; ++pi) {
    const MatchedPair& p = pairs[pi];
    const offset_t a_nz = a.tile_nnz[p.tile_a];
    const index_t a_cnt = a.tile_nnz_of(p.tile_a);
    const offset_t b_nz = b.tile_nnz[p.tile_b];
    for (index_t k = 0; k < a_cnt; ++k) {
      const std::size_t ga = static_cast<std::size_t>(a_nz + k);
      const index_t r = a.row_idx[ga];
      const index_t col_a = a.col_idx[ga];
      const T va = a.val[ga];
      index_t lo, hi;
      b.tile_row_range(p.tile_b, col_a, lo, hi);
      const std::uint8_t base = row_ptr_c[r];
      const rowmask_t m = mask_c[r];
      for (index_t kb = lo; kb < hi; ++kb) {
        const std::size_t gb = static_cast<std::size_t>(b_nz + kb);
        const index_t cb = b.col_idx[gb];
        slots[base + mask_rank(m, cb)] += va * b.val[gb];
      }
    }
  }
}

/// Accumulate into a dense 16x16 scratch tile, then compress through the
/// mask (Algorithm 3 lines 13-17). The accumulation order is fixed — only
/// the compress (a pure gather) goes through the dispatched `nops`, which
/// is what keeps every simd::Level bit-identical. `slots` must have
/// capacity kTileNnzMax (vector compress may store past the final count).
template <class T>
inline void accumulate_pairs_dense(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                   const MatchedPair* pairs, std::size_t pair_count,
                                   const rowmask_t* mask_c, T* slots,
                                   const simd::NumericOps& nops) {
  T acc[kTileNnzMax] = {};
  for (std::size_t pi = 0; pi < pair_count; ++pi) {
    const MatchedPair& p = pairs[pi];
    const offset_t a_nz = a.tile_nnz[p.tile_a];
    const index_t a_cnt = a.tile_nnz_of(p.tile_a);
    const offset_t b_nz = b.tile_nnz[p.tile_b];
    for (index_t k = 0; k < a_cnt; ++k) {
      const std::size_t ga = static_cast<std::size_t>(a_nz + k);
      const index_t r = a.row_idx[ga];
      const index_t col_a = a.col_idx[ga];
      const T va = a.val[ga];
      index_t lo, hi;
      b.tile_row_range(p.tile_b, col_a, lo, hi);
      T* acc_row = acc + static_cast<std::size_t>(r) * kTileDim;
      for (index_t kb = lo; kb < hi; ++kb) {
        const std::size_t gb = static_cast<std::size_t>(b_nz + kb);
        acc_row[b.col_idx[gb]] += va * b.val[gb];
      }
    }
  }
  // Compress: the mask's bit order in packed-word form equals the storage
  // order of the tile's nonzeros (with four rows per word, bit b of word
  // wi indexes dense slot 64*wi + b), so the dispatched compress kernel is
  // a pure in-order gather of the set slots.
  simd::compress_tile<T>(nops, acc, mask_c, slots);
}

/// Whether tile-level accumulation should take the dense 256-slot path for
/// an output tile of `nnz_c` nonzeros under the given options. Keeping the
/// predicate in one place guarantees the fused step-2 path and the staged
/// step-3 path choose the same accumulator (so results are bit-identical).
inline bool use_dense_accumulator(const TileSpgemmOptions& options, index_t nnz_c) {
  return options.accumulator == AccumulatorPolicy::kAlwaysDense ||
         (options.accumulator == AccumulatorPolicy::kAdaptive && nnz_c > options.tnnz);
}

/// Materialise a tile's local row/column index arrays from its 16 row
/// masks; the mask bit order is the storage order. Writes nnz_c entries at
/// row_idx/col_idx (already offset to the tile's base). Word-packed: one
/// bit-scan loop over four 64-bit words instead of sixteen per-row loops —
/// bit b of word wi is local (4*wi + b/16, b%16).
inline void materialize_tile_indices(const rowmask_t* mask_c, std::uint8_t* row_idx,
                                     std::uint8_t* col_idx) {
  index_t out = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    std::uint64_t w = pack_rowmask_word(mask_c + wi * kRowsPerMaskWord);
    const std::uint8_t row_base = static_cast<std::uint8_t>(wi * kRowsPerMaskWord);
    while (w != 0) {
      const int b = std::countr_zero(w);
      row_idx[out] = static_cast<std::uint8_t>(row_base + (b >> 4));
      col_idx[out] = static_cast<std::uint8_t>(b & 0xF);
      ++out;
      w &= w - 1;
    }
  }
}

/// Per-row reference version of materialize_tile_indices, kept as the A/B
/// oracle for the word-packed enumeration order.
inline void materialize_tile_indices_scalar(const rowmask_t* mask_c, std::uint8_t* row_idx,
                                            std::uint8_t* col_idx) {
  index_t out = 0;
  for (index_t r = 0; r < kTileDim; ++r) {
    rowmask_t m = mask_c[r];
    while (m != 0) {
      const index_t col = static_cast<index_t>(std::countr_zero(static_cast<unsigned>(m)));
      row_idx[out] = static_cast<std::uint8_t>(r);
      col_idx[out] = static_cast<std::uint8_t>(col);
      ++out;
      m = static_cast<rowmask_t>(m & (m - 1));
    }
  }
}

}  // namespace detail
}  // namespace tsg
