// Per-tile numeric kernels of step 3, for every semiring, with or without
// a mask. Each kernel works on one output tile whose symbolic structure (16
// row masks + local row pointers) is already known; all state fits in
// registers / L1, mirroring the paper's warp-local accumulation
// (Algorithm 3).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/intersect.h"
#include "core/semiring.h"
#include "core/simd_dispatch.h"
#include "core/tile_format.h"

namespace tsg {
namespace detail {

/// The rank-indexed walk over a semiring (Algorithm 3 lines 4-12): each of
/// the tile's `nnz_c` slots starts at Semiring::identity(), and a product
/// of A's (r, c) and B's (c, cb) lands in slot row_ptr[r] + the rank of cb
/// in mask[r] as reduce(slot, combine(a, b)), in (pair, A nonzero, B
/// column) order. With `kMasked`, a product whose column bit is clear in
/// C's row mask is skipped: a masked product's step 2 ANDed M's masks into
/// C's. Without a mask every product lands inside C's masks, so the walk
/// saves the test.
template <class Semiring, bool kMasked, class T>
inline void accumulate_pairs_walk(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                  const MatchedPair* pairs, std::size_t pair_count,
                                  const rowmask_t* mask_c, const std::uint8_t* row_ptr_c,
                                  index_t nnz_c, T* slots) {
  for (index_t k = 0; k < nnz_c; ++k) slots[k] = Semiring::identity();
  // Raw array pointers: through the vectors, the stores into `slots` make
  // the compiler reload B's value pointer for every product.
  const std::uint8_t* a_row = a.row_idx.data();
  const std::uint8_t* a_col = a.col_idx.data();
  const T* a_val = a.val.data();
  const std::uint8_t* b_col = b.col_idx.data();
  const T* b_val = b.val.data();
  for (std::size_t pi = 0; pi < pair_count; ++pi) {
    const MatchedPair& p = pairs[pi];
    const offset_t a_nz = a.tile_nnz[p.tile_a];
    const index_t a_cnt = a.tile_nnz_of(p.tile_a);
    const offset_t b_nz = b.tile_nnz[p.tile_b];
    for (index_t k = 0; k < a_cnt; ++k) {
      const std::size_t ga = static_cast<std::size_t>(a_nz + k);
      const rowmask_t m = mask_c[a_row[ga]];
      if constexpr (kMasked) {
        if (m == 0) continue;  // the mask took C's whole row
      }
      index_t lo, hi;
      b.tile_row_range(p.tile_b, a_col[ga], lo, hi);
      const T va = a_val[ga];
      T* row = slots + row_ptr_c[a_row[ga]];
      for (index_t kb = lo; kb < hi; ++kb) {
        const std::size_t gb = static_cast<std::size_t>(b_nz + kb);
        const index_t cb = b_col[gb];
        if constexpr (kMasked) {
          if ((m & bit_of(cb)) == 0) continue;  // outside the mask
        }
        T& slot = row[mask_rank(m, cb)];
        slot = Semiring::reduce(slot, Semiring::combine(va, b_val[gb]));
      }
    }
  }
}

/// Accumulate into a dense 16x16 scratch tile, then compress through the
/// mask (Algorithm 3 lines 13-17). All 16 rows are zeroed: the dispatched
/// kernel may read and write back any row an A nonzero names, even one no
/// product reaches, and a fixed-size clear costs less than finding those
/// rows (docs/PERFORMANCE.md). One dispatched call per matched pair does
/// the multiply-adds, each lane in the scalar walk's (pair, A-nonzero)
/// order, so every simd::Level is bit-identical. `slots` must have
/// capacity kTileNnzMax (vector compress may store past the final count).
template <class T>
inline void accumulate_pairs_dense(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                   const MatchedPair* pairs, std::size_t pair_count,
                                   const rowmask_t* mask_c, T* slots,
                                   const simd::NumericOps& nops) {
  alignas(64) T acc[kTileNnzMax];
  for (T& v : acc) v = T{};
  for (std::size_t pi = 0; pi < pair_count; ++pi) {
    const MatchedPair& p = pairs[pi];
    const auto a_nz = static_cast<std::size_t>(a.tile_nnz[p.tile_a]);
    const std::size_t b_tile = static_cast<std::size_t>(p.tile_b) * kTileDim;
    simd::accumulate_tile<T>(nops, a.row_idx.data() + a_nz, a.col_idx.data() + a_nz,
                             a.val.data() + a_nz, a.tile_nnz_of(p.tile_a),
                             b.row_ptr.data() + b_tile, b.mask.data() + b_tile,
                             b.val.data() + b.tile_nnz[p.tile_b], acc);
  }
  // Compress: the mask's bit order in packed-word form equals the storage
  // order of the tile's nonzeros (with four rows per word, bit b of word
  // wi indexes dense slot 64*wi + b), so the dispatched compress kernel is
  // a pure in-order gather of the set slots.
  simd::compress_tile<T>(nops, acc, mask_c, slots);
}

/// Largest C tile, in nonzeros, whose values go through the rank-indexed
/// walk instead of the dense row kernel: up to it, zeroing and compressing
/// even the occupied rows costs more than ranking each product into its
/// slot (measured in docs/PERFORMANCE.md). Both paths accumulate every slot
/// in the same order, so the cut is invisible in the output.
inline constexpr index_t kRankScatterMaxNnz = 16;

/// Which path accumulate_tile_values took, for the callers' counters.
enum class AccumulatePath { kRankScatter, kRowKernel };

/// Values of one C tile of `nnz_c` nonzeros into `slots` (capacity
/// kTileNnzMax): step 3's plus-times accumulate; `masked` as the walk's
/// kMasked. Above the cut, the row kernel multiplies whole B rows, so a
/// masked product's entries outside the mask are computed there and
/// dropped by the compress.
template <class T>
inline AccumulatePath accumulate_tile_values(const TileMatrix<T>& a, const TileMatrix<T>& b,
                                             const MatchedPair* pairs, std::size_t pair_count,
                                             const rowmask_t* mask_c,
                                             const std::uint8_t* row_ptr_c, index_t nnz_c,
                                             bool masked, T* slots,
                                             const simd::NumericOps& nops) {
  if (nnz_c <= kRankScatterMaxNnz) {
    if (masked) {
      accumulate_pairs_walk<PlusTimes<T>, true>(a, b, pairs, pair_count, mask_c, row_ptr_c,
                                                nnz_c, slots);
    } else {
      accumulate_pairs_walk<PlusTimes<T>, false>(a, b, pairs, pair_count, mask_c, row_ptr_c,
                                                 nnz_c, slots);
    }
    return AccumulatePath::kRankScatter;
  }
  accumulate_pairs_dense(a, b, pairs, pair_count, mask_c, slots, nops);
  return AccumulatePath::kRowKernel;
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
