// CSR <-> sparse tile format conversion (the Fig. 12 "format conversion"
// cost). The forward conversion is two passes over the nonzeros: one to
// count each tile row's non-empty tiles, one to rediscover them, scatter
// indices/values and build the masks and local row pointers.
//
// The backward direction is split in two so the pipeline can share it:
// place_csr_rows is the offset pass that fixes where every local row of
// every non-empty tile lands in CSR, and write_tile_rows copies one tile's
// rows there. tile_to_csr runs both over a finished tile matrix; a CSR run
// of SpgemmContext runs the pass after step 2 and has step 3 call the
// writer with each tile's freshly accumulated values, so C is written once,
// straight into the caller's layout.
#pragma once

#include <bit>
#include <cstdint>

#include "core/tile_format.h"
#include "matrix/csr.h"

namespace tsg {

/// Convert a CSR matrix (rows must be sorted) to the sparse tile format.
template <class T>
TileMatrix<T> csr_to_tile(const Csr<T>& a);

/// Convert back to CSR with sorted rows.
template <class T>
Csr<T> tile_to_csr(const TileMatrix<T>& t);

/// Where the tiles of a band of tile rows [tr_lo, tr_hi) land in CSR. Tile
/// ids are band-local: tile id k is tile tile_ptr[tr_lo] + k of the matrix.
struct CsrPlacement {
  /// Per band tile: its rank among the band's non-empty tiles. Unwritten
  /// for empty tiles, which have nothing to place.
  tracked_vector<offset_t> slot;
  /// kTileDim per non-empty tile, by rank: the offset of each local row's
  /// first entry within its CSR row.
  tracked_vector<index_t> offset;
  /// Per band tile row + 1: non-empty tiles before it (pass scratch).
  tracked_vector<offset_t> row_tiles;

  /// Within-row offsets of band tile `t`'s kTileDim local rows.
  const index_t* offsets_of(offset_t t) const {
    return offset.data() + static_cast<std::size_t>(slot[static_cast<std::size_t>(t)]) * kTileDim;
  }
};

/// The offset pass: from the band's per-tile nonzero offsets (`tile_nnz`,
/// band-local, tile_nnz[0] == 0) and row masks, fill `out` and the CSR row
/// pointers of the band's rows, row_ptr[r + 1] for every row r < `rows` in
/// tile rows [tr_lo, tr_hi), counting up from row_ptr[tr_lo * kTileDim],
/// which the caller has set. `tile_ptr` is the matrix's tile-row pointer.
/// Visits every tile's offset once and the masks of non-empty tiles only.
void place_csr_rows(const offset_t* tile_ptr, index_t tr_lo, index_t tr_hi, index_t rows,
                    const offset_t* tile_nnz, const rowmask_t* mask, offset_t* row_ptr,
                    CsrPlacement& out);

/// Copy one tile's entries into CSR: local row r's entries, columns from
/// mask[r] and values from `vals` (the tile's values in storage order), go
/// to row_ptr[r] + offset[r] onward of `col_idx`/`val`. `row_ptr` points at
/// the CSR row pointer of the tile's first row, `offset` at the tile's
/// place_csr_rows offsets. Rows with an empty mask are never read.
template <class T>
inline void write_tile_rows(const rowmask_t* mask, const T* vals, index_t col_base,
                            const offset_t* row_ptr, const index_t* offset, index_t* col_idx,
                            T* val) {
  for (index_t r = 0; r < kTileDim; ++r) {
    unsigned m = mask[r];
    if (m == 0) continue;
    const auto dst = static_cast<std::size_t>(row_ptr[r] + offset[r]);
    index_t* cols = col_idx + dst;
    T* out = val + dst;
    if (m == 0xFFFFu) {
      // A full row: fixed-size loops the compiler turns into vector stores.
      for (index_t c = 0; c < kTileDim; ++c) cols[c] = col_base + c;
      for (index_t c = 0; c < kTileDim; ++c) out[c] = vals[c];
      vals += kTileDim;
      continue;
    }
    do {
      *cols++ = col_base + std::countr_zero(m);
      *out++ = *vals++;
      m &= m - 1;
    } while (m != 0);
  }
}

extern template TileMatrix<double> csr_to_tile(const Csr<double>&);
extern template TileMatrix<float> csr_to_tile(const Csr<float>&);
extern template Csr<double> tile_to_csr(const TileMatrix<double>&);
extern template Csr<float> tile_to_csr(const TileMatrix<float>&);

}  // namespace tsg
