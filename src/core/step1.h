// Step 1 of TileSpGEMM (Section 3.3, Figure 3): determine the tile
// structure of C by running a *symbolic* SpGEMM on the high-level tile
// layouts A' and B' — every sparse tile acts as one nonzero.
//
// Unlike the paper, whose C may keep tiles that turn out empty, a tile
// pair counts only when it is live: A_ik has a nonzero in some local
// column c and B_kj one in local row c, one AND of two 16-bit occupancy
// words (TileOccupancy). So C's tile structure is exact, and no later
// stage visits a tile without a nonzero.
//
// The paper delegates this small symbolic product to the NSPARSE library;
// we use our own stamped-set symbolic kernel (same role, same structure).
#pragma once

#include "core/tile_format.h"

namespace tsg {

template <class T>
struct SpgemmWorkspace;

/// Tile structure of the output matrix C (the paper's tilePtr_C,
/// tileColidx_C, plus the expanded per-tile row index used by steps 2/3).
struct TileStructure {
  index_t tile_rows = 0;
  index_t tile_cols = 0;
  tracked_vector<offset_t> tile_ptr;      ///< size tile_rows+1
  tracked_vector<index_t> tile_col_idx;   ///< per tile
  tracked_vector<index_t> tile_row_idx;   ///< per tile (tileRowidx_C)

  offset_t num_tiles() const { return static_cast<offset_t>(tile_col_idx.size()); }
};

/// Derive ws.occ, the occupancy words of A's and B's tiles, in one
/// parallel pass; ws.b_csc must already be B's layout view. Every loop that
/// matches tile pairs (ThreadSlot::match) reads them, so each entry point
/// runs this once per call before its first such loop. `step1_words` also
/// derives B's words transposed, the form only step 1 reads; step 1 asks
/// for them itself.
template <class T>
void derive_tile_occupancy(const TileMatrix<T>& a, const TileMatrix<T>& b,
                           SpgemmWorkspace<T>& ws, bool step1_words = false);

/// Symbolic product of the two tile layouts over live pairs only, writing
/// into `out` and drawing scratch (stamped column sets, per-tile-row lists)
/// from the workspace so repeated calls through one SpgemmContext reuse
/// their capacity. Derives ws.occ first; ws.b_csc must be B's layout view.
template <class T>
void step1_tile_structure(const TileMatrix<T>& a, const TileMatrix<T>& b,
                          SpgemmWorkspace<T>& ws, TileStructure& out);

/// Convenience overload with a transient workspace (one-shot callers).
template <class T>
TileStructure step1_tile_structure(const TileMatrix<T>& a, const TileMatrix<T>& b);

extern template void derive_tile_occupancy(const TileMatrix<double>&,
                                           const TileMatrix<double>&,
                                           SpgemmWorkspace<double>&, bool);
extern template void derive_tile_occupancy(const TileMatrix<float>&, const TileMatrix<float>&,
                                           SpgemmWorkspace<float>&, bool);

extern template void step1_tile_structure(const TileMatrix<double>&, const TileMatrix<double>&,
                                          SpgemmWorkspace<double>&, TileStructure&);
extern template void step1_tile_structure(const TileMatrix<float>&, const TileMatrix<float>&,
                                          SpgemmWorkspace<float>&, TileStructure&);
extern template TileStructure step1_tile_structure(const TileMatrix<double>&,
                                                   const TileMatrix<double>&);
extern template TileStructure step1_tile_structure(const TileMatrix<float>&,
                                                   const TileMatrix<float>&);

}  // namespace tsg
