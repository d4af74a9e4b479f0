#include "core/step1.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "common/parallel.h"
#include "core/spgemm_workspace.h"
#include "obs/trace.h"

namespace tsg {

namespace {

/// Bit c set iff local column c of the tile with row masks `m` holds a
/// nonzero: the OR of the 16 masks, folded from the four packed words.
rowmask_t column_occupancy(const rowmask_t* m) {
  std::uint64_t w = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) w |= pack_rowmask_word(m + wi * kRowsPerMaskWord);
  w |= w >> 32;
  w |= w >> 16;
  return static_cast<rowmask_t>(w);
}

/// Bit r set iff local row r of the tile with row masks `m` is non-empty.
/// SWAR per packed word: the top bit of each 16-bit lane is set iff the
/// lane is non-zero, and the four top bits fold into four adjacent bits.
rowmask_t row_occupancy(const rowmask_t* m) {
  constexpr std::uint64_t kLow15 = 0x7FFF7FFF7FFF7FFFull;
  constexpr std::uint64_t kTop = 0x8000800080008000ull;
  unsigned row = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    const std::uint64_t w = pack_rowmask_word(m + wi * kRowsPerMaskWord);
    const std::uint64_t lanes = ((((w & kLow15) + kLow15) | w) & kTop) >> 15;
    const auto nibble =
        static_cast<unsigned>((lanes | lanes >> 15 | lanes >> 30 | lanes >> 45) & 0xFu);
    row |= nibble << (kRowsPerMaskWord * wi);
  }
  return static_cast<rowmask_t>(row);
}

}  // namespace

template <class T>
void derive_tile_occupancy(const TileMatrix<T>& a, const TileMatrix<T>& b,
                           SpgemmWorkspace<T>& ws, bool step1_words) {
  TSG_TRACE_SPAN("step1.occupancy");
  const offset_t na = a.num_tiles();
  const offset_t nb = b.num_tiles();
  TileOccupancy& occ = ws.occ;
  occ.a_col.resize(static_cast<std::size_t>(na));
  occ.b_row_csc.resize(static_cast<std::size_t>(nb));
  constexpr offset_t kBlock = 64;
  const offset_t a_blocks = (na + kBlock - 1) / kBlock;
  const offset_t b_blocks = (nb + kBlock - 1) / kBlock;
  // Step 1 alone reads B's words transposed, kTileDim words per block.
  const offset_t groups = step1_words ? b_blocks : 0;
  occ.b_row_bits.resize(checked_size_mul(static_cast<std::size_t>(groups), kTileDim));
  const offset_t* b_ids = ws.b_csc.tile_id.data();
  // One pass over blocks of 64 tiles of three ranges: A's tiles, B's tiles
  // in b_csc order, and B's tiles in storage order for the transposed
  // words.
  parallel_for(offset_t{0}, a_blocks + b_blocks + groups, [&](offset_t blk) {
    // Cooperative cancellation once per block of 64 tiles: a tripped
    // token leaves words unwritten, and the caller checks the token before
    // any loop reads them.
    ws.cancel.note_progress();
    if (ws.cancel.should_stop()) return;
    if (blk < a_blocks) {
      const offset_t end = std::min(na, (blk + 1) * kBlock);
      for (offset_t t = blk * kBlock; t < end; ++t) {
        occ.a_col[static_cast<std::size_t>(t)] = column_occupancy(a.tile_mask(t));
      }
      return;
    }
    blk -= a_blocks;
    const bool csc_block = blk < b_blocks;
    if (!csc_block) blk -= b_blocks;
    const offset_t end = std::min(nb, (blk + 1) * kBlock);
    if (csc_block) {
      for (offset_t p = blk * kBlock; p < end; ++p) {
        occ.b_row_csc[static_cast<std::size_t>(p)] = row_occupancy(b.tile_mask(b_ids[p]));
      }
      return;
    }
    std::uint64_t words[kTileDim] = {};
    for (offset_t kb = blk * kBlock; kb < end; ++kb) {
      for (unsigned row = row_occupancy(b.tile_mask(kb)); row != 0; row &= row - 1) {
        words[std::countr_zero(row)] |= std::uint64_t{1} << (kb & 63);
      }
    }
    std::copy_n(words, kTileDim,
                occ.b_row_bits.data() + static_cast<std::size_t>(blk) * kTileDim);
  });
}

template <class T>
void step1_tile_structure(const TileMatrix<T>& a, const TileMatrix<T>& b,
                          SpgemmWorkspace<T>& ws, TileStructure& out) {
  if (a.cols != b.rows) throw std::invalid_argument("step1: inner dimensions differ");

  out.tile_rows = a.tile_rows;
  out.tile_cols = b.tile_cols;
  out.tile_ptr.assign(static_cast<std::size_t>(out.tile_rows) + 1, 0);
  // A tripped token leaves a consistent (empty) structure; the pipeline
  // layer checks the token right after step 1 and raises the structured
  // status.
  const auto stop = [&] {
    if (!ws.cancel.should_stop()) return false;
    out.tile_col_idx.clear();
    out.tile_row_idx.clear();
    return true;
  };

  derive_tile_occupancy(a, b, ws, /*step1_words=*/true);
  if (stop()) return;
  const TileOccupancy& occ = ws.occ;

  // Gustavson on the tile layouts: C' row i = union of B' rows named by the
  // tile columns of A' row i, over live pairs only. Dense stamped
  // accumulator — tile_cols of B is small (cols/16), so this is exactly the
  // "dense row SPA on a small matrix" NSPARSE would use for these sizes.
  // The per-row lists and the stamped sets live in the workspace;
  // copy-assignment into a pooled std::vector reuses its capacity.
  std::vector<std::vector<index_t>>& rows = ws.step1_rows;
  if (rows.size() < static_cast<std::size_t>(out.tile_rows)) {
    rows.resize(static_cast<std::size_t>(out.tile_rows));
  }
  parallel_for(index_t{0}, out.tile_rows, [&](index_t ti) {
    // Cooperative cancellation, checked every 64th row so the prologue is
    // free on the other 63. Bodies must not throw (throw-in-parallel), so
    // a tripped token empties the row and the serial tail below bails out.
    if ((ti & 63) == 0) {
      ws.cancel.note_progress();
      if (ws.cancel.should_stop()) {
        rows[static_cast<std::size_t>(ti)].clear();
        return;
      }
    }
    detail::StampedTileSet& scratch = ws.slot(worker_rank()).sym;
    scratch.prepare(out.tile_cols);
    for (offset_t ka = a.tile_ptr[ti]; ka < a.tile_ptr[ti + 1]; ++ka) {
      const index_t tk = a.tile_col_idx[ka];
      const unsigned col = occ.a_col[static_cast<std::size_t>(ka)];
      const offset_t lo = b.tile_ptr[tk];
      const offset_t hi = b.tile_ptr[tk + 1];
      // B's tile row k, 64 tiles per word: OR the transposed words of A's
      // column bits, so only live tiles are ever visited.
      for (offset_t g = lo / 64; g * 64 < hi; ++g) {
        const std::uint64_t* words = occ.b_row_bits.data() + static_cast<std::size_t>(g) * kTileDim;
        std::uint64_t live = 0;
        for (unsigned m = col; m != 0; m &= m - 1) live |= words[std::countr_zero(m)];
        if (g == lo / 64) live &= ~std::uint64_t{0} << (lo & 63);
        if ((g + 1) * 64 > hi) live &= ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
        for (; live != 0; live &= live - 1) {
          scratch.insert(b.tile_col_idx[g * 64 + std::countr_zero(live)]);
        }
      }
    }
    std::sort(scratch.cols.begin(), scratch.cols.end());
    rows[static_cast<std::size_t>(ti)] = scratch.cols;
  });

  if (stop()) return;

  for (index_t ti = 0; ti < out.tile_rows; ++ti) {
    out.tile_ptr[ti + 1] =
        out.tile_ptr[ti] + static_cast<offset_t>(rows[static_cast<std::size_t>(ti)].size());
  }
  const offset_t ntiles = out.tile_ptr[out.tile_rows];
  out.tile_col_idx.resize(static_cast<std::size_t>(ntiles));
  out.tile_row_idx.resize(static_cast<std::size_t>(ntiles));
  parallel_for(index_t{0}, out.tile_rows, [&](index_t ti) {
    offset_t dst = out.tile_ptr[ti];
    for (index_t col : rows[static_cast<std::size_t>(ti)]) {
      out.tile_col_idx[static_cast<std::size_t>(dst)] = col;
      out.tile_row_idx[static_cast<std::size_t>(dst)] = ti;
      ++dst;
    }
  });
}

template <class T>
TileStructure step1_tile_structure(const TileMatrix<T>& a, const TileMatrix<T>& b) {
  SpgemmWorkspace<T> ws;
  ws.ensure_threads(max_workers());
  tile_layout_csc(b, ws.b_csc);
  TileStructure out;
  step1_tile_structure(a, b, ws, out);
  return out;
}

template void derive_tile_occupancy(const TileMatrix<double>&, const TileMatrix<double>&,
                                    SpgemmWorkspace<double>&, bool);
template void derive_tile_occupancy(const TileMatrix<float>&, const TileMatrix<float>&,
                                    SpgemmWorkspace<float>&, bool);
template void step1_tile_structure(const TileMatrix<double>&, const TileMatrix<double>&,
                                   SpgemmWorkspace<double>&, TileStructure&);
template void step1_tile_structure(const TileMatrix<float>&, const TileMatrix<float>&,
                                   SpgemmWorkspace<float>&, TileStructure&);
template TileStructure step1_tile_structure(const TileMatrix<double>&,
                                            const TileMatrix<double>&);
template TileStructure step1_tile_structure(const TileMatrix<float>&,
                                            const TileMatrix<float>&);

}  // namespace tsg
