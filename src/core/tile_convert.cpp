#include "core/tile_convert.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsg {

namespace {

/// Per-thread scratch for tile discovery within one tile row: a stamped
/// counter per tile column, so clearing between tile rows is O(1).
struct TileRowScratch {
  std::vector<offset_t> count;      // nonzeros per tile column
  std::vector<std::uint32_t> seen;  // stamp of the last tile row touching it
  std::vector<index_t> cols;        // distinct tile columns, unsorted
  std::uint32_t stamp = 0;

  void prepare(index_t tile_cols) {
    if (count.size() < static_cast<std::size_t>(tile_cols)) {
      count.assign(static_cast<std::size_t>(tile_cols), 0);
      seen.assign(static_cast<std::size_t>(tile_cols), 0);
      stamp = 0;
    }
    ++stamp;
    cols.clear();
  }

  void add(index_t tile_col) {
    if (seen[static_cast<std::size_t>(tile_col)] != stamp) {
      seen[static_cast<std::size_t>(tile_col)] = stamp;
      count[static_cast<std::size_t>(tile_col)] = 0;
      cols.push_back(tile_col);
    }
    count[static_cast<std::size_t>(tile_col)]++;
  }
};

thread_local TileRowScratch t_scratch;

}  // namespace

template <class T>
TileMatrix<T> csr_to_tile(const Csr<T>& a) {
  TSG_TRACE_SPAN("convert.csr_to_tile", a.nnz());
  static obs::Counter& calls = obs::MetricsRegistry::instance().counter("convert.csr_to_tile");
  calls.inc();
  TileMatrix<T> t(a.rows, a.cols);

  // Pass 1: per tile row, find the distinct non-empty tile columns and the
  // number of nonzeros in each.
  std::vector<std::vector<index_t>> row_tiles(static_cast<std::size_t>(t.tile_rows));
  std::vector<std::vector<offset_t>> row_tile_nnz(static_cast<std::size_t>(t.tile_rows));
  parallel_for(index_t{0}, t.tile_rows, [&](index_t tr) {
    TileRowScratch& scratch = t_scratch;
    scratch.prepare(t.tile_cols);
    const index_t row_end = std::min<index_t>((tr + 1) * kTileDim, a.rows);
    for (index_t i = tr * kTileDim; i < row_end; ++i) {
      for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        scratch.add(a.col_idx[k] / kTileDim);
      }
    }
    std::sort(scratch.cols.begin(), scratch.cols.end());
    row_tiles[static_cast<std::size_t>(tr)] = scratch.cols;
    auto& nnzs = row_tile_nnz[static_cast<std::size_t>(tr)];
    nnzs.reserve(scratch.cols.size());
    for (index_t tc : scratch.cols) nnzs.push_back(scratch.count[static_cast<std::size_t>(tc)]);
  });

  // Assemble the high-level structure.
  for (index_t tr = 0; tr < t.tile_rows; ++tr) {
    t.tile_ptr[tr + 1] =
        t.tile_ptr[tr] + static_cast<offset_t>(row_tiles[static_cast<std::size_t>(tr)].size());
  }
  const offset_t ntiles = t.tile_ptr[t.tile_rows];
  t.tile_col_idx.resize(static_cast<std::size_t>(ntiles));
  t.tile_nnz.assign(static_cast<std::size_t>(ntiles) + 1, 0);
  parallel_for(index_t{0}, t.tile_rows, [&](index_t tr) {
    offset_t dst = t.tile_ptr[tr];
    const auto& cols = row_tiles[static_cast<std::size_t>(tr)];
    const auto& nnzs = row_tile_nnz[static_cast<std::size_t>(tr)];
    for (std::size_t k = 0; k < cols.size(); ++k, ++dst) {
      t.tile_col_idx[static_cast<std::size_t>(dst)] = cols[k];
      t.tile_nnz[static_cast<std::size_t>(dst) + 1] = nnzs[k];
    }
  });
  // Counts sit in slots 1..ntiles; an inclusive running sum over those slots
  // turns tile_nnz into the offset array (tile_nnz[0] stays 0).
  for (offset_t i = 1; i <= ntiles; ++i) {
    t.tile_nnz[static_cast<std::size_t>(i)] += t.tile_nnz[static_cast<std::size_t>(i - 1)];
  }

  const std::size_t total_nnz = static_cast<std::size_t>(t.nnz());
  t.row_ptr.assign(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim), 0);
  t.mask.assign(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim), 0);
  t.row_idx.resize(total_nnz);
  t.col_idx.resize(total_nnz);
  t.val.resize(total_nnz);

  // Pass 2: scatter nonzeros into their tiles. Within a tile row, entries
  // arrive row-major with sorted columns, which is exactly the per-tile CSR
  // order, so a per-tile cursor suffices.
  parallel_for(index_t{0}, t.tile_rows, [&](index_t tr) {
    const offset_t first_tile = t.tile_ptr[tr];
    const offset_t last_tile = t.tile_ptr[tr + 1];
    const index_t tiles_here = static_cast<index_t>(last_tile - first_tile);
    if (tiles_here == 0) return;

    // Local cursor per tile (offset within the tile's nonzero range).
    std::vector<index_t> cursor(static_cast<std::size_t>(tiles_here), 0);
    const index_t row_end = std::min<index_t>((tr + 1) * kTileDim, a.rows);
    for (index_t i = tr * kTileDim; i < row_end; ++i) {
      const index_t local_row = i - tr * kTileDim;
      // Record the row start offset in every tile of this tile row.
      for (index_t s = 0; s < tiles_here; ++s) {
        t.row_ptr[static_cast<std::size_t>(first_tile + s) * kTileDim +
                  static_cast<std::size_t>(local_row)] =
            static_cast<std::uint8_t>(cursor[static_cast<std::size_t>(s)]);
      }
      offset_t slot = first_tile;  // tiles and columns are both sorted
      for (offset_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        const index_t col = a.col_idx[k];
        const index_t tc = col / kTileDim;
        while (t.tile_col_idx[static_cast<std::size_t>(slot)] != tc) ++slot;
        const index_t s = static_cast<index_t>(slot - first_tile);
        const index_t local_col = col - tc * kTileDim;
        const std::size_t dst = static_cast<std::size_t>(
            t.tile_nnz[static_cast<std::size_t>(slot)] + cursor[static_cast<std::size_t>(s)]);
        t.row_idx[dst] = static_cast<std::uint8_t>(local_row);
        t.col_idx[dst] = static_cast<std::uint8_t>(local_col);
        t.val[dst] = a.val[k];
        t.mask[static_cast<std::size_t>(slot) * kTileDim +
               static_cast<std::size_t>(local_row)] |= bit_of(local_col);
        cursor[static_cast<std::size_t>(s)]++;
      }
      // A row can revisit earlier tiles only if columns were unsorted.
    }
    // For a partial last tile row, the local rows beyond the matrix edge
    // must point at the end of each tile so row ranges come out empty.
    for (index_t local_row = row_end - tr * kTileDim; local_row < kTileDim; ++local_row) {
      for (index_t s = 0; s < tiles_here; ++s) {
        t.row_ptr[static_cast<std::size_t>(first_tile + s) * kTileDim +
                  static_cast<std::size_t>(local_row)] =
            static_cast<std::uint8_t>(cursor[static_cast<std::size_t>(s)]);
      }
    }
  });

  return t;
}

template <class T>
Csr<T> tile_to_csr(const TileMatrix<T>& t) {
  TSG_TRACE_SPAN("convert.tile_to_csr", t.nnz());
  static obs::Counter& calls = obs::MetricsRegistry::instance().counter("convert.tile_to_csr");
  calls.inc();
  Csr<T> a(t.rows, t.cols);
  const std::size_t n = static_cast<std::size_t>(t.nnz());
  a.col_idx.resize(n);
  a.val.resize(n);

  // Count nonzeros per original row from the masks. Each tile row writes
  // only its own rows' entries. Both passes skip empty tiles: step 1 keeps
  // candidate tiles that step 2 finds empty, and on hyper-sparse products
  // they are most of C's tiles.
  parallel_for(index_t{0}, t.tile_rows, [&](index_t tr) {
    for (offset_t tile = t.tile_ptr[tr]; tile < t.tile_ptr[tr + 1]; ++tile) {
      if (t.tile_nnz_of(tile) == 0) continue;
      const rowmask_t* m = t.tile_mask(tile);
      for (index_t r = 0; r < kTileDim; ++r) {
        const index_t row = tr * kTileDim + r;
        if (row < t.rows) a.row_ptr[row + 1] += popcount16(m[r]);
      }
    }
  });
  for (index_t i = 0; i < t.rows; ++i) a.row_ptr[i + 1] += a.row_ptr[i];

  // Scatter: tiles within a tile row are sorted by column, so appending in
  // tile order keeps each CSR row sorted.
  tracked_vector<offset_t> cursor(a.row_ptr.begin(), a.row_ptr.end() - 1);
  parallel_for(index_t{0}, t.tile_rows, [&](index_t tr) {
    for (offset_t tile = t.tile_ptr[tr]; tile < t.tile_ptr[tr + 1]; ++tile) {
      if (t.tile_nnz_of(tile) == 0) continue;
      const index_t col_base = t.tile_col_idx[tile] * kTileDim;
      for (index_t r = 0; r < kTileDim; ++r) {
        const index_t row = tr * kTileDim + r;
        if (row >= t.rows) break;
        index_t lo, hi;
        t.tile_row_range(tile, r, lo, hi);
        for (index_t k = lo; k < hi; ++k) {
          const std::size_t src = static_cast<std::size_t>(t.tile_nnz[tile] + k);
          const offset_t dst = cursor[row]++;
          a.col_idx[dst] = col_base + t.col_idx[src];
          a.val[dst] = t.val[src];
        }
      }
    }
  });
  return a;
}

template TileMatrix<double> csr_to_tile(const Csr<double>&);
template TileMatrix<float> csr_to_tile(const Csr<float>&);
template Csr<double> tile_to_csr(const TileMatrix<double>&);
template Csr<float> tile_to_csr(const TileMatrix<float>&);

}  // namespace tsg
