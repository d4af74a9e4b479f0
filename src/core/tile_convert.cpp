#include "core/tile_convert.h"

#include <algorithm>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tsg {

namespace {

/// End of the run of entries from k (before `end`, one CSR row) that fall
/// in tile column `tc`. Columns are sorted, so a row meets each tile in one
/// run.
template <class T>
offset_t tile_run_end(const Csr<T>& a, offset_t k, offset_t end, index_t tc) {
  do {
    ++k;
  } while (k < end && a.col_idx[k] / kTileDim == tc);
  return k;
}

/// Per-thread scratch for tile discovery within one tile row: a stamped
/// counter per tile column, so clearing between tile rows is O(1). After
/// `index_tiles` it maps each of the row's tile columns to its local tile
/// number and holds each tile's first nonzero offset and fill cursor.
struct TileRowScratch {
  std::vector<offset_t> count;      // nonzeros per tile column, then its local tile
  std::vector<std::uint32_t> seen;  // stamp of the last tile row touching it
  std::vector<index_t> cols;        // distinct tile columns, sorted once indexed
  std::vector<offset_t> start;      // per local tile: offset of its first nonzero
  std::vector<index_t> cursor;      // per local tile: entries placed so far
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

  void add(index_t tile_col, offset_t n) {
    if (seen[static_cast<std::size_t>(tile_col)] != stamp) {
      seen[static_cast<std::size_t>(tile_col)] = stamp;
      count[static_cast<std::size_t>(tile_col)] = 0;
      cols.push_back(tile_col);
    }
    count[static_cast<std::size_t>(tile_col)] += n;
  }

  /// Discover the tile columns of CSR rows [row_lo, row_hi), one run of
  /// entries at a time.
  template <class T>
  void scan(const Csr<T>& a, index_t row_lo, index_t row_hi) {
    prepare(ceil_div(a.cols, kTileDim));
    for (index_t i = row_lo; i < row_hi; ++i) {
      for (offset_t k = a.row_ptr[i], e = k; k < a.row_ptr[i + 1]; k = e) {
        const index_t tc = a.col_idx[k] / kTileDim;
        e = tile_run_end(a, k, a.row_ptr[i + 1], tc);
        add(tc, e - k);
      }
    }
  }

  /// Sort the discovered columns and number them: tile s's nonzeros start
  /// at start[s], counting up from `first_nz`, count[col] becomes the
  /// column's local tile number, and every cursor starts at 0.
  void index_tiles(offset_t first_nz) {
    std::sort(cols.begin(), cols.end());
    start.resize(cols.size());
    cursor.assign(cols.size(), 0);
    for (std::size_t s = 0; s < cols.size(); ++s) {
      start[s] = first_nz;
      first_nz += count[static_cast<std::size_t>(cols[s])];
      count[static_cast<std::size_t>(cols[s])] = static_cast<offset_t>(s);
    }
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
  const auto row_end = [&](index_t tr) { return std::min<index_t>((tr + 1) * kTileDim, a.rows); };

  // Pass 1: the number of non-empty tiles in each tile row.
  parallel_for(index_t{0}, t.tile_rows, [&](index_t tr) {
    TileRowScratch& scratch = t_scratch;
    scratch.scan(a, tr * kTileDim, row_end(tr));
    t.tile_ptr[tr + 1] = static_cast<offset_t>(scratch.cols.size());
  });
  for (index_t tr = 0; tr < t.tile_rows; ++tr) t.tile_ptr[tr + 1] += t.tile_ptr[tr];

  // Every array below is written in full by pass 2, so none is zero-filled.
  const offset_t ntiles = t.tile_ptr[t.tile_rows];
  const std::size_t total_nnz = static_cast<std::size_t>(a.nnz());
  t.tile_col_idx.resize(static_cast<std::size_t>(ntiles));
  t.tile_nnz.resize(static_cast<std::size_t>(ntiles) + 1);
  t.tile_nnz[0] = 0;
  t.row_ptr.resize(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim));
  t.mask.resize(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim));
  t.row_idx.resize(total_nnz);
  t.col_idx.resize(total_nnz);
  t.val.resize(total_nnz);

  // Pass 2: rediscover the tile row's tiles, lay out their high-level
  // entries, then scatter the nonzeros. Within a tile row, entries arrive
  // row-major with sorted columns, which is exactly the per-tile CSR order,
  // so a cursor per tile suffices. A tile row's nonzeros start where its
  // CSR rows do, so its tile offsets need no global scan.
  parallel_for(index_t{0}, t.tile_rows, [&](index_t tr) {
    const offset_t first_tile = t.tile_ptr[tr];
    const index_t tiles_here = static_cast<index_t>(t.tile_ptr[tr + 1] - first_tile);
    if (tiles_here == 0) return;
    const index_t row_lo = tr * kTileDim;
    const index_t row_hi = row_end(tr);
    TileRowScratch& s = t_scratch;
    s.scan(a, row_lo, row_hi);
    s.index_tiles(a.row_ptr[row_lo]);
    for (index_t k = 0; k < tiles_here; ++k) {
      const auto tile = static_cast<std::size_t>(first_tile + k);
      t.tile_col_idx[tile] = s.cols[static_cast<std::size_t>(k)];
      t.tile_nnz[tile + 1] = k + 1 < tiles_here ? s.start[static_cast<std::size_t>(k) + 1]
                                                : a.row_ptr[row_hi];
    }
    std::fill_n(t.mask.data() + static_cast<std::size_t>(first_tile) * kTileDim,
                static_cast<std::size_t>(tiles_here) * kTileDim, rowmask_t{0});

    for (index_t i = row_lo; i < row_hi; ++i) {
      const index_t local_row = i - row_lo;
      // Record the row start offset in every tile of this tile row.
      for (index_t k = 0; k < tiles_here; ++k) {
        t.row_ptr[static_cast<std::size_t>(first_tile + k) * kTileDim +
                  static_cast<std::size_t>(local_row)] =
            static_cast<std::uint8_t>(s.cursor[static_cast<std::size_t>(k)]);
      }
      // One run of the row per tile it meets: the run's entries are
      // consecutive in the tile's storage too.
      for (offset_t k = a.row_ptr[i], e = k; k < a.row_ptr[i + 1]; k = e) {
        const index_t tc = a.col_idx[k] / kTileDim;
        e = tile_run_end(a, k, a.row_ptr[i + 1], tc);
        const auto local = static_cast<std::size_t>(s.count[static_cast<std::size_t>(tc)]);
        const auto n = static_cast<std::size_t>(e - k);
        const auto dst = static_cast<std::size_t>(s.start[local] + s.cursor[local]);
        s.cursor[local] += static_cast<index_t>(n);
        rowmask_t bits = 0;
        for (std::size_t j = 0; j < n; ++j) {
          const index_t local_col = a.col_idx[static_cast<std::size_t>(k) + j] - tc * kTileDim;
          t.col_idx[dst + j] = static_cast<std::uint8_t>(local_col);
          bits = static_cast<rowmask_t>(bits | bit_of(local_col));
        }
        std::fill_n(t.row_idx.data() + dst, n, static_cast<std::uint8_t>(local_row));
        std::copy_n(a.val.data() + k, n, t.val.data() + dst);
        t.mask[(static_cast<std::size_t>(first_tile) + local) * kTileDim +
               static_cast<std::size_t>(local_row)] |= bits;
      }
    }
    // For a partial last tile row, the local rows beyond the matrix edge
    // must point at the end of each tile so row ranges come out empty.
    for (index_t local_row = row_hi - row_lo; local_row < kTileDim; ++local_row) {
      for (index_t k = 0; k < tiles_here; ++k) {
        t.row_ptr[static_cast<std::size_t>(first_tile + k) * kTileDim +
                  static_cast<std::size_t>(local_row)] =
            static_cast<std::uint8_t>(s.cursor[static_cast<std::size_t>(k)]);
      }
    }
  });

  return t;
}

void place_csr_rows(const offset_t* tile_ptr, index_t tr_lo, index_t tr_hi, index_t rows,
                    const offset_t* tile_nnz, const rowmask_t* mask, offset_t* row_ptr,
                    CsrPlacement& out) {
  const index_t band = tr_hi - tr_lo;
  if (band <= 0) {  // includes a default-constructed, tile-less matrix
    out.slot.clear();
    out.offset.clear();
    out.row_tiles.assign(1, 0);
    return;
  }
  const offset_t t0 = tile_ptr[tr_lo];
  out.slot.resize(static_cast<std::size_t>(tile_ptr[tr_hi] - t0));
  out.row_tiles.resize(static_cast<std::size_t>(band) + 1);
  out.row_tiles[0] = 0;

  // Count each tile row's non-empty tiles, then rank them band-wide. Only
  // non-empty tiles get offsets: step 1 keeps none that is empty, but a
  // masked product, or any tile matrix tile_to_csr is given, may hold some.
  parallel_for(index_t{0}, band, [&](index_t i) {
    offset_t live = 0;
    for (offset_t t = tile_ptr[tr_lo + i] - t0; t < tile_ptr[tr_lo + i + 1] - t0; ++t) {
      live += tile_nnz[t + 1] != tile_nnz[t] ? 1 : 0;
    }
    out.row_tiles[static_cast<std::size_t>(i) + 1] = live;
  });
  for (index_t i = 0; i < band; ++i) {
    out.row_tiles[static_cast<std::size_t>(i) + 1] += out.row_tiles[static_cast<std::size_t>(i)];
  }
  out.offset.resize(checked_size_mul(static_cast<std::size_t>(out.row_tiles.back()), kTileDim));

  // Per tile row: walk its tiles in column order, so each local row's
  // running count is the offset of the next tile's entries in that CSR row,
  // then close the rows. The tile offsets already give the row's start.
  const offset_t base = row_ptr[static_cast<std::size_t>(tr_lo) * kTileDim];
  parallel_for(index_t{0}, band, [&](index_t i) {
    const index_t tr = tr_lo + i;
    offset_t rank = out.row_tiles[static_cast<std::size_t>(i)];
    index_t run[kTileDim] = {};
    for (offset_t t = tile_ptr[tr] - t0; t < tile_ptr[tr + 1] - t0; ++t) {
      if (tile_nnz[t + 1] == tile_nnz[t]) continue;
      out.slot[static_cast<std::size_t>(t)] = rank;
      index_t* off = out.offset.data() + static_cast<std::size_t>(rank) * kTileDim;
      const rowmask_t* m = mask + static_cast<std::size_t>(t) * kTileDim;
      for (index_t r = 0; r < kTileDim; ++r) {
        off[r] = run[r];
        run[r] += popcount16(m[r]);
      }
      ++rank;
    }
    offset_t at = base + tile_nnz[tile_ptr[tr] - t0];
    const index_t row0 = tr * kTileDim;
    const index_t nrows = std::min(kTileDim, rows - row0);
    for (index_t r = 0; r < nrows; ++r) {
      at += run[r];
      row_ptr[static_cast<std::size_t>(row0 + r) + 1] = at;
    }
  });
}

template <class T>
Csr<T> tile_to_csr(const TileMatrix<T>& t) {
  TSG_TRACE_SPAN("convert.tile_to_csr", t.nnz());
  static obs::Counter& calls = obs::MetricsRegistry::instance().counter("convert.tile_to_csr");
  calls.inc();
  Csr<T> a(t.rows, t.cols);
  CsrPlacement place;
  place_csr_rows(t.tile_ptr.data(), 0, t.tile_rows, t.rows, t.tile_nnz.data(), t.mask.data(),
                 a.row_ptr.data(), place);
  const std::size_t n = static_cast<std::size_t>(a.nnz());
  a.col_idx.resize(n);
  a.val.resize(n);
  parallel_for(index_t{0}, t.tile_rows, [&](index_t tr) {
    const offset_t* row_ptr = a.row_ptr.data() + static_cast<std::size_t>(tr) * kTileDim;
    for (offset_t tile = t.tile_ptr[tr]; tile < t.tile_ptr[tr + 1]; ++tile) {
      if (t.tile_nnz_of(tile) == 0) continue;
      write_tile_rows(t.tile_mask(tile), t.val.data() + t.tile_nnz[tile],
                      t.tile_col_idx[tile] * kTileDim, row_ptr, place.offsets_of(tile),
                      a.col_idx.data(), a.val.data());
    }
  });
  return a;
}

template TileMatrix<double> csr_to_tile(const Csr<double>&);
template TileMatrix<float> csr_to_tile(const Csr<float>&);
template Csr<double> tile_to_csr(const TileMatrix<double>&);
template Csr<float> tile_to_csr(const TileMatrix<float>&);

}  // namespace tsg
