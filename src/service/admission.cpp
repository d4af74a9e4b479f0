#include "service/admission.h"

#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "core/spgemm_workspace.h"

namespace tsg::service {

namespace {

constexpr std::size_t kSat = static_cast<std::size_t>(-1);

inline index_t tile_count(index_t n) { return (n + kTileDim - 1) / kTileDim; }

/// Exact number of occupied tiles per tile-column of `m`. Rows are walked
/// in order, so per tile-column the tile row index is non-decreasing: a
/// last-seen stamp per tile-column turns the distinct count into one
/// compare per CSR row segment.
std::vector<std::size_t> tiles_per_tile_col(const Csr<double>& m) {
  const index_t tcols = tile_count(m.cols);
  std::vector<std::size_t> count(static_cast<std::size_t>(tcols), 0);
  std::vector<index_t> last_tile_row(static_cast<std::size_t>(tcols), -1);
  for (index_t r = 0; r < m.rows; ++r) {
    const index_t tr = r / kTileDim;
    index_t prev_tc = -1;
    for (offset_t k = m.row_ptr[static_cast<std::size_t>(r)];
         k < m.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const index_t tc = m.col_idx[static_cast<std::size_t>(k)] / kTileDim;
      if (tc == prev_tc) continue;  // same row segment, already counted
      prev_tc = tc;
      if (last_tile_row[static_cast<std::size_t>(tc)] != tr) {
        last_tile_row[static_cast<std::size_t>(tc)] = tr;
        ++count[static_cast<std::size_t>(tc)];
      }
    }
  }
  return count;
}

/// Exact number of occupied tiles per tile-row of `m`: within one tile row
/// a per-tile-column stamp (the tile row index itself) deduplicates the 16
/// CSR rows that feed it.
std::vector<std::size_t> tiles_per_tile_row(const Csr<double>& m) {
  const index_t trows = tile_count(m.rows);
  const index_t tcols = tile_count(m.cols);
  std::vector<std::size_t> count(static_cast<std::size_t>(trows), 0);
  std::vector<index_t> stamp(static_cast<std::size_t>(tcols), -1);
  for (index_t r = 0; r < m.rows; ++r) {
    const index_t tr = r / kTileDim;
    for (offset_t k = m.row_ptr[static_cast<std::size_t>(r)];
         k < m.row_ptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const index_t tc = m.col_idx[static_cast<std::size_t>(k)] / kTileDim;
      if (stamp[static_cast<std::size_t>(tc)] != tr) {
        stamp[static_cast<std::size_t>(tc)] = tr;
        ++count[static_cast<std::size_t>(tr)];
      }
    }
  }
  return count;
}

/// a + b, saturating at SIZE_MAX (which reads as "does not fit").
std::size_t sat_add(std::size_t a, std::size_t b) {
  std::size_t out = 0;
  return checked_add(a, b, out) ? out : kSat;
}

std::size_t sat_mul(std::size_t a, std::size_t b) {
  std::size_t out = 0;
  return checked_mul(a, b, out) ? out : kSat;
}

}  // namespace

FootprintEstimate estimate_footprint(const Csr<double>& a, const Csr<double>& b) {
  FootprintEstimate est;

  // Matched-pair bound: C tile (i,j) draws one pair per k with A tile (i,k)
  // and B tile (k,j) both occupied, so summing |A's tile-column k| * |B's
  // tile-row k| over the inner tile dimension bounds both the total pair
  // count and (since every nonzero C tile needs at least one pair) the
  // number of C tiles.
  const std::vector<std::size_t> a_cols = tiles_per_tile_col(a);
  const std::vector<std::size_t> b_rows = &a == &b ? tiles_per_tile_row(a)
                                                   : tiles_per_tile_row(b);
  const std::size_t inner = a_cols.size() < b_rows.size() ? a_cols.size() : b_rows.size();
  std::size_t pairs = 0;
  for (std::size_t k = 0; k < inner; ++k) {
    pairs = sat_add(pairs, sat_mul(a_cols[k], b_rows[k]));
  }
  est.tile_pairs = pairs;
  const std::size_t grid = sat_mul(static_cast<std::size_t>(tile_count(a.rows)),
                                   static_cast<std::size_t>(tile_count(b.cols)));
  est.c_tiles = pairs < grid ? pairs : grid;

  // Per-tile staging is plan_budget's charge for a CSR output (the service
  // is CSR in, CSR out): one tile_output_bytes_bound per C tile.
  std::size_t bytes =
      sat_mul(est.c_tiles, tile_output_bytes_bound<double>(/*csr_out=*/true));

  // Fixed share stand-in for the pooled workspace the planner adds after
  // step 1: the tiled operand views the run must hold (bounded by the CSR
  // operand bytes — the tiled format is never larger than twice CSR for
  // occupied tiles), C's tile structure, and C's CSR row pointer with the
  // offset pass's count per tile row.
  bytes = sat_add(bytes, sat_add(a.bytes(), &a == &b ? 0 : b.bytes()));
  bytes = sat_add(bytes, sat_mul(est.c_tiles, 2 * sizeof(offset_t) + sizeof(index_t)));
  const std::size_t row_ptrs = sat_add(static_cast<std::size_t>(a.rows) + 1,
                                       static_cast<std::size_t>(tile_count(a.rows)) + 1);
  bytes = sat_add(bytes, sat_mul(row_ptrs, sizeof(offset_t)));
  est.bytes = bytes;
  return est;
}

}  // namespace tsg::service
