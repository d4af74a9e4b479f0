// Global compile-time configuration shared by every tsg module.
#pragma once

#include <cstdint>

namespace tsg {

/// Row/column index type. All matrices in this library are bounded by
/// 2^31-1 rows/columns; nonzero counts use 64-bit offsets throughout.
using index_t = std::int32_t;

/// Offset type for nonzero positions (CSR row pointers, tile offsets, ...).
/// 64-bit so that matrices with more than 2^31 nonzeros and intermediate
/// product counts (which can exceed nnz by orders of magnitude) never wrap.
using offset_t = std::int64_t;

/// Tile edge length. The paper fixes this to 16: local row/column indices
/// then need only 4 bits each (packed into an 8-bit unsigned char), a
/// per-row occupancy mask is exactly one 16-bit unsigned short, and a full
/// tile holds at most 256 nonzeros, so every per-tile pointer also fits in
/// 8 bits. Other sizes (4, 8) underuse those types; 32 would overflow them.
inline constexpr index_t kTileDim = 16;

/// Maximum number of nonzeros a tile can hold (kTileDim^2).
inline constexpr index_t kTileNnzMax = kTileDim * kTileDim;

/// The paper's adaptive accumulator threshold `tnnz` (Section 3.3): output
/// tiles with more than 75% of kTileNnzMax nonzeros take its dense
/// accumulator. Step 3 does not switch on it (DESIGN.md §4); it serves as
/// the default nnz cap of the unbinned fused path.
inline constexpr index_t kAccumulatorThreshold = kTileNnzMax * 3 / 4;  // 192

/// Number of cost bins the SpgemmContext scheduler partitions C tiles into
/// (bin 0 lightest). Heavy bins are dispatched first so the long-pole tiles
/// never land at the tail of a dynamically scheduled loop.
inline constexpr int kCostBins = 4;

static_assert(kTileDim <= 16, "local indices must fit in 4 bits");
static_assert(kAccumulatorThreshold == 192, "paper uses tnnz = 192 for 16x16 tiles");

}  // namespace tsg
