#include "core/step2.h"

#include <bit>
#include <cstring>

#include "common/parallel.h"
#include "common/status.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_workspace.h"
#include "obs/metrics.h"

namespace tsg {

namespace {

// Up to this many nonzeros, an A tile's per-nonzero gather loop is cheaper
// than its level's mask OR; above it, the OR amortises its fixed cost. The
// vector levels' OR is a handful of instructions per occupied column, so
// two rows' worth of nonzeros is their crossover; the SWAR column form
// spends one multiply per packed word and column, which the gather only
// loses to beyond four rows' worth (docs/PERFORMANCE.md).
inline constexpr index_t kPackedGatherMaxNnz = 2 * kTileDim;
inline constexpr index_t kSwarGatherMaxNnz = 4 * kTileDim;

/// The per-tile loop of step 2, instantiated once per kernel so each
/// level's loop is compiled on its own: `kernel(pairs, allow, row_ptr_out,
/// mask_out)` ORs one C tile's live pairs, ANDs in `allow` (M's row masks
/// of the tile, or null without a mask) and derives all 16 of its row
/// pointers and masks, returning the tile's nonzero count.
template <class T, class TileKernel>
void symbolic_tiles(const TileMatrix<T>& a, const TileLayoutCsc& b_csc,
                    const TileStructure& structure, SpgemmWorkspace<T>& ws,
                    const ExecutionPlan& plan, Step2Result& out, const TileKernel& kernel) {
  // Per-tile detail instruments, resolved once per call. The gate is read
  // once here: flipping it mid-run only affects the next call.
  const bool detail_metrics = obs::metrics_detail_enabled();
  static obs::Counter& m_pairs =
      obs::MetricsRegistry::instance().counter("spgemm.intersect.pairs");
  static obs::Histogram& m_tile_nnz = obs::MetricsRegistry::instance().histogram(
      "spgemm.tile_nnz", {0, 4, 16, 64, 128, 256});

  parallel_for(offset_t{0}, structure.num_tiles(), [&](offset_t i) {
    // Cooperative cancellation, checked (with the watchdog heartbeat and
    // the deadline clock poll) every 64th tile so the prologue costs the
    // sub-µs packed kernel nothing 63 visits out of 64. A tripped token
    // skips the tile (bodies must not throw: throw-in-parallel); its
    // tile_nnz entry stays 0, and the pipeline layer converts the latched
    // reason before C is ever allocated.
    if ((i & 63) == 0) {
      plan.cancel.note_progress();
      if (plan.cancel.should_stop()) return;
    }
    // The plan may reorder the visit so heavy tiles are dispatched first;
    // output locations are still indexed by the tile id itself.
    const offset_t t = plan.order != nullptr ? plan.order[i] : i;
    const index_t tile_i = structure.tile_row_idx[static_cast<std::size_t>(t)];
    const index_t tile_j = structure.tile_col_idx[static_cast<std::size_t>(t)];
    // Set intersection of A's tile row `tile_i` with B's tile column
    // `tile_j` (Algorithm 2 lines 4-18), live pairs only.
    const std::vector<MatchedPair>& pairs =
        ws.slot(worker_rank()).match(a, b_csc, ws.occ, tile_i, tile_j);
    const std::size_t base = static_cast<std::size_t>(t) * kTileDim;
    const rowmask_t* allow = plan.mask != nullptr ? plan.mask + base : nullptr;
    const index_t count =
        kernel(pairs, allow, out.row_ptr.data() + base, out.mask.data() + base);
    out.tile_nnz[static_cast<std::size_t>(t) + 1] = count;
    if (detail_metrics) {
      m_pairs.add(static_cast<std::int64_t>(pairs.size()));
      m_tile_nnz.observe(count);
    }
  });
}

/// ORs the B row masks one hyper-sparse A tile selects into `gather`, one
/// nonzero at a time: nonzero (r, c) of A contributes row c of B to row r.
template <class T>
void gather_pair(const TileMatrix<T>& a, offset_t tile_a, index_t nnz_a,
                 const rowmask_t* mask_b, rowmask_t* gather) {
  const offset_t nz_base = a.tile_nnz[tile_a];
  for (index_t k = 0; k < nnz_a; ++k) {
    const std::size_t g = static_cast<std::size_t>(nz_base + k);
    gather[a.row_idx[g]] |= mask_b[a.col_idx[g]];
  }
}

/// The packed levels' last word step before the derive: merge the
/// hyper-sparse tiles' `gather` into `cm` and AND in `allow`, M's row masks
/// of the tile, when the product is masked.
void merge_words(std::uint64_t cm[kTileMaskWords], const rowmask_t* gather,
                 const rowmask_t* allow) {
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    cm[wi] |= pack_rowmask_word(gather + wi * kRowsPerMaskWord);
  }
  if (allow == nullptr) return;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    cm[wi] &= pack_rowmask_word(allow + wi * kRowsPerMaskWord);
  }
}

}  // namespace

template <class T>
Step2Result step2_symbolic(const TileMatrix<T>& a, const TileMatrix<T>& b,
                           const TileLayoutCsc& b_csc, const TileStructure& structure,
                           const TileSpgemmOptions& options, SpgemmWorkspace<T>& ws,
                           const ExecutionPlan& plan) {
  const offset_t ntiles = structure.num_tiles();
  Step2Result out;
  out.tile_nnz.assign(static_cast<std::size_t>(ntiles) + 1, 0);
  // Unfilled: every tile derives all 16 of its entries below.
  out.row_ptr.resize(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim));
  out.mask.resize(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim));
  ws.ensure_threads(max_workers());
  ws.reset_row_index(a.tile_cols);

  // Kernel dispatch, resolved once per call (never per tile). The SWAR
  // kernel stays inline — its per-pair loop is too hot for an indirect
  // call — so the table is only consulted at the AVX levels.
  const simd::Level lvl = effective_simd_level(options);
  if (lvl == simd::Level::kScalar) {
    // Reference path, one nonzero at a time: the A/B oracle and the
    // regression bench's speedup denominator.
    symbolic_tiles(a, b_csc, structure, ws, plan, out,
                   [&](const std::vector<MatchedPair>& pairs, const rowmask_t* allow,
                       std::uint8_t* row_ptr_out, rowmask_t* mask_out) {
                     rowmask_t mask_c[kTileDim] = {};
                     for (const MatchedPair& p : pairs) {
                       gather_pair(a, p.tile_a, a.tile_nnz_of(p.tile_a),
                                   b.tile_mask(p.tile_b), mask_c);
                     }
                     index_t count = 0;
                     for (index_t r = 0; r < kTileDim; ++r) {
                       const rowmask_t m =
                           allow != nullptr ? static_cast<rowmask_t>(mask_c[r] & allow[r])
                                            : mask_c[r];
                       row_ptr_out[r] = static_cast<std::uint8_t>(count);
                       mask_out[r] = m;
                       count += popcount16(m);
                     }
                     return count;
                   });
  } else if (lvl == simd::Level::kSwar) {
    // Word-packed, hybrid per A tile (Algorithm 2 lines 19-25, Figure 5):
    // hyper-sparse tiles keep the per-nonzero gather; denser ones take the
    // column form, which visits each occupied column c of A once and ORs
    // row c of B into every packed row of A that holds c: masking A's
    // packed word down to bit c of each 16-bit lane and multiplying by
    // B's row spreads that row into exactly those lanes, four rows per
    // multiply, with one branch per column instead of one per row and
    // nonzero. OR is commutative and both paths feed the same words, so
    // the split is invisible in the output.
    const rowmask_t* a_col = ws.occ.a_col.data();
    symbolic_tiles(
        a, b_csc, structure, ws, plan, out,
        [&](const std::vector<MatchedPair>& pairs, const rowmask_t* allow,
            std::uint8_t* row_ptr_out, rowmask_t* mask_out) {
          // `cm` only ever sees constant indices (the wi loops have
          // constexpr bounds, so they unroll), which keeps the four packed
          // words in registers across pairs; `gather` is the hyper-sparse
          // tiles' dynamically indexed target, merged in once at the end.
          std::uint64_t cm[kTileMaskWords] = {};
          alignas(8) rowmask_t gather[kTileDim] = {};
          for (const MatchedPair& p : pairs) {
            const rowmask_t* mask_b = b.tile_mask(p.tile_b);
            const index_t nnz_a = a.tile_nnz_of(p.tile_a);
            if (nnz_a <= kSwarGatherMaxNnz) {
              gather_pair(a, p.tile_a, nnz_a, mask_b, gather);
              continue;
            }
            std::uint64_t wa[kTileMaskWords];
            pack_tile_words(a.tile_mask(p.tile_a), wa);
            constexpr std::uint64_t kLaneLow = 0x0001000100010001ull;
            for (unsigned col = a_col[p.tile_a]; col != 0; col &= col - 1) {
              const int c = std::countr_zero(col);
              const std::uint64_t row_b = mask_b[c];
              for (int wi = 0; wi < kTileMaskWords; ++wi) {
                cm[wi] |= ((wa[wi] >> c) & kLaneLow) * row_b;
              }
            }
          }
          merge_words(cm, gather, allow);
          // SWAR derivation: per-word lane popcounts and their lane prefix
          // sums give four row-pointer entries per word, and the top lane
          // of the inclusive sums the word's count, replacing sixteen
          // per-row popcounts. The entries fill stack locals copied out in
          // one go: 32 narrow stores made straight into the shared arrays
          // read up to 40% slower on the regress harness's step2.packed
          // kernels (docs/PERFORMANCE.md, "Item 7 verdicts").
          alignas(32) rowmask_t mask_loc[kTileDim] = {};
          std::uint8_t rp_loc[kTileDim] = {};
          index_t count = 0;
          for (int wi = 0; wi < kTileMaskWords; ++wi) {
            const std::uint64_t w = cm[wi];
            const std::uint64_t incl = lane_prefix_sums16(lane_popcounts16(w));
            const std::uint64_t excl = incl << 16;
            for (int j = 0; j < kRowsPerMaskWord; ++j) {
              mask_loc[wi * kRowsPerMaskWord + j] = unpack_rowmask(w, j);
              rp_loc[wi * kRowsPerMaskWord + j] =
                  static_cast<std::uint8_t>(count + ((excl >> (16 * j)) & 0xFFFFu));
            }
            count += static_cast<index_t>(incl >> 48);
          }
          std::memcpy(mask_out, mask_loc, sizeof(mask_loc));
          std::memcpy(row_ptr_out, rp_loc, sizeof(rp_loc));
          return count;
        });
  } else {
    // AVX levels: the same hybrid with the table's vector OR and its
    // derivation, which writes the tile's slice directly with two stores.
    const simd::SymbolicOps& vec = simd::symbolic_ops(lvl);
    symbolic_tiles(a, b_csc, structure, ws, plan, out,
                   [&](const std::vector<MatchedPair>& pairs, const rowmask_t* allow,
                       std::uint8_t* row_ptr_out, rowmask_t* mask_out) {
                     std::uint64_t cm[kTileMaskWords] = {};
                     alignas(8) rowmask_t gather[kTileDim] = {};
                     for (const MatchedPair& p : pairs) {
                       const rowmask_t* mask_b = b.tile_mask(p.tile_b);
                       const index_t nnz_a = a.tile_nnz_of(p.tile_a);
                       if (nnz_a <= kPackedGatherMaxNnz) {
                         gather_pair(a, p.tile_a, nnz_a, mask_b, gather);
                       } else {
                         vec.mask_or(a.tile_mask(p.tile_a), mask_b, cm);
                       }
                     }
                     merge_words(cm, gather, allow);
                     return vec.derive(cm, mask_out, row_ptr_out);
                   });
  }

  // Offsets for allocating C (serial scan: numtiles is small relative to nnz).
  for (offset_t t = 0; t < ntiles; ++t) {
    out.tile_nnz[static_cast<std::size_t>(t) + 1] += out.tile_nnz[static_cast<std::size_t>(t)];
  }
  return out;
}

template Step2Result step2_symbolic(const TileMatrix<double>&, const TileMatrix<double>&,
                                    const TileLayoutCsc&, const TileStructure&,
                                    const TileSpgemmOptions&, SpgemmWorkspace<double>&,
                                    const ExecutionPlan&);
template Step2Result step2_symbolic(const TileMatrix<float>&, const TileMatrix<float>&,
                                    const TileLayoutCsc&, const TileStructure&,
                                    const TileSpgemmOptions&, SpgemmWorkspace<float>&,
                                    const ExecutionPlan&);

}  // namespace tsg
