#include "core/step2.h"

#include <bit>
#include <cstring>

#include "common/parallel.h"
#include "common/status.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_workspace.h"
#include "core/tile_kernels.h"
#include "obs/metrics.h"

namespace tsg {

// Below this many nonzeros, an A tile's per-nonzero gather loop is cheaper
// than walking its four packed mask words; at or above it, the mask walk
// amortises its fixed cost. Two rows' worth of nonzeros is the crossover on
// the synthetic suite (see docs/PERFORMANCE.md).
inline constexpr index_t kPackedGatherMaxNnz = 2 * kTileDim;

template <class T>
Step2Result step2_symbolic(const TileMatrix<T>& a, const TileMatrix<T>& b,
                           const TileLayoutCsc& b_csc, const TileStructure& structure,
                           const TileSpgemmOptions& options, SpgemmWorkspace<T>& ws,
                           const ExecutionPlan& plan) {
  const offset_t ntiles = structure.num_tiles();
  Step2Result out;
  out.tile_nnz.assign(static_cast<std::size_t>(ntiles) + 1, 0);
  out.row_ptr.assign(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim), 0);
  out.mask.assign(checked_size_mul(static_cast<std::size_t>(ntiles), kTileDim), 0);
  ws.ensure_threads(max_workers());
  ws.reset_row_index(a.tile_cols);
  // Filled with the uncached sentinel: tiles below the plan's cache bin (and
  // fused tiles) never touch their slot, and step 3 must read those as
  // "recompute", not as an empty cached pair list.
  if (plan.cache_pairs) {
    ws.pair_slot.assign(static_cast<std::size_t>(ntiles),
                        detail::TileSlot{detail::kTileSlotUncached, 0, 0});
  }
  const bool fuse = plan.fuse_light && plan.cache_pairs;
  if (fuse) ws.staged_slot.assign(static_cast<std::size_t>(ntiles), {});

  // Kernel dispatch, resolved once per call (never per tile): the SWAR
  // hybrid stays inline below — its per-pair loop is too hot for an
  // indirect call — so the table is only consulted at the AVX levels.
  const simd::Level lvl = effective_simd_level(options);
  const simd::SymbolicOps* vec =
      lvl >= simd::Level::kAvx2 ? &simd::symbolic_ops(lvl) : nullptr;
  const simd::NumericOps& nops = simd::numeric_ops(lvl);

  // Per-tile detail instruments, resolved once per call. The gate is read
  // once here: flipping it mid-run only affects the next call.
  const bool detail_metrics = obs::metrics_detail_enabled();
  static obs::Counter& m_pairs =
      obs::MetricsRegistry::instance().counter("spgemm.intersect.pairs");
  static obs::Counter& m_fused_rows =
      obs::MetricsRegistry::instance().counter("spgemm.accumulate.row_kernel");
  static obs::Counter& m_fused_scatter =
      obs::MetricsRegistry::instance().counter("spgemm.accumulate.rank_scatter");
  static obs::Histogram& m_tile_nnz = obs::MetricsRegistry::instance().histogram(
      "spgemm.tile_nnz", {0, 4, 16, 64, 128, 256});

  parallel_for(offset_t{0}, ntiles, [&](offset_t i) {
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
    const int tid = worker_rank();
    typename SpgemmWorkspace<T>::ThreadSlot& slot = ws.slot(tid);

    // Set intersection of A's tile row `tile_i` with B's tile column
    // `tile_j` (Algorithm 2 lines 4-18).
    const std::vector<MatchedPair>& pairs = slot.match(a, b_csc, tile_i, tile_j);

    // OR the selected row masks of B into the C masks (Algorithm 2 lines
    // 19-25, Figure 5): each nonzero of A_ik at local (r, c) contributes
    // row c of B_kj's mask to row r of C_ij's mask.
    index_t count = 0;
    const std::size_t base = static_cast<std::size_t>(t) * kTileDim;
    std::uint8_t* row_ptr_out = out.row_ptr.data() + base;
    rowmask_t* mask_out = out.mask.data() + base;
    // The packed family derives into these stack locals and copies the 48
    // bytes out; the fused numeric path below then reads the still-hot
    // locals instead of reloading the tile's slice of the global symbolic
    // arrays (the step2→step3 locality fusion buys).
    alignas(32) rowmask_t mask_loc[kTileDim] = {};
    std::uint8_t rp_loc[kTileDim] = {};
    const rowmask_t* mask_src = mask_out;
    const std::uint8_t* rp_src = row_ptr_out;
    if (lvl != simd::Level::kScalar) {
      // Word-packed, hybrid per A-tile: dense-ish tiles drive the OR phase
      // from A's row masks (one 8-byte load covers four rows, empty
      // rows/words are skipped in registers, each occupied row accumulates
      // its result mask in a register before one packed OR); hyper-sparse
      // tiles keep the per-nonzero gather, whose loop count (nnz) is below
      // the mask walk's fixed cost. OR is commutative and both paths feed
      // the same merged words, so the dispatch is invisible in the output.
      // `cm` only ever sees constant indices (the wi loops have constexpr
      // bounds, so they unroll), which lets the compiler keep the four packed
      // words in registers across pairs; `gather` is the hyper-sparse tiles'
      // dynamically indexed target and is merged in once at derivation.
      std::uint64_t cm[kTileMaskWords] = {};
      alignas(8) rowmask_t gather[kTileDim] = {};
      for (const MatchedPair& p : pairs) {
        const rowmask_t* mask_b = b.tile_mask(p.tile_b);
        const index_t nnz_a = a.tile_nnz_of(p.tile_a);
        if (nnz_a <= kPackedGatherMaxNnz) {
          const offset_t nz_base = a.tile_nnz[p.tile_a];
          for (index_t k = 0; k < nnz_a; ++k) {
            const std::size_t g = static_cast<std::size_t>(nz_base + k);
            gather[a.row_idx[g]] |= mask_b[a.col_idx[g]];
          }
          continue;
        }
        if (vec != nullptr) {
          vec->mask_or(a.tile_mask(p.tile_a), mask_b, cm);
          continue;
        }
        const rowmask_t* mask_a = a.tile_mask(p.tile_a);
        for (int wi = 0; wi < kTileMaskWords; ++wi) {
          const std::uint64_t wa = pack_rowmask_word(mask_a + wi * kRowsPerMaskWord);
          if (wa == 0) continue;
          for (int j = 0; j < kRowsPerMaskWord; ++j) {
            std::uint64_t m = (wa >> (16 * j)) & 0xFFFFu;
            if (m == 0) continue;
            rowmask_t acc = 0;
            do {
              acc = static_cast<rowmask_t>(acc | mask_b[std::countr_zero(m)]);
              m &= m - 1;
            } while (m != 0);
            cm[wi] |= static_cast<std::uint64_t>(acc) << (16 * j);
          }
        }
      }
      for (int wi = 0; wi < kTileMaskWords; ++wi) {
        cm[wi] |= pack_rowmask_word(gather + wi * kRowsPerMaskWord);
      }
      // Derivation into the locals (empty tiles skip it — the global
      // arrays start zeroed). AVX levels use the table's vector kernel;
      // otherwise the inline SWAR form: per-word lane popcounts and lane
      // prefix sums give four row-pointer entries (and the running nnz
      // count) per word, replacing sixteen per-row popcount iterations.
      if ((cm[0] | cm[1] | cm[2] | cm[3]) != 0) {
        if (vec != nullptr) {
          count = vec->derive(cm, mask_loc, rp_loc);
        } else {
          for (int wi = 0; wi < kTileMaskWords; ++wi) {
            const std::uint64_t w = cm[wi];
            const std::uint64_t excl = lane_prefix_sums16(lane_popcounts16(w)) << 16;
            for (int j = 0; j < kRowsPerMaskWord; ++j) {
              mask_loc[wi * kRowsPerMaskWord + j] = unpack_rowmask(w, j);
              rp_loc[wi * kRowsPerMaskWord + j] =
                  static_cast<std::uint8_t>(count + ((excl >> (16 * j)) & 0xFFFFu));
            }
            count += static_cast<index_t>(std::popcount(w));
          }
        }
        std::memcpy(mask_out, mask_loc, sizeof(mask_loc));
        std::memcpy(row_ptr_out, rp_loc, sizeof(rp_loc));
        mask_src = mask_loc;
        rp_src = rp_loc;
      }
    } else {
      // Reference per-bit path (SymbolicKernel::kScalar), kept verbatim as
      // the A/B oracle and the regression bench's speedup denominator.
      rowmask_t mask_c[kTileDim] = {};
      for (const MatchedPair& p : pairs) {
        const rowmask_t* mask_b = b.tile_mask(p.tile_b);
        const offset_t nz_base = a.tile_nnz[p.tile_a];
        const index_t nnz_a = a.tile_nnz_of(p.tile_a);
        for (index_t k = 0; k < nnz_a; ++k) {
          const std::size_t g = static_cast<std::size_t>(nz_base + k);
          mask_c[a.row_idx[g]] |= mask_b[a.col_idx[g]];
        }
      }
      for (index_t r = 0; r < kTileDim; ++r) {
        row_ptr_out[r] = static_cast<std::uint8_t>(count);
        mask_out[r] = mask_c[r];
        count += popcount16(mask_c[r]);
      }
    }
    out.tile_nnz[static_cast<std::size_t>(t) + 1] = count;
    if (detail_metrics) {
      m_pairs.add(static_cast<std::int64_t>(pairs.size()));
      m_tile_nnz.observe(count);
    }

    if (fuse && plan.fuses_tile(t, count)) {
      // Fused numeric, selected per cost bin by the planner: the tile's
      // structure is fully known, its matched pairs are still hot, and the
      // packed family's symbolic result is still in the stack locals, so
      // accumulate the values now and stage them in this thread's buffer;
      // step 3 only copies them to their final home.
      T vals[kTileNnzMax];
      const detail::AccumulatePath path = detail::accumulate_tile_values(
          a, b, pairs.data(), pairs.size(), mask_src, rp_src, count, vals, nops);
      if (detail_metrics) {
        (path == detail::AccumulatePath::kRankScatter ? m_fused_scatter : m_fused_rows).inc();
      }
      ws.staged_slot[static_cast<std::size_t>(t)] = {
          static_cast<std::uint32_t>(tid), static_cast<offset_t>(slot.staged.size()),
          static_cast<std::uint32_t>(count)};
      slot.staged.insert(slot.staged.end(), vals, vals + count);
    } else if (plan.caches_tile(t)) {
      // Record this tile's pairs in the owning thread's buffer so step 3
      // skips its re-intersection (see TileSpgemmOptions::cache_pairs).
      // Tiles below the plan's cache bin skip this on purpose: their slot
      // keeps the uncached sentinel and step 3 re-intersects them (the
      // paper's recompute policy, cheaper than staging for light tiles).
      ws.pair_slot[static_cast<std::size_t>(t)] = {
          static_cast<std::uint32_t>(tid), static_cast<offset_t>(slot.cache.size()),
          static_cast<std::uint32_t>(pairs.size())};
      slot.cache.insert(slot.cache.end(), pairs.begin(), pairs.end());
    }
  });

  // Offsets for allocating C (serial scan: numtiles is small relative to nnz).
  for (offset_t t = 0; t < ntiles; ++t) {
    out.tile_nnz[static_cast<std::size_t>(t) + 1] += out.tile_nnz[static_cast<std::size_t>(t)];
  }
  if (fuse) {
    for (const detail::TileSlot& s : ws.staged_slot) {
      if (s.count > 0) ++out.fused_tiles;
    }
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
