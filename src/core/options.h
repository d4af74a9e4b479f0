// Tunables of the TileSpGEMM algorithm. Defaults follow the paper; the
// alternatives exist for the ablation benches (bench_micro_kernels) that
// justify the paper's design choices.
#pragma once

#include "common/config.h"
#include "core/simd_dispatch.h"

namespace tsg {

/// How step 2 turns the matched pairs into C's tile masks / row pointers.
enum class SymbolicKernel {
  /// Word-packed (default): drive the mask OR phase from A's row masks and
  /// derive per-row nonzero counts with SWAR popcounts over uint64_t[4]
  /// packed masks (common/bitops.h). Bit-identical to kScalar.
  kWordPacked,
  /// Reference: per-nonzero loop over A's row_idx/col_idx arrays with a
  /// per-row popcount scan — the pre-optimisation path, kept for the A/B
  /// tests and the regression bench's speedup denominator.
  kScalar,
};

struct TileSpgemmOptions {
  SymbolicKernel symbolic = SymbolicKernel::kWordPacked;
  /// Cache the matched tile pairs found by step 2 so step 3 skips its
  /// re-intersection. The paper deliberately recomputes instead (its GPU
  /// kernels keep *zero* global intermediate state); caching trades
  /// O(total pairs) of global memory for roughly halving the intersection
  /// work — an engineering option this CPU port exposes for the ablation
  /// bench. Default off to match the paper.
  bool cache_pairs = false;
  /// Vector-ISA level for the step-2/3 kernel family. Defaults to the best
  /// level this build and host support (overridable process-wide with
  /// TSG_SIMD, per context with Config::with_simd_level); requests above
  /// what is available clamp down at use. Ignored when `symbolic` is
  /// kScalar — the reference kernel is the scalar oracle by definition.
  simd::Level simd = simd::active_level();
};

/// Dispatch level a run with these options actually executes at: kScalar
/// when the reference symbolic kernel is selected, else the requested
/// level clamped to what this build/host can run. Resolved once per
/// step2/step3 call, never per tile.
inline simd::Level effective_simd_level(const TileSpgemmOptions& options) {
  if (options.symbolic == SymbolicKernel::kScalar) return simd::Level::kScalar;
  return simd::clamp_to_available(options.simd);
}

}  // namespace tsg
