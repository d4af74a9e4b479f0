// Tunables of the TileSpGEMM algorithm. Defaults follow the paper.
#pragma once

#include "common/config.h"
#include "core/simd_dispatch.h"

namespace tsg {

struct TileSpgemmOptions {
  /// Vector-ISA level for the step-2/3 kernel family. Defaults to the best
  /// level this build and host support (overridable process-wide with
  /// TSG_SIMD, per context with Config::with_simd_level); requests above
  /// what is available clamp down at use. kScalar runs the per-bit
  /// reference kernels, the oracle every other level is bit-identical to.
  simd::Level simd = simd::active_level();
};

/// Dispatch level a run with these options actually executes at: the
/// requested level clamped to what this build/host can run. Resolved once
/// per step2/step3 call, never per tile.
inline simd::Level effective_simd_level(const TileSpgemmOptions& options) {
  return simd::clamp_to_available(options.simd);
}

}  // namespace tsg
