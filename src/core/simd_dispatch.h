// Runtime SIMD dispatch for the step-2/step-3 per-tile kernel family.
//
// The 256-bit tile bitmask (16 x 16-bit row masks, Section 3.2 of the
// paper) is exactly one AVX2 ymm register, which makes the symbolic
// mask-OR / popcount / prefix-sum walk and the numeric dense-accumulator
// compress natural vector kernels; a 16-lane row of the dense accumulator
// is one AVX-512 register of floats (two of doubles), which makes the
// B-row multiply-add one masked vector update per A nonzero. This header
// names the dispatch levels and the two per-level operation tables;
// selection happens once per call (never per tile) in step2/step3:
//
//   kScalar  — the per-row/per-bit reference kernels (the A/B oracle)
//   kSwar    — PR 5's word-packed uint64[4] kernels (common/bitops.h)
//   kAvx2    — ymm kernels (requires AVX2 + BMI2, compile probe __AVX2__)
//   kAvx512  — step-3 compress/expand kernels (AVX-512 F+BW+VL, probe
//              __AVX512F__); step 2 keeps kAvx2's kernels
//
// Every level is bit-identical to kScalar by construction: the vector
// kernels reorder *reads* (mask ORs, popcounts, compress permutes, B-row
// expands), never floating-point accumulation — each output lane still
// receives its products one at a time, multiply rounded before add, in the
// scalar walk's order — and tests/test_simd_dispatch.cpp enforces the
// identity per primitive and end to end at every available level.
//
// Level resolution: `detected_level()` probes CPUID once (clamped to what
// this build compiled in); `TSG_SIMD=scalar|swar|avx2|avx512` overrides it
// process-wide (read once, the documented exception to Config::from_env()
// being the only env reader — kernel forcing must also reach the
// free-function entry points that never see a Config); and
// `Config::with_simd_level` overrides it per context. Requests above what
// the build/host supports clamp down with a one-time structured warning.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "common/bitops.h"
#include "common/status.h"

namespace tsg::simd {

/// Dispatch level of the step-2/3 kernel family, ordered by capability.
enum class Level : std::uint8_t {
  kScalar = 0,  ///< per-row reference kernels (the bit-identity oracle)
  kSwar = 1,    ///< word-packed uint64[4] kernels, always available
  kAvx2 = 2,    ///< 256-bit vector kernels (AVX2 + BMI2)
  kAvx512 = 3,  ///< step-3 compress/expand kernels (AVX-512 F + BW + VL)
};

inline constexpr int kLevelCount = 4;

/// Step-2 symbolic primitives, per level. Both functions work on the
/// packed four-word form of a tile mask (common/bitops.h).
struct SymbolicOps {
  /// OR, for one matched pair, the B-tile row masks selected by A's row
  /// masks into the packed accumulator `cm` (Algorithm 2 lines 19-25):
  /// column c set in A's row r contributes mask_b[c] to row r of cm.
  void (*mask_or)(const rowmask_t* mask_a, const rowmask_t* mask_b,
                  std::uint64_t cm[kTileMaskWords]);
  /// Unpack the accumulated words into the 16 row masks and exclusive
  /// per-row pointers; returns the tile's nonzero count. Always writes all
  /// 16 entries of mask_out / row_ptr_out.
  index_t (*derive)(const std::uint64_t cm[kTileMaskWords], rowmask_t* mask_out,
                    std::uint8_t* row_ptr_out);
};

/// Step-3 numeric primitives, per level.
///
/// Compress contract: `acc` is the row-major dense 16x16 scratch tile (256
/// elements); the mask's set bits are written to `out` in storage order.
/// `out` must have capacity kTileNnzMax elements — a level may clobber
/// lanes past the compressed count (AVX2 stores whole vectors), so `out`
/// is always a thread-local scratch buffer, never shared output.
///
/// Materialize contract: writes *exactly* popcount(mask) bytes at
/// row_idx / col_idx — these point into C's shared arrays where an
/// over-wide store would race the adjacent tile on another thread.
///
/// Accumulate contract (one matched pair, Algorithm 3 lines 4-12): for each
/// of A's `a_nnz` nonzeros k in storage order — local row a_row[k], column
/// a_col[k], value a_val[k] — add a_val[k] times B's tile row a_col[k] into
/// row a_row[k] of the row-major dense 16x16 `acc`. B's row c holds
/// popcount(b_mask[c]) values at b_val + b_row_ptr[c] in column order, and
/// only the lanes set in b_mask[c] change: each gets acc + a*b with the
/// product rounded before the add, so every level matches the scalar walk
/// bit for bit. Lanes outside the mask keep their bits. A level may read
/// and write back, bit-unchanged, every row some a_row[k] names, even when
/// B's row a_col[k] is empty (the AVX-512 kernel does, branch-free), so
/// callers initialise each such row; rows no a_row[k] names are neither
/// read nor written. B's values are never read past the row's last value.
struct NumericOps {
  void (*compress_d)(const double* acc, const rowmask_t* mask_c, double* out);
  void (*compress_f)(const float* acc, const rowmask_t* mask_c, float* out);
  void (*materialize)(const rowmask_t* mask_c, std::uint8_t* row_idx,
                      std::uint8_t* col_idx);
  void (*accumulate_d)(const std::uint8_t* a_row, const std::uint8_t* a_col,
                       const double* a_val, index_t a_nnz, const std::uint8_t* b_row_ptr,
                       const rowmask_t* b_mask, const double* b_val, double* acc);
  void (*accumulate_f)(const std::uint8_t* a_row, const std::uint8_t* a_col,
                       const float* a_val, index_t a_nnz, const std::uint8_t* b_row_ptr,
                       const rowmask_t* b_mask, const float* b_val, float* acc);
};

/// Operation tables for a level. Levels the build or host cannot execute
/// hold the next-lower available table (defense in depth — callers resolve
/// through clamp_to_available() first).
const SymbolicOps& symbolic_ops(Level level);
const NumericOps& numeric_ops(Level level);

/// Best level this build compiled in AND this CPU supports; >= kSwar.
/// Probed once per process.
Level detected_level();

/// Whether `level` can execute here (kScalar/kSwar: always; AVX levels:
/// compile probe + CPUID).
bool level_available(Level level);

/// Highest available level that is <= `requested`.
Level clamp_to_available(Level requested);

/// Process-wide default level: TSG_SIMD when set (parsed, validated,
/// clamped, with one-time warnings on bad values), else detected_level().
/// Cached on first use — TileSpgemmOptions defaults to this.
Level active_level();

/// Lower-case level name ("scalar", "swar", "avx2", "avx512").
const char* level_name(Level level);

/// Parse a TSG_SIMD-style level name. Unknown names come back as a
/// structured kInvalidArgument Status listing the accepted values.
Expected<Level> parse_level(std::string_view text);

/// Compile probes: whether the AVX TUs were built with real kernels (false
/// when the toolchain rejected -mavx2 / -mavx512f, e.g. non-x86).
bool compiled_avx2();
bool compiled_avx512();

namespace detail {

/// What one ISA-specific TU exports: null pointers when the compile probe
/// failed and the TU fell back to its stub body. A TU without symbolic
/// kernels of its own (AVX-512) exports a null `sym` and keeps the level
/// below's.
struct LevelKernels {
  const SymbolicOps* sym;
  const NumericOps* num;
};

LevelKernels avx2_kernels();    // simd_avx2.cpp
LevelKernels avx512_kernels();  // simd_avx512.cpp

/// The scalar accumulate walk (simd_dispatch.cpp), shared by every level
/// without a vector accumulate kernel.
void accumulate_walk_d(const std::uint8_t* a_row, const std::uint8_t* a_col,
                       const double* a_val, index_t a_nnz, const std::uint8_t* b_row_ptr,
                       const rowmask_t* b_mask, const double* b_val, double* acc);
void accumulate_walk_f(const std::uint8_t* a_row, const std::uint8_t* a_col,
                       const float* a_val, index_t a_nnz, const std::uint8_t* b_row_ptr,
                       const rowmask_t* b_mask, const float* b_val, float* acc);

}  // namespace detail

/// Value-typed front end for the compress table entry: double/float go
/// through the dispatched kernels; any other accumulator type (semiring
/// experiments) keeps the word-packed generic walk.
template <class T>
inline void compress_tile(const NumericOps& ops, const T* acc, const rowmask_t* mask_c,
                          T* out) {
  if constexpr (std::is_same_v<T, double>) {
    ops.compress_d(acc, mask_c, out);
  } else if constexpr (std::is_same_v<T, float>) {
    ops.compress_f(acc, mask_c, out);
  } else {
    index_t o = 0;
    for (int wi = 0; wi < kTileMaskWords; ++wi) {
      std::uint64_t w = pack_rowmask_word(mask_c + wi * kRowsPerMaskWord);
      const T* acc_w = acc + static_cast<std::size_t>(wi) * (kRowsPerMaskWord * kTileDim);
      while (w != 0) {
        out[o++] = acc_w[std::countr_zero(w)];
        w &= w - 1;
      }
    }
  }
}

/// Value-typed front end for the accumulate table entries. Unlike
/// compress_tile there is no generic fallback: only the double and float
/// pipelines accumulate through the dense path.
template <class T>
inline void accumulate_tile(const NumericOps& ops, const std::uint8_t* a_row,
                            const std::uint8_t* a_col, const T* a_val, index_t a_nnz,
                            const std::uint8_t* b_row_ptr, const rowmask_t* b_mask,
                            const T* b_val, T* acc) {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, float>,
                "the accumulate kernels take double or float values");
  if constexpr (std::is_same_v<T, double>) {
    ops.accumulate_d(a_row, a_col, a_val, a_nnz, b_row_ptr, b_mask, b_val, acc);
  } else {
    ops.accumulate_f(a_row, a_col, a_val, a_nnz, b_row_ptr, b_mask, b_val, acc);
  }
}

}  // namespace tsg::simd
