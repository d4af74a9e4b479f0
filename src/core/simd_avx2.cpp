// AVX2 + BMI2 kernels for the step-2/3 dispatch family; the symbolic ones
// also serve the AVX-512 level. This TU is the only place (with
// simd_avx512.cpp) compiled with -mavx2 -mbmi2; the exported table is
// reached strictly through runtime CPUID dispatch, so nothing here may leak
// into unconditionally-executed code.
#include "core/simd_dispatch.h"

#if defined(__AVX2__) && defined(__BMI2__)

#include <immintrin.h>

#include <bit>
#include <cstring>

namespace tsg::simd {
namespace {

/// OR-reduce the 16 row masks of a tile (one ymm of epi16) to the union
/// mask: the set of B columns any row of the A tile touches.
std::uint32_t union_rowmask16(__m256i rows) {
  __m128i u = _mm_or_si128(_mm256_castsi256_si128(rows), _mm256_extracti128_si256(rows, 1));
  u = _mm_or_si128(u, _mm_srli_si128(u, 8));
  u = _mm_or_si128(u, _mm_srli_si128(u, 4));
  u = _mm_or_si128(u, _mm_srli_si128(u, 2));
  return static_cast<std::uint32_t>(_mm_extract_epi16(u, 0));
}

/// Vector form of the step-2 derivation: unpack the packed accumulator
/// into the 16 row masks, per-row popcounts via the nibble LUT, a 16-lane
/// inclusive prefix sum by log-step shifts, and the exclusive row pointers
/// narrowed to bytes. Writes all 16 mask/row_ptr entries; returns the tile
/// nonzero count. Exclusive prefixes peak at 240 (15 rows x 16 columns),
/// so the u8 narrowing cannot saturate.
index_t derive_avx2(const std::uint64_t cm[kTileMaskWords], rowmask_t* mask_out,
                    std::uint8_t* row_ptr_out) {
  const __m256i rows = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cm));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask_out), rows);

  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i lo = _mm256_and_si256(rows, nib);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(rows, 4), nib);
  const __m256i cnt8 =
      _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
  // Per-byte counts are <= 8, so the pairwise maddubs reduction to 16-bit
  // lane popcounts cannot saturate.
  const __m256i cnt16 = _mm256_maddubs_epi16(cnt8, _mm256_set1_epi8(1));

  __m256i incl = cnt16;
  incl = _mm256_add_epi16(incl, _mm256_slli_si256(incl, 2));
  incl = _mm256_add_epi16(incl, _mm256_slli_si256(incl, 4));
  incl = _mm256_add_epi16(incl, _mm256_slli_si256(incl, 8));
  // slli_si256 shifts within 128-bit halves; carry the low half's total
  // (lane 7, bytes 14:15) into every lane of the high half.
  const __m128i low_total =
      _mm_shuffle_epi8(_mm256_castsi256_si128(incl), _mm_set1_epi16(0x0F0E));
  incl = _mm256_add_epi16(incl, _mm256_inserti128_si256(_mm256_setzero_si256(), low_total, 1));

  const __m256i excl = _mm256_sub_epi16(incl, cnt16);
  const __m256i bytes = _mm256_packus_epi16(excl, _mm256_setzero_si256());
  const __m256i ordered = _mm256_permute4x64_epi64(bytes, 0x08);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(row_ptr_out), _mm256_castsi256_si128(ordered));

  return static_cast<index_t>(_mm256_extract_epi16(incl, 15));
}

void mask_or_avx2(const rowmask_t* mask_a, const rowmask_t* mask_b,
                  std::uint64_t cm[kTileMaskWords]) {
  const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask_a));
  __m256i acc = _mm256_loadu_si256(reinterpret_cast<__m256i*>(cm));
  // One pass per column the A tile touches anywhere: broadcast-compare
  // selects the rows holding that column, which all OR in the same B row
  // mask. Sparse tiles touch few columns, so this beats 16 scalar walks.
  std::uint32_t uni = union_rowmask16(va);
  while (uni != 0) {
    const int c = std::countr_zero(uni);
    uni &= uni - 1;
    const __m256i bit = _mm256_set1_epi16(static_cast<short>(1u << c));
    const __m256i sel = _mm256_cmpeq_epi16(_mm256_and_si256(va, bit), bit);
    const __m256i contrib = _mm256_and_si256(sel, _mm256_set1_epi16(static_cast<short>(mask_b[c])));
    acc = _mm256_or_si256(acc, contrib);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(cm), acc);
}

// Dword-pair permute patterns for compressing 4 doubles by a 4-bit mask:
// entry m lists the float-lane pairs of the selected qwords in order,
// zero-padded (the pad lanes are overwritten by the next chunk or ignored).
alignas(32) constexpr std::int32_t kQuadPerm[16][8] = {
    {0, 0, 0, 0, 0, 0, 0, 0}, {0, 1, 0, 0, 0, 0, 0, 0}, {2, 3, 0, 0, 0, 0, 0, 0},
    {0, 1, 2, 3, 0, 0, 0, 0}, {4, 5, 0, 0, 0, 0, 0, 0}, {0, 1, 4, 5, 0, 0, 0, 0},
    {2, 3, 4, 5, 0, 0, 0, 0}, {0, 1, 2, 3, 4, 5, 0, 0}, {6, 7, 0, 0, 0, 0, 0, 0},
    {0, 1, 6, 7, 0, 0, 0, 0}, {2, 3, 6, 7, 0, 0, 0, 0}, {0, 1, 2, 3, 6, 7, 0, 0},
    {4, 5, 6, 7, 0, 0, 0, 0}, {0, 1, 4, 5, 6, 7, 0, 0}, {2, 3, 4, 5, 6, 7, 0, 0},
    {0, 1, 2, 3, 4, 5, 6, 7}};

// Both compress kernels store whole vectors at the moving output cursor:
// before chunk g starts, the cursor is at most g*chunk elements, so the
// over-wide store stays inside the kTileNnzMax-element scratch `out`
// (never C's shared arrays — see the NumericOps contract).
void compress_avx2_d(const double* acc, const rowmask_t* mask_c, double* out) {
  index_t o = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    const std::uint64_t w = pack_rowmask_word(mask_c + wi * kRowsPerMaskWord);
    if (w == 0) continue;
    const double* acc_w = acc + static_cast<std::size_t>(wi) * (kRowsPerMaskWord * kTileDim);
    for (int k = 0; k < 16; ++k) {
      const unsigned m4 = static_cast<unsigned>(w >> (4 * k)) & 0xFu;
      if (m4 == 0) continue;
      const __m256d v = _mm256_loadu_pd(acc_w + 4 * k);
      const __m256i idx = _mm256_load_si256(reinterpret_cast<const __m256i*>(kQuadPerm[m4]));
      const __m256 packed = _mm256_permutevar8x32_ps(_mm256_castpd_ps(v), idx);
      _mm256_storeu_pd(out + o, _mm256_castps_pd(packed));
      o += static_cast<index_t>(std::popcount(m4));
    }
  }
}

void compress_avx2_f(const float* acc, const rowmask_t* mask_c, float* out) {
  index_t o = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    const std::uint64_t w = pack_rowmask_word(mask_c + wi * kRowsPerMaskWord);
    if (w == 0) continue;
    const float* acc_w = acc + static_cast<std::size_t>(wi) * (kRowsPerMaskWord * kTileDim);
    for (int k = 0; k < 8; ++k) {
      const std::uint64_t m8 = (w >> (8 * k)) & 0xFFu;
      if (m8 == 0) continue;
      // Expand the 8-bit mask to a byte mask, extract the selected lane
      // ids from the identity byte sequence, widen to dword indices.
      const std::uint64_t spread = _pdep_u64(m8, 0x0101010101010101ull) * 0xFFu;
      const std::uint64_t ids = _pext_u64(0x0706050403020100ull, spread);
      const __m256i idx =
          _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(static_cast<long long>(ids)));
      const __m256 v = _mm256_loadu_ps(acc_w + 8 * k);
      _mm256_storeu_ps(out + o, _mm256_permutevar8x32_ps(v, idx));
      o += static_cast<index_t>(std::popcount(m8));
    }
  }
}

void materialize_avx2(const rowmask_t* mask_c, std::uint8_t* row_idx,
                      std::uint8_t* col_idx) {
  // Stage into padded locals so each row can use a full-width store (16
  // pad bytes absorb the overshoot at n up to 240), then copy exactly n
  // bytes out — row_idx/col_idx point into C's shared arrays where an
  // over-wide store would race the neighbouring tile.
  std::uint8_t rows[kTileNnzMax + 16];
  std::uint8_t cols[kTileNnzMax + 16];
  index_t n = 0;
  for (index_t r = 0; r < kTileDim; ++r) {
    const std::uint32_t m = mask_c[r];
    if (m == 0) continue;
    // Nibble ids of the set bits, packed low: bit i of m selects nibble i
    // of the identity 0xFEDC...3210, then each nibble spreads to a byte.
    const std::uint64_t spread = _pdep_u64(m, 0x1111111111111111ull) * 0xFu;
    const std::uint64_t ids = _pext_u64(0xFEDCBA9876543210ull, spread);
    const std::uint64_t lo = _pdep_u64(ids & 0xFFFFFFFFull, 0x0F0F0F0F0F0F0F0Full);
    const std::uint64_t hi = _pdep_u64(ids >> 32, 0x0F0F0F0F0F0F0F0Full);
    std::memcpy(cols + n, &lo, sizeof(lo));
    std::memcpy(cols + n + 8, &hi, sizeof(hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(rows + n),
                     _mm_set1_epi8(static_cast<char>(r)));
    n += popcount16(mask_c[r]);
  }
  std::memcpy(row_idx, rows, static_cast<std::size_t>(n));
  std::memcpy(col_idx, cols, static_cast<std::size_t>(n));
}

constexpr SymbolicOps kSym = {&mask_or_avx2, &derive_avx2};
// The accumulate is the per-bit walk: an AVX2 row kernel (masked load,
// permute expand, blend) lost to it on sparse B rows (docs/PERFORMANCE.md).
constexpr NumericOps kNum = {&compress_avx2_d, &compress_avx2_f, &materialize_avx2,
                             &detail::accumulate_walk_d, &detail::accumulate_walk_f};

}  // namespace

namespace detail {
LevelKernels avx2_kernels() { return {&kSym, &kNum}; }
}  // namespace detail

}  // namespace tsg::simd

#else  // stub body: toolchain could not target AVX2 (e.g. non-x86)

namespace tsg::simd::detail {
LevelKernels avx2_kernels() { return {nullptr, nullptr}; }
}  // namespace tsg::simd::detail

#endif
