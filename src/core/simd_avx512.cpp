// AVX-512 (F + BW + VL) kernels for step 3's dispatch family. The compress
// instructions remove the AVX2 kernels' workaround: the compress and
// materialize emulations become single vpcompress / masked-store
// instructions with *exact* store widths (safe to target shared output
// directly). Expand-loads also give the accumulate a row kernel, which the
// AVX2 level lacks. Step 2 runs AVX2's symbolic kernels at this level.
// Reached only through runtime CPUID dispatch.
#include "core/simd_dispatch.h"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX2__) && defined(__BMI2__)

#include <immintrin.h>

#include <bit>

namespace tsg::simd {
namespace {

void compress_avx512_d(const double* acc, const rowmask_t* mask_c, double* out) {
  index_t o = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    const std::uint64_t w = pack_rowmask_word(mask_c + wi * kRowsPerMaskWord);
    if (w == 0) continue;
    const double* acc_w = acc + static_cast<std::size_t>(wi) * (kRowsPerMaskWord * kTileDim);
    for (int k = 0; k < 8; ++k) {
      const auto m8 = static_cast<__mmask8>((w >> (8 * k)) & 0xFFu);
      if (m8 == 0) continue;
      _mm512_mask_compressstoreu_pd(out + o, m8, _mm512_loadu_pd(acc_w + 8 * k));
      o += static_cast<index_t>(std::popcount(static_cast<unsigned>(m8)));
    }
  }
}

void compress_avx512_f(const float* acc, const rowmask_t* mask_c, float* out) {
  index_t o = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    const std::uint64_t w = pack_rowmask_word(mask_c + wi * kRowsPerMaskWord);
    if (w == 0) continue;
    const float* acc_w = acc + static_cast<std::size_t>(wi) * (kRowsPerMaskWord * kTileDim);
    for (int k = 0; k < 4; ++k) {
      const auto m16 = static_cast<__mmask16>((w >> (16 * k)) & 0xFFFFu);
      if (m16 == 0) continue;
      _mm512_mask_compressstoreu_ps(out + o, m16, _mm512_loadu_ps(acc_w + 16 * k));
      o += static_cast<index_t>(std::popcount(static_cast<unsigned>(m16)));
    }
  }
}

void materialize_avx512(const rowmask_t* mask_c, std::uint8_t* row_idx,
                        std::uint8_t* col_idx) {
  const __m512i identity =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  index_t n = 0;
  for (index_t r = 0; r < kTileDim; ++r) {
    const auto m = static_cast<__mmask16>(mask_c[r]);
    if (m == 0) continue;
    const index_t cnt = popcount16(mask_c[r]);
    // maskz variant: the plain cvt seeds its unused lanes from
    // _mm_undefined_si128(), which gcc's -Wmaybe-uninitialized flags.
    const __m128i cols =
        _mm512_maskz_cvtepi32_epi8(0xFFFF, _mm512_maskz_compress_epi32(m, identity));
    // Exact masked stores straight into the shared output arrays — no
    // staging copy needed at this level.
    const auto width = static_cast<__mmask16>((1u << cnt) - 1u);
    _mm_mask_storeu_epi8(col_idx + n, width, cols);
    _mm_mask_storeu_epi8(row_idx + n, width, _mm_set1_epi8(static_cast<char>(r)));
    n += cnt;
  }
}

// B-row multiply-add: an expand-load places B's packed row values in the
// lanes of its mask (reading exactly popcount values), the product is
// rounded by its own vmulpd/vmulps, and the mask-gated add leaves every
// other lane's bits alone. A double row is two 8-lane halves. No branch
// tests for an empty row or half: its all-zero k-mask makes the expand-load
// read nothing (and fault on nothing, even past the end of B's values) and
// the masked add keep every lane, while such a branch is data-dependent and
// mispredicts on hyper-sparse tiles. A's nonzeros come in row order, so
// each run of one row accumulates in registers, loaded once and stored
// once: every lane still takes its products one at a time in the walk's
// order, and a row whose products all miss is written back bit for bit.
void accumulate_avx512_d(const std::uint8_t* a_row, const std::uint8_t* a_col,
                         const double* a_val, index_t a_nnz, const std::uint8_t* b_row_ptr,
                         const rowmask_t* b_mask, const double* b_val, double* acc) {
  index_t k = 0;
  while (k < a_nnz) {
    const std::uint8_t r = a_row[k];
    double* row = acc + static_cast<std::size_t>(r) * kTileDim;
    __m512d lo_sum = _mm512_loadu_pd(row);
    __m512d hi_sum = _mm512_loadu_pd(row + 8);
    do {
      const unsigned m = b_mask[a_col[k]];
      const double* bv = b_val + b_row_ptr[a_col[k]];
      const __m512d va = _mm512_set1_pd(a_val[k]);
      const auto lo = static_cast<__mmask8>(m & 0xFFu);
      const auto hi = static_cast<__mmask8>(m >> 8);
      const double* bv_hi = bv + std::popcount(static_cast<unsigned>(lo));
      lo_sum = _mm512_mask_add_pd(lo_sum, lo, lo_sum,
                                  _mm512_mul_pd(va, _mm512_maskz_expandloadu_pd(lo, bv)));
      hi_sum = _mm512_mask_add_pd(hi_sum, hi, hi_sum,
                                  _mm512_mul_pd(va, _mm512_maskz_expandloadu_pd(hi, bv_hi)));
      ++k;
    } while (k < a_nnz && a_row[k] == r);
    _mm512_storeu_pd(row, lo_sum);
    _mm512_storeu_pd(row + 8, hi_sum);
  }
}

void accumulate_avx512_f(const std::uint8_t* a_row, const std::uint8_t* a_col,
                         const float* a_val, index_t a_nnz, const std::uint8_t* b_row_ptr,
                         const rowmask_t* b_mask, const float* b_val, float* acc) {
  index_t k = 0;
  while (k < a_nnz) {
    const std::uint8_t r = a_row[k];
    float* row = acc + static_cast<std::size_t>(r) * kTileDim;
    __m512 sum = _mm512_loadu_ps(row);
    do {
      const auto m = static_cast<__mmask16>(b_mask[a_col[k]]);
      const __m512 prod =
          _mm512_mul_ps(_mm512_set1_ps(a_val[k]),
                        _mm512_maskz_expandloadu_ps(m, b_val + b_row_ptr[a_col[k]]));
      sum = _mm512_mask_add_ps(sum, m, sum, prod);
      ++k;
    } while (k < a_nnz && a_row[k] == r);
    _mm512_storeu_ps(row, sum);
  }
}

constexpr NumericOps kNum = {&compress_avx512_d, &compress_avx512_f, &materialize_avx512,
                             &accumulate_avx512_d, &accumulate_avx512_f};

}  // namespace

namespace detail {
// No symbolic table: step 2 runs AVX2's kernels at this level, which its
// own kernels did not beat by the 5% a variant must earn
// (docs/PERFORMANCE.md).
LevelKernels avx512_kernels() { return {nullptr, &kNum}; }
}  // namespace detail

}  // namespace tsg::simd

#else  // stub body: toolchain could not target AVX-512

namespace tsg::simd::detail {
LevelKernels avx512_kernels() { return {nullptr, nullptr}; }
}  // namespace tsg::simd::detail

#endif
