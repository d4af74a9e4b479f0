#include "core/simd_dispatch.h"

#include <array>
#include <cstdlib>

#include "core/tile_kernels.h"
#include "obs/log.h"

namespace tsg::simd {
namespace detail {

// The per-bit walk of the accumulate contract, the oracle the vector
// levels are tested against. It serves kSwar and kAvx2 too: a word-packed
// form would only regroup the same walk.
template <class T>
void accumulate_walk(const std::uint8_t* a_row, const std::uint8_t* a_col, const T* a_val,
                     index_t a_nnz, const std::uint8_t* b_row_ptr, const rowmask_t* b_mask,
                     const T* b_val, T* acc) {
  for (index_t k = 0; k < a_nnz; ++k) {
    const T va = a_val[k];
    const T* bv = b_val + b_row_ptr[a_col[k]];
    T* row = acc + static_cast<std::size_t>(a_row[k]) * kTileDim;
    unsigned m = b_mask[a_col[k]];
    while (m != 0) {
      row[std::countr_zero(m)] += va * *bv++;
      m &= m - 1;
    }
  }
}

void accumulate_walk_d(const std::uint8_t* a_row, const std::uint8_t* a_col,
                       const double* a_val, index_t a_nnz, const std::uint8_t* b_row_ptr,
                       const rowmask_t* b_mask, const double* b_val, double* acc) {
  accumulate_walk<double>(a_row, a_col, a_val, a_nnz, b_row_ptr, b_mask, b_val, acc);
}
void accumulate_walk_f(const std::uint8_t* a_row, const std::uint8_t* a_col,
                       const float* a_val, index_t a_nnz, const std::uint8_t* b_row_ptr,
                       const rowmask_t* b_mask, const float* b_val, float* acc) {
  accumulate_walk<float>(a_row, a_col, a_val, a_nnz, b_row_ptr, b_mask, b_val, acc);
}

}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// kScalar: the per-row / per-bit reference kernels. These mirror the
// kScalar branch of step 2 and the per-row materialize oracle — every
// other level must be memcmp-identical to them.

void mask_or_scalar(const rowmask_t* mask_a, const rowmask_t* mask_b,
                    std::uint64_t cm[kTileMaskWords]) {
  for (index_t r = 0; r < kTileDim; ++r) {
    unsigned remaining = mask_a[r];
    rowmask_t acc = 0;
    while (remaining != 0) {
      acc = static_cast<rowmask_t>(acc | mask_b[std::countr_zero(remaining)]);
      remaining &= remaining - 1;
    }
    cm[r / kRowsPerMaskWord] |= static_cast<std::uint64_t>(acc)
                                << (16 * (r % kRowsPerMaskWord));
  }
}

index_t derive_scalar(const std::uint64_t cm[kTileMaskWords], rowmask_t* mask_out,
                      std::uint8_t* row_ptr_out) {
  index_t count = 0;
  for (index_t r = 0; r < kTileDim; ++r) {
    const rowmask_t m = unpack_rowmask(cm[r / kRowsPerMaskWord], r % kRowsPerMaskWord);
    mask_out[r] = m;
    row_ptr_out[r] = static_cast<std::uint8_t>(count);
    count += popcount16(m);
  }
  return count;
}

template <class T>
void compress_scalar(const T* acc, const rowmask_t* mask_c, T* out) {
  index_t o = 0;
  for (index_t r = 0; r < kTileDim; ++r) {
    unsigned m = mask_c[r];
    const T* row = acc + static_cast<std::size_t>(r) * kTileDim;
    while (m != 0) {
      out[o++] = row[std::countr_zero(m)];
      m &= m - 1;
    }
  }
}

void compress_scalar_d(const double* acc, const rowmask_t* mask_c, double* out) {
  compress_scalar<double>(acc, mask_c, out);
}
void compress_scalar_f(const float* acc, const rowmask_t* mask_c, float* out) {
  compress_scalar<float>(acc, mask_c, out);
}

// ---------------------------------------------------------------------------
// kSwar: PR 5's word-packed kernels over uint64[4] (common/bitops.h),
// lifted out of step2.cpp's inline hybrid so they can stand as a table
// entry. Unlike the inline path (which skips all-zero words into
// pre-zeroed output), the table contract writes all 16 entries.

void mask_or_swar(const rowmask_t* mask_a, const rowmask_t* mask_b,
                  std::uint64_t cm[kTileMaskWords]) {
  std::uint64_t wa[kTileMaskWords];
  pack_tile_words(mask_a, wa);
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    const std::uint64_t w = wa[wi];
    if (w == 0) continue;
    for (int j = 0; j < kRowsPerMaskWord; ++j) {
      unsigned m = static_cast<rowmask_t>(w >> (16 * j));
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

index_t derive_swar(const std::uint64_t cm[kTileMaskWords], rowmask_t* mask_out,
                    std::uint8_t* row_ptr_out) {
  index_t count = 0;
  for (int wi = 0; wi < kTileMaskWords; ++wi) {
    const std::uint64_t w = cm[wi];
    const std::uint64_t excl = lane_prefix_sums16(lane_popcounts16(w)) << 16;
    for (int j = 0; j < kRowsPerMaskWord; ++j) {
      mask_out[wi * kRowsPerMaskWord + j] = unpack_rowmask(w, j);
      row_ptr_out[wi * kRowsPerMaskWord + j] =
          static_cast<std::uint8_t>(count + ((excl >> (16 * j)) & 0xFFFFu));
    }
    count += static_cast<index_t>(std::popcount(w));
  }
  return count;
}

template <class T>
void compress_swar(const T* acc, const rowmask_t* mask_c, T* out) {
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

void compress_swar_d(const double* acc, const rowmask_t* mask_c, double* out) {
  compress_swar<double>(acc, mask_c, out);
}
void compress_swar_f(const float* acc, const rowmask_t* mask_c, float* out) {
  compress_swar<float>(acc, mask_c, out);
}

constexpr SymbolicOps kScalarSym = {&mask_or_scalar, &derive_scalar};
constexpr SymbolicOps kSwarSym = {&mask_or_swar, &derive_swar};
constexpr NumericOps kScalarNum = {&compress_scalar_d, &compress_scalar_f,
                                   &::tsg::detail::materialize_tile_indices_scalar,
                                   &detail::accumulate_walk_d, &detail::accumulate_walk_f};
constexpr NumericOps kSwarNum = {&compress_swar_d, &compress_swar_f,
                                 &::tsg::detail::materialize_tile_indices,
                                 &detail::accumulate_walk_d, &detail::accumulate_walk_f};

// ---------------------------------------------------------------------------
// CPUID probes. __builtin_cpu_supports is GCC/Clang on x86; everywhere
// else the AVX levels simply never become available.

bool cpu_has_avx2() {
#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2");
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if (defined(__GNUC__) || defined(__clang__)) && (defined(__x86_64__) || defined(__i386__))
  // The avx512 TU is also compiled with -mavx2 -mbmi2, so require those
  // CPU bits too (every AVX-512 part has them, but the gate should match
  // what the code object may contain, not what shipping silicon happens
  // to pair).
  return cpu_has_avx2() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

struct LevelTables {
  std::array<SymbolicOps, kLevelCount> sym;
  std::array<NumericOps, kLevelCount> num;
};

/// Assemble the per-level tables once. An AVX level inherits the
/// next-lower level's tables and takes the ones its TU exports only when the
/// TU compiled and the CPU runs it, so even an unclamped lookup never lands
/// on a null pointer or an illegal opcode. A table a TU does not export
/// (AVX-512's symbolic one) stays inherited.
const LevelTables& tables() {
  static const LevelTables t = [] {
    LevelTables out;
    out.sym[0] = kScalarSym;
    out.num[0] = kScalarNum;
    out.sym[1] = kSwarSym;
    out.num[1] = kSwarNum;
    const auto install = [&out](std::size_t level, const detail::LevelKernels& k, bool cpu) {
      out.sym[level] = out.sym[level - 1];
      out.num[level] = out.num[level - 1];
      if (k.num == nullptr || !cpu) return;
      if (k.sym != nullptr) out.sym[level] = *k.sym;
      out.num[level] = *k.num;
    };
    install(2, detail::avx2_kernels(), cpu_has_avx2());
    install(3, detail::avx512_kernels(), cpu_has_avx512());
    return out;
  }();
  return t;
}

std::size_t level_index(Level level) {
  const auto i = static_cast<std::size_t>(level);
  return i < static_cast<std::size_t>(kLevelCount) ? i : 0;
}

}  // namespace

const SymbolicOps& symbolic_ops(Level level) { return tables().sym[level_index(level)]; }
const NumericOps& numeric_ops(Level level) { return tables().num[level_index(level)]; }

bool compiled_avx2() { return detail::avx2_kernels().num != nullptr; }
bool compiled_avx512() { return detail::avx512_kernels().num != nullptr; }

bool level_available(Level level) {
  switch (level) {
    case Level::kScalar:
    case Level::kSwar: return true;
    case Level::kAvx2: return compiled_avx2() && cpu_has_avx2();
    case Level::kAvx512: return compiled_avx512() && cpu_has_avx512();
  }
  return false;
}

Level clamp_to_available(Level requested) {
  if (requested >= Level::kAvx512 && level_available(Level::kAvx512)) return Level::kAvx512;
  if (requested >= Level::kAvx2 && level_available(Level::kAvx2)) return Level::kAvx2;
  return requested >= Level::kSwar ? Level::kSwar : Level::kScalar;
}

Level detected_level() {
  // clamp_to_available never drops a >=kSwar request below kSwar, so the
  // detected default is always at least the word-packed kernels.
  static const Level probed = clamp_to_available(Level::kAvx512);
  return probed;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSwar: return "swar";
    case Level::kAvx2: return "avx2";
    case Level::kAvx512: return "avx512";
  }
  return "unknown";
}

Expected<Level> parse_level(std::string_view text) {
  if (text == "scalar") return Level::kScalar;
  if (text == "swar") return Level::kSwar;
  if (text == "avx2") return Level::kAvx2;
  if (text == "avx512") return Level::kAvx512;
  return Status::invalid_argument("unknown SIMD level '" + std::string(text) +
                                  "' (expected scalar, swar, avx2, or avx512)");
}

Level active_level() {
  // Read TSG_SIMD directly (not via Config::from_env) so forcing a level
  // also reaches free-function kernel entry points that never construct a
  // Config; the knob stays registered in kKnownEnvKnobs and documented as
  // the one exception.
  static const Level cached = [] {
    const char* env = std::getenv("TSG_SIMD");
    if (env == nullptr || *env == '\0') return detected_level();
    const Expected<Level> parsed = parse_level(env);
    if (!parsed.ok()) {
      TSG_LOG_WARN("simd.bad_level", {"value", env},
                   {"hint", "expected scalar|swar|avx2|avx512; using auto-detection"});
      return detected_level();
    }
    const Level clamped = clamp_to_available(*parsed);
    if (clamped != *parsed) {
      TSG_LOG_WARN("simd.level_clamped", {"requested", level_name(*parsed)},
                   {"effective", level_name(clamped)},
                   {"hint", "level not supported by this build/host"});
    }
    return clamped;
  }();
  return cached;
}

}  // namespace tsg::simd
