// Selection and bit-identity contracts for the runtime SIMD dispatch family
// (core/simd_dispatch.h): TSG_SIMD-style level parsing, CPUID clamping, the
// per-primitive A/B of every available level against the scalar oracle, and
// whole-pipeline memcmp identity when a level is forced through the context
// Config. "Bit-identical" is the family's core promise — the vector kernels
// reorder reads, never accumulation.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "common/random.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_context.h"
#include "core/tile_convert.h"
#include "core/tile_spgemm.h"
#include "gen/generators.h"
#include "test_support.h"

namespace tsg {
namespace {

std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> out;
  for (int l = 0; l < simd::kLevelCount; ++l) {
    if (simd::level_available(static_cast<simd::Level>(l))) {
      out.push_back(static_cast<simd::Level>(l));
    }
  }
  return out;
}

// ------------------------------------------------------- level selection --

TEST(SimdSelect, ParseAcceptsEveryLevelName) {
  for (int l = 0; l < simd::kLevelCount; ++l) {
    const auto level = static_cast<simd::Level>(l);
    const Expected<simd::Level> parsed = simd::parse_level(simd::level_name(level));
    ASSERT_TRUE(parsed.ok()) << simd::level_name(level);
    EXPECT_EQ(*parsed, level);
  }
}

TEST(SimdSelect, ParseRejectsUnknownNamesWithStructuredStatus) {
  for (const char* bad : {"", "AVX2", "sse", "avx-512", "scalar "}) {
    const Expected<simd::Level> parsed = simd::parse_level(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    // The message must name the accepted values — it surfaces in the
    // TSG_SIMD warning event and has to be actionable on its own.
    EXPECT_NE(parsed.status().message().find("scalar"), std::string::npos);
  }
}

TEST(SimdSelect, ScalarAndSwarAlwaysAvailable) {
  EXPECT_TRUE(simd::level_available(simd::Level::kScalar));
  EXPECT_TRUE(simd::level_available(simd::Level::kSwar));
  EXPECT_GE(simd::detected_level(), simd::Level::kSwar);
  EXPECT_TRUE(simd::level_available(simd::active_level()));
}

TEST(SimdSelect, ClampIsMonotoneAndLandsOnAvailable) {
  for (int l = 0; l < simd::kLevelCount; ++l) {
    const auto req = static_cast<simd::Level>(l);
    const simd::Level got = simd::clamp_to_available(req);
    EXPECT_LE(got, req);
    EXPECT_TRUE(simd::level_available(got));
    if (simd::level_available(req)) {
      EXPECT_EQ(got, req);
    }
  }
}

TEST(SimdSelect, CompileProbesGateAvxAvailability) {
  if (!simd::compiled_avx2()) {
    EXPECT_FALSE(simd::level_available(simd::Level::kAvx2));
  }
  if (!simd::compiled_avx512()) {
    EXPECT_FALSE(simd::level_available(simd::Level::kAvx512));
  }
}

// -------------------------------------------------- per-primitive vs oracle --

/// Random 16-row tile mask with a controllable density character: mixes
/// empty rows, dense rows, and single-bit rows so the compress/materialize
/// kernels see their edge lanes.
void random_masks(Xoshiro256& rng, rowmask_t m[kTileDim]) {
  for (int r = 0; r < kTileDim; ++r) {
    switch (rng.next_below(4)) {
      case 0: m[r] = 0; break;
      case 1: m[r] = static_cast<rowmask_t>(rng.next()); break;
      case 2: m[r] = 0xFFFF; break;
      default: m[r] = bit_of(static_cast<index_t>(rng.next_below(kTileDim))); break;
    }
  }
}

TEST(SimdPrimitives, MaskOrMatchesScalarOracle) {
  const simd::SymbolicOps& oracle = simd::symbolic_ops(simd::Level::kScalar);
  Xoshiro256 rng(0xA50);
  for (int trial = 0; trial < 200; ++trial) {
    alignas(32) rowmask_t mask_a[kTileDim];
    alignas(32) rowmask_t mask_b[kTileDim];
    random_masks(rng, mask_a);
    random_masks(rng, mask_b);
    std::uint64_t seed_cm[kTileMaskWords] = {rng.next(), rng.next(), rng.next(),
                                             rng.next()};
    std::uint64_t want[kTileMaskWords];
    std::memcpy(want, seed_cm, sizeof(want));
    oracle.mask_or(mask_a, mask_b, want);
    for (const simd::Level level : available_levels()) {
      std::uint64_t got[kTileMaskWords];
      std::memcpy(got, seed_cm, sizeof(got));
      simd::symbolic_ops(level).mask_or(mask_a, mask_b, got);
      ASSERT_EQ(std::memcmp(got, want, sizeof(want)), 0)
          << simd::level_name(level) << " trial " << trial;
    }
  }
}

TEST(SimdPrimitives, DeriveMatchesScalarOracle) {
  const simd::SymbolicOps& oracle = simd::symbolic_ops(simd::Level::kScalar);
  Xoshiro256 rng(0xA51);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint64_t cm[kTileMaskWords] = {rng.next(), rng.next(), rng.next(), rng.next()};
    if (trial == 0) std::memset(cm, 0, sizeof(cm));       // empty tile
    if (trial == 1) std::memset(cm, 0xFF, sizeof(cm));    // full tile (nnz 256)
    alignas(32) rowmask_t want_mask[kTileDim];
    std::uint8_t want_rp[kTileDim];
    const index_t want_nnz = oracle.derive(cm, want_mask, want_rp);
    for (const simd::Level level : available_levels()) {
      alignas(32) rowmask_t got_mask[kTileDim];
      std::uint8_t got_rp[kTileDim];
      const index_t got_nnz = simd::symbolic_ops(level).derive(cm, got_mask, got_rp);
      ASSERT_EQ(got_nnz, want_nnz) << simd::level_name(level) << " trial " << trial;
      ASSERT_EQ(std::memcmp(got_mask, want_mask, sizeof(want_mask)), 0)
          << simd::level_name(level) << " trial " << trial;
      ASSERT_EQ(std::memcmp(got_rp, want_rp, sizeof(want_rp)), 0)
          << simd::level_name(level) << " trial " << trial;
    }
  }
}

template <class T>
void check_compress_level() {
  const simd::NumericOps& oracle = simd::numeric_ops(simd::Level::kScalar);
  Xoshiro256 rng(sizeof(T) == 8 ? 0xA52 : 0xA53);
  for (int trial = 0; trial < 200; ++trial) {
    alignas(64) T acc[kTileNnzMax];
    for (T& v : acc) v = static_cast<T>(rng.next_double() * 2.0 - 1.0);
    alignas(32) rowmask_t mask_c[kTileDim];
    random_masks(rng, mask_c);
    if (trial == 0) std::memset(mask_c, 0xFF, sizeof(mask_c));
    int n = 0;
    for (int r = 0; r < kTileDim; ++r) n += popcount16(mask_c[r]);
    alignas(64) T want[kTileNnzMax];
    simd::compress_tile<T>(oracle, acc, mask_c, want);
    for (const simd::Level level : available_levels()) {
      // Compress may over-store past n (the contract allows whole-vector
      // stores into the thread-local scratch) — only [0, n) is compared.
      alignas(64) T got[kTileNnzMax];
      simd::compress_tile<T>(simd::numeric_ops(level), acc, mask_c, got);
      ASSERT_EQ(std::memcmp(got, want, static_cast<std::size_t>(n) * sizeof(T)), 0)
          << simd::level_name(level) << " trial " << trial << " n " << n;
    }
  }
}

TEST(SimdPrimitives, CompressDoubleMatchesScalarOracle) { check_compress_level<double>(); }

TEST(SimdPrimitives, CompressFloatMatchesScalarOracle) { check_compress_level<float>(); }

TEST(SimdPrimitives, MaterializeIsExactWidthAndMatchesOracle) {
  const simd::NumericOps& oracle = simd::numeric_ops(simd::Level::kScalar);
  Xoshiro256 rng(0xA54);
  for (int trial = 0; trial < 200; ++trial) {
    alignas(32) rowmask_t mask_c[kTileDim];
    random_masks(rng, mask_c);
    if (trial == 0) std::memset(mask_c, 0xFF, sizeof(mask_c));
    int n = 0;
    for (int r = 0; r < kTileDim; ++r) n += popcount16(mask_c[r]);
    std::uint8_t want_row[kTileNnzMax], want_col[kTileNnzMax];
    std::memset(want_row, 0xEE, sizeof(want_row));
    std::memset(want_col, 0xEE, sizeof(want_col));
    oracle.materialize(mask_c, want_row, want_col);
    for (const simd::Level level : available_levels()) {
      std::uint8_t got_row[kTileNnzMax], got_col[kTileNnzMax];
      std::memset(got_row, 0xEE, sizeof(got_row));
      std::memset(got_col, 0xEE, sizeof(got_col));
      simd::numeric_ops(level).materialize(mask_c, got_row, got_col);
      ASSERT_EQ(std::memcmp(got_row, want_row, sizeof(want_row)), 0)
          << simd::level_name(level) << " trial " << trial;
      ASSERT_EQ(std::memcmp(got_col, want_col, sizeof(want_col)), 0)
          << simd::level_name(level) << " trial " << trial;
      // Exact-store contract: materialize targets C's shared arrays, so the
      // sentinel bytes past n must be untouched at EVERY level.
      for (int k = n; k < static_cast<int>(kTileNnzMax); ++k) {
        ASSERT_EQ(got_row[k], 0xEE) << simd::level_name(level) << " over-store at " << k;
        ASSERT_EQ(got_col[k], 0xEE) << simd::level_name(level) << " over-store at " << k;
      }
    }
  }
}

/// Exactly `n` values of T whose last one ends at a page boundary, with an
/// inaccessible page after it: a kernel that reads past B's last value
/// faults here instead of passing silently.
template <class T>
class GuardedValues {
 public:
  explicit GuardedValues(std::size_t n) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    span_ = (n * sizeof(T) + page - 1) / page * page + page;
    void* base = mmap(nullptr, span_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + span_ - page, page, PROT_NONE) != 0) {
      munmap(base_, span_);
      throw std::bad_alloc();
    }
    data_ = reinterpret_cast<T*>(base_ + span_ - page) - n;
  }
  ~GuardedValues() { munmap(base_, span_); }
  GuardedValues(const GuardedValues&) = delete;
  GuardedValues& operator=(const GuardedValues&) = delete;

  T* data() { return data_; }

 private:
  char* base_ = nullptr;
  std::size_t span_ = 0;
  T* data_ = nullptr;
};

/// A value for the accumulate tests: mostly ordinary, with every IEEE
/// special a product or sum can meet.
template <class T>
T special_value(Xoshiro256& rng) {
  using L = std::numeric_limits<T>;
  switch (rng.next_below(12)) {
    case 0: return T{-0.0};
    case 1: return T{0.0};
    case 2: return L::infinity();
    case 3: return -L::infinity();
    case 4: return rng.next_below(2) == 0 ? L::quiet_NaN() : -L::quiet_NaN();
    case 5: return L::denorm_min() * static_cast<T>(1 + rng.next_below(1000));
    case 6: return L::min() * static_cast<T>(rng.next_double());  // subnormal or zero
    case 7: return (rng.next_below(2) == 0 ? T{1} : T{-1}) * L::max() / T{2};
    default: return static_cast<T>(rng.next_double() * 4.0 - 2.0);
  }
}

/// Bit equality, except that any two NaNs match: when both operands of a
/// multiply or add are NaN, x86 returns the first one, and the operand
/// order of a commutative operation is the compiler's choice, not the
/// source's.
template <class T>
bool same_value_bits(T x, T y) {
  if (std::isnan(x) && std::isnan(y)) return true;
  return std::memcmp(&x, &y, sizeof(T)) == 0;
}

template <class T>
void check_accumulate_level() {
  const simd::NumericOps& oracle = simd::numeric_ops(simd::Level::kScalar);
  Xoshiro256 rng(sizeof(T) == 8 ? 0xA55 : 0xA56);
  for (int trial = 0; trial < 300; ++trial) {
    // A's tile: nonzeros of random masks in storage order.
    alignas(32) rowmask_t mask_a[kTileDim];
    random_masks(rng, mask_a);
    std::uint8_t a_row[kTileNnzMax], a_col[kTileNnzMax];
    T a_val[kTileNnzMax];
    index_t a_nnz = 0;
    for (int r = 0; r < kTileDim; ++r) {
      for (int c = 0; c < kTileDim; ++c) {
        if (((mask_a[r] >> c) & 1) == 0) continue;
        a_row[a_nnz] = static_cast<std::uint8_t>(r);
        a_col[a_nnz] = static_cast<std::uint8_t>(c);
        a_val[a_nnz] = special_value<T>(rng);
        ++a_nnz;
      }
    }
    // B's tile: row pointers from its masks, values packed in an
    // exactly sized buffer, so its last non-empty row ends the buffer.
    alignas(32) rowmask_t b_mask[kTileDim];
    random_masks(rng, b_mask);
    if (trial == 0) {
      // One value in the last row: a kernel loading a whole vector of the
      // row would read past the buffer.
      std::memset(b_mask, 0, sizeof(b_mask));
      b_mask[kTileDim - 1] = 0x0001;
      a_nnz = 1;
      a_row[0] = 0;
      a_col[0] = kTileDim - 1;
      a_val[0] = special_value<T>(rng);
    }
    if (trial == 1) {
      // Every B row A names is empty: no lane may change, although a level
      // may still read and write back each row A names.
      for (index_t k = 0; k < a_nnz; ++k) b_mask[a_col[k]] = 0;
    }
    if (trial == 2 || trial == 3) {
      // Only the low (2) or only the high (3) half of each row A names is
      // empty: the other 8-lane half of a double row still gets products.
      const unsigned keep = trial == 2 ? 0xFF00u : 0x00FFu;
      for (index_t k = 0; k < a_nnz; ++k) {
        b_mask[a_col[k]] = static_cast<rowmask_t>((rng.next() | 0x0101u) & keep);
      }
    }
    if (trial == 4) {
      // B's last row is empty and A names it, so that row's values start
      // where B's end: its expand pointer lands on the guard page.
      b_mask[kTileDim - 1] = 0;
      if (a_nnz == 0) {
        a_nnz = 1;
        a_row[0] = 0;
        a_val[0] = special_value<T>(rng);
      }
      a_col[0] = kTileDim - 1;
    }
    if (trial == 5) {
      // A's nonzeros out of row order: a level that keeps a row's run in
      // registers must still see every later visit of the row.
      std::reverse(a_row, a_row + a_nnz);
      std::reverse(a_col, a_col + a_nnz);
      std::reverse(a_val, a_val + a_nnz);
    }
    std::uint8_t b_row_ptr[kTileDim];
    int b_nnz = 0;
    for (int r = 0; r < kTileDim; ++r) {
      b_row_ptr[r] = static_cast<std::uint8_t>(b_nnz);
      b_nnz += popcount16(b_mask[r]);
    }
    GuardedValues<T> b_val(static_cast<std::size_t>(b_nnz));
    for (int k = 0; k < b_nnz; ++k) b_val.data()[k] = special_value<T>(rng);

    alignas(64) T initial[kTileNnzMax];
    for (T& v : initial) v = special_value<T>(rng);
    alignas(64) T want[kTileNnzMax];
    std::memcpy(want, initial, sizeof(want));
    simd::accumulate_tile<T>(oracle, a_row, a_col, a_val, a_nnz, b_row_ptr, b_mask,
                             b_val.data(), want);
    // Lanes some product reaches; every other lane must keep its bits.
    bool touched[kTileNnzMax] = {};
    for (index_t k = 0; k < a_nnz; ++k) {
      for (int c = 0; c < kTileDim; ++c) {
        if (((b_mask[a_col[k]] >> c) & 1) != 0) touched[a_row[k] * kTileDim + c] = true;
      }
    }
    for (const simd::Level level : available_levels()) {
      alignas(64) T got[kTileNnzMax];
      std::memcpy(got, initial, sizeof(got));
      simd::accumulate_tile<T>(simd::numeric_ops(level), a_row, a_col, a_val, a_nnz,
                               b_row_ptr, b_mask, b_val.data(), got);
      for (int i = 0; i < kTileNnzMax; ++i) {
        ASSERT_TRUE(same_value_bits(got[i], want[i]))
            << simd::level_name(level) << " trial " << trial << " lane " << i << ": "
            << got[i] << " vs " << want[i];
        if (!touched[i]) {
          ASSERT_EQ(std::memcmp(&got[i], &initial[i], sizeof(T)), 0)
              << simd::level_name(level) << " trial " << trial << " untouched lane " << i;
        }
      }
    }
  }
}

TEST(SimdPrimitives, AccumulateDoubleMatchesScalarOracle) { check_accumulate_level<double>(); }

TEST(SimdPrimitives, AccumulateFloatMatchesScalarOracle) { check_accumulate_level<float>(); }

/// Every lane of one C row gets acc + a*b with a*b rounded first. The
/// inputs are chosen so a fused multiply-add rounds differently: a*b is
/// 1 - eps^2 exactly, which rounds to 1, so the separately rounded result
/// is 0 while an FMA keeps -eps^2.
template <class T>
void check_accumulate_rounds_product_first(T eps) {
  const T a = T{1} + eps;
  const T b = T{1} - eps;
  volatile T va = a;
  volatile T vb = b;
  volatile T prod = va * vb;
  volatile T sum = prod + T{-1};
  const T want = sum;
  ASSERT_EQ(want, T{0});
  const std::uint8_t a_row[1] = {3};
  const std::uint8_t a_col[1] = {5};
  std::uint8_t b_row_ptr[kTileDim] = {};
  rowmask_t b_mask[kTileDim] = {};
  b_mask[5] = 0xFFFF;
  for (int r = 6; r < kTileDim; ++r) b_row_ptr[r] = kTileDim;
  T b_val[kTileDim];
  for (T& v : b_val) v = b;
  for (const simd::Level level : available_levels()) {
    alignas(64) T acc[kTileNnzMax];
    for (T& v : acc) v = T{-1};
    simd::accumulate_tile<T>(simd::numeric_ops(level), a_row, a_col, &a, 1, b_row_ptr, b_mask,
                             b_val, acc);
    for (int c = 0; c < kTileDim; ++c) {
      const T got = acc[3 * kTileDim + c];
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(T)), 0)
          << simd::level_name(level) << " lane " << c << ": " << got;
    }
  }
}

TEST(SimdPrimitives, AccumulateRoundsProductBeforeAdd) {
  check_accumulate_rounds_product_first<double>(0x1p-30);
  check_accumulate_rounds_product_first<float>(0x1p-13f);
}

// -------------------------------------------------- whole-pipeline identity --

template <class V>
void expect_bytes_equal(const tracked_vector<V>& x, const tracked_vector<V>& y,
                        const std::string& what) {
  ASSERT_EQ(x.size(), y.size()) << what << " size";
  if (!x.empty()) {
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(V)), 0) << what;
  }
}

template <class T>
void expect_tiles_identical(const TileMatrix<T>& x, const TileMatrix<T>& y,
                            const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(x.rows, y.rows);
  ASSERT_EQ(x.cols, y.cols);
  expect_bytes_equal(x.tile_ptr, y.tile_ptr, "tile_ptr");
  expect_bytes_equal(x.tile_col_idx, y.tile_col_idx, "tile_col_idx");
  expect_bytes_equal(x.tile_nnz, y.tile_nnz, "tile_nnz");
  expect_bytes_equal(x.row_ptr, y.row_ptr, "row_ptr");
  expect_bytes_equal(x.row_idx, y.row_idx, "row_idx");
  expect_bytes_equal(x.col_idx, y.col_idx, "col_idx");
  expect_bytes_equal(x.mask, y.mask, "mask");
  expect_bytes_equal(x.val, y.val, "val");
}

Csr<double> fuzz_matrix(std::uint64_t seed) {
  Xoshiro256 rng(seed * 6364136223846793005ull + 1442695040888963407ull);
  const index_t n = 16 + static_cast<index_t>(rng.next_below(280));
  switch (rng.next_below(5)) {
    case 0: return gen::erdos_renyi(n, n, static_cast<offset_t>(n) * 4, rng.next());
    case 1: return gen::dense_blocks(1 + n / 24, 16, rng.next());
    case 2: return gen::banded(n, 1 + static_cast<index_t>(rng.next_below(30)), rng.next());
    case 3: return gen::clustered_rows(n, 3, 8, rng.next());
    default: return gen::rmat(8, 6.0, rng.next());
  }
}

/// The CSR path writes C's rows straight from step 3; they must equal, byte
/// for byte, tile_to_csr of the tile-layout C the same context produced.
template <class T>
void expect_csr_run_matches(SpgemmContext& ctx, const Csr<T>& a, const Csr<T>& b,
                            const TileMatrix<T>& tile_c, const std::string& context) {
  Expected<SpgemmResult<Csr<T>>> got = ctx.try_run(Request<Csr<T>>{&a, &b});
  ASSERT_TRUE(got.ok()) << context << ": " << got.status().to_string();
  test::expect_csr_bytes_equal(tile_to_csr(tile_c), got->c, context + " csr");
}

/// C = A * B in tile form through `ctx`.
template <class T>
TileSpgemmResult<T> tile_run(SpgemmContext& ctx, const TileMatrix<T>& a, const TileMatrix<T>& b) {
  return ctx.try_run(Request<TileMatrix<T>>{&a, &b}).value();
}

class ForcedLevelAb : public ::testing::TestWithParam<int> {};

TEST_P(ForcedLevelAb, EveryLevelMatchesScalarEndToEnd) {
  const Csr<double> a = fuzz_matrix(static_cast<std::uint64_t>(GetParam()) + 7000);
  const TileMatrix<double> t = csr_to_tile(a);
  SpgemmContext scalar(SpgemmContext::Config{}.with_simd_level(simd::Level::kScalar));
  const TileMatrix<double> gold = tile_run(scalar, t, t).c;
  for (const simd::Level level : available_levels()) {
    SpgemmContext forced(SpgemmContext::Config{}.with_simd_level(level));
    const std::string what =
        std::string(simd::level_name(level)) + " seed " + std::to_string(GetParam());
    const TileMatrix<double> got = tile_run(forced, t, t).c;
    expect_tiles_identical(gold, got, what);
    expect_csr_run_matches(forced, a, a, got, what);
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ForcedLevelAb, ::testing::Range(0, 16));

TEST(ForcedLevelAb, FloatPipelineMatchesScalarEndToEnd) {
  const Csr<float> a = gen::cast_values<float>(gen::dense_blocks(10, 16, 4212));
  const TileMatrix<float> t = csr_to_tile(a);
  SpgemmContext scalar(SpgemmContext::Config{}.with_simd_level(simd::Level::kScalar));
  const TileMatrix<float> gold = tile_run(scalar, t, t).c;
  for (const simd::Level level : available_levels()) {
    SpgemmContext forced(SpgemmContext::Config{}.with_simd_level(level));
    const TileMatrix<float> got = tile_run(forced, t, t).c;
    expect_tiles_identical(gold, got, simd::level_name(level));
    expect_csr_run_matches(forced, a, a, got, simd::level_name(level));
  }
}

TEST(ForcedLevelAb, RectangularAndEmptyProductsMatchThroughCsr) {
  // A rectangular A*B with B != A (no dimension a multiple of 16), and a
  // product whose only step-1 tile turns out empty.
  const std::pair<Csr<double>, Csr<double>> products[] = {
      {test::make_er_rect(), test::make_er_rect_rhs()},
      {test::make_empty_product_lhs(), test::make_empty_product_rhs()},
  };
  for (const auto& [a, b] : products) {
    const TileMatrix<double> ta = csr_to_tile(a);
    const TileMatrix<double> tb = csr_to_tile(b);
    SpgemmContext scalar(SpgemmContext::Config{}.with_simd_level(simd::Level::kScalar));
    const TileMatrix<double> gold = tile_run(scalar, ta, tb).c;
    const std::string shape = std::to_string(a.rows) + "x" + std::to_string(b.cols);
    for (const simd::Level level : available_levels()) {
      SpgemmContext forced(SpgemmContext::Config{}.with_simd_level(level));
      const std::string what = shape + " " + simd::level_name(level);
      const TileMatrix<double> got = tile_run(forced, ta, tb).c;
      expect_tiles_identical(gold, got, what);
      expect_csr_run_matches(forced, a, b, got, what);
    }
  }
  SpgemmContext ctx;
  const Csr<double> lhs = test::make_empty_product_lhs();
  const Csr<double> rhs = test::make_empty_product_rhs();
  const Csr<double> empty = ctx.try_run(Request<Csr<double>>{&lhs, &rhs}).value().c;
  EXPECT_EQ(empty.nnz(), 0);
  EXPECT_EQ(empty.row_ptr, tracked_vector<offset_t>(21, 0));
}

// ------------------------------------------------------------ observability --

TEST(SimdObservability, TimingsReportTheResolvedLevel) {
  const TileMatrix<double> t = csr_to_tile(gen::dense_blocks(4, 16, 11));
  for (const simd::Level level : available_levels()) {
    SpgemmContext ctx(SpgemmContext::Config{}.with_simd_level(level));
    EXPECT_EQ(tile_run(ctx, t, t).timings.simd_level, static_cast<int>(level))
        << simd::level_name(level);
  }
  // Requests above what the host supports clamp, and the timings report the
  // level that actually ran, not the request.
  SpgemmContext top(SpgemmContext::Config{}.with_simd_level(simd::Level::kAvx512));
  EXPECT_EQ(tile_run(top, t, t).timings.simd_level,
            static_cast<int>(simd::clamp_to_available(simd::Level::kAvx512)));
}

}  // namespace
}  // namespace tsg
