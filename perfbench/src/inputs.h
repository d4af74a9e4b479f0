// Seeded input generators and serial references of the benchmark.
//
// The generators live here rather than in src/gen so that an edit to the
// library's own generators can never change the inputs under a comparison
// of two commits. Structure comes from a counter-based RNG with explicit
// bit-level conversions, so one seed gives the same matrices with any
// standard library.
#pragma once

#include <cstdint>
#include <string>

#include "matrix/csr.h"

namespace perfbench {

using tsg::Csr;
using tsg::index_t;
using tsg::offset_t;

/// splitmix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  /// Nonzero value in [0.1, 1.1), so products never cancel to exact zero.
  double value() { return 0.1 + uniform(); }

 private:
  std::uint64_t state_;
};

/// Derive an independent stream for input `salt` of run seed `seed`.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng r(seed * 0x9e3779b97f4a7c15ull + salt);
  return r.next();
}

// Generators. Values are drawn from Rng::value() unless stated otherwise.

/// Uniform random pattern with about `nnz_target` entries (duplicates merge).
Csr<double> gen_erdos_renyi(index_t n, offset_t nnz_target, Rng& rng);
/// R-MAT power-law graph on 2^scale vertices with about edge_factor * n edges.
Csr<double> gen_rmat(int scale, double edge_factor, double a, double b, double c, Rng& rng);
/// FEM-style rows: the diagonal plus `clusters` runs of `run_len` consecutive
/// columns centred within +-`reach` of the row.
Csr<double> gen_clustered_rows(index_t n, int clusters, int run_len, index_t reach, Rng& rng);
/// Row i holds every column in [i - half_bw, i + half_bw].
Csr<double> gen_banded(index_t n, index_t half_bw, Rng& rng);
/// 27-point stencil on an nx * ny * nz grid.
Csr<double> gen_stencil27(index_t nx, index_t ny, index_t nz, Rng& rng);
/// Block diagonal of `blocks` dense block_dim x block_dim blocks.
Csr<double> gen_dense_blocks(index_t blocks, index_t block_dim, Rng& rng);

/// Strictly lower triangle of the symmetrised pattern of `a`, all values
/// 1.0: the L of triangle counting, (L * L) .* L.
Csr<double> lower_triangle_ones(const Csr<double>& a);

/// Intermediate products of A * B: sum over A(i,k) of nnz(B row k).
std::uint64_t count_products(const Csr<double>& a, const Csr<double>& b);
/// Intermediate products of A * B that land inside structure(mask).
std::uint64_t count_masked_products(const Csr<double>& a, const Csr<double>& b,
                                    const Csr<double>& mask);

/// Serial reference of C = (A * B) .* structure(mask): entries where at
/// least one product lands inside the mask, products summed in ascending k.
Csr<double> reference_masked(const Csr<double>& a, const Csr<double>& b,
                             const Csr<double>& mask);
/// Serial reference of the min-plus product over the structural product.
Csr<double> reference_min_plus(const Csr<double>& a, const Csr<double>& b);

/// One line describing an input: rows, nnz, nnz per 16x16 tile, and the
/// flops and compression rate of its product.
std::string describe_input(const std::string& name, const Csr<double>& a,
                           std::uint64_t products, offset_t c_nnz);

}  // namespace perfbench
