#include "gen/generators.h"

#include <algorithm>
#include <stdexcept>

#include "common/random.h"
#include "common/status.h"
#include "matrix/convert.h"

namespace tsg::gen {

namespace {

double draw_value(Xoshiro256& rng, const ValueDist& dist) {
  return dist.lo + (dist.hi - dist.lo) * rng.next_double();
}

}  // namespace

Csr<double> erdos_renyi(index_t rows, index_t cols, offset_t nnz_target, std::uint64_t seed,
                        ValueDist dist) {
  if (rows <= 0 || cols <= 0) throw std::invalid_argument("erdos_renyi: empty shape");
  Xoshiro256 rng(seed);
  Coo<double> coo;
  coo.rows = rows;
  coo.cols = cols;
  coo.reserve(static_cast<std::size_t>(nnz_target));
  for (offset_t k = 0; k < nnz_target; ++k) {
    const index_t r = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(rows)));
    const index_t c = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(cols)));
    coo.push_back(r, c, draw_value(rng, dist));
  }
  return coo_to_csr(std::move(coo));
}

Csr<double> rmat(int scale, double edge_factor, std::uint64_t seed, double a, double b,
                 double c, ValueDist dist) {
  if (scale < 1 || scale > 26) throw std::invalid_argument("rmat: scale out of range");
  const double d = 1.0 - a - b - c;
  if (d < 0.0) throw std::invalid_argument("rmat: probabilities exceed 1");
  const index_t n = index_t{1} << scale;
  const offset_t edges = static_cast<offset_t>(edge_factor * static_cast<double>(n));

  Xoshiro256 rng(seed);
  Coo<double> coo;
  coo.rows = n;
  coo.cols = n;
  coo.reserve(static_cast<std::size_t>(edges));
  for (offset_t e = 0; e < edges; ++e) {
    index_t r = 0, col = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double u = rng.next_double();
      // Quadrant choice with light per-level noise, as in the Graph500
      // generator, to avoid exactly self-similar artifacts.
      const double na = a * (0.95 + 0.1 * rng.next_double());
      const double nb = b * (0.95 + 0.1 * rng.next_double());
      const double nc = c * (0.95 + 0.1 * rng.next_double());
      const double norm = na + nb + nc + d * (0.95 + 0.1 * rng.next_double());
      const double x = u * norm;
      r <<= 1;
      col <<= 1;
      if (x < na) {
        // top-left
      } else if (x < na + nb) {
        col |= 1;
      } else if (x < na + nb + nc) {
        r |= 1;
      } else {
        r |= 1;
        col |= 1;
      }
    }
    coo.push_back(r, col, draw_value(rng, dist));
  }
  return coo_to_csr(std::move(coo));
}

namespace {

Csr<double> stencil_2d(index_t nx, index_t ny, bool nine_point) {
  if (nx <= 0 || ny <= 0) throw std::invalid_argument("stencil: empty grid");
  const index_t n = nx * ny;
  Coo<double> coo;
  coo.rows = n;
  coo.cols = n;
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) {
      const index_t row = y * nx + x;
      for (index_t dy = -1; dy <= 1; ++dy) {
        for (index_t dx = -1; dx <= 1; ++dx) {
          // The 5-point stencil skips the diagonal neighbours.
          if (!nine_point && dx != 0 && dy != 0) continue;
          const index_t xx = x + dx;
          const index_t yy = y + dy;
          if (xx < 0 || xx >= nx || yy < 0 || yy >= ny) continue;
          const index_t col = yy * nx + xx;
          coo.push_back(row, col, row == col ? 4.0 : -0.5);
        }
      }
    }
  }
  return coo_to_csr(std::move(coo));
}

}  // namespace

Csr<double> stencil_5pt(index_t nx, index_t ny) { return stencil_2d(nx, ny, false); }
Csr<double> stencil_9pt(index_t nx, index_t ny) { return stencil_2d(nx, ny, true); }

Csr<double> stencil_27pt(index_t nx, index_t ny, index_t nz) {
  if (nx <= 0 || ny <= 0 || nz <= 0) throw std::invalid_argument("stencil: empty grid");
  const index_t n = nx * ny * nz;
  Coo<double> coo;
  coo.rows = n;
  coo.cols = n;
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t row = (z * ny + y) * nx + x;
        for (index_t dz = -1; dz <= 1; ++dz) {
          for (index_t dy = -1; dy <= 1; ++dy) {
            for (index_t dx = -1; dx <= 1; ++dx) {
              const index_t xx = x + dx, yy = y + dy, zz = z + dz;
              if (xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz) continue;
              const index_t col = (zz * ny + yy) * nx + xx;
              coo.push_back(row, col, row == col ? 26.0 : -1.0);
            }
          }
        }
      }
    }
  }
  return coo_to_csr(std::move(coo));
}

Csr<double> banded(index_t n, index_t half_bw, std::uint64_t seed, ValueDist dist) {
  if (n <= 0 || half_bw < 0) throw std::invalid_argument("banded: bad shape");
  Xoshiro256 rng(seed);
  Csr<double> a(n, n);
  for (index_t i = 0; i < n; ++i) {
    const index_t lo = i - half_bw > 0 ? i - half_bw : 0;
    const index_t hi = i + half_bw < n - 1 ? i + half_bw : n - 1;
    for (index_t j = lo; j <= hi; ++j) {
      a.col_idx.push_back(j);
      a.val.push_back(draw_value(rng, dist));
    }
    a.row_ptr[i + 1] = static_cast<offset_t>(a.col_idx.size());
  }
  return a;
}

Csr<double> column_plus_diagonal(index_t n, std::uint64_t seed, ValueDist dist) {
  if (n <= 0) throw std::invalid_argument("column_plus_diagonal: empty shape");
  Xoshiro256 rng(seed);
  Csr<double> a(n, n);
  for (index_t i = 0; i < n; ++i) {
    a.col_idx.push_back(0);
    a.val.push_back(draw_value(rng, dist));
    if (i > 0) {
      a.col_idx.push_back(i);
      a.val.push_back(draw_value(rng, dist));
    }
    a.row_ptr[i + 1] = static_cast<offset_t>(a.col_idx.size());
  }
  return a;
}

Csr<double> dense_blocks(index_t blocks, index_t block_dim, std::uint64_t seed,
                         ValueDist dist) {
  if (blocks <= 0 || block_dim <= 0) throw std::invalid_argument("dense_blocks: bad shape");
  Xoshiro256 rng(seed);
  const index_t n = blocks * block_dim;
  Csr<double> a(n, n);
  a.col_idx.reserve(checked_size_mul(n, static_cast<std::size_t>(block_dim)));
  a.val.reserve(a.col_idx.capacity());
  for (index_t i = 0; i < n; ++i) {
    const index_t base = (i / block_dim) * block_dim;
    for (index_t j = base; j < base + block_dim; ++j) {
      a.col_idx.push_back(j);
      a.val.push_back(draw_value(rng, dist));
    }
    a.row_ptr[i + 1] = static_cast<offset_t>(a.col_idx.size());
  }
  return a;
}

Csr<double> clustered_rows(index_t n, int clusters, int run_len, std::uint64_t seed,
                           ValueDist dist) {
  if (n <= 0 || clusters < 1 || run_len < 1)
    throw std::invalid_argument("clustered_rows: bad shape");
  Xoshiro256 rng(seed);
  Coo<double> coo;
  coo.rows = n;
  coo.cols = n;
  coo.reserve(checked_size_mul(static_cast<std::size_t>(n),
                               static_cast<std::size_t>(clusters * run_len + 1)));
  for (index_t i = 0; i < n; ++i) {
    coo.push_back(i, i, draw_value(rng, dist));
    for (int c = 0; c < clusters; ++c) {
      // Centres biased near the diagonal: FEM meshes have mostly local
      // couplings; allow occasional long-range runs.
      index_t centre;
      if (rng.next_double() < 0.8) {
        const index_t spread = n / 16 + run_len;
        const index_t offset =
            static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(2 * spread + 1))) -
            spread;
        centre = i + offset;
      } else {
        centre = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
      }
      for (int r = 0; r < run_len; ++r) {
        const index_t j = centre + r;
        if (j >= 0 && j < n) coo.push_back(i, j, draw_value(rng, dist));
      }
    }
  }
  return coo_to_csr(std::move(coo));
}

Csr<double> symmetrized(const Csr<double>& a) {
  Coo<double> coo = csr_to_coo(a);
  const std::size_t original = coo.val.size();
  for (std::size_t k = 0; k < original; ++k) {
    if (coo.row[k] != coo.col[k]) coo.push_back(coo.col[k], coo.row[k], coo.val[k]);
  }
  // Where both (i,j) and (j,i) already existed the combine sums them;
  // the result is pattern-symmetric, which is all the structural
  // experiments need.
  return coo_to_csr(std::move(coo));
}

Csr<double> kronecker(const Csr<double>& a, const Csr<double>& b) {
  Csr<double> c(a.rows * b.rows, a.cols * b.cols);
  c.col_idx.reserve(checked_size_mul(a.nnz(), static_cast<std::size_t>(b.nnz())));
  c.val.reserve(c.col_idx.capacity());
  // Row (ia, ib) of C is the outer product of A's row ia with B's row ib;
  // emitting A-entries outermost keeps columns sorted.
  for (index_t ia = 0; ia < a.rows; ++ia) {
    for (index_t ib = 0; ib < b.rows; ++ib) {
      for (offset_t ka = a.row_ptr[ia]; ka < a.row_ptr[ia + 1]; ++ka) {
        const index_t col_base = a.col_idx[ka] * b.cols;
        const double va = a.val[ka];
        for (offset_t kb = b.row_ptr[ib]; kb < b.row_ptr[ib + 1]; ++kb) {
          c.col_idx.push_back(col_base + b.col_idx[kb]);
          c.val.push_back(va * b.val[kb]);
        }
      }
      c.row_ptr[ia * b.rows + ib + 1] = static_cast<offset_t>(c.col_idx.size());
    }
  }
  return c;
}

}  // namespace tsg::gen
