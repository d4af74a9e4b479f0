#include "inputs.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/config.h"

namespace perfbench {
namespace {

/// CSR from (row, col) keys packed as row << 32 | col: sorted, duplicates
/// merged, values drawn in row-major order.
Csr<double> from_keys(index_t rows, index_t cols, std::vector<std::uint64_t>& keys, Rng& rng) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  Csr<double> m(rows, cols);
  m.col_idx.resize(keys.size());
  m.val.resize(keys.size());
  for (std::size_t e = 0; e < keys.size(); ++e) {
    const auto r = static_cast<std::size_t>(keys[e] >> 32);
    m.row_ptr[r + 1] += 1;
    m.col_idx[e] = static_cast<index_t>(keys[e] & 0xffffffffu);
    m.val[e] = rng.value();
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    m.row_ptr[r + 1] += m.row_ptr[r];
  }
  return m;
}

std::uint64_t key(index_t r, index_t c) {
  return static_cast<std::uint64_t>(r) << 32 | static_cast<std::uint32_t>(c);
}

std::uint64_t count_tiles(const Csr<double>& a) {
  const index_t tile_cols = (a.cols + tsg::kTileDim - 1) / tsg::kTileDim;
  std::vector<index_t> seen(static_cast<std::size_t>(tile_cols), -1);
  std::uint64_t tiles = 0;
  for (index_t r = 0; r < a.rows; ++r) {
    const index_t tr = r / tsg::kTileDim;
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      index_t& s = seen[static_cast<std::size_t>(a.col_idx[p] / tsg::kTileDim)];
      if (s != tr) {
        s = tr;
        ++tiles;
      }
    }
  }
  return tiles;
}

}  // namespace

Csr<double> gen_erdos_renyi(index_t n, offset_t nnz_target, Rng& rng) {
  std::vector<std::uint64_t> keys(static_cast<std::size_t>(nnz_target));
  for (auto& k : keys) {
    k = key(static_cast<index_t>(rng.below(n)), static_cast<index_t>(rng.below(n)));
  }
  return from_keys(n, n, keys, rng);
}

Csr<double> gen_rmat(int scale, double edge_factor, double a, double b, double c, Rng& rng) {
  const index_t n = index_t{1} << scale;
  const auto edges = static_cast<std::size_t>(edge_factor * n);
  std::vector<std::uint64_t> keys(edges);
  for (auto& k : keys) {
    index_t r = 0, col = 0;
    for (int level = 0; level < scale; ++level) {
      const double u = rng.uniform();
      const int quadrant = u < a ? 0 : u < a + b ? 1 : u < a + b + c ? 2 : 3;
      r = r << 1 | (quadrant >> 1);
      col = col << 1 | (quadrant & 1);
    }
    k = key(r, col);
  }
  return from_keys(n, n, keys, rng);
}

Csr<double> gen_clustered_rows(index_t n, int clusters, int run_len, index_t reach, Rng& rng) {
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(n) * (clusters * run_len + 1));
  for (index_t r = 0; r < n; ++r) {
    keys.push_back(key(r, r));
    for (int cl = 0; cl < clusters; ++cl) {
      const index_t lo = std::max<index_t>(0, r - reach);
      const index_t hi = std::min<index_t>(n - run_len, r + reach);
      const index_t start = lo + static_cast<index_t>(rng.below(hi - lo + 1));
      for (int k = 0; k < run_len; ++k) keys.push_back(key(r, start + k));
    }
  }
  return from_keys(n, n, keys, rng);
}

Csr<double> gen_banded(index_t n, index_t half_bw, Rng& rng) {
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(n) * (2 * half_bw + 1));
  for (index_t r = 0; r < n; ++r) {
    for (index_t c = std::max<index_t>(0, r - half_bw); c <= std::min(n - 1, r + half_bw); ++c) {
      keys.push_back(key(r, c));
    }
  }
  return from_keys(n, n, keys, rng);
}

Csr<double> gen_stencil27(index_t nx, index_t ny, index_t nz, Rng& rng) {
  const index_t n = nx * ny * nz;
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(n) * 27);
  for (index_t z = 0; z < nz; ++z) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        const index_t r = (z * ny + y) * nx + x;
        for (index_t dz = -1; dz <= 1; ++dz) {
          for (index_t dy = -1; dy <= 1; ++dy) {
            for (index_t dx = -1; dx <= 1; ++dx) {
              const index_t xx = x + dx, yy = y + dy, zz = z + dz;
              if (xx < 0 || yy < 0 || zz < 0 || xx >= nx || yy >= ny || zz >= nz) continue;
              keys.push_back(key(r, (zz * ny + yy) * nx + xx));
            }
          }
        }
      }
    }
  }
  return from_keys(n, n, keys, rng);
}

Csr<double> gen_dense_blocks(index_t blocks, index_t block_dim, Rng& rng) {
  const index_t n = blocks * block_dim;
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(n) * block_dim);
  for (index_t r = 0; r < n; ++r) {
    const index_t base = r / block_dim * block_dim;
    for (index_t c = base; c < base + block_dim; ++c) keys.push_back(key(r, c));
  }
  return from_keys(n, n, keys, rng);
}

Csr<double> lower_triangle_ones(const Csr<double>& a) {
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(a.nnz()));
  for (index_t r = 0; r < a.rows; ++r) {
    for (offset_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      const index_t c = a.col_idx[p];
      if (c < r) keys.push_back(key(r, c));
      if (c > r) keys.push_back(key(c, r));
    }
  }
  Rng values(0);  // from_keys draws values; triangle counting wants ones
  Csr<double> l = from_keys(a.rows, a.cols, keys, values);
  std::fill(l.val.begin(), l.val.end(), 1.0);
  return l;
}

std::uint64_t count_products(const Csr<double>& a, const Csr<double>& b) {
  std::uint64_t products = 0;
  for (offset_t p = 0; p < a.nnz(); ++p) {
    const index_t k = a.col_idx[p];
    products += static_cast<std::uint64_t>(b.row_ptr[k + 1] - b.row_ptr[k]);
  }
  return products;
}

std::uint64_t count_masked_products(const Csr<double>& a, const Csr<double>& b,
                                    const Csr<double>& mask) {
  std::vector<index_t> mark(static_cast<std::size_t>(b.cols), -1);
  std::uint64_t products = 0;
  for (index_t i = 0; i < a.rows; ++i) {
    for (offset_t p = mask.row_ptr[i]; p < mask.row_ptr[i + 1]; ++p) mark[mask.col_idx[p]] = i;
    for (offset_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      const index_t k = a.col_idx[p];
      for (offset_t q = b.row_ptr[k]; q < b.row_ptr[k + 1]; ++q) {
        if (mark[b.col_idx[q]] == i) ++products;
      }
    }
  }
  return products;
}

namespace {

/// Serial Gustavson over a dense stamped accumulator, with `reduce` folding
/// each product into its slot and `admit(i, j)` filtering output columns.
template <class Combine, class Reduce, class Admit>
Csr<double> gustavson(const Csr<double>& a, const Csr<double>& b, Combine combine,
                      Reduce reduce, Admit admit) {
  Csr<double> c(a.rows, b.cols);
  std::vector<index_t> stamp(static_cast<std::size_t>(b.cols), -1);
  std::vector<double> acc(static_cast<std::size_t>(b.cols), 0.0);
  std::vector<index_t> cols;
  for (index_t i = 0; i < a.rows; ++i) {
    cols.clear();
    for (offset_t p = a.row_ptr[i]; p < a.row_ptr[i + 1]; ++p) {
      const index_t k = a.col_idx[p];
      for (offset_t q = b.row_ptr[k]; q < b.row_ptr[k + 1]; ++q) {
        const index_t j = b.col_idx[q];
        if (!admit(i, j)) continue;
        const double v = combine(a.val[p], b.val[q]);
        if (stamp[j] != i) {
          stamp[j] = i;
          acc[j] = v;
          cols.push_back(j);
        } else {
          acc[j] = reduce(acc[j], v);
        }
      }
    }
    std::sort(cols.begin(), cols.end());
    for (index_t j : cols) {
      c.col_idx.push_back(j);
      c.val.push_back(acc[j]);
    }
    c.row_ptr[i + 1] = static_cast<offset_t>(c.col_idx.size());
  }
  return c;
}

}  // namespace

Csr<double> reference_masked(const Csr<double>& a, const Csr<double>& b,
                             const Csr<double>& mask) {
  std::vector<index_t> mark(static_cast<std::size_t>(b.cols), -1);
  index_t marked_row = -1;
  return gustavson(
      a, b, [](double x, double y) { return x * y; }, [](double x, double y) { return x + y; },
      [&](index_t i, index_t j) {
        if (marked_row != i) {
          for (offset_t p = mask.row_ptr[i]; p < mask.row_ptr[i + 1]; ++p) {
            mark[mask.col_idx[p]] = i;
          }
          marked_row = i;
        }
        return mark[j] == i;
      });
}

Csr<double> reference_min_plus(const Csr<double>& a, const Csr<double>& b) {
  return gustavson(
      a, b, [](double x, double y) { return x + y; },
      [](double x, double y) { return std::min(x, y); }, [](index_t, index_t) { return true; });
}

std::string describe_input(const std::string& name, const Csr<double>& a,
                           std::uint64_t products, offset_t c_nnz) {
  const std::uint64_t tiles = count_tiles(a);
  char line[256];
  std::snprintf(line, sizeof(line),
                "input %-18s rows=%d nnz=%lld nnz_per_tile=%.2f flops=%.4g compression=%.2f",
                name.c_str(), a.rows, static_cast<long long>(a.nnz()),
                tiles ? static_cast<double>(a.nnz()) / static_cast<double>(tiles) : 0.0,
                2.0 * static_cast<double>(products),
                c_nnz ? static_cast<double>(products) / static_cast<double>(c_nnz) : 0.0);
  return line;
}

}  // namespace perfbench
