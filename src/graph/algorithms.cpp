#include "graph/algorithms.h"

#include <cmath>
#include <stdexcept>

#include "core/semiring_spgemm.h"
#include "core/tile_convert.h"
#include "core/tile_transpose.h"
#include "matrix/convert.h"
#include "matrix/ops.h"

namespace tsg::graph {

tracked_vector<index_t> bfs_levels(const Csr<double>& adj, index_t source) {
  if (adj.rows != adj.cols) throw std::invalid_argument("bfs: adjacency must be square");
  if (source < 0 || source >= adj.rows) throw std::invalid_argument("bfs: bad source");
  const index_t n = adj.rows;

  // (A^T x)[j] = OR_i (A[i][j] AND x[i]): out-neighbour expansion of the
  // frontier. Transpose once, in tile form.
  const TileMatrix<double> at = tile_transpose(csr_to_tile(adj));

  tracked_vector<index_t> level(static_cast<std::size_t>(n), -1);
  tracked_vector<double> frontier(static_cast<std::size_t>(n), 0.0);
  tracked_vector<double> next;
  level[static_cast<std::size_t>(source)] = 0;
  frontier[static_cast<std::size_t>(source)] = 1.0;

  for (index_t depth = 1; depth <= n; ++depth) {
    tile_spmv_semiring<OrAnd<double>>(at, frontier, next);
    bool advanced = false;
    for (index_t v = 0; v < n; ++v) {
      const std::size_t sv = static_cast<std::size_t>(v);
      if (next[sv] != 0.0 && level[sv] < 0) {
        level[sv] = depth;
        frontier[sv] = 1.0;
        advanced = true;
      } else {
        frontier[sv] = 0.0;
      }
    }
    if (!advanced) break;
  }
  return level;
}

tracked_vector<double> apsp_min_plus(const Csr<double>& weights) {
  if (weights.rows != weights.cols) throw std::invalid_argument("apsp: square input needed");
  const index_t n = weights.rows;
  for (double w : weights.val) {
    if (w < 0.0) throw std::invalid_argument("apsp: negative weights unsupported");
  }

  // D_1 = min(W, 0 on the diagonal). The diagonal must be explicit so the
  // structural min-plus product can keep "stay in place" paths.
  Coo<double> coo = csr_to_coo(weights);
  for (index_t i = 0; i < n; ++i) coo.push_back(i, i, 0.0);
  Csr<double> d = coo_to_csr(std::move(coo));
  // Duplicate (i,i) entries were summed by coo_to_csr; force the diagonal
  // back to zero (a path of length 0 beats any self-loop).
  for (index_t i = 0; i < n; ++i) {
    for (offset_t k = d.row_ptr[i]; k < d.row_ptr[i + 1]; ++k) {
      if (d.col_idx[k] == i) d.val[k] = 0.0;
    }
  }

  // Repeated squaring: D_{2k} = D_k (min.+) D_k, log2(n) rounds through
  // one context, so every round after the first reuses its workspaces.
  TileMatrix<double> td = csr_to_tile(d);
  const int rounds = n > 1 ? static_cast<int>(std::ceil(std::log2(n))) : 0;
  SpgemmContext ctx;
  for (int r = 0; r < rounds; ++r) {
    td = ctx.try_run(Request<TileMatrix<double>, MinPlus<double>>{&td, &td}).value().c;
  }
  const Csr<double> closure = tile_to_csr(td);

  tracked_vector<double> dist(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                              std::numeric_limits<double>::infinity());
  for (index_t i = 0; i < n; ++i) {
    for (offset_t k = closure.row_ptr[i]; k < closure.row_ptr[i + 1]; ++k) {
      dist[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(closure.col_idx[k])] = closure.val[k];
    }
  }
  return dist;
}

tracked_vector<index_t> connected_components(const Csr<double>& adj) {
  if (adj.rows != adj.cols) throw std::invalid_argument("components: square input needed");
  const index_t n = adj.rows;
  tracked_vector<index_t> label(static_cast<std::size_t>(n), -1);
  for (index_t v = 0; v < n; ++v) {
    if (label[static_cast<std::size_t>(v)] >= 0) continue;
    const tracked_vector<index_t> level = bfs_levels(adj, v);
    for (index_t u = 0; u < n; ++u) {
      if (level[static_cast<std::size_t>(u)] >= 0 && label[static_cast<std::size_t>(u)] < 0) {
        label[static_cast<std::size_t>(u)] = v;
      }
    }
  }
  return label;
}

}  // namespace tsg::graph
