// Markov clustering (MCL) — the machine-learning workload the paper's
// introduction cites (HipMCL, Azad et al.): repeated SpGEMM is the
// expansion step of the algorithm.
//
//   loop: M <- M * M            (expansion   — TileSpGEMM)
//         M <- M .^ r, rescale  (inflation   — element-wise ops)
//         prune tiny entries
// until the column-stochastic matrix converges. Clusters are read off the
// attractor rows. The example builds a graph of three planted communities
// and checks MCL recovers them.
#include <iostream>
#include <set>
#include <vector>

#include "common/random.h"
#include "core/spgemm_context.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "matrix/ops.h"

namespace {

using namespace tsg;

/// Three dense-ish communities with a few random bridges.
Csr<double> planted_communities(index_t community, index_t communities, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<double> coo;
  const index_t n = community * communities;
  coo.rows = coo.cols = n;
  for (index_t c = 0; c < communities; ++c) {
    const index_t base = c * community;
    for (index_t i = 0; i < community; ++i) {
      for (index_t j = 0; j < community; ++j) {
        if (i == j || rng.next_double() < 0.55) {
          coo.push_back(base + i, base + j, 1.0);
        }
      }
    }
  }
  for (int bridges = 0; bridges < 6; ++bridges) {
    const index_t u = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    const index_t v = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    coo.push_back(u, v, 1.0);
    coo.push_back(v, u, 1.0);
  }
  return coo_to_csr(std::move(coo));
}

}  // namespace

int main() {
  const index_t community = 40, communities = 3;
  Csr<double> m = planted_communities(community, communities, 11);
  std::cout << "graph: " << m.rows << " vertices in " << communities
            << " planted communities, " << m.nnz() << " edges\n";

  normalize_columns_inplace(m);
  const double inflation = 2.0;
  const double prune_tol = 1e-4;

  // One context for the whole MCL run: the expansion SpGEMM reuses the
  // pooled workspaces every iteration instead of reallocating them.
  SpgemmContext ctx;
  for (int iter = 0; iter < 24; ++iter) {
    // Expansion: the SpGEMM at the heart of MCL.
    Csr<double> expanded = ctx.try_run(Request<Csr<double>>{&m, &m}).value().c;
    // Inflation + pruning keep the matrix sparse and sharpen clusters.
    pow_inplace(expanded, inflation);
    normalize_columns_inplace(expanded);
    Csr<double> pruned = prune(expanded, prune_tol);
    normalize_columns_inplace(pruned);

    const bool converged =
        pruned.nnz() == m.nnz() && [&] {
          for (std::size_t k = 0; k < pruned.val.size(); ++k) {
            if (std::abs(pruned.val[k] - m.val[k]) > 1e-8) return false;
          }
          return true;
        }();
    m = std::move(pruned);
    if (converged) {
      std::cout << "converged after " << iter + 1 << " iterations, nnz = " << m.nnz() << "\n";
      break;
    }
  }

  // Interpret: column j belongs to the cluster of its attractor (the row
  // holding its largest value).
  std::vector<index_t> owner(static_cast<std::size_t>(m.cols), -1);
  std::vector<double> best(static_cast<std::size_t>(m.cols), -1.0);
  for (index_t i = 0; i < m.rows; ++i) {
    for (offset_t k = m.row_ptr[i]; k < m.row_ptr[i + 1]; ++k) {
      const index_t j = m.col_idx[k];
      if (m.val[k] > best[static_cast<std::size_t>(j)]) {
        best[static_cast<std::size_t>(j)] = m.val[k];
        owner[static_cast<std::size_t>(j)] = i;
      }
    }
  }
  std::set<index_t> attractors(owner.begin(), owner.end());
  std::cout << "clusters found: " << attractors.size() << "\n";

  // Check cluster assignments respect the planted communities: vertices in
  // the same community must share an attractor.
  int violations = 0;
  for (index_t c = 0; c < communities; ++c) {
    const index_t base = c * community;
    for (index_t i = 1; i < community; ++i) {
      if (owner[static_cast<std::size_t>(base + i)] !=
          owner[static_cast<std::size_t>(base)]) {
        ++violations;
      }
    }
  }
  std::cout << "community coherence violations: " << violations << "\n";
  const bool ok = attractors.size() == static_cast<std::size_t>(communities) &&
                  violations == 0;
  std::cout << (ok ? "MCL recovered the planted structure\n"
                   : "MCL result differs from planted structure\n");
  return ok ? 0 : 1;
}
