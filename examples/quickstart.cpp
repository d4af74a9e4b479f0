// Quickstart: build two sparse matrices, multiply them with TileSpGEMM,
// inspect the result, and round-trip through the sparse tile format.
//
//   ./quickstart [path/to/matrix.mtx]
//
// With a Matrix Market file the example computes C = A^2 on it (the
// artifact's `./test <matrix.mtx>` workflow); without one it runs on a
// small generated matrix.
#include <cstring>
#include <iostream>
#include <string>

#include "core/tile_spgemm.h"
#include "core/tile_stats.h"
#include "gen/generators.h"
#include "matrix/convert.h"
#include "matrix/io_mm.h"
#include "matrix/stats.h"

int main(int argc, char** argv) {
  using namespace tsg;

  // 1. Obtain a sparse matrix in CSR form.
  Csr<double> a;
  if (argc > 1) {
    std::cout << "loading " << argv[1] << "\n";
    a = coo_to_csr(read_matrix_market_file<double>(argv[1]));
  } else {
    // A power-law graph: 4096 vertices, ~16K edges.
    a = gen::rmat(12, 4.0, /*seed=*/42);
  }
  std::cout << "A: " << a.rows << " x " << a.cols << ", " << a.nnz() << " nonzeros\n";

  // 2. Convert once to the sparse tile format (16x16 tiles, CSR-style
  //    nonzeros plus per-row bit masks — Section 3.2 of the paper).
  const TileMatrix<double> tile_a = csr_to_tile(a);
  const TileFormatStats stats = tile_format_stats(tile_a);
  std::cout << "tile format: " << stats.num_tiles << " non-empty tiles, "
            << stats.avg_nnz_per_tile << " nnz/tile on average, "
            << stats.bytes / 1024 << " KB (CSR: " << a.bytes() / 1024 << " KB)\n";

  // 3. Multiply. The three-step algorithm reports its own breakdown.
  const TileSpgemmResult<double> result = tile_spgemm(tile_a, tile_a);
  const TileSpgemmTimings& t = result.timings;
  std::cout << "C = A^2: " << result.c.nnz() << " nonzeros in " << result.c.num_tiles()
            << " tiles\n";
  std::cout << "time: step1 " << t.step1_ms << " ms, step2 " << t.step2_ms
            << " ms, step3 " << t.step3_ms << " ms, alloc " << t.alloc_ms << " ms\n";

  const offset_t flops = spgemm_flops(a, a);
  std::cout << "throughput: " << gflops(flops, t.total_ms()) << " GFlops ("
            << flops << " flops)\n";

  // 4. Back to CSR for downstream consumers.
  const Csr<double> c = tile_to_csr(result.c);
  std::cout << "compression rate: " << compression_rate(flops / 2, c.nnz()) << "\n";

  // 5. The one-shot CSR form does all of the above in one call, writing C
  //    straight into CSR; it must agree with the tile result byte for byte.
  const Csr<double> c2 = spgemm_tile(a, a);
  const bool agrees =
      c2.rows == c.rows && c2.cols == c.cols && c2.row_ptr == c.row_ptr &&
      c2.col_idx == c.col_idx && c2.val.size() == c.val.size() &&
      std::memcmp(c2.val.data(), c.val.data(), c.val.size() * sizeof(double)) == 0;
  std::cout << "wrapper agrees: " << (agrees ? "yes" : "NO") << "\n";
  return agrees ? 0 : 1;
}
