// Ablation bench for the design choices Section 3.3 argues for, measured
// on the representative suite (the kernel-level view lives in
// bench_micro_kernels):
//   1. binary-search vs merge vs indexed intersection over the real (A tile
//      row, B tile column) lists of each C tile from step 1
//   2. the step-3 tile accumulate over each matrix's real C tiles: the
//      rank-indexed scatter, the scalar dense walk and the dispatched row
//      kernel (the paper switches scatter -> dense at tnnz = 192)
//   3. the tile-size cut between scatter and row kernel (the pipeline's
//      detail::kRankScatterMaxNnz)
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <vector>

#include "accumulate_fixture.h"
#include "bench_common.h"
#include "common/timer.h"
#include "core/intersect.h"
#include "core/step1.h"
#include "core/tile_spgemm.h"
#include "gen/representative.h"

namespace {

using namespace tsg;
using bench::BenchArgs;

/// Best-of-reps serial time of intersecting, for every C tile of step 1's
/// structure in storage (tile-row) order, A's tile row with B's tile
/// column: `intersect(tile_i, a_cols, a_base, len_a, b_rows, b_ids, len_b,
/// out)`. The total pair count goes to `pairs` so the work cannot be
/// dropped and the methods can be checked against each other.
template <class Fn>
double time_intersections(const TileMatrix<double>& a, const TileLayoutCsc& b_csc,
                          const TileStructure& st, int reps, std::size_t& pairs,
                          Fn&& intersect) {
  std::vector<MatchedPair> out;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    pairs = 0;
    Timer timer;
    for (offset_t t = 0; t < st.num_tiles(); ++t) {
      const index_t ti = st.tile_row_idx[static_cast<std::size_t>(t)];
      const index_t tj = st.tile_col_idx[static_cast<std::size_t>(t)];
      const offset_t a_base = a.tile_ptr[ti];
      const offset_t b_base = b_csc.col_ptr[tj];
      out.clear();
      intersect(ti, a.tile_col_idx.data() + a_base, a_base,
                static_cast<index_t>(a.tile_ptr[ti + 1] - a_base),
                b_csc.row_idx.data() + b_base, b_csc.tile_id.data() + b_base,
                static_cast<index_t>(b_csc.col_ptr[tj + 1] - b_base), out);
      pairs += out.size();
    }
    best = std::min(best, timer.milliseconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  const auto suite = gen::representative_suite();

  bench::print_header("Ablation 1: set intersection",
                      "Section 3.3: 'the merging primitive is often slower than binary "
                      "search'; indexed = the pipeline's per-thread A tile-row index");
  Table t1({"matrix", "C tiles", "binary search ms", "merge ms", "indexed ms", "merge/binary",
            "indexed/binary"});
  double geo_merge = 0, geo_indexed = 0;
  int counted = 0;
  for (const auto& m : suite) {
    const TileMatrix<double> t = csr_to_tile(m.a);
    const TileStructure st = step1_tile_structure(t, t);
    const TileLayoutCsc b_csc = tile_layout_csc(t);
    const int reps = args.effective_reps();
    auto reference = [](IntersectMethod method) {
      return [method](index_t, const index_t* a_cols, offset_t a_base, index_t len_a,
                      const index_t* b_rows, const offset_t* b_ids, index_t len_b,
                      std::vector<MatchedPair>& out) {
        intersect_tiles(a_cols, a_base, len_a, b_rows, b_ids, len_b, method, out);
      };
    };
    std::size_t p_bs = 0, p_mg = 0, p_ix = 0;
    const double ms_bs =
        time_intersections(t, b_csc, st, reps, p_bs, reference(IntersectMethod::kBinarySearch));
    const double ms_mg =
        time_intersections(t, b_csc, st, reps, p_mg, reference(IntersectMethod::kMerge));
    TileRowIndex index;
    index.reset(t.tile_cols);
    const double ms_ix = time_intersections(
        t, b_csc, st, reps, p_ix,
        [&index](index_t ti, const index_t* a_cols, offset_t a_base, index_t len_a,
                 const index_t* b_rows, const offset_t* b_ids, index_t len_b,
                 std::vector<MatchedPair>& out) {
          index.intersect(ti, a_cols, a_base, len_a, b_rows, b_ids, len_b, out);
        });
    if (p_mg != p_bs || p_ix != p_bs) {
      std::cerr << m.name << ": intersection methods disagree on the pair count\n";
      return 1;
    }
    t1.add_row({m.name, std::to_string(st.num_tiles()), fmt(ms_bs), fmt(ms_mg), fmt(ms_ix),
                fmt(ms_mg / ms_bs) + "x", fmt(ms_ix / ms_bs) + "x"});
    geo_merge += std::log(ms_mg / ms_bs);
    geo_indexed += std::log(ms_ix / ms_bs);
    ++counted;
  }
  bench::emit(t1, args);
  std::cout << "geomean merge/binary-search ratio: " << fmt(std::exp(geo_merge / counted))
            << "x (paper found binary search faster)\n"
            << "geomean indexed/binary-search ratio: " << fmt(std::exp(geo_indexed / counted))
            << "x\n";

  bench::print_header("Ablation 2: step-3 tile accumulate",
                      "Section 3.3: sparse (rank-indexed) vs dense accumulator, timed serially "
                      "over every non-empty C tile of A*A; row kernel = " +
                          std::string(simd::level_name(simd::active_level())));
  Table t2({"matrix", "C tiles", "nnz/tile", "rank scatter ms", "dense walk ms",
            "row kernel ms", "row kernel/scatter"});
  std::vector<bench::AccumulateFixture> fixtures;
  fixtures.reserve(suite.size());
  const simd::NumericOps& walk = simd::numeric_ops(simd::Level::kScalar);
  const simd::NumericOps& rows = simd::numeric_ops(simd::active_level());
  for (const auto& m : suite) {
    const bench::AccumulateFixture& fx = fixtures.emplace_back(m.a);
    std::vector<double> v_scatter, v_walk, v_rows;
    double ms_scatter = 1e300, ms_walk = 1e300, ms_rows = 1e300;
    for (int r = 0; r < args.effective_reps(); ++r) {
      ms_scatter = std::min(ms_scatter, fx.time_pass(kTileNnzMax, walk, v_scatter));
      ms_walk = std::min(ms_walk, fx.time_pass(0, walk, v_walk));
      ms_rows = std::min(ms_rows, fx.time_pass(0, rows, v_rows));
    }
    const std::size_t bytes = v_scatter.size() * sizeof(double);
    if (std::memcmp(v_walk.data(), v_scatter.data(), bytes) != 0 ||
        std::memcmp(v_rows.data(), v_scatter.data(), bytes) != 0) {
      std::cerr << m.name << ": accumulate kernels disagree\n";
      return 1;
    }
    const double per_tile = fx.tiles.empty() ? 0.0
                                             : static_cast<double>(fx.c.nnz()) /
                                                   static_cast<double>(fx.tiles.size());
    t2.add_row({m.name, std::to_string(fx.tiles.size()), fmt(per_tile), fmt(ms_scatter),
                fmt(ms_walk), fmt(ms_rows), fmt(ms_rows / ms_scatter) + "x"});
  }
  bench::emit(t2, args);

  bench::print_header("Ablation 3: scatter/row-kernel cut",
                      "tiles of at most `cut` nonzeros take the rank-indexed scatter, larger "
                      "ones the row kernel; the pipeline's cut is " +
                          std::to_string(detail::kRankScatterMaxNnz));
  const std::vector<index_t> cuts = {0, 4, 8, 16, 32, 64, 192, kTileNnzMax};
  std::vector<std::string> header = {"matrix"};
  for (const index_t cut : cuts) header.push_back("cut " + std::to_string(cut) + " ms");
  Table t3(header);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    std::vector<double> best(cuts.size(), 1e300);
    std::vector<double> out;
    for (int r = 0; r < args.effective_reps(); ++r) {
      for (std::size_t j = 0; j < cuts.size(); ++j) {
        best[j] = std::min(best[j], fixtures[i].time_pass(cuts[j], rows, out));
      }
    }
    std::vector<std::string> cells = {suite[i].name};
    for (const double ms : best) cells.push_back(fmt(ms));
    t3.add_row(cells);
  }
  bench::emit(t3, args);
  args.write_metrics();
  return 0;
}
