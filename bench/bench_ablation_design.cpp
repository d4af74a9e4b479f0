// Ablation bench for the design choices Section 3.3 argues for, measured
// on the representative suite (the kernel-level view lives in
// bench_micro_kernels):
//   1. binary-search vs merge vs indexed intersection over the real (A tile
//      row, B tile column) lists of each C tile from step 1
//   2. adaptive vs always-sparse vs always-dense accumulator (end to end)
//   3. sensitivity to the tnnz threshold around the paper's 192 (end to end)
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "core/intersect.h"
#include "core/step1.h"
#include "core/tile_spgemm.h"
#include "gen/representative.h"

namespace {

using namespace tsg;
using bench::BenchArgs;

double time_with(const TileMatrix<double>& t, const TileSpgemmOptions& opt, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    (void)tile_spgemm(t, t, opt);
    best = std::min(best, timer.milliseconds());
  }
  return best;
}

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

  bench::print_header("Ablation 2: accumulator policy",
                      "Section 3.3: adaptive sparse/dense selection at tnnz=192");
  Table t2({"matrix", "adaptive ms", "always sparse ms", "always dense ms"});
  for (const auto& m : suite) {
    const TileMatrix<double> t = csr_to_tile(m.a);
    TileSpgemmOptions ad, sp, de;
    sp.accumulator = AccumulatorPolicy::kAlwaysSparse;
    de.accumulator = AccumulatorPolicy::kAlwaysDense;
    t2.add_row({m.name, fmt(time_with(t, ad, args.effective_reps())),
                fmt(time_with(t, sp, args.effective_reps())),
                fmt(time_with(t, de, args.effective_reps()))});
  }
  bench::emit(t2, args);

  bench::print_header("Ablation 2b: pair caching (deviates from the paper)",
                      "recompute the step-3 intersection (paper, zero global state) "
                      "vs cache step-2 pairs");
  Table t2b({"matrix", "recompute ms", "cached ms", "cached/recompute"});
  for (const auto& m : suite) {
    const TileMatrix<double> t = csr_to_tile(m.a);
    TileSpgemmOptions recompute, cached;
    cached.cache_pairs = true;
    const double ms_r = time_with(t, recompute, args.effective_reps());
    const double ms_c = time_with(t, cached, args.effective_reps());
    t2b.add_row({m.name, fmt(ms_r), fmt(ms_c), fmt(ms_c / ms_r) + "x"});
  }
  bench::emit(t2b, args);

  bench::print_header("Ablation 3: tnnz threshold sweep",
                      "the 75% rule: dense accumulation wins above ~192 of 256 nonzeros");
  Table t3({"tnnz", "SiO2 ms", "gupta3 ms", "pdb1HYS ms", "webbase-1M ms"});
  std::vector<const gen::NamedMatrix*> picks;
  for (const auto& m : suite) {
    if (m.name == "SiO2" || m.name == "gupta3" || m.name == "pdb1HYS" ||
        m.name == "webbase-1M") {
      picks.push_back(&m);
    }
  }
  for (index_t tnnz : {0, 64, 128, 192, 224, 255}) {
    std::vector<std::string> cells = {std::to_string(tnnz)};
    for (const auto* m : picks) {
      const TileMatrix<double> t = csr_to_tile(m->a);
      TileSpgemmOptions opt;
      opt.tnnz = tnnz;
      cells.push_back(fmt(time_with(t, opt, args.effective_reps())));
    }
    t3.add_row(cells);
  }
  bench::emit(t3, args);
  args.write_metrics();
  return 0;
}
