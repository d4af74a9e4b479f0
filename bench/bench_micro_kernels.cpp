// Kernel-level ablation microbenchmarks (google-benchmark) for the design
// choices Section 3.3 argues for:
//   * binary-search vs merge set intersection (the paper picked binary
//     search after finding merge slower), and the pipeline's indexed one
//   * the step-3 tile accumulate across output-tile densities: rank-indexed
//     scatter, scalar dense walk and dispatched row kernel (the paper's
//     sparse/dense accumulators, switched at tnnz = 192)
//   * the scatter/row-kernel cut on a product with mixed tile sizes
//   * CSR->tile conversion throughput (Fig. 12's numerator)
//   * word-packed vs scalar step-2 symbolic kernel (ISSUE 5)
//
// Doubles as the machine-readable bench-regression harness: run with
// `--regress` (see regress_harness.h) to emit/compare BENCH_baseline.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

#include "accumulate_fixture.h"
#include "regress_harness.h"

#include "common/random.h"
#include "core/intersect.h"
#include "core/simd_dispatch.h"
#include "core/spgemm_context.h"
#include "core/tile_add.h"
#include "core/tile_convert.h"
#include "core/tile_spgemm.h"
#include "core/tile_spmm.h"
#include "core/tile_spmv.h"
#include "core/tile_transpose.h"
#include "gen/generators.h"

namespace {

using namespace tsg;

// ----------------------------------------------------------- intersection --

struct IntersectFixture {
  std::vector<index_t> a_cols, b_rows;
  std::vector<offset_t> b_ids;

  IntersectFixture(index_t len_a, index_t len_b, double overlap) {
    Xoshiro256 rng(1234);
    index_t va = 0, vb = 0;
    for (index_t i = 0; i < len_a; ++i) {
      a_cols.push_back(va += 1 + static_cast<index_t>(rng.next_below(3)));
    }
    for (index_t i = 0; i < len_b; ++i) {
      if (rng.next_double() < overlap && i < len_a) {
        vb = a_cols[i];
      } else {
        vb += 1 + static_cast<index_t>(rng.next_below(3));
      }
      b_rows.push_back(vb);
    }
    std::sort(b_rows.begin(), b_rows.end());
    b_rows.erase(std::unique(b_rows.begin(), b_rows.end()), b_rows.end());
    b_ids.resize(b_rows.size());
    for (std::size_t i = 0; i < b_ids.size(); ++i) b_ids[i] = static_cast<offset_t>(i);
  }
};

/// (len_a, len_b) = (range(0), range(1)) list pair with 30% overlap.
IntersectFixture intersect_fixture(const benchmark::State& state) {
  return IntersectFixture(static_cast<index_t>(state.range(0)),
                          static_cast<index_t>(state.range(1)), 0.3);
}

template <class Fn>
void time_intersect(benchmark::State& state, const IntersectFixture& fx, Fn&& intersect) {
  std::vector<MatchedPair> out;
  for (auto _ : state) {
    out.clear();
    intersect(out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.a_cols.size() + fx.b_rows.size()));
}

void BM_IntersectReference(benchmark::State& state, IntersectMethod method) {
  const IntersectFixture fx = intersect_fixture(state);
  time_intersect(state, fx, [&](std::vector<MatchedPair>& out) {
    intersect_tiles(fx.a_cols.data(), 0, static_cast<index_t>(fx.a_cols.size()),
                    fx.b_rows.data(), fx.b_ids.data(), static_cast<index_t>(fx.b_rows.size()),
                    method, out);
  });
}

void BM_IntersectBinary(benchmark::State& s) {
  BM_IntersectReference(s, IntersectMethod::kBinarySearch);
}
void BM_IntersectMerge(benchmark::State& s) { BM_IntersectReference(s, IntersectMethod::kMerge); }

/// The pipeline's routine with A's row already bound: the steady state of a
/// tile-row-ordered visit, where one bind serves every B column of the row
/// (the 4x1024 shape takes its binary-search branch). Every occupancy word
/// is full, so it keeps the reference routines' pairs.
void BM_IntersectIndexed(benchmark::State& state) {
  const IntersectFixture fx = intersect_fixture(state);
  const std::vector<rowmask_t> a_occ(fx.a_cols.size(), 0xFFFF);
  const std::vector<rowmask_t> b_occ(fx.b_rows.size(), 0xFFFF);
  TileRowIndex index;
  index.reset(std::max(fx.a_cols.back(), fx.b_rows.back()) + 1);
  time_intersect(state, fx, [&](std::vector<MatchedPair>& out) {
    index.intersect(0, fx.a_cols.data(), a_occ.data(), 0,
                    static_cast<index_t>(fx.a_cols.size()), fx.b_rows.data(), b_occ.data(),
                    fx.b_ids.data(), static_cast<index_t>(fx.b_rows.size()), out);
  });
}

BENCHMARK(BM_IntersectBinary)->Args({8, 256})->Args({32, 32})->Args({4, 1024});
BENCHMARK(BM_IntersectMerge)->Args({8, 256})->Args({32, 32})->Args({4, 1024});
BENCHMARK(BM_IntersectIndexed)->Args({8, 256})->Args({32, 32})->Args({4, 1024});

// ------------------------------------------------------------ accumulator --

/// One serial accumulate pass over the real C tiles of A*A (see
/// accumulate_fixture.h); tiles of at most `cut` nonzeros take the
/// rank-indexed scatter, larger ones the dense kernel through `nops`.
void time_accumulate(benchmark::State& state, const Csr<double>& a, index_t cut,
                     const simd::NumericOps& nops) {
  const bench::AccumulateFixture fx(a);
  std::vector<double> out;
  for (auto _ : state) {
    fx.pass(cut, nops, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * fx.c.nnz());
}

/// A block-diagonal matrix whose C tiles have ~block^2 of 256 nonzeros.
Csr<double> accumulate_blocks(const benchmark::State& state) {
  return gen::dense_blocks(64, static_cast<index_t>(state.range(0)), 77);
}

void BM_AccumulateRankScatter(benchmark::State& s) {
  time_accumulate(s, accumulate_blocks(s), kTileNnzMax, simd::numeric_ops(simd::Level::kScalar));
}
void BM_AccumulateDenseWalk(benchmark::State& s) {
  time_accumulate(s, accumulate_blocks(s), 0, simd::numeric_ops(simd::Level::kScalar));
}
void BM_AccumulateRowKernel(benchmark::State& s) {
  time_accumulate(s, accumulate_blocks(s), 0, simd::numeric_ops(simd::active_level()));
}

// block=4 -> 16/256 nnz per C tile; block=12 -> 144/256; block=16 -> full.
BENCHMARK(BM_AccumulateRankScatter)->Arg(4)->Arg(12)->Arg(16);
BENCHMARK(BM_AccumulateDenseWalk)->Arg(4)->Arg(12)->Arg(16);
BENCHMARK(BM_AccumulateRowKernel)->Arg(4)->Arg(12)->Arg(16);

/// The cut sweep on a wide band, whose C tiles run from a few nonzeros at
/// the band edge to full on the diagonal.
void BM_AccumulateCut(benchmark::State& state) {
  time_accumulate(state, gen::banded(4000, 12, 78), static_cast<index_t>(state.range(0)),
                  simd::numeric_ops(simd::active_level()));
}
BENCHMARK(BM_AccumulateCut)->Arg(0)->Arg(16)->Arg(64)->Arg(kTileNnzMax);

// -------------------------------------------------------------- conversion --

void BM_CsrToTile(benchmark::State& state) {
  const Csr<double> a = gen::banded(static_cast<index_t>(state.range(0)), 12, 79);
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr_to_tile(a).num_tiles());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_CsrToTile)->Arg(2000)->Arg(8000);

void BM_TileToCsr(benchmark::State& state) {
  const TileMatrix<double> t =
      csr_to_tile(gen::banded(static_cast<index_t>(state.range(0)), 12, 80));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tile_to_csr(t).nnz());
  }
}
BENCHMARK(BM_TileToCsr)->Arg(2000)->Arg(8000);

// ------------------------------------------------------------- end to end --

void BM_TileSpgemmEndToEnd(benchmark::State& state) {
  const Csr<double> a = gen::rmat(static_cast<int>(state.range(0)), 4.0, 81);
  const TileMatrix<double> t = csr_to_tile(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tile_spgemm(t, t).c.nnz());
  }
}
BENCHMARK(BM_TileSpgemmEndToEnd)->Arg(10)->Arg(12);

// -------------------------------------------------- tile kernel family --

void BM_TileSpmv(benchmark::State& state) {
  const Csr<double> a = gen::banded(static_cast<index_t>(state.range(0)), 10, 82);
  const TileMatrix<double> t = csr_to_tile(a);
  tracked_vector<double> x(static_cast<std::size_t>(a.cols), 1.0), y;
  for (auto _ : state) {
    tile_spmv(t, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_TileSpmv)->Arg(4000)->Arg(16000);

void BM_TileSpmm(benchmark::State& state) {
  const Csr<double> a = gen::banded(4000, 10, 83);
  const TileMatrix<double> t = csr_to_tile(a);
  DenseMatrix<double> x(a.cols, static_cast<index_t>(state.range(0)));
  for (auto& v : x.data) v = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tile_spmm(t, x).data.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * state.range(0));
}
BENCHMARK(BM_TileSpmm)->Arg(4)->Arg(16);

void BM_TileAdd(benchmark::State& state) {
  const Csr<double> a = gen::banded(static_cast<index_t>(state.range(0)), 8, 84);
  const Csr<double> b = gen::banded(static_cast<index_t>(state.range(0)), 12, 85);
  const TileMatrix<double> ta = csr_to_tile(a);
  const TileMatrix<double> tb = csr_to_tile(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tile_add(ta, tb).nnz());
  }
  state.SetItemsProcessed(state.iterations() * (a.nnz() + b.nnz()));
}
BENCHMARK(BM_TileAdd)->Arg(2000)->Arg(8000);

void BM_TileTranspose(benchmark::State& state) {
  const Csr<double> a = gen::rmat(static_cast<int>(state.range(0)), 6.0, 86);
  const TileMatrix<double> t = csr_to_tile(a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tile_transpose(t).nnz());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_TileTranspose)->Arg(10)->Arg(13);

// ------------------------------------------------------- dispatch levels --

/// Whole-pipeline view of the SIMD dispatch ladder (ISSUE 10): one run per
/// forced level on a mask-OR-heavy workload. Arg is the numeric
/// simd::Level; unavailable levels are skipped, mirroring the CI matrix.
void BM_SimdLevel(benchmark::State& state) {
  const auto level = static_cast<simd::Level>(state.range(0));
  if (!simd::level_available(level)) {
    state.SkipWithError("SIMD level unavailable on this host");
    return;
  }
  const Csr<double> a = gen::dense_blocks(48, 16, 89);
  const TileMatrix<double> t = csr_to_tile(a);
  const SpgemmContext::Config cfg = SpgemmContext::Config{}.with_simd_level(level);
  for (auto _ : state) {
    SpgemmContext ctx(cfg);
    benchmark::DoNotOptimize(
        ctx.try_run(Request<TileMatrix<double>>{&t, &t}).value().c.nnz());
  }
  state.SetLabel(simd::level_name(level));
}
BENCHMARK(BM_SimdLevel)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

// Custom main: `--regress` switches to the machine-readable regression
// harness (regress_harness.cpp); `--simd-levels` prints the dispatch levels
// this build+host can execute, one per line (scripts/check.sh uses it to
// decide which TSG_SIMD values to force); anything else goes to
// google-benchmark.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--regress") {
      return tsg::bench::run_regress(argc, argv);
    }
    if (std::string_view(argv[i]) == "--simd-levels") {
      for (int l = 0; l < tsg::simd::kLevelCount; ++l) {
        const auto level = static_cast<tsg::simd::Level>(l);
        if (tsg::simd::level_available(level)) {
          std::printf("%s\n", tsg::simd::level_name(level));
        }
      }
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
