// Context reuse: allocation traffic and per-step time of an iterated
// workload (Markov-clustering-style repeated squaring) through transient
// per-call contexts vs one reused SpgemmContext, both on the default
// config. The reused context keeps its workspace pool (layout view, tile
// structure, schedule, per-thread scratch) alive across calls, so after a
// warm-up iteration the per-iteration allocated bytes drop to just the
// output matrix C.
#include <array>
#include <iostream>

#include "bench_common.h"
#include "common/memory.h"
#include "core/spgemm_context.h"
#include "gen/generators.h"

int main(int argc, char** argv) {
  using namespace tsg;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  constexpr int kIters = 8;

  bench::print_header("context reuse",
                      "per-iteration allocation traffic: transient vs reused context");

  struct Sample {
    double alloc_mb = 0.0;  // bytes newly allocated during the iteration
    TileSpgemmTimings t;
  };
  std::array<Sample, kIters> transient_it, reused_it;

  const Csr<double> a = gen::rmat(12, 6.0, 7);
  const TileMatrix<double> ta = csr_to_tile(a);
  auto& tracker = MemoryTracker::instance();

  // Transient path: the free function builds (and tears down) a fresh
  // context — and therefore a fresh workspace pool — on every call.
  for (int i = 0; i < kIters; ++i) {
    const std::int64_t before = tracker.allocated_total();
    const TileSpgemmResult<double> res = tile_spgemm(ta, ta);
    transient_it[i].alloc_mb =
        static_cast<double>(tracker.allocated_total() - before) / (1024.0 * 1024.0);
    transient_it[i].t = res.timings;
  }

  // Reused path: one context for all iterations.
  SpgemmContext ctx;
  for (int i = 0; i < kIters; ++i) {
    const std::int64_t before = tracker.allocated_total();
    const TileSpgemmResult<double> res = ctx.try_run(Request<TileMatrix<double>>{&ta, &ta}).value();
    reused_it[i].alloc_mb =
        static_cast<double>(tracker.allocated_total() - before) / (1024.0 * 1024.0);
    reused_it[i].t = res.timings;
  }

  Table table({"iter", "transient alloc MB", "reused alloc MB", "transient core ms",
               "reused core ms", "transient s1/s2/s3 ms", "reused s1/s2/s3 ms"});
  double trans_tail = 0.0, reuse_tail = 0.0;
  for (int i = 0; i < kIters; ++i) {
    const auto& tr = transient_it[i];
    const auto& re = reused_it[i];
    table.add_row({std::to_string(i), fmt(tr.alloc_mb), fmt(re.alloc_mb),
                   fmt(tr.t.core_ms()), fmt(re.t.core_ms()),
                   fmt(tr.t.step1_ms) + "/" + fmt(tr.t.step2_ms) + "/" +
                       fmt(tr.t.step3_ms),
                   fmt(re.t.step1_ms) + "/" + fmt(re.t.step2_ms) + "/" +
                       fmt(re.t.step3_ms)});
    if (i > 0) {  // skip the warm-up iteration that fills the pool
      trans_tail += tr.alloc_mb;
      reuse_tail += re.alloc_mb;
    }
  }
  bench::emit(table, args);

  const auto& last = reused_it[kIters - 1].t;
  std::cout << "steady-state alloc/iter: transient " << fmt(trans_tail / (kIters - 1))
            << " MB, reused " << fmt(reuse_tail / (kIters - 1)) << " MB ("
            << fmt(trans_tail > 0 ? 100.0 * (1.0 - reuse_tail / trans_tail) : 0.0, 1)
            << "% less)\n";
  std::cout << "pooled workspace high-water: " << fmt_bytes(last.workspace_bytes)
            << ", scheduled tiles " << fmt_count(last.scheduled_tiles) << "\n";
  std::cout << "expected shape: reused alloc/iter is well below transient once the\n"
               "pool is warm; step times match since both paths run the same kernels.\n";
  args.write_metrics();
  return 0;
}
