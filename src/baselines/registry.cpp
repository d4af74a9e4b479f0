#include "baselines/registry.h"

#include "baselines/esc.h"
#include "baselines/hash.h"
#include "baselines/heap.h"
#include "baselines/reference.h"
#include "baselines/spa.h"
#include "baselines/speck.h"
#include "common/memory.h"
#include "common/timer.h"
#include "core/spgemm_context.h"
#include "obs/metrics.h"

namespace tsg {

namespace {

/// Peak tracked bytes as the registry reports them. The MemoryTracker is
/// still the source of truth (it owns the gauge callback); reading through
/// the registry keeps `peak_mb` consistent with what a --metrics dump says.
double registry_peak_mb() {
  const std::int64_t bytes =
      obs::MetricsRegistry::instance().snapshot().gauge("memory.peak_bytes");
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Wrap a plain CSR->CSR method: its core time is the whole call.
template <class Fn>
SpgemmAlgorithm wrap(std::string name, std::string proxies, Fn fn) {
  SpgemmAlgorithm algo;
  algo.name = std::move(name);
  algo.proxies = std::move(proxies);
  algo.profiled = [fn](const Csr<double>& a, const Csr<double>& b) {
    SpgemmRunReport rep;
    PeakMemoryScope mem;  // resets the tracker; the gauge reads the peak back
    Timer t;
    rep.c = fn(a, b);
    rep.core_ms = t.milliseconds();
    rep.peak_mb = registry_peak_mb();
    return rep;
  };
  return algo;
}

SpgemmAlgorithm make_tile_algorithm() {
  SpgemmAlgorithm algo;
  algo.name = "TileSpGEMM";
  algo.proxies = "this paper";
  algo.is_tile = true;
  algo.profiled = [](const Csr<double>& a, const Csr<double>& b) {
    const TileMatrix<double> ta = csr_to_tile(a);
    const TileMatrix<double> tb = csr_to_tile(b);
    SpgemmRunReport rep;
    {
      // The context (and its pooled workspace) lives inside the peak scope
      // so its allocations count against the method like any workspace.
      PeakMemoryScope mem;  // resets the tracker; the gauge reads the peak back
      SpgemmContext ctx;
      Timer t;
      TileSpgemmResult<double> res = ctx.try_run(Request<TileMatrix<double>>{&ta, &tb}).value();
      rep.core_ms = t.milliseconds();
      rep.peak_mb = registry_peak_mb();
      rep.chunks = res.timings.chunks;
      rep.budget_limited = res.timings.budget_limited;
      rep.metrics = res.timings.metrics;
      // The back-conversion is outside both budgets: a tile-native caller
      // never pays it (res.c *is* the result); `rep.c` exists only so the
      // harness can cross-validate in CSR.
      rep.c = tile_to_csr(res.c);
    }
    return rep;
  };
  return algo;
}

std::vector<SpgemmAlgorithm> build_paper_list() {
  std::vector<SpgemmAlgorithm> list;
  list.push_back(wrap("SPA", "cuSPARSE v11.4 (dense-SPA row-row)",
                      [](const Csr<double>& a, const Csr<double>& b) {
                        return spgemm_spa(a, b);
                      }));
  list.push_back(wrap("ESC", "bhSPARSE (expand-sort-compress)",
                      [](const Csr<double>& a, const Csr<double>& b) {
                        return spgemm_esc(a, b);
                      }));
  list.push_back(wrap("Hash", "NSPARSE (two-round hash, binned)",
                      [](const Csr<double>& a, const Csr<double>& b) {
                        return spgemm_hash(a, b);
                      }));
  list.push_back(wrap("Adaptive", "spECK (lightweight analysis + adaptive)",
                      [](const Csr<double>& a, const Csr<double>& b) {
                        return spgemm_speck(a, b);
                      }));
  list.push_back(make_tile_algorithm());
  return list;
}

std::vector<SpgemmAlgorithm> build_full_list() {
  std::vector<SpgemmAlgorithm> list = build_paper_list();
  list.push_back(wrap("Heap", "bhSPARSE heap bins (k-way merge)",
                      [](const Csr<double>& a, const Csr<double>& b) {
                        return spgemm_heap(a, b);
                      }));
  list.push_back(wrap("Reference", "serial gold standard",
                      [](const Csr<double>& a, const Csr<double>& b) {
                        return spgemm_reference(a, b);
                      }));
  return list;
}

}  // namespace

const std::vector<SpgemmAlgorithm>& paper_algorithms() {
  static const std::vector<SpgemmAlgorithm> list = build_paper_list();
  return list;
}

const std::vector<SpgemmAlgorithm>& all_algorithms() {
  static const std::vector<SpgemmAlgorithm> list = build_full_list();
  return list;
}

}  // namespace tsg
