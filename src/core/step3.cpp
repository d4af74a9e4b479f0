#include "core/step3.h"

namespace tsg {

// The plus-times pass of every plain and masked product; the semiring
// entry point instantiates the others from step3.h.
template void step3_numeric<PlusTimes<double>>(
    const TileMatrix<double>&, const TileMatrix<double>&, const TileLayoutCsc&,
    const TileStructure&, simd::Level, const Step2Result&,
    SpgemmWorkspace<double>&, const ExecutionPlan&, const Step3Output<double>&);
template void step3_numeric<PlusTimes<float>>(
    const TileMatrix<float>&, const TileMatrix<float>&, const TileLayoutCsc&,
    const TileStructure&, simd::Level, const Step2Result&,
    SpgemmWorkspace<float>&, const ExecutionPlan&, const Step3Output<float>&);

}  // namespace tsg
