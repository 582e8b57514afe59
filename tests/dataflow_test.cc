/**
 * @file
 * Dataflow-mapping tests for the systolic compute model: SCALE-Sim's
 * OS / WS / IS mappings must differ in the expected directions, and
 * the protection results must be robust to the dataflow choice (the
 * paper's conclusions do not depend on it).
 */

#include <gtest/gtest.h>

#include "dnn/dnn_kernel.h"
#include "dnn/models.h"
#include "sim/experiment.h"

namespace mgx::dnn {
namespace {

Layer
bigConv()
{
    Layer conv;
    conv.kind = LayerKind::Conv;
    conv.inC = 256;
    conv.inH = conv.inW = 28;
    conv.outC = 256;
    conv.kH = conv.kW = 3;
    conv.pad = 1;
    return conv;
}

DnnAccelConfig
withDataflow(Dataflow df)
{
    DnnAccelConfig cfg = cloudAccel();
    cfg.dataflow = df;
    return cfg;
}

TEST(Dataflow, AllMappingsProduceWork)
{
    for (Dataflow df : {Dataflow::OutputStationary,
                        Dataflow::WeightStationary,
                        Dataflow::InputStationary}) {
        EXPECT_GT(layerComputeCycles(bigConv(), 8, withDataflow(df)),
                  0u);
    }
}

TEST(Dataflow, WsFavorsManyOutputsPerWeight)
{
    // A conv with a huge output map per weight (large spatial, small
    // K): weight-stationary amortizes the K-tile loads over all P
    // outputs, beating OS's per-output-tile refill.
    Layer conv;
    conv.kind = LayerKind::Conv;
    conv.inC = 32;
    conv.inH = conv.inW = 112;
    conv.outC = 64;
    conv.kH = conv.kW = 3;
    conv.pad = 1;
    const Cycles os = layerComputeCycles(
        conv, 8, withDataflow(Dataflow::OutputStationary));
    const Cycles ws = layerComputeCycles(
        conv, 8, withDataflow(Dataflow::WeightStationary));
    EXPECT_LT(ws, os);
}

TEST(Dataflow, OsFavorsDeepReductions)
{
    // A dense layer with tiny output count but deep K: OS keeps the
    // reduction local, WS pays a pass of P per K tile.
    Layer fc;
    fc.kind = LayerKind::Dense;
    fc.inC = 25088;
    fc.outC = 4096;
    const Cycles os = layerComputeCycles(
        fc, 512, withDataflow(Dataflow::OutputStationary));
    const Cycles ws = layerComputeCycles(
        fc, 512, withDataflow(Dataflow::WeightStationary));
    EXPECT_LT(os, ws + ws / 2); // OS no worse than ~1.5x WS here
}

TEST(Dataflow, IsSymmetricToWsUnderTranspose)
{
    // Swapping (P, Co) while switching WS <-> IS gives identical
    // cycle counts: the mappings are transposes of each other.
    Layer a;
    a.kind = LayerKind::Dense;
    a.inC = 1024;
    a.outC = 333;
    const Cycles ws = layerComputeCycles(
        a, 77, withDataflow(Dataflow::WeightStationary));
    Layer t;
    t.kind = LayerKind::Dense;
    t.inC = 1024;
    t.outC = 77;
    const Cycles is = layerComputeCycles(
        t, 333, withDataflow(Dataflow::InputStationary));
    EXPECT_EQ(ws, is);
}

TEST(Dataflow, ProtectionConclusionsHoldForEveryMapping)
{
    // The MGX-vs-BP result must not hinge on the dataflow choice.
    for (Dataflow df : {Dataflow::OutputStationary,
                        Dataflow::WeightStationary,
                        Dataflow::InputStationary}) {
        DnnAccelConfig cfg = withDataflow(df);
        DnnKernel kernel(alexnet(), cfg);
        sim::ResultSet rs = sim::Experiment()
                                .trace("alexnet", kernel.generate())
                                .platform(sim::cloudPlatform())
                                .schemes(sim::trafficSchemes())
                                .run();
        const double mgx =
            rs.normalizedTime("alexnet", "Cloud", protection::Scheme::MGX)
                .value();
        const double bp =
            rs.normalizedTime("alexnet", "Cloud", protection::Scheme::BP)
                .value();
        EXPECT_LT(mgx, 1.10) << "dataflow " << static_cast<int>(df);
        EXPECT_GT(bp, mgx) << "dataflow " << static_cast<int>(df);
    }
}

} // namespace
} // namespace mgx::dnn
