/**
 * @file
 * DNN substrate tests: model-zoo shape/parameter sanity (checked
 * against the published architectures), the systolic compute model,
 * the region allocator, trace generation, and the §IV-C VN rules —
 * every model's full trace must satisfy the security invariant.
 */

#include <gtest/gtest.h>

#include "core/invariant_checker.h"
#include "dnn/dnn_kernel.h"
#include "dnn/models.h"
#include "dnn/pruning.h"

namespace mgx::dnn {
namespace {

using core::InvariantChecker;
using core::Trace;

// -- model zoo -----------------------------------------------------------------

TEST(Models, AlexNetParameterCount)
{
    // AlexNet has ~61 M parameters (mostly in fc6).
    const u64 params = alexnet().weightBytes(1);
    EXPECT_GT(params, 57u * 1000 * 1000);
    EXPECT_LT(params, 64u * 1000 * 1000);
}

TEST(Models, Vgg16ParameterCount)
{
    // VGG-16: ~138 M parameters.
    const u64 params = vgg16().weightBytes(1);
    EXPECT_GT(params, 132u * 1000 * 1000);
    EXPECT_LT(params, 142u * 1000 * 1000);
}

TEST(Models, ResNet50ParameterCount)
{
    // ResNet-50: ~25.5 M parameters.
    const u64 params = resnet50().weightBytes(1);
    EXPECT_GT(params, 23u * 1000 * 1000);
    EXPECT_LT(params, 28u * 1000 * 1000);
}

TEST(Models, Vgg16MacCount)
{
    // ~15.5 GMACs per 224x224 image.
    const u64 macs = vgg16().totalMacs();
    EXPECT_GT(macs, 14ull * 1000 * 1000 * 1000);
    EXPECT_LT(macs, 16ull * 1000 * 1000 * 1000);
}

TEST(Models, ResNet50MacCount)
{
    // ~4.1 GMACs per image.
    const u64 macs = resnet50().totalMacs();
    EXPECT_GT(macs, 3500ull * 1000 * 1000);
    EXPECT_LT(macs, 4600ull * 1000 * 1000);
}

TEST(Models, BertEncoderShapes)
{
    Model bert = bertBase(512);
    // 12 encoder blocks x 8 traffic layers + embed + pooler.
    EXPECT_EQ(bert.layers.size(), 2u + 12u * 8u);
    // BERT-base: ~85 M weight elements in the encoder stack (plus the
    // 23 M-element token embedding we also count).
    EXPECT_GT(bert.weightBytes(1), 100ull << 20);
}

TEST(Models, DlrmEmbeddingTables)
{
    Model m = dlrm();
    int tables = 0;
    for (const auto &l : m.layers)
        tables += l.kind == LayerKind::Embedding;
    EXPECT_EQ(tables, 26);
}

TEST(Models, ProducerIndicesWellFormed)
{
    for (const Model &m : paperModels()) {
        for (std::size_t i = 0; i < m.layers.size(); ++i) {
            for (int p : m.layers[i].inputs) {
                EXPECT_GE(p, -1) << m.name << " layer " << i;
                EXPECT_LT(p, static_cast<int>(i))
                    << m.name << " layer " << i
                    << " consumes a later layer";
            }
        }
    }
}

TEST(Models, ConvOutputShape)
{
    Layer l;
    l.kind = LayerKind::Conv;
    l.inC = 3;
    l.inH = l.inW = 224;
    l.outC = 64;
    l.kH = l.kW = 7;
    l.stride = 2;
    l.pad = 3;
    EXPECT_EQ(l.outH(), 112u);
    EXPECT_EQ(l.outW(), 112u);
}

TEST(Models, LookupByName)
{
    EXPECT_EQ(modelByName("VGG").name, "VGG");
    EXPECT_EQ(modelByName("DLRM").name, "DLRM");
}

// -- systolic model ---------------------------------------------------------------

TEST(Systolic, BiggerArrayIsFaster)
{
    Layer conv;
    conv.kind = LayerKind::Conv;
    conv.inC = 256;
    conv.inH = conv.inW = 56;
    conv.outC = 256;
    conv.kH = conv.kW = 3;
    conv.pad = 1;
    const Cycles cloud = layerComputeCycles(conv, 8, cloudAccel());
    const Cycles edge = layerComputeCycles(conv, 8, edgeAccel());
    EXPECT_LT(cloud, edge);
}

TEST(Systolic, SmallLayerUnderutilizesBigArray)
{
    // A tiny dense layer cannot fill 256x256 PEs; the fill overhead
    // dominates, so the cloud/edge ratio is far below the 64x PE ratio.
    Layer fc;
    fc.kind = LayerKind::Dense;
    fc.inC = 256;
    fc.outC = 64;
    const double ratio =
        static_cast<double>(layerComputeCycles(fc, 1, edgeAccel())) /
        static_cast<double>(layerComputeCycles(fc, 1, cloudAccel()));
    EXPECT_LT(ratio, 8.0);
}

// -- region allocator --------------------------------------------------------------

TEST(RegionAllocator, AllocatesDisjointAligned)
{
    RegionAllocator alloc(0x1000, 1 << 20);
    Addr a = alloc.alloc(100);
    Addr b = alloc.alloc(100);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_NE(a, b);
}

TEST(RegionAllocator, ReusesFreedSpace)
{
    RegionAllocator alloc(0, 16 << 10);
    Addr a = alloc.alloc(4096);
    alloc.alloc(4096);
    alloc.free(a);
    // The freed first block is reused first-fit.
    EXPECT_EQ(alloc.alloc(4096), a);
}

TEST(RegionAllocator, CoalescesNeighbours)
{
    RegionAllocator alloc(0, 12 << 10);
    Addr a = alloc.alloc(4096);
    Addr b = alloc.alloc(4096);
    Addr c = alloc.alloc(4096);
    alloc.free(a);
    alloc.free(c);
    alloc.free(b); // middle free must merge all three
    EXPECT_EQ(alloc.alloc(12 << 10), a);
}

TEST(RegionAllocatorDeathTest, DoubleFreePanics)
{
    RegionAllocator alloc(0, 1 << 20);
    Addr a = alloc.alloc(64);
    alloc.free(a);
    EXPECT_DEATH(alloc.free(a), "double free");
}

// -- trace generation ----------------------------------------------------------------

TEST(DnnKernel, TracesAreNonEmptyAndCarryTraffic)
{
    DnnKernel kernel(alexnet(), edgeAccel());
    Trace trace = kernel.generate();
    EXPECT_GT(trace.size(), alexnet().layers.size() - 1);
    EXPECT_GT(core::traceDataBytes(trace), 10ull << 20);
    EXPECT_GT(core::traceComputeCycles(trace), 0u);
}

TEST(DnnKernel, TiledDenseLayerFollowsFig7VnPattern)
{
    // VGG's fc6 weights (~100 MB) cannot fit Edge's SRAM: the kernel
    // must emit K rounds that re-read the partial output with the
    // previous VN and rewrite it with an incremented VN.
    DnnKernel kernel(vgg16(), edgeAccel());
    Trace trace = kernel.generate();

    bool saw_partial_readback = false;
    for (const auto &phase : trace) {
        if (phase.name.rfind("fc6", 0) != 0)
            continue;
        bool has_out_read = false;
        Vn read_vn = 0, write_vn = 0;
        for (const auto &acc : phase.accesses) {
            if (acc.cls != DataClass::Feature)
                continue;
            if (acc.type == AccessType::Read) {
                read_vn = core::vnValue(acc.vn);
                has_out_read = true;
            } else {
                write_vn = core::vnValue(acc.vn);
            }
        }
        if (has_out_read && write_vn == read_vn + 1)
            saw_partial_readback = true;
    }
    EXPECT_TRUE(saw_partial_readback);
}

TEST(DnnKernel, VnStateFitsOnChip)
{
    // Paper: ~1 KB for 127 layers, one VN_F entry per layer. 8 bytes
    // per entry or register: inference keeps VN_F per layer plus the
    // VN_F counter, VN_W and VN_input; training adds VN_G per layer
    // and the VN_G counter.
    ASSERT_EQ(resnet50().layers.size(), 72u);
    DnnKernel inference(resnet50(), cloudAccel());
    EXPECT_EQ(inference.vnStateBytes(), 600u); // 8 x (72 + 3)
    DnnKernel training(resnet50(), cloudAccel(), DnnTask::Training);
    EXPECT_EQ(training.vnStateBytes(), 1184u); // 8 x (2 x 72 + 4)
}

TEST(DnnKernel, EmbeddingGathersUseFineMacs)
{
    DnnKernel kernel(dlrm(), cloudAccel());
    Trace trace = kernel.generate();
    u64 fine = 0;
    for (const auto &phase : trace)
        for (const auto &acc : phase.accesses)
            if (acc.macGranularity == 64 &&
                acc.cls == DataClass::Weight)
                ++fine;
    // 26 tables x 128 samples (the default DLRM batch).
    EXPECT_EQ(fine, 26u * 128u);
}

TEST(DnnKernel, TrainingAddsGradientTraffic)
{
    DnnKernel inf(vgg16(), cloudAccel(), DnnTask::Inference);
    DnnKernel train(vgg16(), cloudAccel(), DnnTask::Training);
    const u64 inf_bytes = core::traceDataBytes(inf.generate());
    const u64 train_bytes = core::traceDataBytes(train.generate());
    EXPECT_GT(train_bytes, 2 * inf_bytes);
    // Training emits Gradient-class accesses.
    bool has_grad = false;
    DnnKernel t2(alexnet(), cloudAccel(), DnnTask::Training);
    for (const auto &phase : t2.generate())
        for (const auto &acc : phase.accesses)
            has_grad |= acc.cls == DataClass::Gradient;
    EXPECT_TRUE(has_grad);
}

TEST(DnnKernel, PrunedTrafficShrinks)
{
    DnnKernel dense(resnet50(), cloudAccel());
    DnnKernel sparse(resnet50(), cloudAccel());
    sparse.setFeatureDensity(0.5);
    EXPECT_LT(core::traceDataBytes(sparse.generate()),
              core::traceDataBytes(dense.generate()));
}

/** Every paper model x task x platform must satisfy the VN invariant. */
struct InvariantCase
{
    const char *model;
    DnnTask task;
    bool edge;
};

class DnnInvariantTest : public ::testing::TestWithParam<InvariantCase>
{
};

TEST_P(DnnInvariantTest, NoCounterReuseAndFreshReads)
{
    const auto &param = GetParam();
    DnnKernel kernel(modelByName(param.model),
                     param.edge ? edgeAccel() : cloudAccel(),
                     param.task);
    InvariantChecker checker;
    checker.observeTrace(kernel.generate());
    auto report = checker.report();
    EXPECT_TRUE(report.ok) << (report.violations.empty()
                                   ? "?"
                                   : report.violations.front());
    EXPECT_GT(report.writesChecked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperModels, DnnInvariantTest,
    ::testing::Values(
        InvariantCase{"VGG", DnnTask::Inference, false},
        InvariantCase{"VGG", DnnTask::Training, false},
        InvariantCase{"AlexNet", DnnTask::Inference, true},
        InvariantCase{"AlexNet", DnnTask::Training, false},
        InvariantCase{"GoogleNet", DnnTask::Inference, false},
        InvariantCase{"GoogleNet", DnnTask::Training, false},
        InvariantCase{"ResNet", DnnTask::Inference, true},
        InvariantCase{"ResNet", DnnTask::Training, false},
        InvariantCase{"BERT", DnnTask::Inference, false},
        InvariantCase{"BERT", DnnTask::Training, false},
        InvariantCase{"DLRM", DnnTask::Inference, false}),
    [](const ::testing::TestParamInfo<InvariantCase> &info) {
        std::string name = info.param.model;
        name += info.param.task == DnnTask::Training ? "Train" : "Inf";
        name += info.param.edge ? "Edge" : "Cloud";
        return name;
    });

TEST(DnnKernel, ConsecutiveInferencesKeepInvariants)
{
    // Multiple batches through one kernel: feature buffers are reused
    // with strictly increasing VNs across runs.
    DnnKernel kernel(googlenet(), edgeAccel());
    InvariantChecker checker;
    checker.observeTrace(kernel.generate());
    checker.observeTrace(kernel.generate());
    checker.observeTrace(kernel.generate());
    EXPECT_TRUE(checker.report().ok);
}

// -- pruning helpers ---------------------------------------------------------------

TEST(Pruning, CompressedSizesOrdered)
{
    // At low density the compressed form is far below dense; RLC has
    // the smallest index overhead for pixel sparsity.
    const u64 dense = 256 * 1024;
    const u64 csr = compressedBytes(256, 1024, 0.3, 1, SparseFormat::CSR);
    const u64 rlc = compressedBytes(256, 1024, 0.3, 1, SparseFormat::RLC);
    EXPECT_LT(csr, dense);
    EXPECT_LT(rlc, csr);
}

TEST(Pruning, EffectiveDensityCapsAtOne)
{
    EXPECT_LE(effectiveDensity(16, 16, 1.0, 1, SparseFormat::CSR), 1.0);
    EXPECT_LT(effectiveDensity(256, 256, 0.1, 1, SparseFormat::RLC),
              0.2);
}

TEST(Pruning, StaticChannelPruneShrinksModel)
{
    // GoogLeNet is all-conv, so halving channels quarters the weights
    // (VGG's dense layers would dominate and stay unpruned).
    Model pruned = staticChannelPrune(googlenet(), 0.5);
    EXPECT_LT(pruned.weightBytes(1), googlenet().weightBytes(1) / 2);
    // And the pruned model still generates a valid trace.
    DnnKernel kernel(pruned, edgeAccel());
    InvariantChecker checker;
    checker.observeTrace(kernel.generate());
    EXPECT_TRUE(checker.report().ok);
}

} // namespace
} // namespace mgx::dnn
