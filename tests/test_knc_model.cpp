// KNC machine model: the paper's published arithmetic must fall out.
#include <gtest/gtest.h>

#include "lqcd/knc/work_model.h"
#include "lqcd/schwarz/schwarz.h"

namespace lqcd {
namespace {

TEST(KncSpec, ComputeEfficiencyMatchesPaperSecIVB1) {
  // 0.82 * 0.93 * 0.54 / (1 - 0.59*0.46) = 56%.
  knc::KncSpec spec;
  EXPECT_NEAR(spec.compute_efficiency(), 0.56, 0.01);
  // (16+16) * 0.56 = 18 flop/cycle/core = 20 Gflop/s/core at 1.1 GHz.
  EXPECT_NEAR(spec.effective_sp_flops_per_cycle(), 18.0, 0.3);
  EXPECT_NEAR(spec.sp_gflops_bound_per_core(), 20.0, 0.3);
  // ~2 Tflop/s single-precision peak (Sec. II-A).
  EXPECT_NEAR(spec.sp_peak_gflops(), 2112.0, 1.0);
}

TEST(KncLoadModel, PaperExamples) {
  // Sec. III-D: 256 domains on 60 cores -> load 256/(5*60) = 0.85.
  EXPECT_NEAR(knc::core_load(256, 60), 256.0 / 300.0, 1e-12);
  // Table III 48^3x64 on 24 KNCs: ndomain = 288, load 96%.
  const std::int64_t v24 = 48LL * 48 * 48 * 64 / 24;
  EXPECT_EQ(knc::ndomain_per_color(v24, {8, 4, 4, 4}), 288);
  EXPECT_NEAR(knc::core_load(288, 60), 0.96, 0.001);
  // 64^3x128 on 1024 KNCs: ndomain = 32, load 53%.
  const std::int64_t v1024 = 64LL * 64 * 64 * 128 / 1024;
  EXPECT_EQ(knc::ndomain_per_color(v1024, {8, 4, 4, 4}), 32);
  EXPECT_NEAR(knc::core_load(32, 60), 32.0 / 60.0, 1e-12);
  // 64^3x128 on 64 KNCs: ndomain = 512, load 95%.
  const std::int64_t v64 = 64LL * 64 * 64 * 128 / 64;
  EXPECT_EQ(knc::ndomain_per_color(v64, {8, 4, 4, 4}), 512);
  EXPECT_NEAR(knc::core_load(512, 60), 512.0 / 540.0, 1e-3);
}

TEST(KncWorkModel, HopCountMatchesPartition) {
  // The analytic hop formula must equal what DomainPartition counts.
  for (const Coord block : {Coord{4, 4, 4, 4}, Coord{8, 4, 4, 4},
                            Coord{4, 4, 2, 8}}) {
    Coord dims;
    for (int mu = 0; mu < kNumDims; ++mu)
      dims[static_cast<size_t>(mu)] = 2 * block[static_cast<size_t>(mu)];
    const Geometry geom(dims);
    const DomainPartition part(geom, block);
    EXPECT_EQ(knc::block_hops_per_parity(block), part.hops_per_parity())
        << "block " << block[0] << "," << block[1] << "," << block[2] << ","
        << block[3];
  }
}

TEST(KncWorkModel, FlopsMatchInstrumentedPreconditioner) {
  // The analytic block-solve flop formula must match the instrumented
  // counters of the real implementation, so paper-scale traces use the
  // exact same accounting.
  const Coord block{4, 4, 4, 4};
  const Geometry geom({8, 8, 8, 8});
  const Checkerboard cb(geom);
  auto gauge =
      convert<float>(random_gauge_field<double>(geom, 0.5, 7));
  WilsonCloverOperator<float> op(geom, cb, gauge, 0.2f, 1.0f);
  op.prepare_schur();
  const DomainPartition part(geom, block);
  SchwarzParams sp;
  sp.schwarz_iterations = 3;
  sp.block_mr_iterations = 5;
  SchwarzPreconditioner<float> m(part, op, sp);

  FermionField<float> rhs(geom.volume()), u(geom.volume());
  gaussian(rhs, 8);
  m.apply(rhs, u);

  const auto work = knc::block_solve_work(block, sp.block_mr_iterations,
                                          /*half=*/false);
  const double expected =
      work.flops * static_cast<double>(m.stats().block_solves);
  EXPECT_NEAR(static_cast<double>(m.stats().flops), expected,
              1e-9 * expected);
  // And the boundary bytes match the pack model.
  EXPECT_EQ(m.stats().boundary_bytes,
            static_cast<std::int64_t>(work.pack_bytes) *
                m.stats().block_solves);
}

TEST(KncWorkModel, PaperDomainWorkingSetBytes) {
  const auto w_single = knc::block_solve_work({8, 4, 4, 4}, 5, false);
  const auto w_half = knc::block_solve_work({8, 4, 4, 4}, 5, true);
  EXPECT_EQ(static_cast<std::int64_t>(w_single.matrix_bytes),
            (144 + 144) * 1024);
  EXPECT_EQ(static_cast<std::int64_t>(w_half.matrix_bytes),
            (72 + 72) * 1024);
}

TEST(KernelModel, ReproducesTableTwoWithinTolerance) {
  // Paper Table II (Gflop/s, single core, 8x4^3 domain):
  //               MR iteration        DD method
  //              single   half     single   half
  //   none        5.4     7.9       4.1     5.9
  //   L1          9.2    11.8       5.8     7.7
  //   L1+L2       9.1    11.8       6.3     8.4
  const knc::KernelModel model;
  const Coord block{8, 4, 4, 4};
  struct Case {
    bool half;
    knc::PrefetchMode mode;
    double paper_mr, paper_dd;
  };
  const Case cases[] = {
      {false, knc::PrefetchMode::kNone, 5.4, 4.1},
      {false, knc::PrefetchMode::kL1, 9.2, 5.8},
      {false, knc::PrefetchMode::kL1L2, 9.1, 6.3},
      {true, knc::PrefetchMode::kNone, 7.9, 5.9},
      {true, knc::PrefetchMode::kL1, 11.8, 7.7},
      {true, knc::PrefetchMode::kL1L2, 11.8, 8.4},
  };
  for (const auto& c : cases) {
    const auto mr = knc::mr_iteration_work(block, c.half);
    const double g_mr = model.gflops_per_core(mr, c.mode);
    EXPECT_NEAR(g_mr, c.paper_mr, 0.20 * c.paper_mr)
        << (c.half ? "half" : "single") << " MR mode "
        << static_cast<int>(c.mode);
    const auto dd = knc::block_solve_work(block, 5, c.half);
    const double g_dd = model.gflops_per_core(dd.kernel, c.mode);
    EXPECT_NEAR(g_dd, c.paper_dd, 0.20 * c.paper_dd)
        << (c.half ? "half" : "single") << " DD mode "
        << static_cast<int>(c.mode);
  }
}

TEST(KernelModel, QualitativeOrderings) {
  const knc::KernelModel model;
  const Coord block{8, 4, 4, 4};
  for (bool half : {false, true}) {
    const auto mr = knc::mr_iteration_work(block, half);
    const auto dd = knc::block_solve_work(block, 5, half).kernel;
    // Prefetching always helps; L1+L2 at least as good as L1.
    EXPECT_GT(model.gflops_per_core(mr, knc::PrefetchMode::kL1),
              model.gflops_per_core(mr, knc::PrefetchMode::kNone));
    EXPECT_GE(model.gflops_per_core(dd, knc::PrefetchMode::kL1L2),
              model.gflops_per_core(dd, knc::PrefetchMode::kL1));
    // The cache-resident MR iteration runs faster than the full DD method
    // (which streams each domain from memory).
    EXPECT_GT(model.gflops_per_core(mr, knc::PrefetchMode::kL1L2),
              model.gflops_per_core(dd, knc::PrefetchMode::kL1L2));
  }
  // Half precision beats single (smaller working set).
  const auto mr_s = knc::mr_iteration_work(block, false);
  const auto mr_h = knc::mr_iteration_work(block, true);
  EXPECT_GT(model.gflops_per_core(mr_h, knc::PrefetchMode::kL1L2),
            model.gflops_per_core(mr_s, knc::PrefetchMode::kL1L2));
  // Never above the instruction bound.
  EXPECT_LT(model.gflops_per_core(mr_h, knc::PrefetchMode::kL1L2),
            model.spec().sp_gflops_bound_per_core());
}

TEST(KernelModel, CacheCapacityPenalizesOversizedBlocks) {
  // The paper's Sec. III-B design choice: blocks are sized so the working
  // set fits the 512 kB per-core L2. A block that does not fit streams
  // its matrices from memory every Schur apply and runs much slower.
  const knc::KernelModel model;
  const auto small = knc::block_solve_work({8, 4, 4, 4}, 5, true);
  const auto big = knc::block_solve_work({8, 8, 4, 4}, 5, true);
  const double l2 = model.spec().l2_kb * 1024.0;
  EXPECT_LT(small.working_set_bytes, l2);
  EXPECT_GT(big.working_set_bytes, l2);
  const double g_small = model.gflops_per_core(
      knc::apply_cache_capacity(small.kernel, small.working_set_bytes, l2),
      knc::PrefetchMode::kL1L2);
  const double g_big = model.gflops_per_core(
      knc::apply_cache_capacity(big.kernel, big.working_set_bytes, l2),
      knc::PrefetchMode::kL1L2);
  EXPECT_LT(g_big, 0.8 * g_small);
  // And the in-cache case is unchanged by the correction.
  EXPECT_EQ(model.gflops_per_core(small.kernel, knc::PrefetchMode::kL1L2),
            g_small);
}

}  // namespace
}  // namespace lqcd
