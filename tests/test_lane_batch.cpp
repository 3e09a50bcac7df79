// Lane-vectorized (SOA-over-RHS) Schwarz block solves: the BlockSpinorLanes
// container and its gather bridge, the lane-wise MR scalars with
// convergence masking, the apply_batch geometry guard, and the work
// model's RHS-lane efficiency term. A batch against per-RHS apply() calls
// is the lanes row of test_contracts.cpp.
#include <gtest/gtest.h>

#include "lqcd/core/dd_solver.h"
#include "lqcd/knc/work_model.h"
#include "lqcd/solver/mr.h"

namespace lqcd {
namespace {

struct SchwarzFixture {
  Geometry geom;
  Checkerboard cb;
  GaugeField<float> gauge;
  WilsonCloverOperator<float> op;
  DomainPartition part;

  SchwarzFixture()
      : geom({8, 8, 8, 8}),
        cb(geom),
        gauge([&] {
          auto gd = random_gauge_field<double>(geom, 0.5, 23);
          gd.make_time_antiperiodic();
          return convert<float>(gd);
        }()),
        op(geom, cb, gauge, 0.1f, 1.0f),
        part(geom, {4, 4, 4, 4}) {
    op.prepare_schur();
  }
};

// ---------------------------------------------------------------------------
// SOA-over-RHS container and gather bridge.
// ---------------------------------------------------------------------------

TEST(BlockSpinorLanes, PaddingAndLayout) {
  // A batch pads up to a multiple of the backend's lane width: 4 on the
  // scalar and AVX2 backends, 16 on AVX-512.
  EXPECT_EQ(padded_rhs_lanes(1, 4), 4);
  EXPECT_EQ(padded_rhs_lanes(4, 4), 4);
  EXPECT_EQ(padded_rhs_lanes(5, 4), 8);
  EXPECT_EQ(padded_rhs_lanes(11, 4), 12);
  EXPECT_EQ(padded_rhs_lanes(12, 4), 12);
  EXPECT_EQ(padded_rhs_lanes(1, 16), 16);
  EXPECT_EQ(padded_rhs_lanes(11, 16), 16);
  EXPECT_EQ(padded_rhs_lanes(16, 16), 16);
  EXPECT_EQ(padded_rhs_lanes(17, 16), 32);

  // A batch of one runs unpadded, at one lane.
  EXPECT_EQ(batch_lanes(1, 4), 1);
  EXPECT_EQ(batch_lanes(1, 16), 1);
  EXPECT_EQ(batch_lanes(2, 16), 16);
  EXPECT_EQ(batch_lanes(5, 4), 8);

  BlockSpinorLanes s(3, padded_rhs_lanes(5, 4));
  EXPECT_EQ(s.sites(), 3);
  EXPECT_EQ(s.lanes(), 8);
  // The lane index is innermost and unit-stride; components of a site are
  // contiguous lane vectors.
  EXPECT_EQ(s.lane_vec(0, 1), s.lane_vec(0, 0) + s.lanes());
  EXPECT_EQ(s.lane_vec(1, 0), s.lane_vec(0, 0) + kSpinorReals * s.lanes());
}

TEST(BlockSpinorLanes, PackUnpackRoundTripWithOddNrhs) {
  const std::int32_t nsites = 6;
  const int nrhs = 3;  // not a multiple of the SIMD width
  std::vector<FermionField<float>> in(nrhs);
  std::vector<const FermionField<float>*> ip;
  for (int b = 0; b < nrhs; ++b) {
    const auto bb = static_cast<std::size_t>(b);
    in[bb] = FermionField<float>(nsites);
    gaussian(in[bb], static_cast<std::uint64_t>(90 + b));
    ip.push_back(&in[bb]);
  }

  BlockSpinorLanes lanes(nsites, padded_rhs_lanes(nrhs, 4));
  pack_rhs_lanes(ip.data(), nrhs, nullptr, nsites, lanes);

  // Padding lanes must be zero-filled (arithmetically inert).
  for (std::int32_t i = 0; i < nsites; ++i)
    for (int comp = 0; comp < kSpinorReals; ++comp)
      for (int l = nrhs; l < lanes.lanes(); ++l)
        ASSERT_EQ(lanes.lane_vec(i, comp)[l], 0.0f);

  // Lane b of each (spin, color) real and imaginary component holds
  // exactly RHS b's value.
  for (int b = 0; b < nrhs; ++b) {
    const FermionField<float>& f = in[static_cast<std::size_t>(b)];
    for (std::int32_t i = 0; i < nsites; ++i)
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c) {
          const int comp = (sp * kNumColors + c) * 2;
          EXPECT_EQ(lanes.lane_vec(i, comp)[b], f[i].s[sp].c[c].real())
              << "RHS " << b;
          EXPECT_EQ(lanes.lane_vec(i, comp + 1)[b], f[i].s[sp].c[c].imag())
              << "RHS " << b;
        }
  }
}

TEST(BlockSpinorLanes, PackHonorsSiteMap) {
  const std::int32_t nsites = 4;
  FermionField<float> f(8);
  gaussian(f, 7);
  const FermionField<float>* fp[1] = {&f};
  const std::int32_t map[4] = {6, 1, 3, 0};

  BlockSpinorLanes lanes(nsites, 1);
  pack_rhs_lanes(fp, 1, map, nsites, lanes);
  for (std::int32_t i = 0; i < nsites; ++i)
    EXPECT_EQ(lanes.lane_vec(i, 0)[0], f[map[i]].s[0].c[0].real());
}

// ---------------------------------------------------------------------------
// Lane-wise MR scalars: per-lane alpha, masking, frozen lanes.
// ---------------------------------------------------------------------------

TEST(LaneMR, MasksZeroLaneAndFreezesItsVectors) {
  // Two complex components, two lanes. Lane 0 carries data; lane 1 is
  // exactly zero, the lane picture of an already-converged RHS.
  const int lanes = 2;
  const std::int64_t ncplx = 2;
  float r[8] = {1, 0, 2, 0, 3, 0, 4, 0};   // [re0 im0 re1 im1] x lanes
  float ar[8] = {1, 0, 0, 0, 0, 0, 1, 0};  // Ar = (1, i) on lane 0
  float z[8] = {0, 0, 0, 0, 0, 0, 0, 0};

  LaneMRState st(lanes, lanes);
  EXPECT_EQ(st.num_active(), 2);

  lane_mr_dots(r, ar, ncplx, lanes, st);
  // Lane 0: <Ar,r> = conj-free form re: 1*1 + 0*2 + 0*3 + 1*4 = 5.
  EXPECT_DOUBLE_EQ(st.arr_re[0], 5.0);
  EXPECT_DOUBLE_EQ(st.arar[0], 2.0);
  EXPECT_DOUBLE_EQ(st.arar[1], 0.0);

  const int active = lane_mr_alphas(st);
  EXPECT_EQ(active, 1);
  EXPECT_EQ(st.num_active(), 1);
  EXPECT_EQ(st.active[0], 1);
  EXPECT_EQ(st.active[1], 0);
  EXPECT_EQ(st.alpha_re[1], 0.0f);
  EXPECT_EQ(st.alpha_im[1], 0.0f);

  lane_mr_axpy(z, r, ar, ncplx, lanes, st);
  // Lane 0 moved: z = alpha r with alpha = 5/2 - i/2...
  EXPECT_NE(z[0], 0.0f);
  // ...lane 1 is frozen bit-exactly.
  EXPECT_EQ(z[1], 0.0f);
  EXPECT_EQ(r[1], 0.0f);
  EXPECT_EQ(r[5], 0.0f);

  // A masked lane stays masked even if its arar later becomes nonzero.
  st.arar[1] = 1.0;
  lane_mr_alphas(st);
  EXPECT_EQ(st.active[1], 0);
}

// ---------------------------------------------------------------------------
// Satellite: geometry guard — validate the whole batch BEFORE mutating.
// ---------------------------------------------------------------------------

TEST(LaneBatch, MismatchedGeometryThrowsWithoutMutatingEarlierRhs) {
  SchwarzFixture f;
  SchwarzParams p;
  p.schwarz_iterations = 1;
  p.block_mr_iterations = 2;
  SchwarzPreconditioner<float> m(f.part, f.op, p);

  FermionField<float> good_f(f.geom.volume()), bad_f(f.geom.volume() / 2);
  FermionField<float> u0(f.geom.volume()), u1(f.geom.volume());
  gaussian(good_f, 170);
  gaussian(bad_f, 171);
  const float sentinel = 42.0f;
  u0[0].s[0].c[0] = Complex<float>(sentinel, -sentinel);

  std::vector<const FermionField<float>*> fp{&good_f, &bad_f};
  std::vector<FermionField<float>*> up{&u0, &u1};
  EXPECT_THROW(m.apply_batch(fp, up), Error);

  // RHS 0 was valid but must not have been touched: the guard runs over
  // the whole batch before the first mutation.
  EXPECT_EQ(u0[0].s[0].c[0].real(), sentinel);
  EXPECT_EQ(u0[0].s[0].c[0].imag(), -sentinel);

  // Mismatched u sizes are rejected the same way.
  FermionField<float> bad_u(f.geom.volume() - 8);
  std::vector<const FermionField<float>*> fp2{&good_f};
  std::vector<FermionField<float>*> up2{&bad_u};
  EXPECT_THROW(m.apply_batch(fp2, up2), Error);
}

// ---------------------------------------------------------------------------
// Work model: the vector-width-aware nrhs term.
// ---------------------------------------------------------------------------

TEST(WorkModelLanes, RhsLaneEfficiency) {
  // The KNC's 512-bit SIMD holds 16 single-precision lanes (Sec. II-A).
  EXPECT_EQ(knc::kRhsLaneWidth, 16);
  EXPECT_EQ(knc::rhs_lane_efficiency(1), 1.0);
  EXPECT_EQ(knc::rhs_lane_efficiency(16), 1.0);
  EXPECT_EQ(knc::rhs_lane_efficiency(32), 1.0);
  EXPECT_DOUBLE_EQ(knc::rhs_lane_efficiency(4), 0.25);
  EXPECT_DOUBLE_EQ(knc::rhs_lane_efficiency(12), 0.75);
  EXPECT_DOUBLE_EQ(knc::rhs_lane_efficiency(17), 17.0 / 32.0);
  // Narrower hardware lanes pad less.
  EXPECT_DOUBLE_EQ(knc::rhs_lane_efficiency(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(knc::rhs_lane_efficiency(5, 4), 5.0 / 8.0);
  EXPECT_EQ(knc::rhs_lane_efficiency(12, 4), 1.0);
}

TEST(WorkModelLanes, PaddingScalesExecutedFlopsOnly) {
  const Coord block = {8, 4, 4, 4};
  const auto w5 = knc::block_solve_work(block, 5, true, 5);
  EXPECT_DOUBLE_EQ(w5.rhs_lane_efficiency, 5.0 / 16.0);

  const auto executed =
      knc::apply_rhs_lane_padding(w5.kernel, w5.rhs_lane_efficiency);
  EXPECT_DOUBLE_EQ(executed.flops, w5.kernel.flops * 16.0 / 5.0);
  EXPECT_EQ(executed.l2_bytes, w5.kernel.l2_bytes);
  EXPECT_EQ(executed.mem_bytes, w5.kernel.mem_bytes);

  // Full lanes execute exactly the useful flops.
  const auto w16 = knc::block_solve_work(block, 5, true, 16);
  EXPECT_EQ(w16.rhs_lane_efficiency, 1.0);
  EXPECT_EQ(knc::apply_rhs_lane_padding(w16.kernel, 1.0).flops,
            w16.kernel.flops);
}

}  // namespace
}  // namespace lqcd
