// Lane-vectorized (SOA-over-RHS) Schwarz block solves: the BlockSpinorLanes
// container and its gather bridge, the lane-wise MR scalars with
// convergence masking, the bit-identity of a batch against per-RHS
// apply() calls (a batch of one runs at one lane, wider batches pad), the
// apply_batch geometry guard, and the work model's RHS-lane efficiency
// term.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

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

double rel_field_diff(const FermionField<float>& a,
                      const FermionField<float>& b) {
  double diff2 = 0, ref2 = 0;
  for (std::int64_t s = 0; s < a.size(); ++s) {
    diff2 += norm2(a[s] - b[s]);
    ref2 += norm2(a[s]);
  }
  return ref2 > 0 ? std::sqrt(diff2 / ref2) : std::sqrt(diff2);
}

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
// Tentpole: lane-vectorized batched apply vs per-RHS apply() calls.
// ---------------------------------------------------------------------------

/// Tolerance of the lane path against per-RHS applies where a test does
/// not assert bit-identity.
constexpr double kLaneTolerance = 1e-5;

bool same_bits(const FermionField<float>& a, const FermionField<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) *
                         sizeof(Spinor<float>)) == 0;
}

/// Run each RHS through its own apply() on `ref` (fresh stats): the
/// one-lane block solve that RHS gets alone. ref.stats() ends as the sum
/// over the per-RHS applies; the return value is the stats of one.
SchwarzStats apply_each(SchwarzPreconditioner<float>& ref,
                        const std::vector<FermionField<float>>& f,
                        std::vector<FermionField<float>>& u) {
  SchwarzStats one;
  for (std::size_t i = 0; i < f.size(); ++i) {
    ref.apply(f[i], u[i]);
    if (i == 0) one = ref.stats();
  }
  return one;
}

TEST(LaneBatch, MatchesScalarPathWithinToleranceAndCounterExactly) {
  SchwarzFixture f;
  for (const int nrhs : {2, 3, 5, 8}) {
    SchwarzParams p;
    p.schwarz_iterations = 2;
    p.block_mr_iterations = 3;
    SchwarzPreconditioner<float> lane(f.part, f.op, p);
    SchwarzPreconditioner<float> scalar(f.part, f.op, p);

    std::vector<FermionField<float>> ff(static_cast<std::size_t>(nrhs)),
        u_lane(static_cast<std::size_t>(nrhs)),
        u_scalar(static_cast<std::size_t>(nrhs));
    std::vector<const FermionField<float>*> fp;
    std::vector<FermionField<float>*> lp;
    for (int i = 0; i < nrhs; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      ff[ii] = FermionField<float>(f.geom.volume());
      u_lane[ii] = FermionField<float>(f.geom.volume());
      u_scalar[ii] = FermionField<float>(f.geom.volume());
      gaussian(ff[ii], static_cast<std::uint64_t>(140 + i));
      fp.push_back(&ff[ii]);
      lp.push_back(&u_lane[ii]);
    }
    lane.apply_batch(fp, lp);
    const SchwarzStats one = apply_each(scalar, ff, u_scalar);

    // Lanes are independent at every lane count, so each RHS of the
    // padded batch carries exactly the bits of its one-lane apply().
    for (int i = 0; i < nrhs; ++i) {
      EXPECT_LT(rel_field_diff(u_scalar[static_cast<std::size_t>(i)],
                               u_lane[static_cast<std::size_t>(i)]),
                kLaneTolerance)
          << "nrhs " << nrhs << " RHS " << i;
      EXPECT_TRUE(same_bits(u_scalar[static_cast<std::size_t>(i)],
                            u_lane[static_cast<std::size_t>(i)]))
          << "nrhs " << nrhs << " RHS " << i;
    }
    // So does the maintained residual (the last apply() left RHS nrhs-1's).
    EXPECT_TRUE(same_bits(lane.residual(nrhs - 1), scalar.residual(0)))
        << "nrhs " << nrhs;

    // The instrumented counters are a hard contract, not a tolerance:
    // the per-RHS work is the sum over the per-RHS applies, while the
    // batch streams each domain's matrices once per visit, exactly as
    // often as ONE apply() does (the paper's Sec. VI amortization).
    const auto& sl = lane.stats();
    const auto& ss = scalar.stats();
    EXPECT_EQ(sl.applications, ss.applications) << "nrhs " << nrhs;
    EXPECT_EQ(sl.sweeps, one.sweeps) << "nrhs " << nrhs;
    EXPECT_EQ(sl.matrix_block_loads, one.matrix_block_loads)
        << "nrhs " << nrhs;
    EXPECT_EQ(sl.block_solves, ss.block_solves) << "nrhs " << nrhs;
    EXPECT_EQ(sl.mr_iterations, ss.mr_iterations) << "nrhs " << nrhs;
    EXPECT_EQ(sl.boundary_bytes, ss.boundary_bytes) << "nrhs " << nrhs;
    EXPECT_EQ(sl.flops, ss.flops) << "nrhs " << nrhs;
  }
}

TEST(LaneBatch, ApplyIsABatchOfOneBitIdentically) {
  // apply() is apply_batch() of one RHS: one block-solve path, at one
  // lane, so the two are bit-identical by construction.
  SchwarzFixture f;
  SchwarzParams p;
  p.schwarz_iterations = 2;
  p.block_mr_iterations = 3;
  SchwarzPreconditioner<float> m(f.part, f.op, p);

  FermionField<float> b(f.geom.volume()), u1(f.geom.volume()),
      u2(f.geom.volume());
  gaussian(b, 150);
  m.apply(b, u1);
  const FermionField<float>* fp[1] = {&b};
  std::vector<const FermionField<float>*> fv{fp[0]};
  std::vector<FermionField<float>*> uv{&u2};
  m.apply_batch(fv, uv);
  EXPECT_TRUE(same_bits(u1, u2));
}

TEST(LaneBatch, ConvergedLaneIsMaskedWithScalarCounterParity) {
  // One RHS of the batch is exactly zero: it "converges" in its first MR
  // iteration of every domain visit while the others keep iterating. The
  // lane path must (a) leave its correction exactly zero — the masked
  // lane is frozen, not polluted by its active neighbors — and (b) charge
  // mr_iterations exactly as per-RHS apply() calls do.
  SchwarzFixture f;
  SchwarzParams p;
  p.schwarz_iterations = 2;
  p.block_mr_iterations = 4;
  SchwarzPreconditioner<float> lane(f.part, f.op, p);
  SchwarzPreconditioner<float> scalar(f.part, f.op, p);

  const int nrhs = 3;
  std::vector<FermionField<float>> ff(nrhs), u_lane(nrhs), u_scalar(nrhs);
  std::vector<const FermionField<float>*> fp;
  std::vector<FermionField<float>*> lp;
  for (int i = 0; i < nrhs; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    ff[ii] = FermionField<float>(f.geom.volume());
    u_lane[ii] = FermionField<float>(f.geom.volume());
    u_scalar[ii] = FermionField<float>(f.geom.volume());
    if (i != 1) gaussian(ff[ii], static_cast<std::uint64_t>(160 + i));
    fp.push_back(&ff[ii]);
    lp.push_back(&u_lane[ii]);
  }
  lane.apply_batch(fp, lp);
  apply_each(scalar, ff, u_scalar);

  // The zero RHS yields an exactly-zero correction on both paths.
  double unorm2 = 0;
  for (std::int64_t s = 0; s < f.geom.volume(); ++s)
    unorm2 += norm2(u_lane[1][s]);
  EXPECT_EQ(unorm2, 0.0);

  // Counter parity: the masked lane stops counting MR iterations after
  // its breakdown iteration, exactly like the scalar `break`.
  EXPECT_EQ(lane.stats().mr_iterations, scalar.stats().mr_iterations);
  EXPECT_EQ(lane.stats().flops, scalar.stats().flops);
  EXPECT_LT(lane.stats().mr_iterations,
            static_cast<std::int64_t>(nrhs) * lane.stats().sweeps *
                f.part.num_domains() * p.block_mr_iterations)
      << "the zero lane must not be charged full MR iteration counts";

  // The nonzero RHS still match their per-RHS applies.
  for (const int i : {0, 2})
    EXPECT_LT(rel_field_diff(u_scalar[static_cast<std::size_t>(i)],
                             u_lane[static_cast<std::size_t>(i)]),
              kLaneTolerance)
        << "RHS " << i;
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
