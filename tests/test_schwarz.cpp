// Schwarz preconditioner: residual bookkeeping, convergence properties,
// additive vs multiplicative, half-precision storage.
#include <gtest/gtest.h>

#include <cstring>

#include "lqcd/schwarz/schwarz.h"
#include "lqcd/solver/even_odd.h"
#include "lqcd/solver/fgmres_dr.h"

namespace lqcd {
namespace {

struct Fixture {
  Geometry geom;
  Checkerboard cb;
  GaugeField<float> gauge;
  WilsonCloverOperator<float> op;
  DomainPartition part;

  Fixture(const Coord& dims, const Coord& block, double disorder, float mass,
          float csw, std::uint64_t seed)
      : geom(dims),
        cb(geom),
        gauge([&] {
          auto gd = random_gauge_field<double>(geom, disorder, seed);
          gd.make_time_antiperiodic();
          return convert<float>(gd);
        }()),
        op(geom, cb, gauge, mass, csw),
        part(geom, block) {
    op.prepare_schur();
  }
};

/// ||f - A u|| using the float operator.
double true_residual_norm(const WilsonCloverOperator<float>& op,
                          const FermionField<float>& f,
                          const FermionField<float>& u) {
  FermionField<float> au(f.size());
  op.apply(u, au);
  sub(f, au, au);
  return norm(au);
}

TEST(Schwarz, RequiresPreparedOperator) {
  Geometry geom({8, 8, 8, 8});
  Checkerboard cb(geom);
  GaugeField<float> gauge(geom);
  WilsonCloverOperator<float> op(geom, cb, gauge, 0.2f, 1.0f);
  DomainPartition part(geom, {4, 4, 4, 4});
  EXPECT_THROW(
      (SchwarzPreconditioner<float>(part, op, SchwarzParams{})), Error);
}

TEST(Schwarz, InternalResidualMatchesTrueResidual) {
  // The preconditioner maintains r = f - A u incrementally (block updates
  // + boundary buffers). Verify against an independent full-operator
  // computation — this exercises every piece: local Schur solve, odd
  // reconstruction, residual writes, AOS pack/unpack, link ownership.
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 11);
  SchwarzParams p;
  p.schwarz_iterations = 3;
  p.block_mr_iterations = 4;
  SchwarzPreconditioner<float> m(f.part, f.op, p);

  FermionField<float> rhs(f.geom.volume()), u(f.geom.volume());
  gaussian(rhs, 12);
  m.apply(rhs, u);

  FermionField<float> au(f.geom.volume());
  f.op.apply(u, au);
  sub(rhs, au, au);  // true residual
  double diff2 = 0;
  for (std::int64_t i = 0; i < au.size(); ++i)
    diff2 += norm2(au[i] - m.residual()[i]);
  // The error scale is float accumulation relative to the INPUT norm (the
  // residual itself may be orders of magnitude smaller after the sweeps).
  EXPECT_LT(std::sqrt(diff2), 1e-6 * norm(rhs));
}

TEST(Schwarz, ReducesResidual) {
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 21);
  SchwarzParams p;
  p.schwarz_iterations = 8;
  p.block_mr_iterations = 5;
  SchwarzPreconditioner<float> m(f.part, f.op, p);

  FermionField<float> rhs(f.geom.volume()), u(f.geom.volume());
  gaussian(rhs, 22);
  m.apply(rhs, u);
  EXPECT_LT(true_residual_norm(f.op, rhs, u), 0.5 * norm(rhs));
}

TEST(Schwarz, MoreIterationsReduceResidualFurther) {
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 31);
  FermionField<float> rhs(f.geom.volume()), u(f.geom.volume());
  gaussian(rhs, 32);

  double prev = norm(rhs);
  for (int iters : {2, 6, 12}) {
    SchwarzParams p;
    p.schwarz_iterations = iters;
    p.block_mr_iterations = 5;
    SchwarzPreconditioner<float> m(f.part, f.op, p);
    m.apply(rhs, u);
    const double res = true_residual_norm(f.op, rhs, u);
    EXPECT_LT(res, prev) << "ISchwarz=" << iters;
    prev = res;
  }
}

TEST(Schwarz, ConvergedBlockSolvesZeroLastColorResidual) {
  // One full multiplicative sweep (black phase then white phase) with a
  // generously converged block solver: the white domains are solved last
  // and receive no later halo updates, so their residual must be
  // (near-)zero — exactly zero on odd sites, MR-converged on even —
  // while the black domains carry the white corrections' halo updates.
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.6, 0.3f, 1.0f, 41);
  SchwarzParams p;
  p.schwarz_iterations = 1;
  p.block_mr_iterations = 60;
  SchwarzPreconditioner<float> m(f.part, f.op, p);

  FermionField<float> rhs(f.geom.volume()), u(f.geom.volume());
  gaussian(rhs, 42);
  m.apply(rhs, u);

  double black2 = 0, white2 = 0;
  for (const int d : f.part.domains_of_color(0))
    for (std::int32_t l = 0; l < f.part.domain_volume(); ++l)
      black2 += norm2(m.residual()[f.part.global_site(d, l)]);
  for (const int d : f.part.domains_of_color(1))
    for (std::int32_t l = 0; l < f.part.domain_volume(); ++l)
      white2 += norm2(m.residual()[f.part.global_site(d, l)]);
  EXPECT_LT(std::sqrt(white2), 1e-3 * std::sqrt(black2));
}

TEST(Schwarz, MultiplicativeBeatsAdditive) {
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 51);
  FermionField<float> rhs(f.geom.volume()), u_m(f.geom.volume()),
      u_a(f.geom.volume());
  gaussian(rhs, 52);

  // Both variants solve every domain once per sweep; equal sweep counts
  // give equal work.
  SchwarzParams pm;
  pm.schwarz_iterations = 4;
  pm.block_mr_iterations = 5;
  SchwarzPreconditioner<float> mult(f.part, f.op, pm);
  mult.apply(rhs, u_m);

  SchwarzParams pa = pm;
  pa.additive = true;
  SchwarzPreconditioner<float> add(f.part, f.op, pa);
  add.apply(rhs, u_a);

  const double rm = true_residual_norm(f.op, rhs, u_m);
  const double ra = true_residual_norm(f.op, rhs, u_a);
  EXPECT_LT(rm, ra) << "multiplicative=" << rm << " additive=" << ra;
}

TEST(Schwarz, AdditiveResidualBookkeepingAlsoExact) {
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 61);
  SchwarzParams p;
  p.schwarz_iterations = 3;
  p.block_mr_iterations = 4;
  p.additive = true;
  SchwarzPreconditioner<float> m(f.part, f.op, p);
  FermionField<float> rhs(f.geom.volume()), u(f.geom.volume());
  gaussian(rhs, 62);
  m.apply(rhs, u);
  FermionField<float> au(f.geom.volume());
  f.op.apply(u, au);
  sub(rhs, au, au);
  double diff2 = 0;
  for (std::int64_t i = 0; i < au.size(); ++i)
    diff2 += norm2(au[i] - m.residual()[i]);
  EXPECT_LT(std::sqrt(diff2), 1e-6 * norm(rhs));
}

TEST(Schwarz, HalfPrecisionStorageCloseToSingle) {
  // Paper Sec. IV-B1: storing links+clover in half precision changes the
  // preconditioner output only marginally.
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 71);
  SchwarzParams p;
  p.schwarz_iterations = 6;
  p.block_mr_iterations = 5;
  SchwarzPreconditioner<float> m_single(f.part, f.op, p);
  SchwarzPreconditioner<Half> m_half(f.part, f.op, p);

  FermionField<float> rhs(f.geom.volume()), u_s(f.geom.volume()),
      u_h(f.geom.volume());
  gaussian(rhs, 72);
  m_single.apply(rhs, u_s);
  m_half.apply(rhs, u_h);

  double diff2 = 0, n2 = 0;
  for (std::int64_t i = 0; i < u_s.size(); ++i) {
    diff2 += norm2(u_s[i] - u_h[i]);
    n2 += norm2(u_s[i]);
  }
  const double rel = std::sqrt(diff2 / n2);
  EXPECT_LT(rel, 5e-2);
  EXPECT_GT(rel, 1e-7);  // they must not be bit-identical
}

/// Number of packed elements of every domain whose decoded-view floats
/// differ in any bit from load_su3 / load_block of the packed storage.
template <class S>
std::int64_t decoded_view_mismatches(const SchwarzSetup<S>& setup) {
  const DomainPartition& part = setup.partition();
  AlignedVector<float> buf(setup.decode_size());
  std::int64_t mismatches = 0;
  auto differ = [](const auto& a, const auto& b) {
    return std::memcmp(&a, &b, sizeof a) != 0;
  };
  // Element (l, mu) of a link array, block (i, chi) of a clover array.
  auto link_at = [](const auto* p, std::int32_t l, int mu) {
    return p + (static_cast<std::size_t>(l) * kNumDims +
                static_cast<std::size_t>(mu)) *
                   kSU3Reals;
  };
  auto block_at = [](const auto* p, std::int32_t i, int chi) {
    return p + (static_cast<std::size_t>(i) * 2 +
                static_cast<std::size_t>(chi)) *
                   kCloverBlockReals;
  };
  for (int d = 0; d < part.num_domains(); ++d) {
    const DomainMatrices m = setup.decode_domain(d, buf);
    const S* links = setup.packed(d, PackedComponent::kGaugeLinks);
    const S* diag = setup.packed(d, PackedComponent::kCloverDiag);
    const S* inv = setup.packed(d, PackedComponent::kCloverInv);
    for (std::int32_t l = 0; l < part.domain_volume(); ++l)
      for (int mu = 0; mu < kNumDims; ++mu)
        if (differ(load_su3(m.link(l, mu)), load_su3(link_at(links, l, mu))))
          ++mismatches;
    for (std::int32_t i = 0; i < part.domain_half_volume(); ++i)
      for (int chi = 0; chi < 2; ++chi) {
        if (differ(load_block(m.diag(i, chi)),
                   load_block(block_at(diag, i, chi))))
          ++mismatches;
        if (differ(load_block(m.inv(i, chi)),
                   load_block(block_at(inv, i, chi))))
          ++mismatches;
      }
    const float* decoded_links = setup.decode_links(d, buf);
    for (std::int32_t l = 0; l < part.domain_volume(); ++l)
      for (int mu = 0; mu < kNumDims; ++mu)
        if (differ(load_su3(link_at(decoded_links, l, mu)),
                   load_su3(link_at(links, l, mu))))
          ++mismatches;
  }
  return mismatches;
}

/// The per-visit decoded view is bit-equal to the element-wise loads on
/// every SIMD backend, and it follows a packed-data upset: the next
/// decode reads the corrupted storage.
template <class S>
void expect_decoded_view_matches_packed() {
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.5, 0.2f, 1.0f, 85);
  SchwarzSetup<S> setup(f.part, f.op);
  for (const simd::Backend be : simd::available_backends()) {
    simd::ScopedBackend scoped(be);
    EXPECT_EQ(decoded_view_mismatches(setup), 0) << simd::to_string(be);
  }
  FaultInjectorConfig fic;
  fic.fault = FaultClass::kZeroField;
  FaultInjector inj(fic);
  ASSERT_TRUE(setup.corrupt_packed(inj, 3, PackedComponent::kCloverInv));
  AlignedVector<float> buf(setup.decode_size());
  const DomainMatrices m = setup.decode_domain(3, buf);
  EXPECT_EQ(m.inv(0, 0)[0], 0.0f);
  EXPECT_EQ(decoded_view_mismatches(setup), 0);
}

TEST(Schwarz, DecodedViewEqualsPackedLoadsOnEveryBackend) {
  expect_decoded_view_matches_packed<float>();
  expect_decoded_view_matches_packed<Half>();
}

TEST(Schwarz, HalfStorageHalvesMatrixFootprint) {
  Fixture f({16, 8, 8, 8}, {8, 4, 4, 4}, 0.5, 0.2f, 1.0f, 81);
  SchwarzParams p;
  SchwarzPreconditioner<float> m_single(f.part, f.op, p);
  SchwarzPreconditioner<Half> m_half(f.part, f.op, p);
  // Paper: 144 kB + 144 kB single -> 72 kB + 72 kB half per 8x4^3 domain.
  EXPECT_EQ(m_single.setup()->domain_matrix_bytes(), (144 + 144) * 1024);
  EXPECT_EQ(m_half.setup()->domain_matrix_bytes(), (72 + 72) * 1024);
}

TEST(Schwarz, StatsCountBlockSolvesAndIterations) {
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.5, 0.3f, 1.0f, 91);
  SchwarzParams p;
  p.schwarz_iterations = 4;
  p.block_mr_iterations = 5;
  SchwarzPreconditioner<float> m(f.part, f.op, p);
  FermionField<float> rhs(f.geom.volume()), u(f.geom.volume());
  gaussian(rhs, 92);
  m.apply(rhs, u);
  // 4 full sweeps x 16 domains (both colors).
  EXPECT_EQ(m.stats().applications, 1);
  EXPECT_EQ(m.stats().block_solves, 4 * 16);
  EXPECT_EQ(m.stats().mr_iterations, 4 * 16 * 5);
  EXPECT_GT(m.stats().flops, 0);
  // Boundary bytes: every block solve packs all 8 faces; a packed
  // half-spinor is 12 reals = 48 B.
  std::int64_t face_bytes = 0;
  for (int mu = 0; mu < kNumDims; ++mu)
    face_bytes += 2 * f.part.face_size(mu) * 12 * 4;
  EXPECT_EQ(m.stats().boundary_bytes, 4 * 16 * face_bytes);
}

TEST(Schwarz, PreconditionsFGMRESEffectively) {
  // The full paper pipeline at small scale: FGMRES (float) with the
  // multiplicative Schwarz preconditioner converges in far fewer outer
  // iterations than unpreconditioned FGMRES.
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.1f, 1.2f, 101);
  const LinearOperator<float>& a = f.op;
  FermionField<float> b(f.geom.volume()), x0(f.geom.volume()),
      x1(f.geom.volume());
  gaussian(b, 102);

  FGMRESDRParams pg;
  pg.basis_size = 16;
  pg.tolerance = 1e-5;  // float outer solve
  pg.max_iterations = 800;
  const auto s0 = fgmres_dr_solve<float>(a, nullptr, b, x0, pg);

  SchwarzParams sp;
  sp.schwarz_iterations = 8;
  sp.block_mr_iterations = 5;
  SchwarzPreconditioner<float> m(f.part, f.op, sp);
  const auto s1 = fgmres_dr_solve<float>(a, &m, b, x1, pg);

  EXPECT_TRUE(s1.converged);
  ASSERT_TRUE(s0.converged);
  EXPECT_LT(s1.iterations * 3, s0.iterations)
      << "unprec=" << s0.iterations << " schwarz=" << s1.iterations;
}

TEST(Schwarz, HalfPrecisionSpinorsStillPrecondition) {
  // Paper Sec. VI (future work): storing the preconditioner's spinors in
  // half precision as well. The preconditioner output must stay close to
  // the single-precision-spinor result (it is only ever an approximation
  // consumed by a flexible outer solver).
  Fixture f({8, 8, 8, 8}, {4, 4, 4, 4}, 0.7, 0.2f, 1.0f, 111);
  SchwarzParams p;
  p.schwarz_iterations = 4;
  p.block_mr_iterations = 5;
  SchwarzPreconditioner<Half> m_ref(f.part, f.op, p);
  p.half_precision_spinors = true;
  SchwarzPreconditioner<Half> m_h16(f.part, f.op, p);

  FermionField<float> rhs(f.geom.volume()), u_ref(f.geom.volume()),
      u_h(f.geom.volume());
  gaussian(rhs, 112);
  m_ref.apply(rhs, u_ref);
  m_h16.apply(rhs, u_h);
  double diff2 = 0, n2 = 0;
  for (std::int64_t i = 0; i < u_ref.size(); ++i) {
    diff2 += norm2(u_ref[i] - u_h[i]);
    n2 += norm2(u_ref[i]);
  }
  const double rel = std::sqrt(diff2 / n2);
  EXPECT_LT(rel, 5e-2);
  EXPECT_GT(rel, 1e-7);  // genuinely different storage path
  // And it still reduces the residual substantially.
  EXPECT_LT(true_residual_norm(f.op, rhs, u_h), 0.5 * norm(rhs));
}

}  // namespace
}  // namespace lqcd
