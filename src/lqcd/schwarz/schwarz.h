// Schwarz domain-decomposition preconditioner (the paper's core method).
//
// Implements Table I's inner loop: ISchwarz sweeps of the (multiplicative,
// two-color, or additive) Schwarz method, where each block solve is
// Idomain iterations of even-odd-preconditioned MR on the domain's
// Dirichlet operator, entirely from the domain's packed storage.
//
// Key structural properties reproduced from the paper:
//  * Domains are processed independently within a color — no global sums
//    anywhere inside the preconditioner (Sec. II-D).
//  * After the block solve the residual is EXACTLY zero on the domain's
//    odd sites and equals the block-MR residual on the even sites, so the
//    global residual is maintained without re-applying the full operator.
//  * Inter-domain coupling (the R term of A = D + R) flows exclusively
//    through packed AOS half-spinor boundary buffers (Fig. 3): the
//    producing domain projects and packs while its data is hot; the
//    consuming domain multiplies by its own link (backward faces) and
//    reconstructs. In a multi-node run these same buffers are what is
//    handed to MPI (Sec. III-A, III-E).
//  * Gauge links and clover blocks are stored in storage scalar S — float
//    or Half — while all arithmetic is float (Sec. III-B). A domain visit
//    up-converts the domain's matrices once, as it starts, and every
//    kernel of the block solve reads that float copy — the software
//    counterpart of the KNC's convert-on-load.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>

#include "lqcd/base/per_thread.h"
#include "lqcd/schwarz/setup.h"
#include "lqcd/solver/linear_operator.h"
#include "lqcd/solver/mr.h"

namespace lqcd {

struct SchwarzParams {
  /// ISchwarz: number of full Schwarz sweeps. One multiplicative sweep
  /// solves ALL domains (black color phase, boundary exchange, then white
  /// phase, boundary exchange) — matching Table I, where each s iteration
  /// runs "the block solve on each domain".
  int schwarz_iterations = 16;
  int block_mr_iterations = 5;  ///< Idomain MR iterations per block solve
  bool additive = false;        ///< additive instead of multiplicative
  /// Paper Sec. VI (future work): store the preconditioner's SPINORS in
  /// half precision too, shrinking the working set further. Emulated by
  /// rounding the gathered domain residual and the block-solve correction
  /// through IEEE binary16 on every domain visit. The face buffers are
  /// not rounded: they are packed in float from the rounded correction.
  bool half_precision_spinors = false;
  /// Optional fault-injection hook: corrupts the sweep residual once per
  /// apply() (per the injector's own schedule), modelling SDC or fp16
  /// range exhaustion inside the preconditioner. nullptr = fault-free.
  FaultInjector* fault_injector = nullptr;
  /// Optional PARALLEL fault-injection hook (FaultSite::kDomainSolve): one
  /// opportunity per domain visit inside the OpenMP Schwarz sweeps, drawn
  /// through a ParallelFaultScope so the fired pattern and all counters are
  /// exactly independent of OMP_NUM_THREADS. A fired visit corrupts the
  /// domain's freshly packed RHS-0 face buffers (the data the next halo
  /// exchange consumes). Independent of `fault_injector` (which stays a
  /// serial once-per-apply hook); nullptr = off.
  FaultInjector* domain_fault_injector = nullptr;
  /// Optional in-solve packed-data fault hook (FaultSite::kPackedData):
  /// one opportunity per (sweep, packed component) — gauge links, clover
  /// diagonal, inverse clover — fired between Schwarz sweeps through a
  /// ParallelFaultScope, so detection latency of the ABFT checksum sweeps
  /// is measurable and the fired pattern is thread-count-invariant. Must
  /// be a DIFFERENT injector instance from domain_fault_injector (two
  /// live scopes must not share one pre-drawn budget); nullptr = off.
  FaultInjector* packed_fault_injector = nullptr;
};

struct SchwarzStats {
  std::int64_t applications = 0;   ///< M applications (one per RHS)
  std::int64_t block_solves = 0;
  std::int64_t mr_iterations = 0;  ///< total block-MR iterations
  std::int64_t flops = 0;          ///< floating-point ops executed
  std::int64_t boundary_bytes = 0; ///< bytes written to face buffers
  std::int64_t injected_faults = 0;     ///< faults the hook fired in sweeps
  std::int64_t precision_fallbacks = 0; ///< half->single retries (bridge)
  /// Times a domain's packed gauge+clover block was streamed from its
  /// backing storage. Charged once per domain VISIT — a batched sweep
  /// loads the matrices once and applies them to every RHS — so
  /// matrix_block_loads per sweep is independent of the batch width
  /// while block_solves scales with it (paper Sec. VI).
  std::int64_t matrix_block_loads = 0;
  std::int64_t sweeps = 0;  ///< full Schwarz sweeps executed

  void reset() { *this = SchwarzStats{}; }
  bool operator==(const SchwarzStats&) const = default;

  SchwarzStats& operator+=(const SchwarzStats& o) noexcept {
    applications += o.applications;
    block_solves += o.block_solves;
    mr_iterations += o.mr_iterations;
    flops += o.flops;
    boundary_bytes += o.boundary_bytes;
    injected_faults += o.injected_faults;
    precision_fallbacks += o.precision_fallbacks;
    matrix_block_loads += o.matrix_block_loads;
    sweeps += o.sweeps;
    return *this;
  }
};

inline SchwarzStats operator+(SchwarzStats a, const SchwarzStats& b) noexcept {
  a += b;
  return a;
}

template <class S>
class SchwarzPreconditioner final : public Preconditioner<float> {
 public:
  /// Legacy one-shot form: build (and own) a private SchwarzSetup. `op`
  /// must have prepare_schur() already called; partition and operator
  /// must outlive the preconditioner.
  SchwarzPreconditioner(const DomainPartition& part,
                        const WilsonCloverOperator<float>& op,
                        const SchwarzParams& params)
      : SchwarzPreconditioner(std::make_shared<SchwarzSetup<S>>(part, op),
                              params) {}

  /// Shared-setup form: attach to an existing packed per-configuration
  /// setup. Only mutable per-solve state (residuals, face buffers,
  /// per-thread scratch, stats) is allocated here, so constructing more
  /// preconditioners on the same configuration costs no re-packing.
  SchwarzPreconditioner(std::shared_ptr<SchwarzSetup<S>> setup,
                        const SchwarzParams& params)
      : setup_(std::move(setup)),
        part_(&setup_->partition()),
        params_(params) {
    LQCD_CHECK(setup_ != nullptr);
    // Resolve the SIMD dispatch table now, so a bad LQCD_SIMD_BACKEND
    // fails at construction rather than mid-solve at the first dispatched
    // call (the fp16 decode that opens every S = Half domain visit, or the
    // first block-solve kernel).
    simd::kernels();
    buffers_.resize(static_cast<std::size_t>(part_->num_domains()) *
                    static_cast<std::size_t>(buffer_stride()));
    all_domains_.resize(static_cast<std::size_t>(part_->num_domains()));
    std::iota(all_domains_.begin(), all_domains_.end(), 0);
    ensure_scratch();
    r_batch_.resize(1);  // residual(0) is addressable even before apply()
  }

  const SchwarzStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_.reset(); }
  /// Recorded by DDSolver's precision bridge when a non-finite output
  /// forced a retry on the single-precision fallback matrices.
  void note_precision_fallback() noexcept { ++stats_.precision_fallbacks; }
  const SchwarzParams& params() const noexcept { return params_; }
  const DomainPartition& partition() const noexcept { return *part_; }
  /// The shared per-configuration packed state backing this instance:
  /// the packed matrices and their ABFT checksum and repair surface.
  const std::shared_ptr<SchwarzSetup<S>>& setup() const noexcept {
    return setup_;
  }

  /// u = M f: ISchwarz Schwarz sweeps starting from u = 0.
  void apply(const FermionField<float>& f, FermionField<float>& u) override {
    const FermionField<float>* fp[1] = {&f};
    FermionField<float>* up[1] = {&u};
    apply_impl(1, fp, up);
  }

  /// Batched u[b] = M f[b] over nrhs right-hand sides (paper Sec. VI).
  /// The sweep loop runs domains on the OUTSIDE and RHS on the INSIDE, so
  /// each domain's packed gauge+clover matrices are streamed once per
  /// sweep regardless of nrhs — matrix_block_loads counts exactly that.
  /// apply() is apply_batch() of one RHS: there is one block-solve path.
  void apply_batch(const std::vector<const FermionField<float>*>& f,
                   const std::vector<FermionField<float>*>& u) override {
    LQCD_CHECK_MSG(!f.empty() && f.size() == u.size(),
                   "apply_batch needs matching, non-empty f/u batches");
    apply_impl(static_cast<int>(f.size()), f.data(), u.data());
  }

  /// The residual field of RHS b maintained during the last apply() /
  /// apply_batch() — exposed for verification (r == f - A u holds exactly
  /// for S = float).
  const FermionField<float>& residual(int b = 0) const noexcept {
    return r_batch_[static_cast<std::size_t>(b)];
  }

 private:
  struct Scratch {
    SchwarzStats stats;  // merged into stats_ at the end of apply()
    /// Float copy of the visited domain's matrices (S = Half only; see
    /// SchwarzSetup::decode_domain).
    AlignedVector<float> decoded;

    // SOA-over-RHS working set, allocated lazily on the first domain visit
    // and reused until the lane count changes: a lockstep batch that
    // shrinks as its lanes converge keeps one allocation while its padded
    // count stays the same.
    BlockSpinorLanes r_lanes, z_lanes;  // full-volume (vd sites)
    BlockSpinorLanes rhs_e_lanes, mr_r_lanes, mr_ar_lanes, t1_lanes,
        t2_lanes;  // half-volume (hv sites)
    LaneMRState mr_state;
    int lane_count = 0;  // lane count the buffers are sized for

    void ensure_lanes(std::int32_t vd, std::int32_t hv, int lanes) {
      if (lane_count == lanes) return;
      r_lanes = BlockSpinorLanes(vd, lanes);
      z_lanes = BlockSpinorLanes(vd, lanes);
      rhs_e_lanes = BlockSpinorLanes(hv, lanes);
      mr_r_lanes = BlockSpinorLanes(hv, lanes);
      mr_ar_lanes = BlockSpinorLanes(hv, lanes);
      t1_lanes = BlockSpinorLanes(hv, lanes);
      t2_lanes = BlockSpinorLanes(hv, lanes);
      lane_count = lanes;
    }
  };

  /// Grow the per-thread scratch pool to the CURRENT OpenMP thread limit.
  /// The pool is sized at construction, but omp_set_num_threads() may raise
  /// the limit afterwards; without this re-check the sweep loops would run
  /// more threads than there are slots. Existing slots (and their warm
  /// buffers) are kept; only new slots allocate. Never called from inside a
  /// parallel region.
  void ensure_scratch() {
    scratch_.grow_to_thread_limit();
    scratch_.for_each(
        [&](Scratch& sc) { sc.decoded.resize(setup_->decode_size()); });
  }

  void apply_impl(int nrhs, const FermionField<float>* const* f,
                  FermionField<float>* const* u) {
    const auto volume = part_->geometry().volume();
    const int nd = part_->num_domains();
    ensure_scratch();
    // Validate the WHOLE batch before touching any output: a RHS with a
    // mismatched lattice geometry must not leave earlier RHS half-updated.
    for (int b = 0; b < nrhs; ++b) {
      LQCD_CHECK_MSG(f[b]->size() == volume && u[b]->size() == volume,
                     "apply_batch: RHS " << b
                         << " has a mismatched lattice geometry (f size "
                         << f[b]->size() << ", u size " << u[b]->size()
                         << ", preconditioner volume " << volume << ")");
    }
    if (static_cast<int>(r_batch_.size()) < nrhs)
      r_batch_.resize(static_cast<std::size_t>(nrhs));
    const std::size_t need_buf = static_cast<std::size_t>(nrhs) *
                                 static_cast<std::size_t>(nd) *
                                 static_cast<std::size_t>(buffer_stride());
    if (buffers_.size() < need_buf) buffers_.resize(need_buf);

    for (int b = 0; b < nrhs; ++b) {
      u[b]->zero();
      auto& r = r_batch_[static_cast<std::size_t>(b)];
      if (r.size() != volume) r = FermionField<float>(volume);
      copy(*f[b], r);
      ++stats_.applications;
      if (params_.fault_injector != nullptr &&
          params_.fault_injector->maybe_corrupt(r, FaultSite::kSchwarzSweep))
        ++stats_.injected_faults;
    }
    r_ptrs_.resize(static_cast<std::size_t>(nrhs));
    for (int b = 0; b < nrhs; ++b)
      r_ptrs_[static_cast<std::size_t>(b)] =
          &r_batch_[static_cast<std::size_t>(b)];
    // Read once per apply, so a backend switch between applies re-pads.
    lanes_ = batch_lanes(nrhs, simd::kernels().lane_width);

    // Deterministic parallel fault hook: pre-draw one fire decision per
    // domain VISIT (schwarz_iterations x num_domains keys, serial, from the
    // injector's own RNG stream), then let the sweep threads consult the
    // read-only decision table and record stats in per-thread shards. The
    // fired pattern and every counter are a pure function of the injector
    // seed and the visit schedule — exactly OMP_NUM_THREADS-invariant.
    ParallelFaultScope domain_scope(
        params_.domain_fault_injector, FaultSite::kDomainSolve,
        static_cast<std::int64_t>(params_.schwarz_iterations) * nd);
    domain_scope_ = &domain_scope;
    // In-solve packed-data upsets (FaultSite::kPackedData): one pre-drawn
    // opportunity per (sweep, packed component), fired in the serial gap
    // between sweeps. Routing the serial firing through a scope
    // keeps the decisions, the corrupted element, and all counters a pure
    // function of (seed, schedule) — the same thread-count-invariance
    // contract as the domain-visit hook above.
    ParallelFaultScope packed_scope(
        params_.packed_fault_injector, FaultSite::kPackedData,
        static_cast<std::int64_t>(params_.schwarz_iterations) *
            kNumPackedComponents);
    const std::vector<int>& black = part_->domains_of_color(0);
    const std::vector<int>& white = part_->domains_of_color(1);
    const auto n_black = static_cast<std::int64_t>(black.size());

    for (int s = 0; s < params_.schwarz_iterations; ++s) {
      ++stats_.sweeps;
      const std::int64_t visit_base = static_cast<std::int64_t>(s) * nd;
      if (params_.additive) {
        sweep(all_domains_, nrhs, u, visit_base);
        apply_halo_updates(all_domains_, nrhs);
      } else {
        // Multiplicative: black phase, exchange into the white domains,
        // white phase, exchange into the black domains.
        sweep(black, nrhs, u, visit_base);
        apply_halo_updates(white, nrhs);
        sweep(white, nrhs, u, visit_base + n_black);
        apply_halo_updates(black, nrhs);
      }
      if (params_.packed_fault_injector != nullptr)
        inject_packed_between_sweeps(packed_scope, s);
    }
    domain_scope_ = nullptr;
    domain_scope.merge();  // fold per-thread shards into the injector stats
    packed_scope.merge();

    scratch_.for_each([&](Scratch& sc) {
      stats_ += sc.stats;
      sc.stats.reset();
    });
  }

  /// Fire the pre-drawn packed-data upsets of sweep `s`: one key per
  /// packed component, each targeting that component's whole storage (the
  /// corrupted element is drawn from the key's own RNG). Serial — runs in
  /// the gap between sweeps, exactly where a long-lived upset would bite.
  void inject_packed_between_sweeps(ParallelFaultScope& scope, int s) {
    const std::int64_t k0 =
        static_cast<std::int64_t>(s) * kNumPackedComponents;
    for (const PackedComponent c : kPackedComponents)
      if (setup_->corrupt_packed(
              scope, k0 + static_cast<std::int64_t>(index_of(c)), c))
        ++stats_.injected_faults;
  }

  /// Face-buffer slot of (RHS b, domain d): RHS-major so the nrhs = 1
  /// layout coincides with the historical one-buffer-per-domain layout.
  std::int64_t buffer_slot(int b, int d) const noexcept {
    return static_cast<std::int64_t>(b) * part_->num_domains() + d;
  }

  /// Floats of one (RHS, domain) face-buffer slot: a packed half spinor
  /// (12 reals, 48 B; the paper's Fig. 3: four sites fit three cache
  /// lines) per face site, the faces in the partition's face order.
  std::int64_t buffer_stride() const noexcept {
    return 12 * static_cast<std::int64_t>(part_->face_sites().size());
  }

  float* buffer_ptr(std::int64_t slot, int mu, Dir dir) noexcept {
    return buffers_.data() + static_cast<std::size_t>(slot) *
                                 static_cast<std::size_t>(buffer_stride()) +
           12 * static_cast<std::size_t>(part_->face_offset(mu, dir));
  }

  std::int64_t schur_flops() const noexcept {
    // Two half-dslashes + two block-diagonal applications + the combine.
    return 168 * 2 * part_->hops_per_parity() +
           static_cast<std::int64_t>(part_->domain_volume()) * 504 / 2 * 2 +
           static_cast<std::int64_t>(part_->domain_half_volume()) * 24;
  }

  static HalfSpinor<float> read_halfspinor(const float* src) noexcept {
    HalfSpinor<float> h;
    int k = 0;
    for (int sp = 0; sp < 2; ++sp)
      for (int c = 0; c < kNumColors; ++c) {
        const float re = src[k++];
        const float im = src[k++];
        h.s[sp].c[c] = Complex<float>(re, im);
      }
    return h;
  }

  /// Add one incoming face buffer's R coupling to the residual of
  /// destination domain `dst`. A forward face lands on dst's backward
  /// boundary sites as packed; a backward face is first multiplied by
  /// dst's own link U_mu (`dst_links`, dst's decoded links) at its
  /// forward boundary sites.
  void apply_face(int dst, const float* dst_links, const HaloSource& src,
                  std::int64_t slot, FermionField<float>& r,
                  SchwarzStats& stats) {
    const int mu = src.mu;
    const bool fwd = src.dir == Dir::kForward;
    const float* buf = buffer_ptr(slot, mu, src.dir);
    const std::span<const std::int32_t> partners =
        part_->face_partners(mu, src.dir);
    for (std::size_t i = 0; i < partners.size(); ++i) {
      const std::int32_t pl = partners[i];
      HalfSpinor<float> h = read_halfspinor(buf + i * 12);
      if (!fwd)
        h = mul(load_su3(dst_links + (static_cast<std::size_t>(pl) *
                                          kNumDims +
                                      static_cast<std::size_t>(mu)) *
                                         kSU3Reals),
                h);
      const std::int32_t g = part_->global_site(dst, pl);
      Spinor<float> add;
      add.zero();
      reconstruct_add(add, h, mu, fwd ? +1 : -1);
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c)
          r[g].s[sp].c[c] += 0.5f * add.s[sp].c[c];
    }
    stats.flops += static_cast<std::int64_t>(partners.size()) *
                   (fwd ? 24 + 24 : 132 + 24 + 24);
  }

  // -------------------------------------------------------------------------
  // The block solve (SOA-over-RHS, paper Sec. VI).
  //
  // A domain visit streams the domain's packed matrices once and applies
  // them to every RHS lane. Each operator step is one dispatched call that
  // walks the whole domain (simd/dispatch.h): the parity dslash, the
  // clover blocks, the xpay combines, the MR dots and updates, and the
  // boundary pack. The arithmetic is compiled only in the backend
  // translation units, at -ffp-contract=off. A batch of one runs at one
  // lane, vectorized within the site; wider batches pad to the backend's
  // lane width. The counters charge exactly nrhs times the one-RHS work in
  // every backend: MR iterations and axpy flops are charged per still-
  // active lane, and lane masking branches only on exact zeros, which all
  // backends preserve.
  // -------------------------------------------------------------------------

  /// One domain visit: decode the matrices, then the block solve of every
  /// lane of the batch.
  void solve_domain_batch(int d, int nrhs, FermionField<float>* const* u,
                          Scratch& sc) {
    const DomainMatrices m = setup_->decode_domain(d, sc.decoded);
    ++sc.stats.matrix_block_loads;
    solve_domain_lanes(m, d, nrhs, u, sc);
  }

  /// out = D_{out_parity, 1-out_parity} in on all lanes, one dispatched
  /// whole-domain call. Even fields are indexed by local site < hv, odd
  /// fields by l - hv.
  void lane_dslash(const DomainMatrices& m, int out_parity,
                   const BlockSpinorLanes& in, BlockSpinorLanes& out) const {
    const std::int32_t hv = part_->domain_half_volume();
    simd::kernels().dslash_lanes(m.links(), part_->local_neighbors(),
                                 out_parity == 0 ? 0 : hv,
                                 out_parity == 0 ? hv : 0, hv, in.data(),
                                 out.data(), out.lanes());
  }

  /// out_e = Dtilde_ee in_e = A_ee in_e - 1/4 D_eo A_oo^-1 D_oe in_e within
  /// the domain (Dirichlet boundaries), all lanes.
  void lane_schur(const DomainMatrices& m, const BlockSpinorLanes& in_e,
                  BlockSpinorLanes& out_e, Scratch& sc) {
    const simd::Kernels& k = simd::kernels();
    const std::int32_t hv = part_->domain_half_volume();
    const int L = in_e.lanes();
    lane_dslash(m, 1, in_e, sc.t1_lanes);
    k.clover_lanes(m.inv_o(), hv, sc.t1_lanes.data(), sc.t2_lanes.data(),
                   L);
    lane_dslash(m, 0, sc.t2_lanes, out_e);
    k.clover_lanes(m.diag_e(), hv, in_e.data(), sc.t1_lanes.data(), L);
    k.xpay_lanes(sc.t1_lanes.data(), -0.25f, out_e.data(), out_e.data(),
                 static_cast<std::int64_t>(hv) * kSpinorReals * L);
  }

  /// Round p[0..n) through IEEE binary16 in place with the dispatched
  /// array converters (bit-identical to half_round_trip() per float), a
  /// fixed-size stack chunk at a time, so a visit allocates nothing.
  static void round_lanes_fp16(float* p, std::int64_t n) {
    constexpr std::int64_t kChunk = 1024;
    Half buf[kChunk] = {};
    const simd::Kernels& k = simd::kernels();
    for (std::int64_t i = 0; i < n; i += kChunk) {
      const std::int64_t m = std::min(kChunk, n - i);
      k.float_to_half_n(p + i, buf, m);
      k.half_to_float_n(buf, p + i, m);
    }
  }

  /// One domain's block solve: gather every RHS residual into the
  /// SOA-over-RHS containers (optionally through fp16 spinor storage),
  /// run ONE even-odd MR block solve across all lanes (per-lane alpha,
  /// lane masking for converged or zero RHS), scatter the corrections
  /// back and pack each RHS's boundary buffers.
  void solve_domain_lanes(const DomainMatrices& m, int d, int nrhs,
                          FermionField<float>* const* u, Scratch& sc) {
    const std::int32_t vd = part_->domain_volume();
    const std::int32_t hv = part_->domain_half_volume();
    sc.ensure_lanes(vd, hv, lanes_);
    const int L = lanes_;
    const auto nb = static_cast<std::int64_t>(nrhs);
    const simd::Kernels& k = simd::kernels();

    const std::int32_t* sites = part_->domain_sites(d);
    pack_rhs_lanes(r_ptrs_.data(), nrhs, sites, vd, sc.r_lanes);
    if (params_.half_precision_spinors)
      round_lanes_fp16(sc.r_lanes.data(),
                       static_cast<std::int64_t>(vd) * kSpinorReals * L);
    const std::size_t half_floats = static_cast<std::size_t>(hv) *
                                    static_cast<std::size_t>(kSpinorReals) *
                                    static_cast<std::size_t>(L);
    const float* r_odd = sc.r_lanes.data() + half_floats;

    // Schur RHS: rhs_e = r_e + 1/2 D_eo A_oo^-1 r_o.
    k.clover_lanes(m.inv_o(), hv, r_odd, sc.t1_lanes.data(), L);
    lane_dslash(m, 0, sc.t1_lanes, sc.rhs_e_lanes);
    k.xpay_lanes(sc.r_lanes.data(), 0.5f, sc.rhs_e_lanes.data(),
                 sc.rhs_e_lanes.data(), static_cast<std::int64_t>(half_floats));
    sc.stats.flops +=
        nb * (168 * part_->hops_per_parity() + hv * (504 + 24));

    // Block MR on Dtilde_ee with a fixed iteration count, z_e from 0, every
    // lane in one pass. Counter contract: a lane is charged an MR
    // iteration (and schur+dot flops) for every iteration it ENTERS, and
    // axpy flops only when its arar != 0.
    sc.z_lanes.zero();
    std::memcpy(sc.mr_r_lanes.data(), sc.rhs_e_lanes.data(),
                sizeof(float) * half_floats);
    sc.mr_state.reset(L, nrhs);
    const std::int64_t ncplx =
        static_cast<std::int64_t>(hv) * (kSpinorReals / 2);
    for (int it = 0; it < params_.block_mr_iterations; ++it) {
      const int active_before = sc.mr_state.num_active();
      if (active_before == 0) break;
      lane_schur(m, sc.mr_r_lanes, sc.mr_ar_lanes, sc);
      lane_mr_dots(sc.mr_r_lanes.data(), sc.mr_ar_lanes.data(), ncplx, L,
                   sc.mr_state);
      sc.stats.mr_iterations += active_before;
      sc.stats.flops += active_before * (schur_flops() + hv * 24 * 3);
      const int active_after = lane_mr_alphas(sc.mr_state);
      if (active_after == 0) continue;  // all alphas 0: z and r frozen
      lane_mr_axpy(sc.z_lanes.data(), sc.mr_r_lanes.data(),
                   sc.mr_ar_lanes.data(), ncplx, L, sc.mr_state);
      sc.stats.flops += static_cast<std::int64_t>(active_after) * hv * 24 * 4;
    }

    // Odd reconstruction: z_o = A_oo^-1 (r_o + 1/2 D_oe z_e).
    lane_dslash(m, 1, sc.z_lanes, sc.t1_lanes);
    k.xpay_lanes(r_odd, 0.5f, sc.t1_lanes.data(), sc.t1_lanes.data(),
                 static_cast<std::int64_t>(half_floats));
    k.clover_lanes(m.inv_o(), hv, sc.t1_lanes.data(),
                   sc.z_lanes.data() + half_floats, L);
    sc.stats.flops +=
        nb * (168 * part_->hops_per_parity() + hv * (504 + 24));

    if (params_.half_precision_spinors)
      round_lanes_fp16(sc.z_lanes.data(),
                       static_cast<std::int64_t>(vd) * kSpinorReals * L);

    // Scatter: u += z; residual even <- MR residual, odd <- 0 (exact by
    // the Schur reconstruction).
    for (std::int32_t l = 0; l < vd; ++l) {
      const std::int32_t g = sites[l];
      for (int sp = 0; sp < kNumSpins; ++sp)
        for (int c = 0; c < kNumColors; ++c) {
          const int comp = (sp * kNumColors + c) * 2;
          const float* z_re = sc.z_lanes.lane_vec(l, comp);
          const float* z_im = z_re + L;
          for (int b = 0; b < nrhs; ++b)
            (*u[b])[g].s[sp].c[c] += Complex<float>(z_re[b], z_im[b]);
        }
      if (l < hv) {
        for (int sp = 0; sp < kNumSpins; ++sp)
          for (int c = 0; c < kNumColors; ++c) {
            const int comp = (sp * kNumColors + c) * 2;
            const float* r_re = sc.mr_r_lanes.lane_vec(l, comp);
            const float* r_im = r_re + L;
            for (int b = 0; b < nrhs; ++b)
              r_batch_[static_cast<std::size_t>(b)][g].s[sp].c[c] =
                  Complex<float>(r_re[b], r_im[b]);
          }
      } else {
        for (int b = 0; b < nrhs; ++b)
          r_batch_[static_cast<std::size_t>(b)][g].zero();
      }
    }

    // Boundary pack into the per-(RHS, domain) AOS face buffers (paper
    // Fig. 3): forward faces are link-multiplied by the producer (it owns
    // U_mu(x)); backward faces are packed raw and link-multiplied by the
    // consumer.
    k.pack_faces_lanes(m.links(), part_->face_sites().data(),
                       part_->face_sizes(), sc.z_lanes.data(), L, nrhs,
                       buffer_ptr(buffer_slot(0, d), 0, Dir::kForward),
                       static_cast<std::int64_t>(part_->num_domains()) *
                           buffer_stride());
    std::int64_t face_sites = 0;
    for (int mu = 0; mu < kNumDims; ++mu) face_sites += part_->face_size(mu);
    sc.stats.boundary_bytes += nb * 2 * face_sites * 12 * 4;
    sc.stats.flops += nb * face_sites * ((12 + 132) + 12);
    sc.stats.block_solves += nrhs;
  }

  /// Visit one domain on the calling thread: block solve, then the (inert
  /// when unarmed) deterministic parallel fault hook. A fired visit
  /// corrupts the domain's packed RHS-0 face buffers — the data the next
  /// halo update consumes — and is charged to the per-thread scratch
  /// stats so counters merge thread-count-invariantly.
  void visit_domain(int d, int nrhs, FermionField<float>* const* u,
                    std::int64_t visit_key) {
    Scratch& sc = scratch_.local();
    solve_domain_batch(d, nrhs, u, sc);
    if (domain_scope_ != nullptr &&
        domain_scope_->maybe_corrupt_reals(
            visit_key,
            buffers_.data() + static_cast<std::size_t>(buffer_slot(0, d)) *
                                  static_cast<std::size_t>(buffer_stride()),
            buffer_stride()))
      ++sc.stats.injected_faults;
  }

  /// One sweep phase: visit every domain of `list` (one color, or all
  /// domains for additive Schwarz) in parallel; visit i draws fault key
  /// visit_base + i.
  void sweep(const std::vector<int>& list, int nrhs,
             FermionField<float>* const* u, std::int64_t visit_base) {
    const auto n = static_cast<std::int64_t>(list.size());
#pragma omp parallel for schedule(static) default(none) \
    shared(list, n, nrhs, u, visit_base)
    for (std::int64_t i = 0; i < n; ++i)
      visit_domain(list[static_cast<std::size_t>(i)], nrhs, u,
                   visit_base + i);
  }

  /// Halo update after a sweep phase: each domain of `destinations` adds
  /// its neighbors' freshly packed face buffers to its boundary residual
  /// sites. Destinations own disjoint sites, so they run in parallel, and
  /// each applies its faces in DomainPartition::halo_sources() order — the
  /// per-site addition order of a serial producer-major loop — so the
  /// residual is bit-identical at every thread count.
  void apply_halo_updates(const std::vector<int>& destinations, int nrhs) {
    const auto n = static_cast<std::int64_t>(destinations.size());
#pragma omp parallel for schedule(static) default(none) \
    shared(destinations, n, nrhs)
    for (std::int64_t i = 0; i < n; ++i) {
      Scratch& sc = scratch_.local();
      const int dst = destinations[static_cast<std::size_t>(i)];
      const float* links = setup_->decode_links(dst, sc.decoded);
      for (int b = 0; b < nrhs; ++b)
        for (const HaloSource& src : part_->halo_sources(dst))
          apply_face(dst, links, src, buffer_slot(b, src.producer),
                     r_batch_[static_cast<std::size_t>(b)], sc.stats);
    }
  }

  /// Shared per-configuration packed state (matrices, checksums) and the
  /// partition whose face, partner, halo-order and hop tables the sweep
  /// reads. Everything below them is per-instance mutable per-solve state.
  std::shared_ptr<SchwarzSetup<S>> setup_;
  const DomainPartition* part_;
  SchwarzParams params_;
  SchwarzStats stats_;

  AlignedVector<float> buffers_;

  /// Residual fields, one per RHS of the widest batch seen so far.
  /// r_batch_[0] doubles as the single-RHS residual.
  std::vector<FermionField<float>> r_batch_;
  /// Read-only pointer view of r_batch_[0..nrhs) for the lane gather
  /// bridge; rebuilt at the start of every apply_impl().
  std::vector<const FermionField<float>*> r_ptrs_;
  PerThread<Scratch> scratch_;
  /// 0 .. num_domains - 1: the additive sweep's visit and halo list.
  std::vector<int> all_domains_;
  /// Live only while apply_impl()'s sweep loop runs; points at the
  /// stack-local ParallelFaultScope of the current application.
  ParallelFaultScope* domain_scope_ = nullptr;
  /// Lane count of the current application's batch (batch_lanes() at
  /// the active backend's lane width). Set by apply_impl().
  int lanes_ = 0;
};

}  // namespace lqcd
