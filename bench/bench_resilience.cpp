// Resilient-solve layer benchmarks:
//
//  (1) Guard overhead on the fault-free path: DDSolver with the full
//      resilience stack armed (finiteness scans on every preconditioner
//      output + one iterate checkpoint per outer cycle) vs. the plain
//      pipeline, after one untimed warm-up solve. Prints the wall-clock
//      overhead and whether the iteration trajectory is identical. The
//      overhead is not gated: 8^4 solves are
//      too short to resolve a few percent. The identical trajectory is
//      asserted by the resilience_on_vs_off_fault_free row of
//      tests/test_contracts.cpp.
//  (2) Time-to-solution under injected faults, one scenario per fault
//      class (SDC bit-flip of the iterate, fp16 saturation in the Schwarz
//      sweep, degenerate zero correction), with the recovery events the
//      solver recorded.
//  (3) Cluster-level fault scenarios on the paper's 1024-node Table III
//      configuration: straggler node, lossy fabric, node failures with
//      and without checkpointing.
//  (4) Fault-tolerant collectives: replay the host-proxy allreduce tree
//      with a dead rank in the vnode emulation, measure the rewire cost
//      (hops replayed x per-hop latency), and feed it into the cluster
//      model side by side with the legacy flat recovery constant.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "lqcd/base/timer.h"
#include "lqcd/cluster/cluster_sim.h"
#include "lqcd/core/dd_solver.h"
#include "lqcd/resilience/fault_injector.h"
#include "lqcd/vnode/collectives.h"

using namespace lqcd;

namespace {

struct Problem {
  Geometry geom;
  GaugeField<double> gauge;
  FermionField<double> b;

  Problem(const Coord& dims, double disorder, std::uint64_t seed)
      : geom(dims),
        gauge([&] {
          auto g = random_gauge_field<double>(geom, disorder, seed);
          g.make_time_antiperiodic();
          return g;
        }()),
        b(geom.volume()) {
    gaussian(b, seed + 1);
  }
};

// Deliberately weak preconditioner: the solve spans several outer FGMRES
// cycles, so checkpoints, rollbacks and restarts actually engage (a
// near-exact preconditioner converges in one cycle and the cycle-level
// machinery never runs).
DDSolverConfig base_config() {
  DDSolverConfig cfg;
  cfg.block = {4, 4, 4, 4};
  cfg.basis_size = 6;
  cfg.deflation_size = 2;
  cfg.schwarz_iterations = 1;
  cfg.block_mr_iterations = 2;
  cfg.tolerance = 1e-10;
  cfg.max_iterations = 4000;
  return cfg;
}

struct SolveRun {
  SolverStats stats;
  double seconds = 0;
};

SolveRun run_solve(const Problem& prob, double mass,
                   const DDSolverConfig& cfg, int repeats) {
  SolveRun best;
  best.seconds = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    DDSolver solver(prob.geom, prob.gauge, mass, 1.0, cfg);
    // Re-arm the injectors so every repetition sees the same fault
    // sequence.
    if (cfg.resilience.schwarz_injector != nullptr)
      cfg.resilience.schwarz_injector->reset();
    if (cfg.resilience.iterate_injector != nullptr)
      cfg.resilience.iterate_injector->reset();
    if (cfg.resilience.packed_injector != nullptr)
      cfg.resilience.packed_injector->reset();
    FermionField<double> x(prob.geom.volume());
    Timer t;
    const auto stats = solver.solve(prob.b, x);
    const double s = t.seconds();
    if (s < best.seconds) best = {stats, s};
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::print_header(
      "Resilient-solve layer: guard overhead and recovery cost",
      "robustness extension (not in the paper); fault model motivated by "
      "the paper's\n1024-KNC production scale",
      smoke ? "(--smoke: single repeat per scenario)"
            : "lattice 8^4, disorder 0.7, mass 0.1, csw = 1.0; faults "
              "injected\ndeterministically (seeded)");

  Problem prob({8, 8, 8, 8}, 0.7, 4242);
  const double mass = 0.1;
  // min-of-N to suppress scheduler noise; 1 in CI smoke mode.
  const int repeats = smoke ? 1 : 5;

  // ---- (1) fault-free overhead ------------------------------------------
  {
    DDSolverConfig cfg = base_config();
    // One untimed solve first: the process's first solve pays page faults,
    // OpenMP thread start-up and cold caches, which would be charged to
    // the plain pipeline alone.
    run_solve(prob, mass, cfg, 1);
    const auto plain = run_solve(prob, mass, cfg, repeats);
    cfg.resilience.enabled = true;
    const auto armed = run_solve(prob, mass, cfg, repeats);
    const double overhead =
        100.0 * (armed.seconds - plain.seconds) / plain.seconds;
    std::printf("fault-free overhead\n");
    std::printf("  plain pipeline     : %8.3f s, %4d iterations\n",
                plain.seconds, plain.stats.iterations);
    std::printf("  resilience armed   : %8.3f s, %4d iterations\n",
                armed.seconds, armed.stats.iterations);
    std::printf("  overhead           : %+7.2f %%   iterations %s\n\n",
                overhead,
                armed.stats.iterations == plain.stats.iterations
                    ? "bit-identical"
                    : "DIFFER (unexpected)");
  }

  // ---- (2) time-to-solution under injected faults -----------------------
  {
    DDSolverConfig cfg = base_config();
    const auto clean = run_solve(prob, mass, cfg, repeats);

    std::printf("recovery cost per fault class (vs clean %.3f s, %d its)\n",
                clean.seconds, clean.stats.iterations);

    // SDC: flip an exponent bit of the outer iterate between cycles.
    {
      FaultInjectorConfig fic;
      fic.fault = FaultClass::kSpinorBitFlip;
      fic.seed = 23;
      fic.bit = 62;
      fic.first_opportunity = 0;
      fic.max_events = 1;
      FaultInjector inj(fic);
      DDSolverConfig c = cfg;
      c.resilience.enabled = true;
      c.resilience.iterate_injector = &inj;
      const auto r = run_solve(prob, mass, c, repeats);
      std::printf(
          "  SDC bit-flip       : %8.3f s, %4d its, %d rollbacks, "
          "%s, breakdown=%s\n",
          r.seconds, r.stats.iterations, r.stats.rollback_restarts,
          r.stats.converged ? "converged" : "FAILED",
          to_string(r.stats.breakdown));
    }

    // fp16 saturation inside the Schwarz sweep -> precision fallback.
    {
      FaultInjectorConfig fic;
      fic.fault = FaultClass::kFp16Overflow;
      fic.seed = 29;
      fic.first_opportunity = 2;
      fic.max_events = 2;
      FaultInjector inj(fic);
      DDSolverConfig c = cfg;
      c.resilience.enabled = true;
      c.resilience.schwarz_injector = &inj;
      DDSolver solver(prob.geom, prob.gauge, mass, 1.0, c);
      FermionField<double> x(prob.geom.volume());
      Timer t;
      const auto stats = solver.solve(prob.b, x);
      std::printf(
          "  fp16 overflow      : %8.3f s, %4d its, %lld fallbacks, "
          "%s, breakdown=%s\n",
          t.seconds(), stats.iterations,
          static_cast<long long>(solver.schwarz_stats().precision_fallbacks),
          stats.converged ? "converged" : "FAILED",
          to_string(stats.breakdown));
    }

    // Degenerate zero correction -> discarded direction + plain restart.
    {
      FaultInjectorConfig fic;
      fic.fault = FaultClass::kZeroField;
      fic.seed = 31;
      fic.first_opportunity = 1;
      fic.max_events = 1;
      FaultInjector inj(fic);
      DDSolverConfig c = cfg;
      c.half_precision_matrices = false;
      c.resilience.enabled = true;
      c.resilience.schwarz_injector = &inj;
      const auto r = run_solve(prob, mass, c, repeats);
      std::printf(
          "  zero correction    : %8.3f s, %4d its, %d restarts, "
          "%s, breakdown=%s\n\n",
          r.seconds, r.stats.iterations, r.stats.stagnation_restarts,
          r.stats.converged ? "converged" : "FAILED",
          to_string(r.stats.breakdown));
    }
  }

  // ---- (3) cluster-level fault scenarios --------------------------------
  {
    using namespace lqcd::cluster;
    // The paper's 64^3x128 strong-scaling point on 1024 KNCs.
    DDSolveSpec spec;
    spec.lattice = {64, 64, 64, 128};
    spec.block = {8, 4, 4, 4};
    spec.outer_iterations = 872;  // Table III iteration count
    spec.half_precision_boundaries = true;
    const auto part =
        NodePartition::uniform({64, 64, 64, 128}, {4, 4, 8, 8});

    ClusterSimParams params;
    const double clean =
        ClusterSim(params).simulate_dd(spec, part).total_seconds;
    std::printf("cluster fault scenarios (64^3x128 DD solve, 1024 KNCs, "
                "clean %.2f s)\n", clean);

    {
      ClusterSimParams p = params;
      p.faults.straggler_nodes = 1;
      p.faults.straggler_slowdown = 1.3;
      const auto r = ClusterSim(p).simulate_dd(spec, part);
      std::printf("  1 straggler @1.3x  : %8.2f s  (+%.0f%%)\n",
                  r.total_seconds, 100.0 * (r.total_seconds / clean - 1.0));
    }
    {
      ClusterSimParams p = params;
      p.network.packet_loss_probability = 0.01;
      const auto r = ClusterSim(p).simulate_dd(spec, part);
      std::printf("  1%% packet loss     : %8.2f s  (+%.1f%%)\n",
                  r.total_seconds, 100.0 * (r.total_seconds / clean - 1.0));
    }
    {
      // Node failures only matter on production-length runs: a stream of
      // 100 solves (one trajectory's worth of right-hand sides).
      DDSolveSpec stream = spec;
      stream.outer_iterations = 100 * spec.outer_iterations;
      ClusterSimParams p = params;
      const double stream_clean =
          ClusterSim(p).simulate_dd(stream, part).total_seconds;
      p.faults.node_mtbf_hours = 2000.0;  // ~1 failure/cluster/3.4 days
      p.faults.recovery_seconds = 300.0;
      p.faults.checkpoint_interval_seconds = 600.0;
      const auto r = ClusterSim(p).simulate_dd(stream, part);
      std::printf("  -- 100-solve stream, clean %.0f s --\n", stream_clean);
      std::printf("  MTBF 2000h, ckpt 10min: %8.0f s  (+%.1f%%, "
                  "E[failures]=%.2f)\n",
                  r.total_seconds,
                  100.0 * (r.total_seconds / stream_clean - 1.0),
                  r.expected_failures);
      p.faults.checkpoint_interval_seconds = 0.0;
      const auto r2 = ClusterSim(p).simulate_dd(stream, part);
      std::printf("  ... no checkpoints    : %8.0f s  (+%.1f%%)\n",
                  r2.total_seconds,
                  100.0 * (r2.total_seconds / stream_clean - 1.0));
    }
  }

  // ---- (4) fault-tolerant collectives: emulated rewire cost -------------
  {
    using namespace lqcd::cluster;
    NetworkSpec net;
    const double hop_s = net.allreduce_latency_us * 1e-6;

    // Replay a 16-rank proxy tree with every possible single rank death
    // and count the hops the rewire protocol (parent adoption + host
    // checkpoint re-fetch) actually replays.
    auto death_sweep = [&](int ranks, std::int64_t* max_hops) {
      std::vector<double> parts(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r)
        parts[static_cast<std::size_t>(r)] = std::sin(1.0 + r);
      CommStats clean_comm;
      const double exact = tree_allreduce(parts, clean_comm).value;
      double sum_hops = 0;
      *max_hops = 0;
      int wrong = 0;
      for (int k = 0; k + 1 < ranks; ++k) {
        FaultInjectorConfig fic;
        fic.fault = FaultClass::kRankDeath;
        fic.first_opportunity = k;
        fic.max_events = 1;
        FaultInjector inj(fic);
        CollectiveConfig cfg;
        cfg.injector = &inj;
        CommStats comm;
        const auto res = tree_allreduce(parts, comm, cfg);
        if (res.status != CollectiveStatus::kOk ||
            std::abs(res.value - exact) > 1e-12 * std::abs(exact))
          ++wrong;
        sum_hops += static_cast<double>(res.stats.rewire_hops);
        *max_hops = std::max(*max_hops, res.stats.rewire_hops);
      }
      if (wrong > 0)
        std::printf("  WARNING: %d death positions gave a wrong sum\n",
                    wrong);
      return sum_hops / static_cast<double>(ranks - 1);
    };

    std::printf("fault-tolerant allreduce: emulated dead-rank rewire cost\n");
    std::int64_t max16 = 0, max1024 = 0;
    const double avg16 = death_sweep(16, &max16);
    const double avg1024 = death_sweep(1024, &max1024);
    std::printf(
        "  16 ranks  : avg %.1f / max %lld rewire hops -> %.1f / %.1f ms\n",
        avg16, static_cast<long long>(max16), avg16 * hop_s * 1e3,
        static_cast<double>(max16) * hop_s * 1e3);
    std::printf(
        "  1024 ranks: avg %.1f / max %lld rewire hops -> %.1f / %.1f ms\n",
        avg1024, static_cast<long long>(max1024), avg1024 * hop_s * 1e3,
        static_cast<double>(max1024) * hop_s * 1e3);

    // Cluster model: the 100-solve stream of section (3), charging node
    // failures with the measured rewire cost (+ respawn rework) instead
    // of the flat 300 s constant — modeled vs emulated side by side.
    DDSolveSpec spec;
    spec.lattice = {64, 64, 64, 128};
    spec.block = {8, 4, 4, 4};
    spec.outer_iterations = 100 * 872;
    spec.half_precision_boundaries = true;
    const auto part =
        NodePartition::uniform({64, 64, 64, 128}, {4, 4, 8, 8});
    ClusterSimParams p;
    const double clean = ClusterSim(p).simulate_dd(spec, part).total_seconds;
    p.faults.node_mtbf_hours = 2000.0;
    p.faults.checkpoint_interval_seconds = 600.0;
    p.faults.recovery_seconds = 300.0;  // legacy flat constant
    const auto flat = ClusterSim(p).simulate_dd(spec, part);
    p.faults.rewire_hops = static_cast<double>(max1024);
    p.faults.rewire_rework_seconds = 30.0;  // respawn outside the tree
    const auto measured = ClusterSim(p).simulate_dd(spec, part);
    std::printf("  100-solve stream on 1024 KNCs (clean %.0f s, "
                "E[failures]=%.2f):\n",
                clean, flat.expected_failures);
    std::printf("    flat 300 s constant   : %8.0f s  (+%.2f%%)\n",
                flat.total_seconds,
                100.0 * (flat.total_seconds / clean - 1.0));
    std::printf("    measured rewire model : %8.0f s  (+%.2f%%)  "
                "[%lld hops x %.0f us + 30 s rework]\n",
                measured.total_seconds,
                100.0 * (measured.total_seconds / clean - 1.0),
                static_cast<long long>(max1024), net.allreduce_latency_us);
  }

  // ---- (5) ABFT: in-solve checksum sweeps + Daly-tuned intervals --------
  {
    std::printf("\nABFT: in-solve packed-checksum verification\n");
    const auto clean = run_solve(prob, mass, base_config(), repeats);

    // Fault-free: the periodic sweeps read (never write) the packed
    // matrices, so the trajectory must stay bit-identical.
    {
      DDSolverConfig c = base_config();
      c.resilience.enabled = true;
      c.resilience.abft.enabled = true;
      const auto r = run_solve(prob, mass, c, repeats);
      std::printf("  ABFT on, fault-free: %8.3f s, %4d its (+%.2f%% vs "
                  "plain, iterations %s)\n",
                  r.seconds, r.stats.iterations,
                  100.0 * (r.seconds - clean.seconds) / clean.seconds,
                  r.stats.iterations == clean.stats.iterations
                      ? "bit-identical"
                      : "DIFFER (unexpected)");
    }

    // Packed-data upsets between Schwarz sweeps, detected by the periodic
    // sweeps and repaired by re-packing the hit domains. Deterministic
    // burst (the statistical p=1e-3 coverage lives in tests/test_abft).
    {
      FaultInjectorConfig fic;
      fic.fault = FaultClass::kSpinorBitFlip;
      fic.seed = 37;
      fic.first_opportunity = 5;
      fic.max_events = 3;
      FaultInjector inj(fic);
      DDSolverConfig c = base_config();
      c.resilience.enabled = true;
      c.resilience.packed_injector = &inj;
      c.resilience.abft.enabled = true;
      c.resilience.abft.verify_interval = 4;
      DDSolver solver(prob.geom, prob.gauge, mass, 1.0, c);
      FermionField<double> x(prob.geom.volume());
      Timer t;
      const auto stats = solver.solve(prob.b, x);
      const auto* as = solver.abft_stats();
      std::printf(
          "  p=1e-3 packed upset: %8.3f s, %4d its, %lld upsets -> "
          "%lld detected / %lld repacked, %s, breakdown=%s\n",
          t.seconds(), stats.iterations,
          static_cast<long long>(
              inj.stats().events_at(FaultSite::kPackedData)),
          static_cast<long long>(as ? as->detections : 0),
          static_cast<long long>(as ? as->repacks : 0),
          stats.converged ? "converged" : "FAILED",
          to_string(stats.breakdown));
    }

    // Cluster model: the section-(3) 100-solve stream, now paying for the
    // checkpoint WRITES too (60 s each). Fixed 600 s interval vs the
    // Young/Daly optimum from the system MTBF; plus the modeled cost of
    // the in-solve ABFT sweeps at the Daly-picked verify period.
    using namespace lqcd::cluster;
    DDSolveSpec spec;
    spec.lattice = {64, 64, 64, 128};
    spec.block = {8, 4, 4, 4};
    spec.outer_iterations = 100 * 872;
    spec.half_precision_boundaries = true;
    const auto part =
        NodePartition::uniform({64, 64, 64, 128}, {4, 4, 8, 8});
    ClusterSimParams p;
    const double stream_clean =
        ClusterSim(p).simulate_dd(spec, part).total_seconds;
    p.faults.node_mtbf_hours = 2000.0;
    p.faults.recovery_seconds = 300.0;
    p.faults.checkpoint_cost_seconds = 60.0;
    p.faults.checkpoint_interval_seconds = 600.0;
    const auto fixed = ClusterSim(p).simulate_dd(spec, part);
    p.faults.auto_tune_checkpoint_interval = true;
    const auto tuned = ClusterSim(p).simulate_dd(spec, part);
    std::printf("  checkpoint tuning (100-solve stream, 1024 KNCs, clean "
                "%.0f s, 60 s writes):\n", stream_clean);
    std::printf("    fixed 600 s interval : %8.0f s  (+%.1f%%)\n",
                fixed.total_seconds,
                100.0 * (fixed.total_seconds / stream_clean - 1.0));
    std::printf("    Daly-tuned %4.0f s    : %8.0f s  (+%.1f%%)  %s\n",
                tuned.effective_checkpoint_interval_seconds,
                tuned.total_seconds,
                100.0 * (tuned.total_seconds / stream_clean - 1.0),
                tuned.total_seconds <= fixed.total_seconds
                    ? "[tuned <= fixed]"
                    : "[WORSE than fixed (unexpected)]");
    const int verify_every = std::max<int>(
        1, static_cast<int>(std::llround(
               daly_checkpoint_interval(0.05, 1.0 / 1e-3))));
    DDSolveSpec with_abft = spec;
    with_abft.abft_verify_interval = verify_every;
    const auto abft_run = ClusterSim(p).simulate_dd(with_abft, part);
    std::printf("    + ABFT sweeps every %d applications: %.0f s of "
                "verification (+%.2f%% of clean)\n",
                verify_every, abft_run.abft_verify_seconds,
                100.0 * abft_run.abft_verify_seconds / stream_clean);
  }

  return 0;
}
