// Measured-GFLOP/s kernel benchmark, su3_bench methodology: every rate is
// derived from a first-principles flop count and a timed loop whose
// results feed a printed checksum (so the work cannot be dead-code
// eliminated), and every compiled-and-supported SIMD dispatch backend is
// measured side by side on one core, each rate the best of three
// interleaved rounds. The lane kernels run at simd::kCommonLaneWidth lanes
// and block_solve at that many right-hand sides: a multiple of every
// backend's lane width, so each backend runs without a tail and the
// backends can be compared. block_solve_rhs1 is the block solve of a
// single right-hand side, which runs the one-lane kernels (vectorized
// within the site). `--json` additionally emits
// BENCH_kernels.json with a stable schema for the CI regression gate
// (tools/bench_compare.py); `--smoke` shrinks sizes to CI scale.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "host_measure.h"
#include "lqcd/simd/dispatch.h"

using namespace lqcd;

namespace {

struct KernelResult {
  const char* name;
  const char* metric;  // "gflops" | "gbs"
  double value;
  double seconds;
  double checksum;
};

struct BackendResults {
  simd::Backend backend;
  std::vector<KernelResult> kernels;
};

BackendResults run_backend(simd::Backend b, bool smoke) {
  simd::ScopedBackend scope(b);
  const bench::OneThread one_thread;
  const double w = smoke ? 0.02 : 0.25;
  const std::int64_t nmat = smoke ? 2048 : 16384;
  const std::int32_t nsites = smoke ? 256 : 1024;
  const int lanes = simd::kCommonLaneWidth;

  BackendResults out;
  out.backend = b;
  const auto add = [&out](const char* name, const char* metric,
                          const bench::KernelMeasurement& m, double value) {
    out.kernels.push_back({name, metric, value, m.seconds, m.checksum});
  };

  auto m = bench::measure_su3_mul_nn(nmat, w);
  add("su3_mul_nn", "gflops", m, m.gflops());
  m = bench::measure_dslash_lanes(nsites, lanes, w);
  add("dslash_lanes", "gflops", m, m.gflops());
  m = bench::measure_clover_lanes(nsites, lanes, w);
  add("clover_lanes", "gflops", m, m.gflops());
  m = bench::measure_block_solve(lanes, smoke ? 0.05 : 0.5);
  add("block_solve", "gflops", m, m.gflops());
  m = bench::measure_block_solve(1, smoke ? 0.05 : 0.5);
  add("block_solve_rhs1", "gflops", m, m.gflops());
  m = bench::measure_fp16_roundtrip(smoke ? 1 << 15 : 1 << 20, w);
  add("fp16_roundtrip", "gbs", m, m.gbs());
  return out;
}

/// Keep, per kernel, the faster of two measurements of one backend.
void keep_faster(BackendResults& best, const BackendResults& r) {
  for (std::size_t j = 0; j < best.kernels.size(); ++j)
    if (r.kernels[j].seconds < best.kernels[j].seconds)
      best.kernels[j] = r.kernels[j];
}

void write_json(const char* path, const std::vector<BackendResults>& all,
                const knc::HostCalibration& cal, bool smoke) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"lqcd-bench-kernels-v1\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"backends\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::fprintf(f, "    {\n      \"backend\": \"%s\",\n      \"kernels\": [\n",
                 simd::to_string(all[i].backend));
    const auto& ks = all[i].kernels;
    for (std::size_t j = 0; j < ks.size(); ++j)
      std::fprintf(f,
                   "        {\"name\": \"%s\", \"metric\": \"%s\", "
                   "\"value\": %.6g, \"seconds\": %.6g, \"checksum\": "
                   "%.17g}%s\n",
                   ks[j].name, ks[j].metric, ks[j].value, ks[j].seconds,
                   ks[j].checksum, j + 1 < ks.size() ? "," : "");
    std::fprintf(f, "      ]\n    }%s\n", i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"calibration\": {\"backend\": \"%s\", \"su3_nn_gflops\": "
               "%.6g, \"dslash_gflops\": %.6g, \"block_solve_gflops\": %.6g, "
               "\"fp16_gbs\": %.6g, \"efficiency\": %.6g}\n}\n",
               cal.backend, cal.su3_nn_gflops, cal.dslash_gflops,
               cal.block_solve_gflops, cal.fp16_gbs,
               cal.compute_efficiency());
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  std::string json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json [path]]\n"
                   "  LQCD_SIMD_BACKEND=scalar|avx2|avx512 restricts the "
                   "measured backends\n",
                   argv[0]);
      return 1;
    }
  }

  bench::print_header(
      "Kernel rates per SIMD backend (measured on THIS host)",
      "engineering substrate (su3_bench methodology; not a paper figure)",
      "first-principles flop counts; checksums defeat dead-code "
      "elimination");

  // An explicit LQCD_SIMD_BACKEND pins the measurement to that backend;
  // otherwise every backend this machine can run is measured.
  std::vector<simd::Backend> backends;
  if (const auto forced = simd::backend_from_env())
    backends.push_back(*forced);
  else
    backends = simd::available_backends();

  // Three rounds over the backends, keeping each kernel's best round. On a
  // shared host one timed window can lose its core to another process;
  // interleaving the rounds exposes every backend to the same host
  // conditions, which the avx512-vs-avx2 gate of bench_compare.py needs.
  std::vector<BackendResults> all;
  for (int round = 0; round < 3; ++round)
    for (std::size_t i = 0; i < backends.size(); ++i) {
      const BackendResults r = run_backend(backends[i], smoke);
      if (round == 0)
        all.push_back(r);
      else
        keep_faster(all[i], r);
    }

  Table t({"kernel", "metric", "scalar", "avx2", "avx512"});
  const char* names[] = {"su3_mul_nn",  "dslash_lanes",     "clover_lanes",
                         "block_solve", "block_solve_rhs1", "fp16_roundtrip"};
  for (const char* name : names) {
    const char* metric = std::strcmp(name, "fp16_roundtrip") == 0
                             ? "GB/s"
                             : "Gflop/s";
    t.row().cell(name).cell(metric);
    for (const simd::Backend b :
         {simd::Backend::kScalar, simd::Backend::kAvx2,
          simd::Backend::kAvx512}) {
      bool found = false;
      for (const auto& br : all)
        if (br.backend == b)
          for (const auto& k : br.kernels)
            if (std::strcmp(k.name, name) == 0) {
              t.cell(k.value, 2);
              found = true;
            }
      if (!found) t.cell("-");
    }
  }
  std::printf("%s\n", t.str().c_str());

  double checksum = 0;
  for (const auto& br : all)
    for (const auto& k : br.kernels) checksum += k.checksum;
  std::printf("aggregate checksum (DCE guard): %.17g\n\n", checksum);

  // Host efficiency calibration with the best available backend, printed
  // against the KNC model's Sec. IV-B1 factors.
  const auto cal = bench::measure_host(smoke);
  bench::print_host_vs_model(cal, knc::KncSpec{});

  if (json) write_json(json_path.c_str(), all, cal, smoke);
  return 0;
}
