// Figure 10 reproduction: speedup from MCDRAM (cache mode) over DDR-only
// while squaring G500 matrices of increasing edge factor.
//
// No MCDRAM exists on this host, so the speedups come from the two-tier
// memory model fed with the MEASURED flop / nnz / working-set numbers of
// each actual multiply (the access mix is the real kernel's; only the
// memory-tier timing is modeled — see README "Stand-in kernels").
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "matrix/rmat.hpp"
#include "model/memory_model.hpp"

int main() {
  using namespace spgemm;
  using namespace spgemm::bench;

  print_banner("Figure 10",
               "modeled MCDRAM(cache) speedup vs edge factor, G500");

  const int scale = full_scale() ? 15 : 13;
  struct Series {
    const char* label;
    model::AccessPattern pattern;
    bool sorted;
  };
  const std::vector<Series> series = {
      {"Heap", model::AccessPattern::kHeap, true},
      {"Hash", model::AccessPattern::kHash, true},
      {"HashVec", model::AccessPattern::kHashVector, true},
      {"Hash (unsorted)", model::AccessPattern::kHash, false},
      {"HashVec (unsorted)", model::AccessPattern::kHashVector, false},
  };

  const std::vector<int> edge_factors = {4, 8, 16, 32, 64};
  std::vector<std::string> headers;
  for (const int ef : edge_factors) headers.push_back("ef" + std::to_string(ef));
  std::printf("\n-- modeled speedup with MCDRAM as cache (scale %d) --\n",
              scale);
  print_header("algorithm", headers, 10);

  // Gather per-edge-factor multiply statistics once (kernel-independent).
  std::vector<SpGemmStats> stats_by_ef;
  std::vector<double> matrix_bytes;
  for (const int ef : edge_factors) {
    const auto a = rmat_matrix<std::int32_t, double>(
        RmatParams::g500(scale, ef, /*seed=*/7));
    SpGemmOptions opts;
    opts.algorithm = Algorithm::kHash;
    opts.threads = bench_threads();
    SpGemmStats stats;
    multiply(a, a, opts, &stats);
    stats_by_ef.push_back(stats);
    matrix_bytes.push_back(static_cast<double>(a.nnz()) * 12.0 +
                           static_cast<double>(stats.nnz_out) * 12.0);
  }
  // Working sets are scaled to the paper's scale-15 problem when running
  // the smaller CI default, so the 16 GB capacity cliff lands where the
  // original figure puts it.
  const double scale_to_knl = full_scale() ? 1.0 : 4.0;

  for (const Series& s : series) {
    std::vector<double> row;
    for (std::size_t i = 0; i < edge_factors.size(); ++i) {
      // Heap is one-phase: it stages flop-bound temporaries (cols+vals+
      // heap entries), the memory appetite the paper blames for the
      // edge-factor-64 degradation.  The two-phase hash kernels keep only
      // small per-thread tables.
      const double temporaries =
          s.pattern == model::AccessPattern::kHeap
              ? static_cast<double>(stats_by_ef[i].flop) * 36.0
              : 64.0 * 1024.0 * 272.0;  // per-thread tables on KNL
      const double ws_gb =
          (matrix_bytes[i] + temporaries) * scale_to_knl / 1e9;
      row.push_back(model::mcdram_speedup(
          s.pattern, static_cast<double>(stats_by_ef[i].flop),
          static_cast<double>(stats_by_ef[i].nnz_out),
          static_cast<double>(edge_factors[i]), s.sorted, ws_gb));
    }
    print_row(s.label, row, "%10.3f");
  }

  std::printf(
      "\nexpected shape (paper): Hash-family speedups grow from ~1.0\n"
      "toward ~1.3-1.4 as matrices densify; Heap sees no benefit and dips\n"
      "below 1 at ef 64 when temporaries exceed the 16 GB MCDRAM.\n");
  return 0;
}
