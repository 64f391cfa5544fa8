// Table 2 reproduction: the 26-matrix corpus.  For each proxy, print the
// paper's reported statistics next to the generated stand-in's measured
// n / nnz / flop(A^2) / nnz(A^2), so EXPERIMENTS.md can record how faithful
// each substitution is (dimension-capped by default; see README "Stand-in
// kernels").
#include <cstdio>

#include "bench_suitesparse_common.hpp"
#include "matrix/stats.hpp"

int main() {
  using namespace spgemm;
  using namespace spgemm::bench;

  print_banner("Table 2", "matrix corpus: paper statistics vs proxies");

  std::printf("%-18s%-10s | %10s%12s%12s%12s | %10s%12s%12s%12s%8s\n",
              "matrix", "family", "n(paper)", "nnz(paper)", "flop(paper)",
              "CR(paper)", "n(proxy)", "nnz(proxy)", "flop(proxy)",
              "nnz A^2", "CR");
  for (const auto& entry : bench_proxies()) {
    const auto& paper = proxy::find(entry.name);
    const auto a = proxy::generate(entry, full_scale(), 42);

    SpGemmOptions opts;
    opts.algorithm = Algorithm::kHash;
    opts.threads = bench_threads();
    SpGemmStats stats;
    multiply(a, a, opts, &stats);

    const double paper_cr = paper.flop_sq / paper.nnz_sq;
    const double proxy_cr = stats.nnz_out > 0
                                ? static_cast<double>(stats.flop) /
                                      static_cast<double>(stats.nnz_out)
                                : 0.0;
    std::printf(
        "%-18s%-10s | %10lld%12lld%12.1fM%12.2f | %10lld%12lld%12.1fM%12lld"
        "%8.2f\n",
        entry.name.c_str(), proxy::family_name(entry.family),
        static_cast<long long>(paper.n), static_cast<long long>(paper.nnz),
        paper.flop_sq / 1e6, paper_cr, static_cast<long long>(a.nrows),
        static_cast<long long>(a.nnz()), static_cast<double>(stats.flop) / 1e6,
        static_cast<long long>(stats.nnz_out), proxy_cr);
  }

  std::printf(
      "\nexpected: proxy CR lands in the same regime (<=2 vs >2) as the\n"
      "paper's matrix for nearly every entry; dimensions are capped unless\n"
      "SPGEMM_BENCH_FULL=1.\n");
  return 0;
}
