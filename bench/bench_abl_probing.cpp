// Ablation: per-key vs batched multi-key hash probing inside the HashVector
// kernel (the design choice behind §4.2.2 plus the batched pipeline of
// accumulator/hash_vec.hpp), swept over the probe tiers the host supports
// (scalar / AVX2 / AVX-512) and three input shapes:
//
//   * scale      — G500 RMAT A^2 at the headline scale (SPGEMM_BENCH_SCALE,
//                  default 16): the paper's squaring benchmark, where the
//                  symbolic phase is probe-throughput-bound;
//   * density    — a denser RMAT (4x edge factor, two scales down): more
//                  flops per row, larger per-row tables;
//   * duplicates — banded A^2: MCL-like rows whose stanzas overlap heavily,
//                  so many keys in flight inside one batch window duplicate
//                  each other and retire through the conflict shortcut
//                  without a table round.
//
// Emits BENCH_abl_probing.json with probe_rounds and keys_per_round per
// row: per-key probing spends at least one round per key (collisions add
// more, so keys_per_round <= 1); the batched pipeline retires
// duplicate-in-flight keys roundlessly, lifting keys_per_round above the
// per-key value on duplicate-heavy inputs.  Batched and per-key paths are
// bit-identical by contract, so the comparison is purely about work shape.
// Needs no google-benchmark.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cpu_features.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_policies.hpp"
#include "matrix/generators.hpp"
#include "matrix/rmat.hpp"

namespace {

using namespace spgemm;
using namespace spgemm::bench;

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

/// HashVector accumulator whose batching gate is fixed per ablation arm
/// instead of the table-size gate (accumulator/hash_table.hpp,
/// kBatchMinTableBytes): the batched arm measures the batch machinery
/// itself, so it must really run, including at CI smoke scales whose small
/// tables the library gate keeps on the per-key walk.  Where batched rows
/// lose here, the library's gate simply does not engage them.
template <bool kBatched>
struct GatedHashVec : HashVecAccumulator<I, double> {
  using HashVecAccumulator<I, double>::HashVecAccumulator;
  [[nodiscard]] bool batch_worthwhile() const { return kBatched; }
};

/// The library HashVector policy over a gated accumulator.
template <bool kBatched>
struct GatedHashVecPolicy : detail::HashVecPlanPolicy<I, double> {
  using Acc = GatedHashVec<kBatched>;
  Acc make() const { return Acc{probe}; }
};

/// Median-of-trials HashVector A^2 at one probe kind / batching setting.
template <bool kBatched>
SpGemmStats measure(const Matrix& a, ProbeKind kind) {
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHashVector;
  opts.sort_output = SortOutput::kNo;
  opts.threads = bench_threads();
  opts.probe = kind;
  const auto run = [&](SpGemmStats* stats) {
    return detail::run_once<I, double>(
        a, a, opts, GatedHashVecPolicy<kBatched>{{kind}}, stats);
  };

  run(nullptr);  // warm-up
  std::vector<double> times;
  std::vector<SpGemmStats> stats(static_cast<std::size_t>(
      std::max(1, trials())));
  for (std::size_t t = 0; t < stats.size(); ++t) {
    Timer timer;
    run(&stats[t]);
    times.push_back(timer.millis());
  }
  // Median run's stats (times and stats stay index-aligned).
  std::vector<std::size_t> order(times.size());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return times[x] < times[y]; });
  return stats[order[order.size() / 2]];
}

/// The probe tiers available on this host, widest first.
std::vector<ProbeKind> host_tiers() {
  switch (resolve_probe_kind(ProbeKind::kAuto)) {
    case ProbeKind::kAvx512:
      return {ProbeKind::kAvx512, ProbeKind::kAvx2, ProbeKind::kScalar};
    case ProbeKind::kAvx2:
      return {ProbeKind::kAvx2, ProbeKind::kScalar};
    default:
      return {ProbeKind::kScalar};
  }
}

}  // namespace

int main() {
  print_banner("probing ablation",
               "per-key vs batched multi-key SIMD hash probing (symbolic "
               "phase)");
  JsonReporter json("abl_probing");
  const int threads = bench_threads();
  const int scale = bench_scale(16);

  struct Input {
    std::string name;
    Matrix a;
  };
  std::vector<Input> inputs;
  inputs.push_back({"g500_s" + std::to_string(scale) + "_e8",
                    rmat_matrix<I, double>(RmatParams::g500(scale, 8, 7))});
  inputs.push_back(
      {"g500_s" + std::to_string(scale - 2) + "_e32",
       rmat_matrix<I, double>(RmatParams::g500(scale - 2, 32, 7))});
  {
    // MCL-like duplicate-heavy rows: a banded graph's square folds ~degree
    // contributions onto each output column.
    const I n = static_cast<I>(1) << (scale - 2);
    inputs.push_back({"banded_n" + std::to_string(n) + "_d32",
                      banded_matrix<I, double>(n, 32, 7)});
  }

  const std::vector<ProbeKind> tiers = host_tiers();
  std::printf("\nhost probe tiers:");
  for (const ProbeKind k : tiers) std::printf(" %s", probe_kind_name(k));
  std::printf("\n");

  for (const Input& input : inputs) {
    std::printf("\n%s (%d rows, %lld nnz) A^2\n", input.name.c_str(),
                input.a.nrows, static_cast<long long>(input.a.nnz()));
    print_header("config",
                 {"sym ms", "num ms", "rounds/key", "keys/round"}, 14);
    double widest_perkey_sym = 0.0;
    double widest_batched_sym = 0.0;
    for (const ProbeKind kind : tiers) {
      for (const bool batched : {false, true}) {
        const SpGemmStats stats = batched ? measure<true>(input.a, kind)
                                          : measure<false>(input.a, kind);
        const std::string label = std::string(batched ? "batched-" : "perkey-") +
                                  probe_kind_name(kind);
        const double rounds_per_key =
            stats.keys_resolved() > 0
                ? static_cast<double>(stats.probes) /
                      static_cast<double>(stats.keys_resolved())
                : 0.0;
        print_row(label,
                  {stats.symbolic_ms, stats.numeric_ms, rounds_per_key,
                   stats.keys_per_round()},
                  "%14.3f");
        BenchRecord rec;
        rec.kernel = label;
        rec.matrix = input.name;
        rec.threads = threads;
        rec.total_ms = stats.total_ms();
        rec.symbolic_ms = stats.symbolic_ms;
        rec.numeric_ms = stats.numeric_ms;
        rec.mflops = stats.mflops();
        rec.flop = stats.flop;
        rec.nnz_out = stats.nnz_out;
        rec.probe_rounds = static_cast<long long>(stats.probes);
        rec.keys_per_round = stats.keys_per_round();
        json.add(std::move(rec));
        if (kind == tiers.front()) {
          (batched ? widest_batched_sym : widest_perkey_sym) =
              stats.symbolic_ms;
        }
      }
    }
    if (widest_batched_sym > 0.0) {
      std::printf("%-22s%14.2fx\n",
                  (std::string("sym speedup (") +
                   probe_kind_name(tiers.front()) + ")")
                      .c_str(),
                  widest_perkey_sym / widest_batched_sym);
    }
  }

  json.flush();
  return 0;
}
