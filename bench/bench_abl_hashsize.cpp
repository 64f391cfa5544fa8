// Ablation: hash-table sizing policy (paper Fig. 7 lines 9-12).
//
// The paper sizes per-thread tables to the smallest power of two STRICTLY
// greater than min(max-row-flop, ncols), keeping the load factor under ~0.5.
// This bench contrasts that choice with a tight table (next power of two,
// load factor up to 1.0) and with 2x / 4x oversized tables, reporting both
// end-to-end time and the realized collision factor (probes per flop) that
// enters the cost model's Eq. 2.
#include <benchmark/benchmark.h>

#include <bit>

#include "accumulator/hash_table.hpp"
#include "core/spgemm_handle.hpp"
#include "matrix/rmat.hpp"

namespace {

using I = std::int32_t;
using spgemm::CsrMatrix;
using spgemm::Offset;
using spgemm::RmatParams;

const CsrMatrix<I, double>& shared_input() {
  static const auto a = spgemm::rmat_matrix<I, double>(
      RmatParams::g500(11, 16, 99));
  return a;
}

/// Hash policy with the table-size policy as a knob: shift -1 = tight
/// (bit_ceil, no strict-greater), 0 = paper policy, 1/2 = oversized by
/// 2x/4x.
struct SizedHashPolicy {
  using Acc = spgemm::HashAccumulator<I, double>;
  int shift = 0;
  Acc make() const { return {}; }
  void prepare(Acc& acc, Offset max_row_flop, I ncols) const {
    const auto capped = static_cast<std::size_t>(std::min<Offset>(
        max_row_flop, static_cast<Offset>(ncols)));
    const std::size_t size =
        shift < 0 ? std::bit_ceil(std::max<std::size_t>(capped, 1))
                  : std::bit_ceil(capped + 1) << static_cast<unsigned>(shift);
    acc.prepare(size);
  }
  bool begin_row(Acc& /*acc*/, Offset /*row_flop*/) const { return false; }
};

void run_sizing(benchmark::State& state) {
  const auto shift = static_cast<int>(state.range(0));
  const auto& a = shared_input();
  spgemm::SpGemmOptions opts;
  opts.sort_output = spgemm::SortOutput::kNo;

  spgemm::SpGemmStats stats;
  for (auto _ : state) {
    auto c = spgemm::detail::run_once<I, double>(
        a, a, opts, SizedHashPolicy{shift}, &stats);
    benchmark::DoNotOptimize(c.vals.data());
  }
  state.counters["collision_factor"] =
      static_cast<double>(stats.probes) / static_cast<double>(stats.flop);
  state.counters["MFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(stats.flop) * state.iterations() / 1e6,
      benchmark::Counter::kIsRate);
}

void BM_HashTableSizing(benchmark::State& s) { run_sizing(s); }

BENCHMARK(BM_HashTableSizing)
    ->Arg(-1)  // tight: load factor can reach 1.0
    ->Arg(0)   // paper policy: strictly-greater power of two
    ->Arg(1)   // 2x oversized
    ->Arg(2)   // 4x oversized
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
