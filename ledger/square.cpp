// Workload `square`: one-shot A^2 through multiply() on three inputs that
// bracket the host's last-level cache, plus a forced-spill out-of-core
// product.  Kernels, accumulators, scheduling, output allocation and the
// shard tier do the work; the handle replay path, the engine queue and the
// apps do none.
#include <algorithm>
#include <cmath>
#include <limits>

#include "core/multiply.hpp"
#include "core/recipe.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_ref.hpp"
#include "engine/spgemm_engine.hpp"
#include "ledger.hpp"
#include "matrix/rmat.hpp"
#include "matrix/suitesparse_proxy.hpp"
#include "model/memory_model.hpp"
#include "shard/sharded_spgemm.hpp"

namespace ledger {
namespace {

using namespace spgemm;
using Engine = engine::SpGemmEngine<std::int32_t, double>;
using Sharded = shard::ShardedSpGemm<std::int32_t, double>;
using shard::ShardedOptions;
using shard::ShardedStats;

/// One A^2 input: G500 s14 (C about the size of the LLC), ER s16 (C fits)
/// and the banded `cant` proxy (C about twice the LLC, CR ~15).
struct Input {
  std::string name;
  Matrix a;
  Offset flop = 0;
  Offset nnz_out = 0;
  std::uint64_t sum = 0;  ///< checksum of multiply()'s kAuto sorted output
};

std::vector<Input> make_inputs(std::uint64_t seed) {
  std::vector<Input> in(3);
  in[0].name = "g500";
  in[0].a = rmat_matrix<std::int32_t, double>(
      RmatParams::g500(14, 8, derive_seed(seed, "square.g500")));
  in[1].name = "er";
  in[1].a = rmat_matrix<std::int32_t, double>(
      RmatParams::er(16, 8, derive_seed(seed, "square.er")));
  in[2].name = "cant";
  in[2].a = proxy::generate(proxy::find("cant"), false,
                            derive_seed(seed, "square.cant"));
  return in;
}

/// Budget that forces the sharded driver onto a multi-block grid that
/// spills: an eighth of the monolithic working-state estimate.
std::size_t forced_budget(const Input& g500) {
  return model::monolithic_bytes_estimate(
             model::estimate_flop(g500.a, g500.a),
             static_cast<std::size_t>(g500.a.nrows),
             sizeof(std::int32_t) + sizeof(double)) /
         8;
}

struct ShardRig {
  Engine eng;
  Sharded sharded;
  ShardRig(int threads, std::size_t budget, const std::string& spill_dir)
      : eng(engine_options(threads)),
        sharded(eng, sharded_options(budget, spill_dir)) {}

  static engine::EngineOptions engine_options(int threads) {
    engine::EngineOptions e;
    e.threads = threads;
    e.pools = 1;
    // Visit-order kernel: sharded output is bit-identical to monolithic.
    e.plan.algorithm = Algorithm::kHash;
    return e;
  }
  static ShardedOptions sharded_options(std::size_t budget,
                                        const std::string& dir) {
    ShardedOptions s;
    s.memory_budget_bytes = budget;
    s.spill_dir = dir;
    return s;
  }
};

/// SNIPPETS #2 (KokkosKernels fSPMV) tolerance: |expected - got| <=
/// eps * max_val, max_val = max_row_len(A) * max|a| * max|b|, and the
/// structure must match exactly.
bool matches_reference(const Matrix& a, const Matrix& got) {
  const Matrix ref = spgemm_reference(a, a);
  if (ref.nrows != got.nrows || ref.nnz() != got.nnz()) return false;
  Offset max_row = 0;
  double max_abs = 0.0;
  for (std::int32_t i = 0; i < a.nrows; ++i) max_row = std::max(max_row, a.row_nnz(i));
  for (const double v : a.vals) max_abs = std::max(max_abs, std::abs(v));
  const double max_val = static_cast<double>(max_row) * max_abs * max_abs;
  const double eps = 64 * std::numeric_limits<double>::epsilon();
  for (std::size_t i = 0; i < ref.rpts.size(); ++i) {
    if (ref.rpts[i] != got.rpts[i]) return false;
  }
  for (std::size_t j = 0; j < ref.cols.size(); ++j) {
    if (ref.cols[j] != got.cols[j]) return false;
    if (std::abs(ref.vals[j] - got.vals[j]) > eps * max_val) return false;
  }
  return true;
}

/// Records an input's kAuto output (checksum, flop, nnz) for the
/// per-operation checks.
void record(Context& ctx, Input& in, const Matrix& c, const SpGemmStats& st) {
  in.flop = st.flop;
  in.nnz_out = c.nnz();
  in.sum = checksum(c);
  ctx.say("input %-5s n=%d nnz=%lld flop=%lld nnz(C)=%lld CR=%.2f "
          "C=%.1f MB recipe=%s",
          in.name.c_str(), in.a.nrows, static_cast<long long>(in.a.nnz()),
          static_cast<long long>(in.flop), static_cast<long long>(in.nnz_out),
          static_cast<double>(in.flop) / static_cast<double>(in.nnz_out),
          static_cast<double>(in.nnz_out) * 12e-6,
          algorithm_name(recipe::select_for(in.a, in.a,
                                            recipe::Operation::kSquare,
                                            SortOutput::kYes,
                                            recipe::DataOrigin::kReal)));
}

/// One-time checks, run after the measured phase so their extra products
/// stay out of its memory high-water mark: visit-order kernels agree
/// bitwise, sharded output equals monolithic bitwise, and a small input
/// from the same generator matches the serial oracle.
void check_outputs(Context& ctx, const std::vector<Input>& inputs,
                   ShardRig& rig) {
  for (const Input& in : inputs) {
    if (in.name == "cant") continue;  // C is twice the LLC: checked per op
    const Matrix h = multiply(in.a, in.a, opts_for(ctx.threads, Algorithm::kHash));
    bool same = bitwise_equal(
        h, multiply(in.a, in.a, opts_for(ctx.threads, Algorithm::kHashVector)));
    same = same && bitwise_equal(h, multiply(in.a, in.a,
                                             opts_for(ctx.threads, Algorithm::kSpa)));
    ctx.require(same, ("Hash, HashVector, SPA (MKL stand-in) bitwise on " +
                       in.name).c_str());
    if (in.name == "g500") {
      ctx.require(bitwise_equal(h, rig.sharded.multiply(in.a, in.a)),
                  "sharded (forced spill) == monolithic Hash bitwise");
    }
  }
  const Matrix small = rmat_matrix<std::int32_t, double>(
      RmatParams::g500(10, 8, derive_seed(ctx.seed, "square.g500")));
  ctx.require(matches_reference(small, multiply(small, small,
                                                opts_for(ctx.threads))),
              "G500 s10 A^2 vs spgemm_ref within fSPMV tolerance");
}

struct RoundTimes {
  std::vector<std::vector<double>> per_input;  ///< ms, per input
  std::vector<double> sharded;
  std::vector<double> round;
};

/// One round: every input's one-shot A^2, then the forced-spill sharded
/// product; each output is checked against its recorded checksum.
void run_round(Context& ctx, const std::vector<Input>& inputs, ShardRig& rig,
               std::uint64_t sharded_sum, RoundTimes& t) {
  auto round_span = ctx.tracer.span("square.round");
  double total = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Input& in = inputs[i];
    try {
      const auto t0 = Clock::now();
      Matrix c;
      {
        auto s = ctx.tracer.span("core.multiply");
        c = multiply(in.a, in.a, opts_for(ctx.threads));
      }
      const double ms = ms_since(t0, Clock::now());
      t.per_input[i].push_back(ms);
      total += ms;
      ctx.outcomes.check(checksum(c) == in.sum);
    } catch (const std::exception&) {
      ctx.outcomes.fail(Failure::kThrew);
    }
  }
  try {
    const auto t0 = Clock::now();
    Matrix c;
    {
      auto s = ctx.tracer.span("shard.multiply");
      c = rig.sharded.multiply(inputs[0].a, inputs[0].a);
    }
    const double ms = ms_since(t0, Clock::now());
    t.sharded.push_back(ms);
    total += ms;
    ctx.outcomes.check(checksum(c) == sharded_sum);
  } catch (const std::exception&) {
    ctx.outcomes.fail(Failure::kThrew);
  }
  t.round.push_back(total);
}

/// Rounds until `seconds` have passed (at least three).
void run_rounds(Context& ctx, double seconds, const std::vector<Input>& inputs,
                ShardRig& rig, std::uint64_t sharded_sum, RoundTimes& t) {
  t.per_input.resize(inputs.size());
  repeat_for(seconds, [&] { run_round(ctx, inputs, rig, sharded_sum, t); });
}

}  // namespace

void run_square(Context& ctx) {
  std::vector<Input> inputs = make_inputs(ctx.seed);
  const std::uint64_t sharded_sum = checksum(
      multiply(inputs[0].a, inputs[0].a, opts_for(ctx.threads, Algorithm::kHash)));
  const std::string spill = ctx.work_dir + "/spill-square";
  const std::size_t budget = forced_budget(inputs[0]);

  // Set-up: engine + sharded driver construction and one warm-up product
  // per input, three times over; the last rig serves the measured rounds.
  // The first warm-up products are recorded for the per-operation checks
  // (outside the timed segments).
  EndToEnd e2e;
  std::unique_ptr<ShardRig> rig;
  for (int rep = 0; rep < 3; ++rep) {
    rig.reset();
    auto t0 = Clock::now();
    rig = std::make_unique<ShardRig>(ctx.threads, budget, spill);
    double ms = ms_since(t0, Clock::now());
    for (Input& in : inputs) {
      SpGemmStats st;
      t0 = Clock::now();
      const Matrix c = multiply(in.a, in.a, opts_for(ctx.threads), &st);
      ms += ms_since(t0, Clock::now());
      if (rep == 0) record(ctx, in, c, st);
    }
    t0 = Clock::now();
    (void)rig->sharded.multiply(inputs[0].a, inputs[0].a);
    ms += ms_since(t0, Clock::now());
    e2e.setup_s.push_back(ms * 1e-3);
  }
  const ShardedStats& st = rig->sharded.stats();
  ctx.require(st.grid.grid_rows * st.grid.grid_cols > 1 && st.spills > 0,
              "sharded budget forces a multi-block grid with spills");

  RoundTimes t;
  if (!ctx.trace) {
    run_rounds(ctx, ctx.seconds, inputs, *rig, sharded_sum, t);
    e2e.peak_rss_mib = peak_rss_mib();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const double ms = median(t.per_input[i]);
      e2e.work_flop += 2.0 * static_cast<double>(inputs[i].flop);
      e2e.work_ms += ms;
      ctx.report("mflops_" + inputs[i].name,
                 2.0 * static_cast<double>(inputs[i].flop) / (ms * 1e3),
                 "MFLOPS",
                 "median " + std::to_string(ms) + " ms of " +
                     std::to_string(t.per_input[i].size()));
    }
    ctx.report("sharded_ms", median(t.sharded), "ms",
               "median of " + std::to_string(t.sharded.size()));
    e2e.latency_ms = t.round;
  } else {
    measure_traced(ctx, [&](double seconds) {
      RoundTimes phase;
      run_rounds(ctx, seconds, inputs, *rig, sharded_sum, phase);
      return median(phase.round);
    });
  }
  check_outputs(ctx, inputs, *rig);
  if (!ctx.trace) publish_end_to_end(ctx, e2e);
}

void probe_square_layers(Context& ctx) {
  std::vector<Input> inputs = make_inputs(ctx.seed);
  const int threads = ctx.threads;
  const Algorithm kernels[] = {Algorithm::kHash, Algorithm::kHashVector,
                               Algorithm::kHeap, Algorithm::kSpa,
                               Algorithm::kKkHash};
  const char* kernel_names[] = {"hash", "hashvec", "heap", "spa", "kkhash"};
  ctx.say("kernels hash, hashvec, heap (the paper's), spa (MKL stand-in), "
          "kkhash (KokkosKernels stand-in)");
  double g500_hash_ms = 0.0;

  for (Input& in : inputs) {
    const std::string& n = in.name;
    const Matrix& a = in.a;
    auto probe = ctx.tracer.span("probe.square");
    SpGemmStats st;
    std::vector<double> sorted_ms;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      const Matrix c = multiply(a, a, opts_for(threads), &st);
      sorted_ms.push_back(ms_since(t0, Clock::now()));
      in.nnz_out = c.nnz();
    }
    in.flop = st.flop;
    const double t_sorted = median(sorted_ms);
    const auto flop = static_cast<double>(st.flop);
    const auto nnz_out = static_cast<double>(in.nnz_out);
    const auto entry = static_cast<double>(sizeof(std::int32_t) + sizeof(double));
    const double rows = static_cast<double>(a.nrows + 1) * sizeof(Offset);
    // Computed traffic: A read once, one B entry per multiply, C written.
    const double bytes = (static_cast<double>(a.nnz()) * entry + rows) +
                         flop * entry + (nnz_out * entry + rows);
    ctx.layer("core.symbolic_ms." + n, st.symbolic_ms, "ms");
    ctx.layer("core.numeric_ms." + n, st.numeric_ms, "ms");
    ctx.layer("core.flop_per_byte." + n, flop / bytes, "flop/B");
    ctx.layer("core.flop." + n, flop, "count");
    ctx.layer("core.nnz_out." + n, nnz_out, "count");
    ctx.layer("mem.output_mib." + n, (nnz_out * entry + rows) / 1048576.0,
              "MiB");
    ctx.layer("accumulator.probes_per_key." + n,
              st.keys_resolved() > 0
                  ? static_cast<double>(st.probes) /
                        static_cast<double>(st.keys_resolved())
                  : 0.0,
              "ratio");
    ctx.layer("accumulator.reuse_hit_rate." + n, st.reuse_hit_rate(), "ratio");

    SpGemmOptions unsorted = opts_for(threads);
    unsorted.sort_output = SortOutput::kNo;
    const double t_unsorted =
        median_ms(1, [&] { (void)multiply(a, a, unsorted); });
    ctx.layer("core.unsorted_speedup." + n, t_sorted / t_unsorted, "ratio");

    const double t_plan_exec = median_ms(1, [&] {
      SpGemmHandle<std::int32_t, double> h;
      h.plan(a, a, opts_for(threads));
      (void)h.execute(a, a);
    });
    ctx.layer("core.oneshot_over_plan_execute." + n, t_sorted / t_plan_exec,
              "ratio");
    {
      SpGemmHandle<std::int32_t, double> h;
      SpGemmStats hs;
      {
        auto s = ctx.tracer.span("core.plan");
        h.plan(a, a, opts_for(threads), &hs);
      }
      ctx.layer("core.plan_ms." + n, hs.plan_ms, "ms");
      const double exec = median_ms(3, [&] {
        auto s = ctx.tracer.span("core.execute");
        (void)h.execute(a, a);
      });
      ctx.layer("core.execute_ms." + n, exec, "ms");
    }

    const double t_serial =
        median_ms(1, [&] { (void)multiply(a, a, opts_for(1)); });
    ctx.layer("parallel.serial_ms." + n, t_serial, "ms");
    ctx.layer("parallel.speedup." + n, t_serial / t_sorted, "ratio");

    double best = t_sorted;
    for (std::size_t k = 0; k < std::size(kernels); ++k) {
      const double ms = median_ms(1, [&] {
        (void)multiply(a, a, opts_for(threads, kernels[k]));
      });
      best = std::min(best, ms);
      if (kernels[k] == Algorithm::kHash && n == "g500") g500_hash_ms = ms;
      if (n != "er") {
        ctx.layer("core.kernel_mflops." + std::string(kernel_names[k]) + "." + n,
                  2.0 * flop / (ms * 1e3), "MFLOPS");
      }
    }
    ctx.layer("core.recipe_regret." + n, t_sorted / best, "ratio");
  }

  // Shard tier on g500: forced-spill grid vs an in-core sharded run vs the
  // monolithic Hash product.
  const Input& g = inputs[0];
  {
    auto probe = ctx.tracer.span("probe.shard");
    ShardRig spill(threads, forced_budget(g), ctx.work_dir + "/spill-probe");
    (void)spill.sharded.multiply(g.a, g.a);
    const double spill_ms =
        median_ms(1, [&] { (void)spill.sharded.multiply(g.a, g.a); });
    const ShardedStats& st = spill.sharded.stats();
    ctx.layer("shard.grid_blocks",
              static_cast<double>(st.grid.grid_rows * st.grid.grid_cols),
              "count");
    ctx.layer("shard.spills", static_cast<double>(st.spills), "count");
    ctx.layer("shard.shard_loads", static_cast<double>(st.shard_loads),
              "count");
    ctx.layer("shard.in_core_rate", st.in_core_rate(), "ratio");
    ctx.layer("shard.peak_resident_mib",
              static_cast<double>(st.peak_resident_bytes) / 1048576.0, "MiB");
    ctx.layer("shard.tax", spill_ms / g500_hash_ms, "ratio");

    ShardRig incore(threads, 0, ctx.work_dir + "/spill-probe");
    (void)incore.sharded.multiply(g.a, g.a);
    ctx.layer("shard.incore_ms",
              median_ms(1, [&] { (void)incore.sharded.multiply(g.a, g.a); }),
              "ms");
  }
  const auto rows = static_cast<std::size_t>(g.a.nrows);
  const std::size_t entry = sizeof(std::int32_t) + sizeof(double);
  ctx.layer("model.monolithic_bytes_ratio.g500",
            static_cast<double>(model::monolithic_bytes_estimate(g.flop, rows, entry)) /
                static_cast<double>(model::csr_bytes_estimate(
                    static_cast<std::size_t>(g.nnz_out), rows, entry)),
            "ratio");
}

}  // namespace ledger
