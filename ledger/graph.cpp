// Workload `graph`: the paper's graph use cases plus AMG.  Planning,
// numeric replay, fused epilogues and the masked product do the work, and
// structures are reused (every AMG step, a few of MCL's iterations); the
// engine and shard tiers do nothing.
#include <algorithm>
#include <cmath>
#include <memory>

#include "apps/amg_galerkin.hpp"
#include "apps/markov_cluster.hpp"
#include "apps/triangle_count.hpp"
#include "ledger.hpp"
#include "matrix/rmat.hpp"

namespace ledger {
namespace {

using namespace spgemm;
using Reassembler = apps::GalerkinReassembler<std::int32_t, double>;

/// Time-stepping sequence length: each round re-assembles the coarse
/// operator this many times, with new fine-grid values every step.
constexpr int kAmgSteps = 8;
/// Distinct value sets the steps cycle through (each has a precomputed
/// galerkin_product checksum).
constexpr int kAmgVariants = 4;

struct GraphInputs {
  Matrix tri;   ///< symmetric G500 s15, edge factor 16
  Matrix mcl;   ///< symmetric G500 s13, edge factor 8
  Matrix amg;   ///< 2D Poisson 1024 x 1024
  Matrix prolongator;  ///< aggregation 4
  std::vector<double> amg_base_vals;
};

Matrix symmetric_g500(int scale, int edge_factor, std::uint64_t seed) {
  RmatParams p = RmatParams::g500(scale, edge_factor, seed);
  p.symmetric = true;
  return rmat_matrix<std::int32_t, double>(p);
}

GraphInputs make_inputs(std::uint64_t seed) {
  GraphInputs in;
  in.tri = symmetric_g500(15, 16, derive_seed(seed, "graph.tri"));
  in.mcl = symmetric_g500(13, 8, derive_seed(seed, "graph.mcl"));
  in.amg = apps::poisson_2d<std::int32_t, double>(1024, 1024);
  in.prolongator =
      apps::aggregation_prolongator<std::int32_t, double>(in.amg.nrows, 4);
  in.amg_base_vals.assign(in.amg.vals.begin(), in.amg.vals.end());
  return in;
}

/// The reassembler and the one-shot reference must run the same
/// visit-order kernel for their outputs to agree bitwise.
SpGemmOptions amg_opts(int threads) {
  return opts_for(threads, Algorithm::kHash);
}

/// Fine-grid values of AMG step `k`: the base stencil scaled per variant,
/// rewritten in place so the structure (and the plans' identity check)
/// stays put.  The seed picks the scaling, so values differ per seed.
void set_amg_values(GraphInputs& in, int k, std::uint64_t seed) {
  const double f =
      1.0 + 0.125 * static_cast<double>((static_cast<std::uint64_t>(k) + seed) %
                                        kAmgVariants);
  for (std::size_t j = 0; j < in.amg.vals.size(); ++j) {
    in.amg.vals[j] = in.amg_base_vals[j] * f;
  }
}

/// MCL's total expansion flop, counted by replaying markov_cluster()'s own
/// handle loop (apps::detail::run_mcl) with the planned flop summed per
/// expansion.  Deterministic per input, so counted once.
double mcl_flop(const Matrix& graph, int threads) {
  apps::MclParams params;
  SpGemmOptions opts = opts_for(threads);
  opts.epilogue.kind = EpilogueKind::kPruneScale;
  opts.epilogue.inflation = params.inflation;
  opts.epilogue.prune_below = params.prune_below;
  SpGemmHandle<std::int32_t, double> h;
  double flop = 0.0;
  (void)apps::detail::run_mcl<std::int32_t, double>(
      apps::detail::mcl_initial_matrix(graph), params,
      [&](const Matrix& m, std::uint64_t hash, bool& reused) -> const Matrix& {
        reused = !h.ensure_planned_hashed(m, m, hash, hash, opts);
        flop += static_cast<double>(h.flop());
        return h.execute(m, m);
      });
  return flop;
}

struct Expected {
  std::int64_t triangles = 0;
  std::int32_t clusters = 0;
  int mcl_iterations = 0;
  std::uint64_t amg_sum[kAmgVariants] = {};
  double tri_flop = 0.0;
  double mcl_flop = 0.0;
  double amg_step_flop = 0.0;
};

struct RoundTimes {
  std::vector<double> tri, mcl, amg, round;
};

void run_round(Context& ctx, GraphInputs& in, Reassembler& rap,
               const Expected& ex, std::uint64_t& step, RoundTimes& t) {
  auto round_span = ctx.tracer.span("graph.round");
  double total = 0.0;
  try {
    const auto t0 = Clock::now();
    std::int64_t triangles = 0;
    {
      auto s = ctx.tracer.span("apps.count_triangles_fused");
      triangles = apps::count_triangles_fused(in.tri, opts_for(ctx.threads))
                      .triangles;
    }
    const double ms = ms_since(t0, Clock::now());
    t.tri.push_back(ms);
    total += ms;
    ctx.outcomes.check(triangles == ex.triangles);
  } catch (const std::exception&) {
    ctx.outcomes.fail(Failure::kThrew);
  }
  try {
    const auto t0 = Clock::now();
    apps::MclResult<std::int32_t> r;
    {
      auto s = ctx.tracer.span("apps.markov_cluster");
      r = apps::markov_cluster(in.mcl, apps::MclParams{},
                               opts_for(ctx.threads));
    }
    const double ms = ms_since(t0, Clock::now());
    t.mcl.push_back(ms);
    total += ms;
    ctx.outcomes.check(r.clusters == ex.clusters &&
                       r.iterations == ex.mcl_iterations);
  } catch (const std::exception&) {
    ctx.outcomes.fail(Failure::kThrew);
  }
  for (int s = 0; s < kAmgSteps; ++s, ++step) {
    const int k = static_cast<int>(step % kAmgVariants);
    set_amg_values(in, k, ctx.seed);
    try {
      const auto t0 = Clock::now();
      std::uint64_t sum = 0;
      {
        auto sp = ctx.tracer.span("apps.reassemble");
        const Matrix& coarse = rap.reassemble(in.amg);
        const double ms = ms_since(t0, Clock::now());
        t.amg.push_back(ms);
        total += ms;
        sum = checksum(coarse);
      }
      ctx.outcomes.check(sum == ex.amg_sum[k]);
    } catch (const std::exception&) {
      ctx.outcomes.fail(Failure::kThrew);
    }
  }
  t.round.push_back(total);
}

/// Nominal round time (one count, one clustering, kAmgSteps steps) on a
/// 4-core host.
constexpr double kNominalRoundS = 0.5;

/// A fixed number of rounds for `seconds` at the nominal round time, at
/// least three.  Fixed rather than "until the time is up" because every
/// markov_cluster() call raises the process's resident set (about 80 MiB
/// per call at this input), so peak RSS must not depend on host speed.
void run_rounds(Context& ctx, double seconds, GraphInputs& in,
                Reassembler& rap, const Expected& ex, std::uint64_t& step,
                RoundTimes& t) {
  const auto rounds = std::max(3L, std::lround(seconds / kNominalRoundS));
  for (long r = 0; r < rounds; ++r) run_round(ctx, in, rap, ex, step, t);
}

}  // namespace

void run_graph(Context& ctx) {
  GraphInputs in = make_inputs(ctx.seed);
  Expected ex;
  for (int k = 0; k < kAmgVariants; ++k) {
    set_amg_values(in, k, ctx.seed);
    const auto ref =
        apps::galerkin_product(in.amg, in.prolongator, amg_opts(ctx.threads));
    ex.amg_sum[k] = checksum(ref.coarse);
    ex.amg_step_flop = static_cast<double>(ref.ap_stats.flop + ref.rap_stats.flop);
  }
  ex.mcl_flop = mcl_flop(in.mcl, ctx.threads);

  // Set-up: reassembler construction (plans A*P and R*AP) plus one warm
  // triangle count and one warm clustering, three times over.  The first
  // count and clustering are the expected results of every later run.
  EndToEnd e2e;
  std::unique_ptr<Reassembler> rap;
  for (int rep = 0; rep < 3; ++rep) {
    rap.reset();
    set_amg_values(in, 0, ctx.seed);
    const auto t0 = Clock::now();
    rap = std::make_unique<Reassembler>(in.amg, in.prolongator,
                                        amg_opts(ctx.threads));
    const auto tri = apps::count_triangles_fused(in.tri, opts_for(ctx.threads));
    const auto r =
        apps::markov_cluster(in.mcl, apps::MclParams{}, opts_for(ctx.threads));
    e2e.setup_s.push_back(ms_since(t0, Clock::now()) * 1e-3);
    if (rep == 0) {
      ex.triangles = tri.triangles;
      ex.tri_flop = static_cast<double>(tri.spgemm_stats.flop);
      ctx.say("input tri  n=%d nnz=%lld triangles=%lld", in.tri.nrows,
              static_cast<long long>(in.tri.nnz()),
              static_cast<long long>(ex.triangles));
      ex.clusters = r.clusters;
      ex.mcl_iterations = r.iterations;
      ctx.say("input mcl  n=%d nnz=%lld clusters=%d iterations=%d",
              in.mcl.nrows, static_cast<long long>(in.mcl.nnz()), r.clusters,
              r.iterations);
    }
  }

  std::uint64_t step = 0;
  RoundTimes t;
  if (!ctx.trace) {
    run_rounds(ctx, ctx.seconds, in, *rap, ex, step, t);
    e2e.peak_rss_mib = peak_rss_mib();
    const double tri = median(t.tri);
    const double mcl = median(t.mcl);
    const double amg = median(t.amg);
    ctx.report("tricount_ms", tri, "ms",
               "median of " + std::to_string(t.tri.size()));
    ctx.report("mcl_ms", mcl, "ms", "median of " + std::to_string(t.mcl.size()));
    ctx.report("amg_step_ms", amg, "ms",
               "median of " + std::to_string(t.amg.size()));
    e2e.work_flop = 2.0 * (ex.tri_flop + ex.mcl_flop + kAmgSteps * ex.amg_step_flop);
    e2e.work_ms = tri + mcl + kAmgSteps * amg;
    e2e.latency_ms = t.round;
  } else {
    measure_traced(ctx, [&](double seconds) {
      RoundTimes phase;
      run_rounds(ctx, seconds, in, *rap, ex, step, phase);
      return median(phase.round);
    });
  }

  // One-time checks after the measured phase (the unfused counter
  // materializes the wedge matrix): the three triangle counters agree, and
  // the reassembler's steps equal the one-shot galerkin_product bitwise
  // (each step was checked against its checksum; this compares matrices).
  const auto unfused = apps::count_triangles(in.tri, opts_for(ctx.threads));
  const auto masked = apps::count_triangles_masked(in.tri, opts_for(ctx.threads));
  ctx.require(unfused.triangles == ex.triangles &&
                  masked.triangles == ex.triangles && ex.triangles > 0,
              "fused, unfused and masked triangle counts agree");
  bool amg_equal = true;
  for (int k = 0; k < kAmgVariants; ++k) {
    set_amg_values(in, k, ctx.seed);
    const auto ref =
        apps::galerkin_product(in.amg, in.prolongator, amg_opts(ctx.threads));
    amg_equal = amg_equal && bitwise_equal(rap->reassemble(in.amg), ref.coarse);
  }
  ctx.require(amg_equal, "AMG reassemble == galerkin_product bitwise");
  if (!ctx.trace) publish_end_to_end(ctx, e2e);
}

void probe_graph_layers(Context& ctx) {
  GraphInputs in = make_inputs(ctx.seed);
  const SpGemmOptions o = opts_for(ctx.threads);
  auto probe = ctx.tracer.span("probe.graph");

  // Phase split of a warm fused count (the second of two).
  apps::TriangleCountResult<std::int32_t, double> fused;
  for (int r = 0; r < 2; ++r) fused = apps::count_triangles_fused(in.tri, o);
  ctx.layer("apps.tricount.masked_ms",
            median_ms(2, [&] { (void)apps::count_triangles_masked(in.tri, o); }),
            "ms");
  ctx.layer("apps.tricount.unfused_ms",
            median_ms(2, [&] { (void)apps::count_triangles(in.tri, o); }), "ms");
  ctx.layer("apps.tricount.symbolic_ms", fused.spgemm_stats.symbolic_ms, "ms");
  ctx.layer("apps.tricount.numeric_ms", fused.spgemm_stats.numeric_ms, "ms");
  ctx.layer("apps.tricount.epilogue_ms", fused.spgemm_stats.epilogue_ms, "ms");
  ctx.layer("apps.tricount.triangles", static_cast<double>(fused.triangles),
            "count");

  const auto mcl = apps::markov_cluster(in.mcl, apps::MclParams{}, o);
  ctx.layer("apps.mcl.iterations", mcl.iterations, "count");
  ctx.layer("apps.mcl.plan_builds", mcl.plan_builds, "count");
  ctx.layer("apps.mcl.plan_reuses", mcl.plan_reuses, "count");
  ctx.layer("apps.mcl.clusters", mcl.clusters, "count");
  apps::MclParams unfused;
  unfused.fuse_epilogue = false;
  ctx.layer("apps.mcl.unfused_ms", median_ms(1, [&] {
              (void)apps::markov_cluster(in.mcl, unfused, o);
            }),
            "ms");

  const SpGemmOptions ao = amg_opts(ctx.threads);
  std::unique_ptr<Reassembler> rap;
  ctx.layer("apps.amg.setup_ms", median_ms(3, [&] {
              rap = std::make_unique<Reassembler>(in.amg, in.prolongator, ao);
            }),
            "ms");
  std::vector<double> ap_ms, rap_ms;
  for (int s = 0; s < 2 * kAmgSteps; ++s) {
    set_amg_values(in, s % kAmgVariants, ctx.seed);
    SpGemmStats ap, rp;
    (void)rap->reassemble(in.amg, &ap, &rp);
    ap_ms.push_back(ap.execute_ms);
    rap_ms.push_back(rp.execute_ms);
  }
  ctx.layer("apps.amg.ap_execute_ms", median(ap_ms), "ms");
  ctx.layer("apps.amg.rap_execute_ms", median(rap_ms), "ms");
  ctx.layer("apps.amg.oneshot_ms", median_ms(3, [&] {
              (void)apps::galerkin_product(in.amg, in.prolongator, ao);
            }),
            "ms");
  ctx.layer("apps.amg.fused_ms", median_ms(3, [&] {
              (void)apps::galerkin_product_fused(in.amg, in.prolongator, ao);
            }),
            "ms");
}

}  // namespace ledger
