// Workload `serve`: one SpGemmEngine (nproc workers, one pool) serving a mix
// of three request classes from one generator thread:
//   repeat: 8 G500 s11 structures, cycled, served from the plan cache;
//   small:  a distinct ER s8 structure per request, each a cold cache insert;
//   large:  G500 s14, every 50th request.
// The plan-cache budget holds the repeat set with room for some smalls, so
// cold inserts force evictions while the repeat set stays cached.  A
// closed-loop phase (4 requests in flight) measures throughput; an
// open-loop phase at a fixed rate measures latency from each request's due
// time.  Engine admission, queue, lanes, overlay and the plan cache do the
// work; the kernels see mostly small products.
#include <algorithm>
#include <future>
#include <memory>

#include "core/spgemm_handle.hpp"
#include "engine/spgemm_engine.hpp"
#include "ledger.hpp"
#include "matrix/rmat.hpp"

namespace ledger {
namespace {

using namespace spgemm;
using Engine = engine::SpGemmEngine<std::int32_t, double>;
using Product = Engine::Product;

/// Offered rate of the open-loop phase, requests per second: under 40% of
/// the closed-loop throughput of a 4-core host (~470/s), so requests queue
/// behind large products without the backlog growing, even while the host
/// runs well below its best speed.  At 15 s the phase yields more than 1010
/// small requests, enough for a p99 with ten samples beyond it.
constexpr double kOpenLoopRate = 180.0;
/// Share of --seconds given to the open-loop phase; the closed loop gets
/// the rest.
constexpr double kOpenShare = 0.8;
/// Small-request tail limit of the knee ladder.
constexpr double kSmallLimitMs = 50.0;
/// Rates of the knee ladder (traced runs), requests per second.
constexpr double kLadder[] = {200.0, 300.0, 400.0, 500.0, 600.0};
constexpr std::size_t kRepeatSet = 8;
constexpr std::size_t kSmallPool = 2048;
constexpr std::size_t kLargeEvery = 50;
constexpr std::size_t kInFlight = 4;

enum Cls : int { kRepeat = 0, kSmall = 1, kLarge = 2 };
const char* const kClsName[] = {"repeat", "small", "large"};

/// One operand with its precomputed output checksum and flop count.
struct Operand {
  Matrix a;
  std::uint64_t sum = 0;
  double flop = 0.0;
};

struct ServeInputs {
  std::vector<Operand> repeat;
  std::vector<Operand> small;
  Operand large;
};

/// Checksum and flop of A^2 through a bare handle; the engine plans the
/// same kernel (kAuto resolved by the recipe), and the output does not
/// depend on the thread count.
Operand make_operand(Matrix a, int threads) {
  Operand op;
  SpGemmHandle<std::int32_t, double> h;
  h.plan(a, a, opts_for(threads));
  op.sum = checksum(h.execute(a, a));
  op.flop = static_cast<double>(h.flop());
  op.a = std::move(a);
  return op;
}

ServeInputs make_inputs(std::uint64_t seed, int threads) {
  ServeInputs in;
  for (std::size_t r = 0; r < kRepeatSet; ++r) {
    in.repeat.push_back(make_operand(
        rmat_matrix<std::int32_t, double>(RmatParams::g500(
            11, 8, derive_seed(seed + r, "serve.repeat"))),
        threads));
  }
  for (std::size_t s = 0; s < kSmallPool; ++s) {
    in.small.push_back(make_operand(
        rmat_matrix<std::int32_t, double>(
            RmatParams::er(8, 8, derive_seed(seed + s, "serve.small"))),
        1));
  }
  in.large = make_operand(rmat_matrix<std::int32_t, double>(RmatParams::g500(
                              14, 8, derive_seed(seed, "serve.large"))),
                          threads);
  return in;
}

/// The request mix, indexed by a counter that runs across phases so every
/// small request gets a structure no earlier request used.
struct Mix {
  const ServeInputs& in;

  static int cls(std::size_t i) {
    if (i % kLargeEvery == kLargeEvery - 1) return kLarge;
    return i % 2 == 0 ? kRepeat : kSmall;
  }
  const Operand& operand(std::size_t i) const {
    switch (cls(i)) {
      case kRepeat: return in.repeat[(i / 2) % kRepeatSet];
      case kSmall: return in.small[(i / 2) % kSmallPool];
      default: return in.large;
    }
  }
};

struct Ticket {
  std::future<Product> f;
  std::size_t index = 0;
};

/// What the collector saw beyond the latency samples.
struct Tally {
  double flop_ok = 0.0;
  std::size_t small = 0;
  std::size_t small_overlay = 0;
  std::size_t delivered = 0;
};

/// Serves one phase's requests, checking every product against its
/// precomputed checksum.
class Server {
 public:
  Server(Engine& eng, const Mix& mix, Context& ctx, std::size_t base)
      : eng_(eng), mix_(mix), ctx_(ctx), base_(base) {}

  Ticket submit(std::size_t i) {
    auto s = ctx_.tracer.span("engine.submit", base_ + i + 1);
    const Operand& op = mix_.operand(base_ + i);
    return Ticket{eng_.submit(op.a, op.a), base_ + i};
  }

  Delivery collect(Ticket& t) {
    auto s = ctx_.tracer.span("engine.deliver", t.index + 1);
    Delivery d;
    const Operand& op = mix_.operand(t.index);
    try {
      const Product p = t.f.get();
      d.since_submit_ms = p.latency_ms;
      d.service_ms = (p.cache_hit ? 0.0 : p.stats.plan_ms) + p.stats.execute_ms;
      d.ok = checksum(p.c) == op.sum;
      d.failure = Failure::kBadOutput;
      if (d.ok) {
        tally.flop_ok += 2.0 * op.flop;
        ++tally.delivered;
        if (Mix::cls(t.index) == kSmall) {
          ++tally.small;
          tally.small_overlay += p.overlay ? 1 : 0;
        }
      }
    } catch (const SpGemmError& e) {
      d.failure = e.code() == ErrorCode::kShed ? Failure::kShed
                  : e.code() == ErrorCode::kDeadlineExceeded
                      ? Failure::kDeadline
                      : Failure::kThrew;
    } catch (const std::exception&) {
      d.failure = Failure::kThrew;
    }
    if (d.ok) {
      ctx_.outcomes.ok();
    } else {
      ctx_.outcomes.fail(d.failure);
    }
    return d;
  }

  Tally tally;

 private:
  Engine& eng_;
  const Mix& mix_;
  Context& ctx_;
  std::size_t base_;
};

std::function<int(std::size_t)> cls_from(std::size_t base) {
  return [base](std::size_t i) { return Mix::cls(base + i); };
}

struct ClosedResult {
  std::vector<RequestSample> samples;
  Tally tally;
  double seconds = 0.0;
  [[nodiscard]] double products_per_s() const {
    return static_cast<double>(tally.delivered) / seconds;
  }
};

ClosedResult closed_loop(Context& ctx, Engine& eng, const Mix& mix,
                         std::size_t& next, double seconds) {
  Server server(eng, mix, ctx, next);
  ClosedResult r;
  r.samples = run_closed_loop<Ticket>(
      seconds, kInFlight, cls_from(next),
      [&](std::size_t i) { return server.submit(i); },
      [](Ticket& t, std::chrono::microseconds wait) {
        return t.f.wait_for(wait) == std::future_status::ready;
      },
      [&](Ticket& t) { return server.collect(t); }, &r.seconds);
  r.tally = server.tally;
  next += r.samples.size();
  return r;
}

struct OpenResult {
  std::vector<RequestSample> samples;
  Tally tally;
};

OpenResult open_loop(Context& ctx, Engine& eng, const Mix& mix,
                     std::size_t& next, double rate, double seconds) {
  const auto n = static_cast<std::size_t>(rate * seconds);
  Server server(eng, mix, ctx, next);
  OpenResult r;
  r.samples = run_open_loop<Ticket>(
      n, rate, cls_from(next), [&](std::size_t i) { return server.submit(i); },
      [&](Ticket& t) { return server.collect(t); });
  r.tally = server.tally;
  next += n;
  return r;
}

std::vector<double> latencies(const std::vector<RequestSample>& s, int cls) {
  std::vector<double> out;
  for (const RequestSample& r : s) {
    if (r.cls == cls) out.push_back(r.latency_ms);
  }
  return out;
}

/// Plan-cache budget: the repeat set's and the large product's retained
/// plans plus room for 64 small plans, measured on a sizing engine with no
/// budget pressure.  About 24 smalls arrive between two large requests, so
/// the LRU evicts only small plans: the repeat set and the large stay hot
/// while every small is a cold insert that forces an eviction.
std::size_t cache_budget(const ServeInputs& in, int threads) {
  engine::EngineOptions eo;
  eo.threads = threads;
  eo.pools = 1;
  eo.cache_budget_bytes = std::size_t{1} << 40;
  Engine sizing(eo);
  for (const Operand& op : in.repeat) (void)sizing.submit(op.a, op.a).get();
  (void)sizing.submit(in.large.a, in.large.a).get();
  const std::size_t hot_bytes = sizing.cache_stats().retained_bytes;
  for (std::size_t s = 0; s < 16; ++s) {
    const Matrix& a = in.small[kSmallPool - 1 - s].a;
    (void)sizing.submit(a, a).get();
  }
  const std::size_t small_bytes =
      (sizing.cache_stats().retained_bytes - hot_bytes) / 16;
  return hot_bytes + 64 * small_bytes;
}

/// Engine construction plus cache fill (every repeat structure planned) and
/// one warm large and small product.
std::unique_ptr<Engine> set_up(Context& ctx, const Mix& mix, std::size_t budget,
                               std::size_t& next, bool work_conserving = true) {
  engine::EngineOptions eo;
  eo.threads = ctx.threads;
  eo.pools = 1;
  eo.cache_budget_bytes = budget;
  eo.work_conserving = work_conserving;
  auto eng = std::make_unique<Engine>(eo);
  Server server(*eng, mix, ctx, next);
  std::vector<Ticket> warm;
  for (std::size_t i = 0; i < kLargeEvery; ++i) {
    const int c = Mix::cls(next + i);
    if (c == kLarge || (c == kRepeat && i < 2 * kRepeatSet) ||
        (c == kSmall && i < 4)) {
      warm.push_back(server.submit(i));
    }
  }
  for (Ticket& t : warm) (void)server.collect(t);
  next += kLargeEvery;
  return eng;
}

/// First-half vs second-half median latency: a backlog that keeps growing
/// makes the second half wait much longer than the first.
bool backlog_grows(const std::vector<RequestSample>& s) {
  std::vector<double> first, second;
  for (std::size_t i = 0; i < s.size(); ++i) {
    (i < s.size() / 2 ? first : second).push_back(s[i].latency_ms);
  }
  return median(second) > 2.0 * median(first) + 5.0;
}

}  // namespace

void run_serve(Context& ctx) {
  const ServeInputs in = make_inputs(ctx.seed, ctx.threads);
  const Mix mix{in};
  ctx.say("input repeat 8 x G500 s11 flop=%.0f..  small %zu x ER s8  large "
          "G500 s14 flop=%.0f",
          in.repeat[0].flop, kSmallPool, in.large.flop);
  const std::size_t budget = cache_budget(in, ctx.threads);
  ctx.say("config open_loop_rate=%.0f/s in_flight=%zu cache_budget=%.1f MiB",
          kOpenLoopRate, kInFlight, static_cast<double>(budget) / 1048576.0);

  EndToEnd e2e;
  std::size_t next = 0;
  std::unique_ptr<Engine> eng;
  for (int rep = 0; rep < 3; ++rep) {
    eng.reset();
    const auto t0 = Clock::now();
    eng = set_up(ctx, mix, budget, next);
    e2e.setup_s.push_back(ms_since(t0, Clock::now()) * 1e-3);
  }

  if (!ctx.trace) {
    const ClosedResult closed =
        closed_loop(ctx, *eng, mix, next, ctx.seconds * (1.0 - kOpenShare));
    const OpenResult open = open_loop(ctx, *eng, mix, next, kOpenLoopRate,
                                      ctx.seconds * kOpenShare);
    e2e.peak_rss_mib = peak_rss_mib();
    const auto small = latencies(open.samples, kSmall);
    const auto repeat = latencies(open.samples, kRepeat);
    std::vector<double> late;
    for (const RequestSample& r : open.samples) late.push_back(r.late_ms);
    const Tail small_tail = highest_supported_tail(small);
    const Tail repeat_tail = highest_supported_tail(repeat);
    ctx.report("products_per_s", closed.products_per_s(), "1/s",
               "closed loop, " + std::to_string(closed.samples.size()) +
                   " requests");
    ctx.report("small_p50_ms", median(small), "ms", "open loop, from due time");
    ctx.report("small_" + percentile_label(small_tail.q) + "_ms",
               small_tail.value, "ms",
               "of " + std::to_string(small_tail.samples));
    ctx.report("repeat_" + percentile_label(repeat_tail.q) + "_ms",
               repeat_tail.value, "ms",
               "of " + std::to_string(repeat_tail.samples));
    ctx.report("generator_late_p99_ms", nearest_rank(late, 0.99), "ms");
    const auto cache = eng->cache_stats();
    ctx.say("cache hits=%llu misses=%llu inserts=%llu evictions=%llu "
            "retained=%.1f MiB",
            static_cast<unsigned long long>(cache.hits),
            static_cast<unsigned long long>(cache.misses),
            static_cast<unsigned long long>(cache.inserts),
            static_cast<unsigned long long>(cache.evictions),
            static_cast<double>(cache.retained_bytes) / 1048576.0);
    e2e.work_flop = closed.tally.flop_ok;
    e2e.work_ms = closed.seconds * 1e3;
    e2e.latency_ms = small;
    publish_end_to_end(ctx, e2e);
    return;
  }
  measure_traced(ctx, [&](double seconds) {
    return 1.0 / closed_loop(ctx, *eng, mix, next, seconds).products_per_s();
  });
}

void probe_serve_layers(Context& ctx) {
  const ServeInputs in = make_inputs(ctx.seed, ctx.threads);
  const Mix mix{in};
  const std::size_t budget = cache_budget(in, ctx.threads);
  std::size_t next = 0;
  auto probe = ctx.tracer.span("probe.serve");

  // Open loop at the ledger's rate: where latency goes.
  auto eng = set_up(ctx, mix, budget, next);
  const auto cache0 = eng->cache_stats();
  const auto stats0 = eng->engine_stats();
  const OpenResult open = open_loop(ctx, *eng, mix, next, kOpenLoopRate, 3.0);
  const auto cache1 = eng->cache_stats();
  const auto stats1 = eng->engine_stats();
  std::vector<double> wait, late;
  std::vector<double> service[3];
  for (const RequestSample& r : open.samples) {
    late.push_back(r.late_ms);
    if (!r.ok) continue;
    wait.push_back(r.latency_ms - r.late_ms - r.service_ms);
    service[r.cls].push_back(r.service_ms);
  }
  ctx.layer("engine.queue_wait_p50_ms", nearest_rank(wait, 0.5), "ms");
  ctx.layer("engine.queue_wait_p99_ms", nearest_rank(wait, 0.99), "ms");
  for (int c = 0; c < 3; ++c) {
    ctx.layer(std::string("engine.service_p50_ms.") + kClsName[c],
              median(service[c]), "ms");
  }
  ctx.layer("engine.repeat_p99_ms",
            nearest_rank(latencies(open.samples, kRepeat), 0.99), "ms");
  ctx.layer("engine.generator_late_p99_ms", nearest_rank(late, 0.99), "ms");
  const double lookups = static_cast<double>((cache1.hits - cache0.hits) +
                                             (cache1.misses - cache0.misses));
  ctx.layer("engine.cache_hit_share",
            static_cast<double>(cache1.hits - cache0.hits) / lookups, "ratio");
  ctx.layer("engine.plan_cache.inserts",
            static_cast<double>(cache1.inserts - cache0.inserts), "count");
  ctx.layer("engine.plan_cache.evictions",
            static_cast<double>(cache1.evictions - cache0.evictions), "count");
  ctx.layer("engine.plan_cache.retained_mib",
            static_cast<double>(cache1.retained_bytes) / 1048576.0, "MiB");
  ctx.layer("engine.overlay_share",
            open.tally.small == 0
                ? 0.0
                : static_cast<double>(open.tally.small_overlay) /
                      static_cast<double>(open.tally.small),
            "ratio");
  const double lane_ms = stats1.lane_busy_ms - stats0.lane_busy_ms;
  ctx.layer("engine.overlay_occupancy",
            lane_ms > 0.0
                ? (stats1.overlay_busy_ms - stats0.overlay_busy_ms) / lane_ms
                : 0.0,
            "ratio");
  const auto lanes = stats1.lane_execs - stats0.lane_execs;
  ctx.layer("engine.lane_width_avg",
            lanes == 0 ? 0.0
                       : static_cast<double>(stats1.lane_width_sum -
                                             stats0.lane_width_sum) /
                             static_cast<double>(lanes),
            "workers");
  ctx.layer("engine.shed", static_cast<double>(stats1.shed), "count");
  ctx.layer("engine.deadline_misses", static_cast<double>(stats1.deadline_misses),
            "count");
  ctx.layer("engine.retries", static_cast<double>(stats1.retries), "count");
  ctx.layer("engine.degraded_execs", static_cast<double>(stats1.degraded_execs),
            "count");

  // Knee: the highest ladder rate whose small-request tail meets the limit
  // without a growing backlog; the climb stops at the first rung that
  // misses (an overloaded rung only takes longer to drain).
  double knee = 0.0;
  for (const double rate : kLadder) {
    const OpenResult rung = open_loop(ctx, *eng, mix, next, rate, 1.5);
    const Tail tail = highest_supported_tail(latencies(rung.samples, kSmall));
    const bool grows = backlog_grows(rung.samples);
    const bool ok = tail.value <= kSmallLimitMs && !grows;
    ctx.say("knee rate=%.0f/s small %s=%.2f ms backlog=%s", rate,
            percentile_label(tail.q).c_str(), tail.value,
            grows ? "grows" : "steady");
    if (!ok) break;
    knee = rate;
  }
  ctx.layer("engine.knee_rate", knee, "1/s");

  // Engine tax on a warm small product: engine multiply vs a bare handle
  // execute of the same pair, both single-threaded.
  {
    const Matrix& a = in.small[0].a;
    (void)eng->multiply(a, a);
    const double engine_ms = median_ms(51, [&] { (void)eng->multiply(a, a); });
    SpGemmHandle<std::int32_t, double> h;
    h.plan(a, a, opts_for(1));
    (void)h.execute(a, a);
    const double handle_ms = median_ms(51, [&] { (void)h.execute(a, a); });
    ctx.layer("engine.overhead_ms", engine_ms - handle_ms, "ms");
  }
  eng.reset();

  // Lanes vs drain: the closed loop repeated on fresh engines, alternating
  // which scheduler goes first.
  std::vector<double> lanes_pps, drain_pps;
  for (int trial = 0; trial < 5; ++trial) {
    for (const bool wc : {trial % 2 == 0, trial % 2 != 0}) {
      auto e = set_up(ctx, mix, budget, next, wc);
      const ClosedResult r = closed_loop(ctx, *e, mix, next, 1.5);
      (wc ? lanes_pps : drain_pps).push_back(r.products_per_s());
    }
  }
  ctx.layer("engine.lanes_products_per_s", median(lanes_pps), "1/s");
  ctx.layer("engine.drain_products_per_s", median(drain_pps), "1/s");
}

}  // namespace ledger
