// Shared state of one ledger process: the parsed command line, the metric
// sink, outcome accounting and the helpers every workload uses.  Each
// workload (square.cpp, graph.cpp, serve.cpp) fills the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"

namespace ledger {

using Matrix = spgemm::CsrMatrix<std::int32_t, double>;

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;       ///< nproc: every product and the engine use it
  std::string work_dir;  ///< spill files live here (inside the checkout)

  Tracer tracer;
  Metrics metrics;
  Outcomes outcomes;
  /// False once a one-time output check (reference, cross-kernel, exact
  /// count) fails; per-operation checks land in `outcomes` instead.
  bool checks_ok = true;

  /// Human-readable line on stdout (never the last line).
  void say(const char* fmt, ...) const __attribute__((format(printf, 2, 3))) {
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::printf("\n");
    std::fflush(stdout);
  }

  /// Records a one-time check; a failure marks the whole run incorrect.
  void require(bool ok, const char* what) {
    say("check %-58s %s", what, ok ? "ok" : "FAILED");
    if (!ok) checks_ok = false;
  }

  /// A workload-specific end-to-end figure, printed by name for readers
  /// (the result line carries the workload-generic metrics).
  void report(const std::string& name, double value, const char* unit,
              const std::string& note = "") const {
    say("metric %-28s %14.4f %-7s %s", name.c_str(), value, unit,
        note.c_str());
  }

  void layer(const std::string& name, double value, const char* unit) {
    metrics.set(name, value, unit);
  }
};

/// Seed of one generated input, derived from the workload seed and a tag so
/// inputs are independent of each other and reproducible per seed.
inline std::uint64_t derive_seed(std::uint64_t seed, const char* tag) {
  std::uint64_t h = 1469598103934665603ULL ^ (seed * 0x9E3779B97F4A7C15ULL);
  for (const char* p = tag; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 1099511628211ULL;
  }
  h ^= h >> 31;
  return h & 0x7FFFFFFFFFFFULL;
}

/// Median of `reps` timings of `fn` in milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_since(t0, Clock::now()));
  }
  return median(t);
}

/// Calls `round` until `seconds` have passed, at least three times.
template <typename Round>
void repeat_for(double seconds, Round&& round) {
  const auto start = Clock::now();
  for (int n = 0; n < 3 || ms_since(start, Clock::now()) < seconds * 1e3; ++n) {
    round();
  }
}

/// Traced run of a workload: `measure(seconds)` runs the measured phase for
/// that long and returns its time figure (a median round, or the time per
/// product).  Half the time runs untraced, then half traced; the ratio is
/// the cost of the benchmark's own spans.
template <typename Measure>
void measure_traced(Context& ctx, Measure&& measure) {
  const auto cpu0 = CpuTimes::now();
  const double untraced = measure(ctx.seconds / 2);
  ctx.tracer.enable(true);
  const double traced = measure(ctx.seconds / 2);
  ctx.tracer.enable(false);
  ctx.layer("process.cpu_util",
            cpu_utilization(cpu0, CpuTimes::now(), ctx.threads), "ratio");
  ctx.layer("trace.overhead", traced / untraced, "ratio");
}

/// Options of every product the ledger runs: `threads` workers (nproc),
/// sorted output, the recipe's kernel unless one is named.
inline spgemm::SpGemmOptions opts_for(
    int threads, spgemm::Algorithm algo = spgemm::Algorithm::kAuto) {
  spgemm::SpGemmOptions o;
  o.threads = threads;
  o.algorithm = algo;
  return o;
}

/// The generic end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  /// Process high-water mark at the end of the measured phase, before the
  /// one-time output checks allocate their extra products.
  double peak_rss_mib = 0.0;
  double work_flop = 0.0;       ///< 2*flop of the measured products...
  double work_ms = 0.0;         ///< ...and the time they took
  std::vector<double> latency_ms;  ///< per-request latencies (inf = failed)
};

void publish_end_to_end(Context& ctx, const EndToEnd& e2e);

void run_square(Context& ctx);
void run_graph(Context& ctx);
void run_serve(Context& ctx);

/// Per-layer probes of a traced run, one set per workload's layers.  Every
/// traced run reports all of them, whichever workload it was started for.
void probe_square_layers(Context& ctx);
void probe_graph_layers(Context& ctx);
void probe_serve_layers(Context& ctx);

}  // namespace ledger
