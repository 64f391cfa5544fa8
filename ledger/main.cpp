// ledger_bench: one workload of the performance ledger per process.
//
//   ledger_bench --workload square|graph|serve --seed N --seconds S
//                --trace 0|1 --work-dir DIR [--trace-file FILE]
//
// Prints human-readable lines, then one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Normally started through run.py, which builds it and clears the
// environment knobs this program refuses.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "ledger.hpp"

#ifndef LEDGER_BUILD_FLAGS
#define LEDGER_BUILD_FLAGS "unknown"
#endif

extern char** environ;

namespace ledger {

void publish_end_to_end(Context& ctx, const EndToEnd& e2e) {
  const double setup = median(e2e.setup_s);
  const double rss = e2e.peak_rss_mib;
  const double ok_share = 1.0 - ctx.outcomes.failed_share();
  const double mflops =
      e2e.work_ms > 0.0 ? e2e.work_flop / (e2e.work_ms * 1e3) : 0.0;
  const double p50 = median(e2e.latency_ms);
  const Tail tail = highest_supported_tail(e2e.latency_ms);
  // A failed request is an infinite latency; JSON has no infinity, so an
  // unbounded tail is reported as a day.
  const auto finite = [](double v) { return std::isfinite(v) ? v : 86.4e6; };

  ctx.report("setup_s", setup, "s",
             "median of " + std::to_string(e2e.setup_s.size()) + " set-ups");
  ctx.report("peak_rss_mib", rss, "MiB");
  ctx.report("failed_share", ctx.outcomes.failed_share(), "ratio",
             std::to_string(ctx.outcomes.failed()) + " of " +
                 std::to_string(ctx.outcomes.attempted));
  ctx.report("p50_ms", finite(p50), "ms",
             "median of " + std::to_string(e2e.latency_ms.size()));
  ctx.report("tail_ms", finite(tail.value), "ms",
             percentile_label(tail.q) + " of " +
                 std::to_string(tail.samples));

  ctx.metrics.set("setup_s", setup, "s");
  ctx.metrics.set("peak_rss_mib", rss, "MiB");
  ctx.metrics.set("ok_share", ok_share, "ratio");
  ctx.metrics.set("mflops", mflops, "MFLOPS");
  ctx.metrics.set("p50_ms", finite(p50), "ms");
  ctx.metrics.set("tail_ms", finite(tail.value), "ms");
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_result(const Context& ctx) {
  const bool correct = ctx.checks_ok && ctx.outcomes.bad_output == 0 &&
                       ctx.outcomes.threw == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", ctx.outcomes.attempted,
              ctx.outcomes.failed());
  bool first = true;
  for (const std::string& name : ctx.metrics.names()) {
    const Metric& m = ctx.metrics.get(name);
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "ledger_bench: %s\nusage: ledger_bench --workload "
               "square|graph|serve --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--trace-file FILE]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  Context ctx;
  std::string trace_file;
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      ctx.workload = val;
    } else if (key == "--seed") {
      ctx.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      ctx.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      ctx.trace = val == "1";
    } else if (key == "--work-dir") {
      ctx.work_dir = val;
    } else if (key == "--trace-file") {
      trace_file = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (ctx.workload != "square" && ctx.workload != "graph" &&
      ctx.workload != "serve") {
    return usage("--workload must be square, graph or serve");
  }
  if (!(ctx.seconds > 0.0) || ctx.work_dir.empty()) {
    return usage("--seconds must be positive and --work-dir given");
  }
  // The library reads SPGEMM_* variables (shard budget, engine pools,
  // forced probe tier, telemetry export, fault injection, bench sizing);
  // any of them would change what is measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SPGEMM_", 7) == 0) {
      std::fprintf(stderr, "ledger_bench: refusing to run with %s set\n", *e);
      return 2;
    }
  }

  ctx.threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  if (ctx.threads < 1) ctx.threads = 1;
  ctx.say("env workload=%s seed=%llu seconds=%g trace=%d", ctx.workload.c_str(),
          static_cast<unsigned long long>(ctx.seed), ctx.seconds,
          ctx.trace ? 1 : 0);
  ctx.say("env nproc=%d threads=%d engine_pools=1 cpu=\"%s\"", ctx.threads,
          ctx.threads, cpu_model().c_str());
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "OMP_", 4) == 0) ctx.say("env %s", *e);
  }
  ctx.say("env build_flags=\"%s\"", LEDGER_BUILD_FLAGS);

  try {
    if (ctx.workload == "square") run_square(ctx);
    if (ctx.workload == "graph") run_graph(ctx);
    if (ctx.workload == "serve") run_serve(ctx);
    if (ctx.trace) {
      ctx.tracer.enable(true);
      probe_square_layers(ctx);
      probe_graph_layers(ctx);
      probe_serve_layers(ctx);
      for (const std::string& name : ctx.tracer.names()) {
        ctx.say("span %-32s self %10.2f ms", name.c_str(),
                ctx.tracer.self_ms(name));
      }
      if (!trace_file.empty()) {
        std::FILE* f = std::fopen(trace_file.c_str(), "w");
        if (f == nullptr) throw std::runtime_error("cannot write " + trace_file);
        ctx.tracer.write_chrome_trace(f);
        std::fclose(f);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger_bench: %s\n", e.what());
    return 1;
  }
  print_result(ctx);
  return 0;
}
