// Figure 5 reproduction: stanza-bandwidth as a function of contiguous
// access length.  Two outputs:
//   (1) MEASURED bandwidth on this host's memory (exercises the real
//       stanza access path the paper's microbenchmark used), and
//   (2) the MODELED DDR-vs-MCDRAM curves from the two-tier memory model
//       (the hardware substitution for KNL's MCDRAM; see README
//       "Stand-in kernels").
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "microbench/stanza.hpp"
#include "model/memory_model.hpp"

int main() {
  using namespace spgemm;
  using namespace spgemm::bench;

  print_banner("Figure 5",
               "stanza bandwidth vs contiguous access length (measured + "
               "modeled DDR/MCDRAM)");

  const std::size_t array_bytes =
      full_scale() ? (std::size_t{1} << 31) : (std::size_t{1} << 28);
  const std::size_t touch_bytes =
      full_scale() ? (std::size_t{1} << 30) : (std::size_t{1} << 27);
  const int model_threads = 64;  // KNL-like concurrency for the model

  std::printf("%-14s%14s%14s%14s%12s\n", "stanza[B]", "measured GB/s",
              "model DDR", "model MCDRAM", "MC/DDR");
  for (int p = 4; p <= 14; ++p) {
    const std::size_t stanza = std::size_t{1} << p;
    const auto measured = microbench::stanza_read_bandwidth(
        array_bytes, stanza, touch_bytes, bench_threads());
    const double ddr = model::stanza_bandwidth_gbps(
        model::knl_ddr(), static_cast<double>(stanza), model_threads);
    const double mc = model::stanza_bandwidth_gbps(
        model::knl_mcdram_cache(), static_cast<double>(stanza),
        model_threads);
    std::printf("%-14zu%14.2f%14.2f%14.2f%12.2f\n", stanza,
                measured.gbytes_per_s, ddr, mc, mc / ddr);
  }

  std::printf(
      "\nexpected shape (paper): both tiers ramp with stanza length; the\n"
      "MC/DDR ratio is ~1 below ~256B and saturates at ~3.4x for long\n"
      "stanzas — fine-grained SpGEMM access cannot exploit MCDRAM.\n");
  return 0;
}
