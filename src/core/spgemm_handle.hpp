// SpGemmHandle — the inspector-executor surface of the library.
//
// The paper's strongest repeated-multiply baseline is MKL's inspector-
// executor, and KokkosKernels structures its whole SpGEMM API as a
// symbolic/numeric handle (Deveci et al.).  This handle is that model for
// every two-phase kernel of this library:
//
//   SpGemmHandle<int, double> h;
//   h.plan(a, b, opts);          // symbolic + partition + tiles + capture
//   for (step : steps) {
//     update_values(a);          // structure fixed, values free to change
//     const auto& c = h.execute(a, b);   // numeric-only replay
//   }
//
// plan() runs the symbolic phase once and PERSISTS everything the numeric
// phase needs: the flop-balanced row partition and tile plan, the per-thread
// accumulators and captured slot streams (the capture/replay protocol of
// core/spgemm_twophase.hpp), and the output skeleton (row pointers + column
// indices).  execute() then runs
// the numeric phase only: captured rows replay their slot stream with zero
// hash probing, budget-overflow rows re-probe, and every value lands
// directly at its final offset — no staging copy, no allocation, no
// zero-initializing resize.  The pooled output and all workspaces are
// grow-only across plan() calls, so one handle can serve a stream of
// differently-sized products without churning the allocator.
//
// The two-phase tile loop itself lives here, once, in detail::KernelPlan:
// plan() and execute() run its symbolic and numeric passes separately, and
// a one-shot multiply() runs detail::run_once(), which interleaves the same
// row bodies per tile (symbolic, then numeric while the tile is cache-hot)
// and keeps nothing.  Both paths therefore produce bit-identical outputs.
//
// Kernels: Hash, HashVector, SPA, KKHash and Adaptive (per-row tiny/hash/
// SPA regimes) all plan and execute through this one surface; kAuto defers
// to the Table 4 recipe and falls back to Hash when the recipe picks a
// kernel without a symbolic phase.  Any semiring may be passed to execute()
// — the captured structure is algebra-independent.
//
// Structure contract: execute() inputs must have exactly the structure
// (rpts, cols) the plan was built from; values are free to change.  The
// full O(nnz) FNV fingerprint is taken at plan time; each execute() first
// tries an O(1) identity check (array addresses + dimensions + nnz) and
// only re-fingerprints when the caller hands in different objects.  A
// caller that mutates column indices IN PLACE defeats the O(1) check —
// call verify_structure() to force the full comparison.
//
// Masks: a mask attached before plan() (set_epilogue_mask) is an operand
// of the plan — C = M .* (A * B), tested while probing, so the plan
// captures in-mask products only.  The mask's structure is held to the
// same contract as A's and B's.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/recipe.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_options.hpp"
#include "core/spgemm_policies.hpp"
#include "core/spgemm_twophase.hpp"
#include "core/structure_hash.hpp"
#include "matrix/csr.hpp"
#include "mem/default_init.hpp"
#include "mem/workspace.hpp"
#include "model/cost_model.hpp"
#include "parallel/execution_schedule.hpp"
#include "parallel/omp_utils.hpp"
#include "parallel/prefix_sum.hpp"
#include "parallel/rows_to_threads.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace spgemm {

namespace detail {
/// Telemetry mirrors of the SpGemmStats counters, accumulated process-wide
/// across every handle.  The per-plan/-execute struct stays authoritative;
/// these give the scrapeable running totals.
struct HandleTelemetry {
  telemetry::Counter& plans;
  telemetry::Counter& executes;
  telemetry::Counter& symbolic_probes;
  telemetry::Counter& symbolic_keys;
  telemetry::Counter& numeric_probes;
  telemetry::Counter& numeric_keys;
  telemetry::Counter& flop;
  static HandleTelemetry& get() {
    auto& reg = telemetry::registry();
    static HandleTelemetry t{
        reg.counter("spgemm_handle_plans_total",
                    "SpGemmHandle::plan calls (symbolic phase builds)."),
        reg.counter("spgemm_handle_executes_total",
                    "SpGemmHandle numeric executes."),
        reg.counter("spgemm_probe_rounds_total",
                    "Accumulator probe rounds by phase.", "phase", "symbolic"),
        reg.counter("spgemm_keys_resolved_total",
                    "Accumulator keys resolved by phase.", "phase",
                    "symbolic"),
        reg.counter("spgemm_probe_rounds_total",
                    "Accumulator probe rounds by phase.", "phase", "numeric"),
        reg.counter("spgemm_keys_resolved_total",
                    "Accumulator keys resolved by phase.", "phase", "numeric"),
        reg.counter("spgemm_flop_total",
                    "Scalar multiplications planned (per plan, not per "
                    "execute).")};
    return t;
  }
};
}  // namespace detail

/// True for kernels that run the two-phase (symbolic + numeric) pipeline
/// and can therefore be planned and re-executed through SpGemmHandle.
constexpr bool is_two_phase(Algorithm algo) {
  switch (algo) {
    case Algorithm::kHash:
    case Algorithm::kHashVector:
    case Algorithm::kSpa:
    case Algorithm::kKkHash:
    case Algorithm::kAdaptive:
      return true;
    default:
      return false;
  }
}

namespace detail {

/// kAuto resolves to the Table 4 recipe's kernel for A·B; a recipe pick
/// that `usable` rejects falls back to Hash.  An explicit kernel passes
/// through unchanged.
template <IndexType IT, ValueType VT>
Algorithm resolve_algorithm(const CsrMatrix<IT, VT>& a,
                            const CsrMatrix<IT, VT>& b,
                            const SpGemmOptions& opts,
                            bool (*usable)(Algorithm)) {
  if (opts.algorithm != Algorithm::kAuto) return opts.algorithm;
  const Algorithm pick =
      recipe::select_for(a, b, recipe::Operation::kSquare, opts.sort_output,
                         recipe::DataOrigin::kReal);
  return usable(pick) ? pick : Algorithm::kHash;
}

// ---- Persisted plan state -------------------------------------------------
//
// The per-kernel planning policies live in core/spgemm_policies.hpp.

/// One planned row: where its slot stream lives and how to emit it.
template <IndexType IT>
struct PlannedRow {
  std::size_t cap_off = 0;  ///< slot-stream start in the capture buffer
  IT nnz = 0;
  bool captured = false;  ///< replayable; otherwise the numeric step probes
  bool sorted = false;    ///< columns recorded in ascending order
};

/// A row-range tile run by one thread, with its offset into the thread's
/// staged buffers.
struct PlannedTile {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::size_t stage_begin = 0;
};

/// Everything one thread keeps between the passes of a plan: its
/// accumulator (prepared, keys clean), its captured slot streams, its tile
/// list and per-row records, and the skeleton columns it produced.
template <IndexType IT, ValueType VT, typename Acc>
struct ThreadPlan {
  explicit ThreadPlan(Acc a) : acc(std::move(a)) {}
  Acc acc;
  mem::ThreadScratch<IT> capture;
  std::size_t capture_entries = 0;
  std::vector<PlannedTile> tiles;
  std::vector<PlannedRow<IT>> rows;  ///< tile processing order
  mem::Buffer<IT> staged_cols;       ///< skeleton cols, processing order
  // ---- Staged output (numeric_fused, once) ------------------------------
  // The output entries of this thread's tiles, appended in processing
  // order, plus one record per tile for the placement copy: the kept
  // (post-epilogue) entries of a fused execute, or the whole staged output
  // of a one-shot.  Grow-only across executes, like every other workspace
  // here; a fused execute's full tile lives only in tile_vals/tile_cols
  // while cache-hot.
  mem::Buffer<IT> kept_cols;
  mem::Buffer<VT> kept_vals;
  std::vector<PlannedTile> kept_tiles;
  mem::Buffer<VT> tile_vals;  ///< one tile's values (captured + fallback)
  mem::Buffer<IT> tile_cols;  ///< the tile's fallback rows' columns
  EpilogueState epi;
  MaskFlags<IT> mask;  ///< masked products: the current mask row's flags
};

/// O(1) identity of a CSR structure: array addresses and dimensions prove
/// "same object, not reallocated", and a handful of sampled structure words
/// harden the check against an allocator returning a freed block at the
/// same address for a different matrix of equal size (iterative workloads
/// free/realloc same-sized matrices constantly).
template <IndexType IT, ValueType VT>
struct StructureId {
  const void* rpts = nullptr;
  const void* cols = nullptr;
  Offset nnz = 0;
  IT nrows = 0;
  IT ncols = 0;
  Offset rpts_mid = 0;
  IT col_first = 0;
  IT col_mid = 0;
  IT col_last = 0;

  static StructureId of(const CsrMatrix<IT, VT>& m) {
    StructureId id{m.rpts.data(), m.cols.data(), m.nnz(), m.nrows, m.ncols};
    if (!m.rpts.empty()) id.rpts_mid = m.rpts[m.rpts.size() / 2];
    const auto n = static_cast<std::size_t>(id.nnz);
    if (n > 0) {
      id.col_first = m.cols[0];
      id.col_mid = m.cols[n / 2];
      id.col_last = m.cols[n - 1];
    }
    return id;
  }
  bool operator==(const StructureId&) const = default;
};

/// Kernel-independent plan state.
template <IndexType IT, ValueType VT>
struct PlanCore {
  SpGemmOptions opts;  ///< resolved: algorithm is a concrete two-phase one
  int nthreads = 1;
  IT nrows = 0;
  IT ncols = 0;
  parallel::RowPartition part;
  parallel::ExecutionSchedule schedule;  ///< persisted tile plan
  std::size_t tile_rows = 0;
  bool capture_enabled = false;
  /// Resolved execution tier of the vectorized numeric replay.
  ProbeKind replay_kind = ProbeKind::kScalar;
  std::size_t budget_entries = 0;
  std::uint64_t fingerprint = 0;
  StructureId<IT, VT> id_a;
  StructureId<IT, VT> id_b;
  mem::Buffer<Offset> rpts;  ///< output skeleton row pointers (scanned)
  std::uint64_t symbolic_probes = 0;
  std::uint64_t symbolic_keys = 0;
  std::uint64_t tile_count = 0;
  std::uint64_t rows_captured = 0;
  // ---- Masked products (C = M .* (A * B)) ----------------------------------
  bool masked = false;
  StructureId<IT, VT> id_mask;  ///< O(1) identity of the planned mask
  std::uint64_t mask_fp = 0;    ///< structure fingerprint of the planned mask
};

/// Resolve the shape of a product: the flop-balanced (or equal-row)
/// partition, the tiling and capture budget, and the ExecutionSchedule cut
/// from them.  `default_budget_bytes` is the capture budget of the path
/// (one-shot or persistent plan) when opts.reuse_budget_bytes is 0; `mask`
/// (validated, or null) makes the product masked and caps the schedule's
/// accumulator sizing.  The caller keeps a ScopedNumThreads alive around
/// this and every pass.
template <IndexType IT, ValueType VT>
void init_plan_core(PlanCore<IT, VT>& core, const CsrMatrix<IT, VT>& a,
                    const CsrMatrix<IT, VT>& b, const SpGemmOptions& opts,
                    std::size_t default_budget_bytes,
                    const CsrMatrix<IT, VT>* mask) {
  const auto nrows = static_cast<std::size_t>(a.nrows);
  core.opts = opts;
  core.nrows = a.nrows;
  core.ncols = b.ncols;
  core.nthreads = parallel::resolve_threads(opts.threads);
  core.part =
      parallel::is_balanced(opts.schedule)
          ? parallel::rows_to_threads(nrows, a.rpts.data(), a.cols.data(),
                                      b.rpts.data(), core.nthreads)
          : parallel::rows_equal(nrows, a.rpts.data(), a.cols.data(),
                                 b.rpts.data(), core.nthreads);
  const TileConfig cfg = resolve_tile_config(core.part, opts, nrows,
                                             default_budget_bytes, sizeof(IT));
  core.budget_entries = cfg.budget_entries;
  core.capture_enabled = cfg.capture_enabled;
  core.replay_kind = resolve_probe_kind(opts.probe);
  core.tile_rows = cfg.tile_rows;
  core.masked = mask != nullptr;
  // A masked row holds at most min(flop_i, nnz(M_i)) entries, so the
  // mask's row pointers cap the schedule's accumulator sizing.
  core.schedule.build(core.part, cfg.tile_rows, cfg.tile_flop_target,
                      core.masked ? mask->rpts.data() : nullptr);
}

/// The symbolic-side stats every two-phase product reports, from its core.
template <IndexType IT, ValueType VT>
void fill_symbolic_stats(const PlanCore<IT, VT>& core, Offset nnz_out,
                         SpGemmStats& s) {
  s.flop = core.part.total_flop();
  s.nnz_out = nnz_out;
  s.symbolic_probes = core.symbolic_probes;
  s.symbolic_keys = core.symbolic_keys;
  s.probes = core.symbolic_probes;
  s.tile_count = core.tile_count;
  s.reuse_rows_captured = core.rows_captured;
  s.reuse_rows_total = static_cast<std::uint64_t>(core.nrows);
}

/// Probe-round and keys-resolved tallies of one phase.
struct Work {
  std::uint64_t probes = 0;
  std::uint64_t keys = 0;
  Work& operator+=(Work w) {
    probes += w.probes;
    keys += w.keys;
    return *this;
  }
};

/// Work of one phase summed over the threads of a parallel region.
struct WorkTotal {
  std::atomic<std::uint64_t> probes{0};
  std::atomic<std::uint64_t> keys{0};
  void add(Work w) {
    probes.fetch_add(w.probes, std::memory_order_relaxed);
    keys.fetch_add(w.keys, std::memory_order_relaxed);
  }
  [[nodiscard]] Work load() const {
    return {probes.load(std::memory_order_relaxed),
            keys.load(std::memory_order_relaxed)};
  }
};

/// Run `fn` with std::true_type for a masked product and std::false_type
/// otherwise: the row bodies are chosen once per pass, at compile time, so
/// unmasked products keep their unfiltered inner loops.
template <typename Fn>
decltype(auto) with_mask(bool masked, Fn&& fn) {
  if (masked) return fn(std::true_type{});
  return fn(std::false_type{});
}

/// Kernel-specific plan state and THE two-phase tile loop.  The symbolic
/// row body, the numeric row body, the staged-tile placement and the work
/// tallies exist once, here; build() + numeric()/numeric_fused() (a
/// persistent plan and its executes) and once() (a one-shot multiply) only
/// differ in how they order those pieces and what they keep.  The loop has
/// the paper's structure: a flop-balanced row partition (Fig. 6) cut into
/// tiles, one accumulator per thread prepared inside the owning thread
/// ("parallel" memory scheme, §3.2), and the accumulator as the Policy's
/// type — Hash, HashVector, SPA, the two-level hash map and Adaptive differ
/// only in their accumulation data structure.
///
/// A masked product (kMasked; C = M .* (A * B)) runs the same loop with the
/// mask as an operand: a row body scatters mask row i into the thread's
/// flags, skips every product whose column carries no flag, and clears the
/// flags.  A plan captures only in-mask products, so its skeleton and every
/// replay touch in-mask entries only; the one-shot order needs no symbolic
/// pass at all (once()).
template <IndexType IT, ValueType VT, typename Policy>
struct KernelPlan {
  using Acc = typename Policy::Acc;
  using Thread = ThreadPlan<IT, VT, Acc>;
  using Matrix = CsrMatrix<IT, VT>;
  static constexpr bool kPolicyBatches = BatchProbe<Acc, IT>;

  Policy policy;
  std::vector<Thread> threads;

  explicit KernelPlan(Policy p) : policy(std::move(p)) {}

  /// Per-thread scratch of one symbolic pass.
  struct SymbolicScratch {
    bool batch = false;  ///< resolved batching decision of this thread
    mem::ThreadScratch<IT> keys;
    mem::ThreadScratch<IT> count_slots;
    std::vector<std::pair<IT, IT>> sort_buf;  ///< (col, slot), sorted rows
  };

  /// Per-thread timing of a one-shot pass (slowest thread wins).
  struct OnceTimes {
    double symbolic_s = 0.0;
    double numeric_s = 0.0;
    double place_s = 0.0;
  };

  static Work counters(const Acc& acc) {
    return {acc.probes(), keys_resolved_of(acc)};
  }
  /// Work the accumulator did since `mark`; advances `mark`.
  static Work since(const Acc& acc, Work& mark) {
    const Work now = counters(acc);
    const Work delta{now.probes - mark.probes, now.keys - mark.keys};
    mark = now;
    return delta;
  }
  static Offset row_flop(const PlanCore<IT, VT>& core, std::size_t i) {
    return core.part.flop_prefix[i + 1] - core.part.flop_prefix[i];
  }
  /// Most entries row i can hold: its flop, capped by nnz(M_i) when masked.
  /// The policy sizes and picks its per-row regime from this.
  template <bool kMasked>
  static Offset row_size(const PlanCore<IT, VT>& core, const Matrix* mask,
                         std::size_t i) {
    if constexpr (kMasked) {
      return std::min(row_flop(core, i), mask->rpts[i + 1] - mask->rpts[i]);
    } else {
      return row_flop(core, i);
    }
  }
  /// Whether a row is emitted in column order: requested, or forced by the
  /// policy — never under kMaskReduce, which keeps no entry.
  static bool emit_sorted(const PlanCore<IT, VT>& core, bool force_sorted) {
    return core.opts.epilogue.kind != EpilogueKind::kMaskReduce &&
           (core.opts.sort_output == SortOutput::kYes || force_sorted);
  }

  /// Re-planning on a live handle recycles the per-thread state grow-only:
  /// accumulators and capture scratch keep their (pool-backed) storage, and
  /// the tile/row/staged vectors keep their capacity.
  void ensure_threads(int nthreads) {
    if (threads.size() == static_cast<std::size_t>(nthreads)) return;
    threads.clear();
    threads.reserve(static_cast<std::size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t) threads.emplace_back(policy.make());
  }

  /// Size thread `tid`'s accumulator for a pass, inside the owning thread,
  /// for the longest row it may run (capped by its mask row when masked),
  /// and size its mask flags.
  template <bool kMasked>
  void prepare_thread(const PlanCore<IT, VT>& core, Thread& tp, int tid,
                      IT ncols_b) const {
    policy.prepare(tp.acc, core.schedule.sizing_max_row_flop(tid), ncols_b);
    if constexpr (kMasked) tp.mask.begin(static_cast<std::size_t>(ncols_b));
  }

  /// Prepare thread `tid` for a symbolic pass: size its accumulator,
  /// resolve batching, and size its capture buffer (an unmasked thread never
  /// records more than 2 * its flop in slots, so small products need far
  /// less than the full budget; masked rows record 1 + 2 * kept + nnz and
  /// share the same bound, rows past it re-probe).  Returns the capture
  /// buffer, or nullptr when capture is off.
  template <bool kMasked>
  IT* begin_symbolic(const PlanCore<IT, VT>& core, Thread& tp, int tid,
                     IT ncols_b, SymbolicScratch& s) const {
    prepare_thread<kMasked>(core, tp, tid, ncols_b);
    // Masked rows probe through the column filter, never the batch pipeline.
    if constexpr (kPolicyBatches && !kMasked) {
      s.batch = tp.acc.batch_worthwhile();
    }
    const auto flop_bound =
        static_cast<std::size_t>(core.schedule.capture_flop_bound(tid));
    tp.capture_entries =
        core.capture_enabled
            ? std::min(core.budget_entries, 2 * flop_bound + 16)
            : 0;
    return core.capture_enabled ? tp.capture.ensure(tp.capture_entries)
                                : nullptr;
  }

  /// The symbolic row body.  Row i captures its slot stream at
  /// cap + cap_used when it fits the thread's capture buffer and is counted
  /// otherwise.  `cols` grows to stage_off + nnz: a captured row freezes
  /// its gather order and writes its columns there; a counted row writes
  /// them only when `fallback_cols` (the plan skeleton needs them, a
  /// one-shot's numeric probe emits them itself).
  template <bool kMasked>
  PlannedRow<IT> symbolic_row(const PlanCore<IT, VT>& core, Thread& tp,
                              SymbolicScratch& s, const Matrix& a,
                              const Matrix& b, const Matrix* mask,
                              std::size_t i, IT* cap, std::size_t& cap_used,
                              mem::Buffer<IT>& cols, std::size_t stage_off,
                              bool fallback_cols) {
    Acc& acc = tp.acc;
    const auto flop = static_cast<std::size_t>(row_flop(core, i));
    const Offset size = row_size<kMasked>(core, mask, i);
    const bool force_sorted = policy.begin_row(acc, size);
    PlannedRow<IT> row;
    row.sorted = emit_sorted(core, force_sorted);
    row.cap_off = cap_used;
    if constexpr (kMasked) {
      // [kept, (position, slot) x kept] plus the gather list, reserved at
      // its worst case.
      row.captured = cap != nullptr &&
                     cap_used + 1 + 2 * flop +
                             static_cast<std::size_t>(size) <=
                         tp.capture_entries;
      tp.mask.scatter(*mask, i, 1);
    } else {
      row.captured =
          cap != nullptr && cap_used + 2 * flop <= tp.capture_entries;
    }
    if (row.captured) {
      std::size_t ns;
      if constexpr (kMasked) {
        ns = capture_row_masked(acc, a, b, i, tp.mask.view(), cap + cap_used);
      } else if constexpr (kPolicyBatches) {
        ns = s.batch ? capture_row_batch(acc, a, b, i, row_flop(core, i),
                                         cap + cap_used, s.keys)
                     : capture_row(acc, a, b, i, cap + cap_used);
      } else {
        ns = capture_row(acc, a, b, i, cap + cap_used);
      }
      const std::size_t nnz = acc.count();
      row.nnz = static_cast<IT>(nnz);
      // Gather slots (and final column order) are fixed now, while the
      // accumulator still holds the row.
      cols.resize(stage_off + nnz);
      record_gather<IT, VT>(acc, nnz, row.sorted, cap + cap_used + ns,
                            cols.data() + stage_off, s.sort_buf);
      cap_used += ns + nnz;
    } else {
      if constexpr (kMasked) {
        count_row(acc, a, b, i, tp.mask.view());
      } else if constexpr (kPolicyBatches) {
        if (s.batch) {
          count_row_batch(acc, a, b, i, row_flop(core, i), s.keys,
                          s.count_slots);
        } else {
          count_row(acc, a, b, i);
        }
      } else {
        count_row(acc, a, b, i);
      }
      const std::size_t nnz = acc.count();
      row.nnz = static_cast<IT>(nnz);
      cols.resize(stage_off + nnz);
      if (fallback_cols) {
        IT* out_cols = cols.data() + stage_off;
        acc.extract_keys(out_cols);
        if (row.sorted) std::sort(out_cols, out_cols + nnz);
      }
    }
    acc.reset();
    if constexpr (kMasked) tp.mask.scatter(*mask, i, 0);
    return row;
  }

  /// The numeric row body: a captured row replays its slot stream and
  /// gathers its values to out_vals (its columns were staged by the
  /// symbolic step); a counted row re-probes and extracts columns and
  /// values to (out_cols, out_vals).  Returns the row's entry count.
  template <typename SR, bool kMasked>
  std::size_t numeric_row(const PlanCore<IT, VT>& core, Thread& tp,
                          const Matrix& a, const Matrix& b, const Matrix* mask,
                          std::size_t i, const PlannedRow<IT>& row,
                          const IT* cap, IT* out_cols, VT* out_vals) {
    Acc& acc = tp.acc;
    policy.begin_row(acc, row_size<kMasked>(core, mask, i));
    if (row.captured) {
      const IT* slot_stream = cap + row.cap_off;
      std::size_t ns;
      if constexpr (kMasked) {
        ns = replay_row_masked<SR>(acc, a, b, i, slot_stream);
      } else {
        ns = replay_row<SR>(acc, a, b, i, slot_stream, core.replay_kind);
      }
      gather_values(static_cast<const VT*>(acc.slot_values()),
                    slot_stream + ns, static_cast<std::size_t>(row.nnz),
                    out_vals);
      return static_cast<std::size_t>(row.nnz);
    }
    if constexpr (kMasked) {
      tp.mask.scatter(*mask, i, 1);
      probe_row<SR>(acc, a, b, i, tp.mask.view());
      tp.mask.scatter(*mask, i, 0);
    } else {
      probe_row<SR>(acc, a, b, i);
    }
    const std::size_t nnz = acc.count();
    if (row.sorted) {
      acc.extract_sorted(out_cols, out_vals);
    } else {
      acc.extract_unsorted(out_cols, out_vals);
    }
    acc.reset();
    return nnz;
  }

  /// The fused epilogue over the computed rows [r0, r1) of one tile, timed
  /// once per tile (a row's epilogue is too short to time on its own).  The
  /// tile's rows sit back to back: row i's values at vals + off and its
  /// columns at cols_at(i, off), where off is the row's offset in the tile
  /// and counts[i] its entry count.  Kept entries are appended at
  /// (cols_dst, vals_dst), which may alias the sources (forward compaction,
  /// apply_row_epilogue), and counts[i] becomes the kept count.  Returns the
  /// tile's kept total.
  template <typename ColsAt>
  static std::size_t epilogue_tile(const EpilogueSpec& spec,
                                   EpilogueState& st, std::size_t r0,
                                   std::size_t r1, Offset* counts,
                                   ColsAt&& cols_at, const VT* vals,
                                   IT* cols_dst, VT* vals_dst) {
    const std::uint64_t t0 = monotonic_ns();
    std::size_t off = 0;
    std::size_t kept_total = 0;
    for (std::size_t i = r0; i < r1; ++i) {
      const auto nnz = static_cast<std::size_t>(counts[i]);
      const std::size_t kept =
          apply_row_epilogue(spec, st, cols_at(i, off), vals + off, nnz,
                             cols_dst + kept_total, vals_dst + kept_total);
      counts[i] = static_cast<Offset>(kept);
      kept_total += kept;
      off += nnz;
    }
    st.seconds += static_cast<double>(monotonic_ns() - t0) * 1e-9;
    return kept_total;
  }

  /// epilogue_tile over a one-shot tile staged in the thread's kept
  /// buffers from `begin` on (counts in c.rpts): compacts it in place, so
  /// only kept entries outlive the tile.
  static void epilogue_staged_tile(const EpilogueSpec& spec, Thread& tp,
                                   std::size_t r0, std::size_t r1,
                                   std::size_t begin, Matrix& c) {
    IT* cols = tp.kept_cols.data() + begin;
    VT* vals = tp.kept_vals.data() + begin;
    const std::size_t kept = epilogue_tile(
        spec, tp.epi, r0, r1, c.rpts.data(),
        [cols](std::size_t, std::size_t off) -> const IT* {
          return cols + off;
        },
        vals, cols, vals);
    tp.kept_cols.resize(begin + kept);
    tp.kept_vals.resize(begin + kept);
  }

  /// Throw the typed error of a masked pass whose flag scatter met a mask
  /// column outside [0, ncols) (MaskFlags), after its parallel region.
  /// Clears the bits, so recycled thread state stays usable.
  void check_mask_columns() {
    bool bad = false;
    for (Thread& tp : threads) {
      bad = bad || tp.mask.out_of_range;
      tp.mask.out_of_range = false;
    }
    if (bad) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "masked product: mask column index out of range");
    }
  }

  /// The staged-tile placement: copy every thread's staged tiles to their
  /// final offsets under c.rpts, in parallel, so each output page is first
  /// touched by the thread that owns its tile.  The plan skeleton moves
  /// columns only (tiles/staged_cols); an output moves the kept columns and
  /// values (kept_tiles/kept_cols/kept_vals).  c.rpts must be scanned.
  void place(const PlanCore<IT, VT>& core, Matrix& c, bool skeleton) const {
    const auto nnz = static_cast<std::size_t>(c.rpts.back());
    // Default-init resize: no zeroing pass; the copies below are the first
    // touch of every page.
    c.cols.resize(nnz);
    if (!skeleton) c.vals.resize(nnz);
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        const Thread& tp = threads[static_cast<std::size_t>(tid)];
        for (const PlannedTile& tile : skeleton ? tp.tiles : tp.kept_tiles) {
          const auto dst = static_cast<std::size_t>(c.rpts[tile.row_begin]);
          const auto len =
              static_cast<std::size_t>(c.rpts[tile.row_end]) - dst;
          std::copy_n((skeleton ? tp.staged_cols : tp.kept_cols).data() +
                          tile.stage_begin,
                      len, c.cols.data() + dst);
          if (!skeleton) {
            std::copy_n(tp.kept_vals.data() + tile.stage_begin, len,
                        c.vals.data() + dst);
          }
        }
      }
    }
  }

  /// Fold the per-thread epilogue partials into `result` (ascending thread
  /// order) and report them in `s` and the process telemetry.
  void fold_epilogue(const PlanCore<IT, VT>& core, EpilogueResult* result,
                     SpGemmStats& s) const {
    double epi_s = 0.0;
    std::uint64_t epi_rows = 0;
    fold_epilogue_partials(
        core.opts.epilogue, core.nthreads,
        static_cast<std::size_t>(core.ncols),
        [&](int t) -> const EpilogueState& {
          return threads[static_cast<std::size_t>(t)].epi;
        },
        result, epi_rows, epi_s);
    s.epilogue_rows = epi_rows;
    s.epilogue_ms = epi_s * 1e3;
    if (telemetry::enabled()) {
      EpilogueTelemetry::get().for_kind(core.opts.epilogue.kind).add(epi_rows);
      telemetry::phase_observe("epilogue", epi_s);
    }
  }

  /// Plan pass, symbolic only: capture slot streams, stage skeleton
  /// columns, record per-row counts into core.rpts (then scanned).  Each
  /// thread runs its owned tiles of the persisted ExecutionSchedule and
  /// records them in its tile list, which every execute replays.
  template <bool kMasked>
  void build(PlanCore<IT, VT>& core, const Matrix& a, const Matrix& b,
             const Matrix* mask) {
    const auto nrows = static_cast<std::size_t>(a.nrows);
    ensure_threads(core.nthreads);
    core.rpts.resize(nrows + 1);

    WorkTotal total;
    std::atomic<std::uint64_t> total_tiles{0};
    std::atomic<std::uint64_t> total_captured{0};
    core.schedule.begin_pass();
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        Thread& tp = threads[static_cast<std::size_t>(tid)];
        SymbolicScratch s;
        IT* cap = begin_symbolic<kMasked>(core, tp, tid, b.ncols, s);
        tp.tiles.clear();
        tp.rows.clear();
        tp.staged_cols.clear();
        std::size_t cap_used = 0;
        std::size_t stage_off = 0;
        std::uint64_t captured = 0;
        Work mark = counters(tp.acc);

        core.schedule.for_each_tile(
            tid, [&](const parallel::TileRange& tile) {
              tp.tiles.push_back({tile.row_begin, tile.row_end, stage_off});
              for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
                const PlannedRow<IT> row = symbolic_row<kMasked>(
                    core, tp, s, a, b, mask, i, cap, cap_used,
                    tp.staged_cols, stage_off, true);
                tp.rows.push_back(row);
                core.rpts[i] = static_cast<Offset>(row.nnz);
                stage_off += static_cast<std::size_t>(row.nnz);
                captured += row.captured ? 1 : 0;
              }
            });

        total.add(since(tp.acc, mark));
        total_tiles.fetch_add(tp.tiles.size(), std::memory_order_relaxed);
        total_captured.fetch_add(captured, std::memory_order_relaxed);
      }
      core.schedule.worker_done();
    }
    if constexpr (kMasked) check_mask_columns();

    core.rpts[nrows] = 0;
    parallel::exclusive_scan_inplace(core.rpts.data(), nrows + 1);
    const Work sym = total.load();
    core.symbolic_probes = sym.probes;
    core.symbolic_keys = sym.keys;
    core.tile_count = total_tiles.load(std::memory_order_relaxed);
    core.rows_captured = total_captured.load(std::memory_order_relaxed);
  }

  /// Execute pass, numeric only: replay captured rows, re-probe fallback
  /// rows, values written directly at their final offsets.
  template <typename SR, bool kMasked>
  Work numeric(const PlanCore<IT, VT>& core, const Matrix& a, const Matrix& b,
               const Matrix* mask, Matrix& c) {
    WorkTotal total;
    core.schedule.begin_pass();
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        Thread& tp = threads[static_cast<std::size_t>(tid)];
        Work mark = counters(tp.acc);
        std::size_t cursor = 0;
        for (const PlannedTile& tile : tp.tiles) {
          for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
            const auto off = static_cast<std::size_t>(core.rpts[i]);
            numeric_row<SR, kMasked>(core, tp, a, b, mask, i,
                                     tp.rows[cursor++], tp.capture.data(),
                                     c.cols.data() + off, c.vals.data() + off);
          }
        }
        total.add(since(tp.acc, mark));
      }
      core.schedule.worker_done();
    }
    if constexpr (kMasked) check_mask_columns();
    return total.load();
  }

  /// Fused-epilogue execute pass: each tile is computed into per-thread
  /// tile scratch, the epilogue runs over it while cache-hot, and only the
  /// KEPT entries are staged.  The plan's full-intermediate skeleton
  /// (core.rpts / staged_cols) stays untouched plan state; the output CSR is
  /// sized to the kept nnz only — the intermediate product is never
  /// materialized.  `c.rpts` doubles as the kept-count scratch before its
  /// exclusive scan.
  template <typename SR, bool kMasked>
  Work numeric_fused(const PlanCore<IT, VT>& core, const Matrix& a,
                     const Matrix& b, const Matrix* mask, Matrix& c) {
    const EpilogueSpec& spec = core.opts.epilogue;
    const auto nrows = static_cast<std::size_t>(core.nrows);
    c.rpts.resize(nrows + 1);
    WorkTotal total;
    core.schedule.begin_pass();
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        Thread& tp = threads[static_cast<std::size_t>(tid)];
        Work mark = counters(tp.acc);
        tp.epi.begin_pass(spec, static_cast<std::size_t>(b.ncols));
        tp.kept_tiles.clear();
        tp.kept_cols.clear();
        tp.kept_vals.clear();
        std::size_t cursor = 0;
        std::size_t kept_sz = 0;
        for (const PlannedTile& tile : tp.tiles) {
          tp.kept_tiles.push_back({tile.row_begin, tile.row_end, kept_sz});
          // Tile-local offsets match the staged skeleton columns, so a
          // captured row's columns are read from there in place.
          const auto tile_nnz = static_cast<std::size_t>(
              core.rpts[tile.row_end] - core.rpts[tile.row_begin]);
          if (tp.tile_vals.size() < tile_nnz) tp.tile_vals.resize(tile_nnz);
          const std::size_t first = cursor;
          std::size_t off = 0;
          for (std::size_t i = tile.row_begin; i < tile.row_end; ++i) {
            const PlannedRow<IT>& row = tp.rows[cursor++];
            if (!row.captured && tp.tile_cols.size() < tile_nnz) {
              tp.tile_cols.resize(tile_nnz);
            }
            numeric_row<SR, kMasked>(core, tp, a, b, mask, i, row,
                                     tp.capture.data(),
                                     tp.tile_cols.data() + off,
                                     tp.tile_vals.data() + off);
            c.rpts[i] = static_cast<Offset>(row.nnz);
            off += static_cast<std::size_t>(row.nnz);
          }
          tp.kept_cols.resize(kept_sz + tile_nnz);
          tp.kept_vals.resize(kept_sz + tile_nnz);
          kept_sz += epilogue_tile(
              spec, tp.epi, tile.row_begin, tile.row_end, c.rpts.data(),
              [&](std::size_t i, std::size_t row_off) -> const IT* {
                return tp.rows[first + (i - tile.row_begin)].captured
                           ? tp.staged_cols.data() + tile.stage_begin + row_off
                           : tp.tile_cols.data() + row_off;
              },
              tp.tile_vals.data(), tp.kept_cols.data() + kept_sz,
              tp.kept_vals.data() + kept_sz);
          tp.kept_cols.resize(kept_sz);
          tp.kept_vals.resize(kept_sz);
        }
        total.add(since(tp.acc, mark));
      }
      core.schedule.worker_done();
    }
    if constexpr (kMasked) check_mask_columns();

    c.rpts[nrows] = 0;
    parallel::exclusive_scan_inplace(c.rpts.data(), nrows + 1);
    place(core, c, /*skeleton=*/false);
    return total.load();
  }

  /// One-shot pass: each tile's numeric rows run right after its symbolic
  /// rows, while the tile's A/B rows and accumulator state are still
  /// cache-hot.  Global row offsets are unknown until every row is
  /// counted, so values are staged next to the staged columns
  /// (kept_cols/kept_vals); a fused epilogue compacts each finished tile
  /// forward, so only kept entries outlive their tile.  The capture buffer
  /// is reused per tile and nothing is kept for a later execute.  A masked
  /// product runs no symbolic pass: each row probes once through the mask
  /// filter into staging sized by its bound min(flop_i, nnz(M_i)).  c.rpts
  /// (sized nrows + 1) receives the scanned row pointers; core gets the
  /// symbolic tallies; the numeric tally is returned.
  template <typename SR, bool kMasked>
  Work once(PlanCore<IT, VT>& core, const Matrix& a, const Matrix& b,
            const Matrix* mask, bool fused, Matrix& c, OnceTimes& times) {
    const auto nrows = static_cast<std::size_t>(a.nrows);
    const EpilogueSpec& spec = core.opts.epilogue;
    ensure_threads(core.nthreads);
    std::vector<OnceTimes> thread_times(
        static_cast<std::size_t>(core.nthreads));
    WorkTotal sym_total;
    WorkTotal num_total;
    std::atomic<std::uint64_t> total_tiles{0};
    std::atomic<std::uint64_t> total_captured{0};
#pragma omp parallel num_threads(core.nthreads)
    {
      const int tid = omp_get_thread_num();
      if (tid < core.part.threads()) {
        const auto utid = static_cast<std::size_t>(tid);
        Thread& tp = threads[utid];
        Acc& acc = tp.acc;
        SymbolicScratch s;
        IT* cap = nullptr;
        if constexpr (kMasked) {
          prepare_thread<true>(core, tp, tid, b.ncols);
        } else {
          cap = begin_symbolic<false>(core, tp, tid, b.ncols, s);
          // Reserve at an optimistic compression ratio to limit regrowth.
          const auto thread_flop =
              static_cast<std::size_t>(core.schedule.capture_flop_bound(tid));
          tp.kept_cols.reserve(thread_flop / 4 + 64);
          tp.kept_vals.reserve(thread_flop / 4 + 64);
        }
        if (fused) {
          tp.epi.begin_pass(spec, static_cast<std::size_t>(b.ncols));
        }
        Work sym;
        Work num;
        Work mark = counters(acc);
        std::uint64_t captured = 0;
        OnceTimes& tt = thread_times[utid];
        Timer timer;

        core.schedule.for_each_tile(
            tid, [&](const parallel::TileRange& tile) {
              const std::size_t r0 = tile.row_begin;
              const std::size_t r1 = tile.row_end;
              const std::size_t stage_begin = tp.kept_cols.size();
              tp.kept_tiles.push_back({r0, r1, stage_begin});

              if constexpr (kMasked) {
                timer.reset();
                for (std::size_t i = r0; i < r1; ++i) {
                  const auto bound =
                      static_cast<std::size_t>(row_size<true>(core, mask, i));
                  PlannedRow<IT> row;  // not captured: numeric_row probes
                  row.sorted = emit_sorted(
                      core, policy.begin_row(acc, static_cast<Offset>(bound)));
                  const std::size_t at = tp.kept_cols.size();
                  tp.kept_cols.resize(at + bound);
                  tp.kept_vals.resize(at + bound);
                  const std::size_t nnz = numeric_row<SR, true>(
                      core, tp, a, b, mask, i, row, nullptr,
                      tp.kept_cols.data() + at, tp.kept_vals.data() + at);
                  tp.kept_cols.resize(at + nnz);
                  tp.kept_vals.resize(at + nnz);
                  c.rpts[i] = static_cast<Offset>(nnz);
                }
              } else {
                tp.rows.clear();
                timer.reset();
                std::size_t cap_used = 0;
                std::size_t stage_off = stage_begin;
                for (std::size_t i = r0; i < r1; ++i) {
                  const PlannedRow<IT> row = symbolic_row<false>(
                      core, tp, s, a, b, nullptr, i, cap, cap_used,
                      tp.kept_cols, stage_off, false);
                  tp.rows.push_back(row);
                  c.rpts[i] = static_cast<Offset>(row.nnz);
                  stage_off += static_cast<std::size_t>(row.nnz);
                  captured += row.captured ? 1 : 0;
                }
                tt.symbolic_s += timer.seconds();
                sym += since(acc, mark);

                timer.reset();
                tp.kept_vals.resize(tp.kept_cols.size());
                stage_off = stage_begin;
                for (std::size_t i = r0; i < r1; ++i) {
                  const PlannedRow<IT>& row = tp.rows[i - r0];
                  numeric_row<SR, false>(core, tp, a, b, nullptr, i, row, cap,
                                         tp.kept_cols.data() + stage_off,
                                         tp.kept_vals.data() + stage_off);
                  stage_off += static_cast<std::size_t>(row.nnz);
                }
              }
              if (fused) {
                epilogue_staged_tile(spec, tp, r0, r1, stage_begin, c);
              }
              tt.numeric_s += timer.seconds();
              num += since(acc, mark);
            });

        sym_total.add(sym);
        num_total.add(num);
        total_tiles.fetch_add(tp.kept_tiles.size(), std::memory_order_relaxed);
        total_captured.fetch_add(captured, std::memory_order_relaxed);
      }
    }
    if constexpr (kMasked) check_mask_columns();

    Timer place_timer;
    c.rpts[nrows] = 0;
    parallel::exclusive_scan_inplace(c.rpts.data(), nrows + 1);
    if (core.nthreads == 1) {
      // One thread ran every tile in row order, so its staging buffers ARE
      // the final cols/vals: adopt them and skip the placement copy.
      c.cols = std::move(threads[0].kept_cols);
      c.vals = std::move(threads[0].kept_vals);
    } else {
      place(core, c, /*skeleton=*/false);
    }
    times.place_s = place_timer.seconds();
    for (const OnceTimes& tt : thread_times) {
      times.symbolic_s = std::max(times.symbolic_s, tt.symbolic_s);
      times.numeric_s = std::max(times.numeric_s, tt.numeric_s);
    }
    const Work sym = sym_total.load();
    core.symbolic_probes = sym.probes;
    core.symbolic_keys = sym.keys;
    core.tile_count = total_tiles.load(std::memory_order_relaxed);
    core.rows_captured = total_captured.load(std::memory_order_relaxed);
    return num_total.load();
  }
};

/// One-shot product through the tile loop: resolve a PlanCore at the
/// one-shot capture budget (model::kDefaultReuseBudgetBytes unless
/// opts.reuse_budget_bytes says otherwise) and run KernelPlan::once().
/// Policy: any accumulator policy (core/spgemm_policies.hpp shape: make /
/// prepare / begin_row).  SR: the semiring; the symbolic phase is
/// algebra-independent.  `epi` carries the mask (a masked product, tested
/// at probe time) and the result sink of a fused opts.epilogue.  No pair
/// fingerprint is taken and no plan fault point fires, because nothing is
/// retained; plan_ms/execute_ms stay 0.
template <IndexType IT, ValueType VT, typename Policy,
          typename SR = PlusTimes>
  requires SemiringFor<SR, VT>
CsrMatrix<IT, VT> run_once(const CsrMatrix<IT, VT>& a,
                           const CsrMatrix<IT, VT>& b,
                           const SpGemmOptions& opts, Policy policy,
                           SpGemmStats* stats, SR /*semiring*/ = {},
                           const EpilogueContext<IT, VT>* epi = nullptr) {
  TELEM_SPAN("oneshot.multiply");
  parallel::ScopedNumThreads scoped(opts.threads);
  Timer timer;
  const bool fused = epilogue_fuses_rows(opts.epilogue);
  const EpilogueContext<IT, VT> no_epi{};
  const EpilogueContext<IT, VT>& ectx = epi != nullptr ? *epi : no_epi;
  validate_epilogue(opts.epilogue, ectx, a, b);
  const CsrMatrix<IT, VT>* mask = ectx.mask;
  PlanCore<IT, VT> core;
  init_plan_core(core, a, b, opts, model::kDefaultReuseBudgetBytes, mask);
  const double setup_s = timer.seconds();

  CsrMatrix<IT, VT> c(a.nrows, b.ncols);
  KernelPlan<IT, VT, Policy> kernel(std::move(policy));
  typename KernelPlan<IT, VT, Policy>::OnceTimes times;
  const Work num = with_mask(core.masked, [&](auto masked) {
    return kernel.template once<SR, decltype(masked)::value>(
        core, a, b, mask, fused, c, times);
  });
  c.sortedness = opts.sort_output == SortOutput::kYes ? Sortedness::kSorted
                                                      : Sortedness::kUnsorted;

  SpGemmStats local;
  SpGemmStats& s = stats != nullptr ? *stats : local;
  s.epilogue_rows = 0;
  s.epilogue_ms = 0.0;
  if (fused) kernel.fold_epilogue(core, ectx.result, s);
  if (telemetry::enabled()) {
    // The phases interleave per tile, so they were timed per thread inside
    // the pass; capture shows up as the reuse_rows counters.
    telemetry::phase_observe("oneshot.setup", setup_s);
    telemetry::phase_observe("oneshot.symbolic", times.symbolic_s);
    telemetry::phase_observe("oneshot.numeric", times.numeric_s);
    telemetry::phase_observe("oneshot.placement", times.place_s);
  }
  if (stats == nullptr) return c;
  fill_symbolic_stats(core, c.rpts.back(), s);
  s.setup_ms = setup_s * 1e3;
  // Slowest thread's share of each interleaved phase; the scan and the
  // placement copy count as numeric.
  s.symbolic_ms = times.symbolic_s * 1e3;
  s.numeric_ms = (times.numeric_s + times.place_s) * 1e3;
  s.numeric_probes = num.probes;
  s.numeric_keys = num.keys;
  s.probes = s.symbolic_probes + num.probes;
  return c;
}

}  // namespace detail

template <IndexType IT, ValueType VT>
class SpGemmHandle {
 public:
  SpGemmHandle() = default;

  /// Convenience: construct and plan in one step (the old SpGemmPlan
  /// constructor shape).
  SpGemmHandle(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
               SpGemmOptions opts = {}, SpGemmStats* stats = nullptr) {
    plan(a, b, opts, stats);
  }

  SpGemmHandle(const SpGemmHandle&) = delete;
  SpGemmHandle& operator=(const SpGemmHandle&) = delete;
  SpGemmHandle(SpGemmHandle&&) = default;
  SpGemmHandle& operator=(SpGemmHandle&&) = default;

  /// Inspect: symbolic phase + flop-balanced partition + ExecutionSchedule
  /// + slot-stream capture + output skeleton, all persisted in the handle.
  /// May be called again with a different product; workspaces and the
  /// pooled output are recycled grow-only.  `known_fingerprint` lets a
  /// caller that already holds the pair fingerprint (ensure_planned_hashed)
  /// skip the O(nnz) hash of both inputs.
  void plan(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
            SpGemmOptions opts = {}, SpGemmStats* stats = nullptr,
            const std::uint64_t* known_fingerprint = nullptr) {
    if (a.ncols != b.nrows) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle::plan: inner dimensions disagree");
    }
    TELEM_SPAN("handle.plan");
    Timer plan_timer;
    requested_opts_ = opts;  // pre-resolution, for ensure_planned()
    stats_ = SpGemmStats{};
    executions_ = 0;
    pooled_cols_ready_ = false;
    planned_ = false;
    // Stands in for the partition / schedule / workspace / pooled-output
    // allocations this call makes: every plan attempt passes it exactly
    // once, which is what makes the engine's ladder tests deterministic.
    SPGEMM_FAULT_ALLOC("handle.plan.alloc");

    opts.algorithm = detail::resolve_algorithm(a, b, opts, is_two_phase);
    if (!is_two_phase(opts.algorithm)) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle::plan: kernel has no symbolic phase to "
                        "plan (two-phase kernels only)");
    }
    detail::validate_epilogue(
        opts.epilogue,
        detail::EpilogueContext<IT, VT>{epilogue_mask_, nullptr}, a, b);

    parallel::ScopedNumThreads scoped(opts.threads);
    Timer timer;
    // A persistent plan trades memory for repeated numeric time, so its
    // default capture budget is the large plan budget; an explicit
    // reuse_budget_bytes overrides it.
    detail::init_plan_core(core_, a, b, opts, model::kDefaultPlanBudgetBytes,
                           epilogue_mask_);
    // Debug builds recompute and validate a caller-supplied fingerprint: a
    // wrong hash in a release build silently executes a stale plan (the
    // ensure_planned_hashed contract), so the one build mode that can
    // afford the O(nnz) check refuses to let it slide.
    assert(known_fingerprint == nullptr ||
           *known_fingerprint == pair_fingerprint(a, b));
    core_.fingerprint =
        known_fingerprint != nullptr ? *known_fingerprint
                                     : pair_fingerprint(a, b);
    core_.id_a = detail::StructureId<IT, VT>::of(a);
    core_.id_b = detail::StructureId<IT, VT>::of(b);
    if (core_.masked) {
      core_.id_mask = detail::StructureId<IT, VT>::of(*epilogue_mask_);
      core_.mask_fp = structure_fingerprint(*epilogue_mask_);
    }
    stats_.setup_ms = timer.millis();

    timer.reset();
    {
      TELEM_SPAN("handle.symbolic");
      SPGEMM_FAULT_RAISE("handle.plan.symbolic");
      emplace_kernel(b.ncols);
      std::visit(
          [&](auto& kernel) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(kernel)>,
                                          std::monostate>) {
              detail::with_mask(core_.masked, [&](auto masked) {
                kernel.template build<decltype(masked)::value>(
                    core_, a, b, epilogue_mask_);
              });
            }
          },
          kernel_);
    }
    stats_.symbolic_ms = timer.millis();

    planned_ = true;
    detail::fill_symbolic_stats(core_, core_.rpts.back(), stats_);
    stats_.plan_ms = plan_timer.millis();
    if (telemetry::enabled()) {
      auto& t = detail::HandleTelemetry::get();
      t.plans.add(1);
      t.symbolic_probes.add(stats_.symbolic_probes);
      t.symbolic_keys.add(stats_.symbolic_keys);
      t.flop.add(static_cast<std::uint64_t>(stats_.flop));
    }
    if (stats != nullptr) *stats = stats_;
  }

  /// Plan-or-adopt for callers whose structures drift occasionally (MCL:
  /// pruning changes the pattern early, then it freezes): replan only when
  /// the inputs' structure — or the requested options — differ from the
  /// current plan.  On a match the O(1) identity fast path is transferred
  /// to the new objects, so the following execute() skips the fingerprint
  /// entirely.  Returns true when a new plan was built.
  bool ensure_planned(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                      SpGemmOptions opts = {}, SpGemmStats* stats = nullptr) {
    if (opts == requested_opts_ && structure_matches(a, b) &&
        mask_matches()) {
      core_.id_a = detail::StructureId<IT, VT>::of(a);
      core_.id_b = detail::StructureId<IT, VT>::of(b);
      if (stats != nullptr) *stats = stats_;
      return false;
    }
    plan(a, b, opts, stats);
    return true;
  }

  /// ensure_planned for producers that maintain their inputs' structure
  /// fingerprints incrementally (core/structure_hash.hpp): the match check
  /// compares the caller's fingerprints against the plan's in O(1), with no
  /// pass over rpts/cols at all — MCL's stabilized iterations hit this
  /// path once inflate_and_prune hashes while it scans.  `fp_a`/`fp_b` MUST
  /// equal structure_fingerprint(a)/structure_fingerprint(b); in a release
  /// build a wrong fingerprint silently executes a stale plan, exactly like
  /// mutating columns in place behind the O(1) identity check.  Debug
  /// (!NDEBUG) builds recompute the pair fingerprint inside plan() and
  /// assert the caller's value matches.
  bool ensure_planned_hashed(const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b, std::uint64_t fp_a,
                             std::uint64_t fp_b, SpGemmOptions opts = {},
                             SpGemmStats* stats = nullptr) {
    const std::uint64_t pair = pair_structure_hash(fp_a, fp_b);
    if (opts == requested_opts_ && planned_ && a.nrows == core_.nrows &&
        b.ncols == core_.ncols && a.ncols == b.nrows &&
        pair == core_.fingerprint && mask_matches()) {
      core_.id_a = detail::StructureId<IT, VT>::of(a);
      core_.id_b = detail::StructureId<IT, VT>::of(b);
      if (stats != nullptr) *stats = stats_;
      return false;
    }
    plan(a, b, opts, stats, &pair);
    return true;
  }

  /// Numeric-only execute into the handle-pooled output.  The returned
  /// reference stays valid (and its buffers stay in place) until the next
  /// plan()/execute() call on this handle.
  template <typename SR = PlusTimes>
    requires SemiringFor<SR, VT>
  const CsrMatrix<IT, VT>& execute(const CsrMatrix<IT, VT>& a,
                                   const CsrMatrix<IT, VT>& b, SR sr = {},
                                   SpGemmStats* stats = nullptr) {
    execute_impl(a, b, pooled_, !pooled_cols_ready_, sr, stats);
    pooled_cols_ready_ = true;
    return pooled_;
  }

  /// Numeric-only execute into a caller-provided matrix (grow-only resize;
  /// the skeleton is copied in, values are computed fresh).
  template <typename SR = PlusTimes>
    requires SemiringFor<SR, VT>
  void execute_into(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                    CsrMatrix<IT, VT>& c, SR sr = {},
                    SpGemmStats* stats = nullptr) {
    execute_impl(a, b, c, /*fill_skeleton=*/true, sr, stats);
  }

  // ---- Plan introspection -------------------------------------------------

  [[nodiscard]] bool planned() const { return planned_; }
  [[nodiscard]] Algorithm algorithm() const { return core_.opts.algorithm; }
  [[nodiscard]] Offset nnz_out() const {
    return planned_ ? core_.rpts.back() : 0;
  }
  [[nodiscard]] Offset flop() const {
    return planned_ ? core_.part.total_flop() : 0;
  }
  [[nodiscard]] std::uint64_t symbolic_probes() const {
    return core_.symbolic_probes;
  }
  [[nodiscard]] std::uint64_t executions() const { return executions_; }
  [[nodiscard]] const SpGemmStats& stats() const { return stats_; }

  /// Bytes this handle retains across execute() calls: the output skeleton,
  /// every thread's capture streams / staged columns / tile+row records,
  /// and the pooled output.  Capacities, not sizes — grow-only recycling
  /// means capacity is what the handle actually keeps from the allocator.
  /// Accumulator tables are excluded: their storage is pool-backed scratch
  /// shared through the thread caches, not plan-owned.  This is the
  /// eviction weight of engine::PlanCache.
  [[nodiscard]] std::size_t retained_bytes() const {
    std::size_t bytes = core_.rpts.capacity() * sizeof(Offset);
    bytes += pooled_.rpts.capacity() * sizeof(Offset) +
             pooled_.cols.capacity() * sizeof(IT) +
             pooled_.vals.capacity() * sizeof(VT);
    std::visit(
        [&](const auto& kernel) {
          if constexpr (!std::is_same_v<std::decay_t<decltype(kernel)>,
                                        std::monostate>) {
            for (const auto& tp : kernel.threads) {
              bytes += tp.capture.capacity() * sizeof(IT);
              bytes += tp.staged_cols.capacity() * sizeof(IT);
              bytes += tp.rows.capacity() * sizeof(detail::PlannedRow<IT>);
              bytes += tp.tiles.capacity() * sizeof(detail::PlannedTile);
              bytes += tp.kept_cols.capacity() * sizeof(IT) +
                       tp.kept_vals.capacity() * sizeof(VT) +
                       tp.kept_tiles.capacity() * sizeof(detail::PlannedTile);
              bytes += tp.tile_cols.capacity() * sizeof(IT) +
                       tp.tile_vals.capacity() * sizeof(VT);
              bytes += tp.mask.flags.capacity();
            }
          }
        },
        kernel_);
    return bytes;
  }

  /// Measured hash collision factor of the inspected product (probe
  /// rounds per scalar multiplication) — the c of the cost model's Eq. 2.
  /// The model defines c against per-key probing, where every key costs at
  /// least one round; the batched pipeline's duplicate-in-flight shortcut
  /// retires keys WITHOUT a round, so the raw round count is floored at
  /// one per key to keep c >= 1 regardless of how the plan probed.
  [[nodiscard]] double collision_factor() const {
    const auto f = static_cast<double>(flop());
    const auto rounds = static_cast<double>(
        std::max(core_.symbolic_probes, core_.symbolic_keys));
    return f > 0.0 ? rounds / f : 1.0;
  }

  /// Tile size (row cap) the plan settled on.
  [[nodiscard]] std::size_t planned_tile_rows() const {
    return core_.tile_rows;
  }

  /// Engine lanes hook: mirror per-pass worker exits into `sink` so the
  /// serving engine can widen its small-product overlay as this handle's
  /// plan/execute workers drain (ExecutionSchedule::set_exit_sink).  The
  /// sink must outlive every pass run while attached; detach with nullptr
  /// before it dies.  Callers serialize on the handle's execution anyway
  /// (the engine holds the plan-cache exec mutex), so this needs no lock.
  void set_pass_exit_sink(std::atomic<int>* sink) {
    core_.schedule.set_exit_sink(sink);
  }

  // ---- Fused epilogues ----------------------------------------------------

  /// Mask operand.  Attach it BEFORE plan(): a plan built with a mask
  /// attached is a masked plan, C = M .* (A * B) with the mask tested at
  /// probe time (kMaskReduce requires one; the spec itself rides in
  /// SpGemmOptions::epilogue).  Every execute of a masked plan needs a mask
  /// of the planned structure attached — an O(1) identity check with a
  /// fingerprint fallback, SpGemmError(kBadInput) on drift — and an
  /// unmasked plan needs none.  The pointed-to matrix must outlive every
  /// plan()/execute() run while attached and must match the mask_fp the
  /// spec was keyed with; detach with nullptr.
  void set_epilogue_mask(const CsrMatrix<IT, VT>* mask) {
    epilogue_mask_ = mask;
  }

  /// Scalar outputs of the last fused execute (kMaskReduce's reduction,
  /// kPruneScale's optional column sums).  Overwritten by every fused
  /// execute on this handle.
  [[nodiscard]] const EpilogueResult& epilogue_result() const {
    return epilogue_result_;
  }

  /// Fraction of rows whose slot stream was captured (replayable).
  [[nodiscard]] double capture_rate() const {
    const auto n = static_cast<double>(stats_.reuse_rows_total);
    return n > 0.0 ? static_cast<double>(core_.rows_captured) / n : 0.0;
  }

  /// Whether capture pays at the measured collision factor (cost model).
  [[nodiscard]] bool reuse_pays() const {
    const std::size_t budget = core_.opts.reuse_budget_bytes > 0
                                   ? core_.opts.reuse_budget_bytes
                                   : model::kDefaultPlanBudgetBytes;
    return core_.opts.reuse != StructureReuse::kOff &&
           model::reuse_pays(collision_factor(), budget);
  }

  /// Full O(nnz) structure comparison against the plan; never throws.
  [[nodiscard]] bool structure_matches(const CsrMatrix<IT, VT>& a,
                                       const CsrMatrix<IT, VT>& b) const {
    return planned_ && a.nrows == core_.nrows && b.ncols == core_.ncols &&
           a.ncols == b.nrows &&
           pair_fingerprint(a, b) == core_.fingerprint;
  }

  /// On-demand full verification (for callers that mutate column arrays in
  /// place, which the O(1) per-execute check cannot see).
  void verify_structure(const CsrMatrix<IT, VT>& a,
                        const CsrMatrix<IT, VT>& b) const {
    if (!structure_matches(a, b)) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle: input structure differs from the plan");
    }
  }

 private:
  using AnyKernel =
      std::variant<std::monostate,
                   detail::KernelPlan<IT, VT, detail::HashPlanPolicy<IT, VT>>,
                   detail::KernelPlan<IT, VT,
                                      detail::HashVecPlanPolicy<IT, VT>>,
                   detail::KernelPlan<IT, VT, detail::SpaPlanPolicy<IT, VT>>,
                   detail::KernelPlan<IT, VT,
                                      detail::KkHashPlanPolicy<IT, VT>>,
                   detail::KernelPlan<IT, VT,
                                      detail::AdaptivePlanPolicy<IT, VT>>>;

  /// Make kernel_ hold the right alternative for the planned algorithm.
  /// When it already does (replanning the same kernel), only the policy is
  /// refreshed, so the per-thread accumulators, capture scratch and staged
  /// buffers are recycled grow-only instead of being torn down.
  template <typename Policy>
  void set_kernel(Policy policy) {
    using Plan = detail::KernelPlan<IT, VT, Policy>;
    if (Plan* live = std::get_if<Plan>(&kernel_)) {
      live->policy = std::move(policy);
    } else {
      kernel_.template emplace<Plan>(std::move(policy));
    }
  }

  void emplace_kernel(IT ncols_b) {
    detail::with_plan_policy<IT, VT>(
        core_.opts.algorithm, core_.opts.probe, ncols_b,
        [&](auto policy) { set_kernel(std::move(policy)); });
  }

  /// O(1) per-execute structure check; falls back to the full fingerprint
  /// when the caller hands in different objects than last time.
  void check_structure(const CsrMatrix<IT, VT>& a,
                       const CsrMatrix<IT, VT>& b) {
    const auto id_a = detail::StructureId<IT, VT>::of(a);
    const auto id_b = detail::StructureId<IT, VT>::of(b);
    if (id_a == core_.id_a && id_b == core_.id_b) return;
    verify_structure(a, b);
    core_.id_a = id_a;
    core_.id_b = id_b;
  }

  /// Whether the attached mask is the plan's: none for an unmasked plan; for
  /// a masked one the same object (O(1) identity, re-anchored like
  /// check_structure) or one with the planned structure fingerprint.
  bool mask_matches() {
    if ((epilogue_mask_ != nullptr) != core_.masked) return false;
    if (!core_.masked) return true;
    const auto id = detail::StructureId<IT, VT>::of(*epilogue_mask_);
    if (id == core_.id_mask) return true;
    if (epilogue_mask_->nrows != core_.nrows ||
        epilogue_mask_->ncols != core_.ncols ||
        structure_fingerprint(*epilogue_mask_) != core_.mask_fp) {
      return false;
    }
    core_.id_mask = id;
    return true;
  }

  template <typename SR>
  void execute_impl(const CsrMatrix<IT, VT>& a, const CsrMatrix<IT, VT>& b,
                    CsrMatrix<IT, VT>& c, bool fill_skeleton, SR /*sr*/,
                    SpGemmStats* stats) {
    if (!planned_) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle::execute: no plan — call plan()");
    }
    check_structure(a, b);
    TELEM_SPAN("handle.execute");
    SPGEMM_FAULT_RAISE("handle.execute.numeric");
    Timer exec_timer;
    parallel::ScopedNumThreads scoped(core_.opts.threads);

    // Structural epilogues bypass the skeleton fill entirely: the kept
    // structure depends on this execute's VALUES (pruning), and the full
    // intermediate must never be allocated — numeric_fused sizes c to the
    // kept nnz only.
    const bool fused = detail::epilogue_fuses_rows(core_.opts.epilogue);
    const detail::EpilogueContext<IT, VT> ectx{epilogue_mask_,
                                               &epilogue_result_};
    detail::validate_epilogue(core_.opts.epilogue, ectx, a, b);
    if (!mask_matches()) {
      throw SpGemmError(ErrorCode::kBadInput,
                        "SpGemmHandle: mask structure differs from the plan");
    }

    c.nrows = core_.nrows;
    c.ncols = core_.ncols;
    if (fill_skeleton && !fused) {
      TELEM_SPAN("handle.placement");
      c.rpts = core_.rpts;
      std::visit(
          [&](auto& kernel) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(kernel)>,
                                          std::monostate>) {
              kernel.place(core_, c, /*skeleton=*/true);
            }
          },
          kernel_);
      // Default-init resize: vals pages are first touched by the numeric
      // pass below, inside the thread that owns each row range.
      c.vals.resize(static_cast<std::size_t>(core_.rpts.back()));
    }

    detail::Work work;
    {
      TELEM_SPAN("handle.numeric");
      std::visit(
          [&](auto& kernel) {
            if constexpr (!std::is_same_v<std::decay_t<decltype(kernel)>,
                                          std::monostate>) {
              detail::with_mask(core_.masked, [&](auto masked) {
                constexpr bool kMasked = decltype(masked)::value;
                if (fused) {
                  work = kernel.template numeric_fused<SR, kMasked>(
                      core_, a, b, epilogue_mask_, c);
                  kernel.fold_epilogue(core_, &epilogue_result_, stats_);
                } else {
                  work = kernel.template numeric<SR, kMasked>(
                      core_, a, b, epilogue_mask_, c);
                }
              });
            }
          },
          kernel_);
    }

    c.sortedness = core_.opts.sort_output == SortOutput::kYes
                       ? Sortedness::kSorted
                       : Sortedness::kUnsorted;

    ++executions_;
    stats_.execute_ms = exec_timer.millis();
    stats_.numeric_ms = stats_.execute_ms;
    stats_.numeric_probes = work.probes;
    stats_.numeric_keys = work.keys;
    stats_.probes = stats_.symbolic_probes + work.probes;
    stats_.executions = executions_;
    if (fused) stats_.nnz_out = c.rpts.empty() ? 0 : c.rpts.back();
    if (telemetry::enabled()) {
      auto& t = detail::HandleTelemetry::get();
      t.executes.add(1);
      t.numeric_probes.add(work.probes);
      t.numeric_keys.add(work.keys);
    }
    if (stats != nullptr) *stats = stats_;
  }

  detail::PlanCore<IT, VT> core_;
  AnyKernel kernel_;
  CsrMatrix<IT, VT> pooled_;
  SpGemmOptions requested_opts_;  ///< as passed to plan(), pre-resolution
  const CsrMatrix<IT, VT>* epilogue_mask_ = nullptr;
  EpilogueResult epilogue_result_;
  bool pooled_cols_ready_ = false;
  bool planned_ = false;
  std::uint64_t executions_ = 0;
  SpGemmStats stats_;
};

/// The pre-handle inspector-executor name, kept as an alias so existing
/// call sites keep compiling; new code should say SpGemmHandle.  Two
/// deliberate semantic changes from the legacy class: execute() returns a
/// reference into handle-POOLED storage (overwritten by the next execute()
/// or plan(); copy it, or use execute_into(), to keep a result), and the
/// per-execute structure check is O(1) identity instead of a full
/// re-fingerprint — in-place column mutation requires an explicit
/// verify_structure() call to detect.
template <IndexType IT, ValueType VT>
using SpGemmPlan = SpGemmHandle<IT, VT>;

}  // namespace spgemm
