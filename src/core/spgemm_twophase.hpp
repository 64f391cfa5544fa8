// Row-level building blocks of the two-phase (symbolic + numeric) SpGEMM.
//
// The paper's Hash/HashVector SpGEMM (§2, §4.2) is Gustavson's algorithm in
// two phases: a symbolic pass counts each output row, a scan sizes C, and a
// numeric pass fills it.  The one tile loop that runs both phases lives in
// detail::KernelPlan (core/spgemm_handle.hpp) and serves one-shot
// multiplies and plan/execute handles alike.  This header holds what that
// loop is made of:
//
//   * the ROW-LEVEL capture/replay primitives (capture_row, count_row,
//     record_gather, replay_row, gather_values, probe_row) and their masked
//     forms (a column filter on count_row/probe_row, capture_row_masked,
//     replay_row_masked, MaskFlags);
//   * the fused per-row epilogues (prune/scale, mask-reduce);
//   * the tiling/capture-budget resolution that cuts the ExecutionSchedule.
//
// ---- Slot-stream capture protocol -----------------------------------------
//
// capture_row() runs the symbolic insertion loop with insert_tagged(),
// recording slot s (new key) or ~s (duplicate) per scalar product into a
// caller-provided stream.  record_gather() then freezes the per-output-entry
// gather slots (sorted by column when requested) while the accumulator still
// holds the row, and emits the row's column indices.  replay_row() re-reads
// the stream in the numeric phase: one sequential pass, value scattered to
// slot_values()[s] (store when s >= 0, fold when tagged ~s) — zero hash
// probing — and gather_values() pulls the folded row out through the
// recorded slots.  Rows that do not fit the capture budget use count_row()/
// probe_row(): the classic re-probing symbolic/numeric passes.
//
// The replayed value stream folds contributions in exactly the traversal
// order of the classic numeric pass, so captured and re-probed products are
// bit-identical, sorted or unsorted.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__AVX512F__) || defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/cpu_features.hpp"
#include "common/types.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"
#include "mem/workspace.hpp"
#include "model/cost_model.hpp"
#include "parallel/rows_to_threads.hpp"
#include "telemetry/registry.hpp"

namespace spgemm::detail {

// ---- Shared row-level primitives ------------------------------------------

/// Symbolic capture pass over row i: one tagged slot per scalar product.
/// Returns the stream length (== row flop).
template <IndexType IT, ValueType VT, typename Acc>
inline std::size_t capture_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                               const CsrMatrix<IT, VT>& b, std::size_t i,
                               IT* slot_stream) {
  std::size_t ns = 0;
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
      slot_stream[ns++] =
          acc.insert_tagged(b.cols[static_cast<std::size_t>(l)]);
    }
  }
  return ns;
}

/// Column filter of an unmasked product: keeps every scalar product, and
/// compiles away.
struct AllColumns {
  template <typename IT>
  constexpr bool operator()(IT /*col*/) const {
    return true;
  }
};

/// Column filter of a masked product: the dense flags of the current mask
/// row (MaskFlags below).
struct InMask {
  const std::uint8_t* flags = nullptr;
  template <typename IT>
  bool operator()(IT col) const {
    return flags[static_cast<std::size_t>(col)] != 0;
  }
};

/// Classic symbolic pass over row i (count only, no capture); `keep`
/// filters the products by output column.
template <IndexType IT, ValueType VT, typename Acc, typename Keep = AllColumns>
inline void count_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                      const CsrMatrix<IT, VT>& b, std::size_t i,
                      Keep keep = {}) {
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
      const IT col = b.cols[static_cast<std::size_t>(l)];
      if (keep(col)) acc.insert(col);
    }
  }
}

/// Masked capture pass over row i: only products whose column carries a
/// flag reach the accumulator, and the stream records just those, as
/// [kept, (position, tagged slot) x kept], where position is the product's
/// index in the row's full traversal order.  Returns the stream length
/// (1 + 2 * kept <= 1 + 2 * row flop).
template <IndexType IT, ValueType VT, typename Acc>
inline std::size_t capture_row_masked(Acc& acc, const CsrMatrix<IT, VT>& a,
                                      const CsrMatrix<IT, VT>& b,
                                      std::size_t i, InMask keep,
                                      IT* slot_stream) {
  IT* pairs = slot_stream + 1;
  std::size_t kept = 0;
  IT pos = 0;
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l, ++pos) {
      const IT col = b.cols[static_cast<std::size_t>(l)];
      if (keep(col)) {
        pairs[2 * kept] = pos;
        pairs[2 * kept + 1] = acc.insert_tagged(col);
        ++kept;
      }
    }
  }
  slot_stream[0] = static_cast<IT>(kept);
  return 1 + 2 * kept;
}

/// Accumulators that implement the batch-capture contract (accumulator/
/// hash_table.hpp): insert_tagged_batch must be bit-identical to per-key
/// insert_tagged over the same stream, and batch_worthwhile() reports
/// whether the prepared table is large enough for batching to pay
/// (kBatchMinTableBytes) — batching a cache-resident table just pays the
/// stanza-copy pass for probes that were already cheap.  A thread batches
/// exactly when its accumulator opts in and its table passes that gate.
template <typename Acc, typename IT>
concept BatchProbe = requires(Acc acc, const IT* keys, std::size_t n,
                              IT* slots) {
  acc.insert_tagged_batch(keys, n, slots);
  { acc.batch_worthwhile() } -> std::convertible_to<bool>;
};

/// Keys-resolved counter of an accumulator (0 for accumulators that do not
/// track it) — the probe-round normalizer of SpGemmStats.
template <typename Acc>
inline std::uint64_t keys_resolved_of(const Acc& acc) {
  if constexpr (requires { acc.keys_resolved(); }) {
    return acc.keys_resolved();
  } else {
    return 0;
  }
}

/// Stream row i's key stanzas into `key_scratch` (contiguous), then resolve
/// them through the accumulator's batched multi-key probing pipeline in one
/// call.  Same table state, same touched order, same tagged stream as
/// capture_row() — only the probe-work shape changes.
template <IndexType IT, ValueType VT, typename Acc>
  requires BatchProbe<Acc, IT>
inline std::size_t capture_row_batch(Acc& acc, const CsrMatrix<IT, VT>& a,
                                     const CsrMatrix<IT, VT>& b,
                                     std::size_t i, Offset row_flop,
                                     IT* slot_stream,
                                     mem::ThreadScratch<IT>& key_scratch) {
  // Single-stanza rows (one A entry) are already a contiguous key stream
  // in b.cols — probe them in place, no copy.
  if (a.rpts[i + 1] - a.rpts[i] == 1) {
    const auto k = static_cast<std::size_t>(
        a.cols[static_cast<std::size_t>(a.rpts[i])]);
    const auto off = static_cast<std::size_t>(b.rpts[k]);
    const auto len = static_cast<std::size_t>(b.rpts[k + 1]) - off;
    acc.insert_tagged_batch(b.cols.data() + off, len, slot_stream);
    return len;
  }
  IT* keys = key_scratch.ensure(static_cast<std::size_t>(row_flop));
  std::size_t ns = 0;
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    const auto off = static_cast<std::size_t>(b.rpts[k]);
    const auto len = static_cast<std::size_t>(b.rpts[k + 1]) - off;
    std::copy_n(b.cols.data() + off, len, keys + ns);
    ns += len;
  }
  acc.insert_tagged_batch(keys, ns, slot_stream);
  return ns;
}

/// Batched variant of count_row(): the resolved slots go to thread scratch
/// (rows over the capture budget need only the count).  insert() and
/// insert_tagged() mutate the table identically, so counts agree.
template <IndexType IT, ValueType VT, typename Acc>
  requires BatchProbe<Acc, IT>
inline void count_row_batch(Acc& acc, const CsrMatrix<IT, VT>& a,
                            const CsrMatrix<IT, VT>& b, std::size_t i,
                            Offset row_flop,
                            mem::ThreadScratch<IT>& key_scratch,
                            mem::ThreadScratch<IT>& slot_scratch) {
  IT* slots = slot_scratch.ensure(static_cast<std::size_t>(row_flop));
  capture_row_batch(acc, a, b, i, row_flop, slots, key_scratch);
}

/// Freeze the gather order of a captured row while the accumulator still
/// holds it: writes `nnz` gather slots and the matching column indices
/// (ascending by column when `sorted`).  `sort_buf` is caller scratch.
template <IndexType IT, ValueType VT, typename Acc>
inline void record_gather(Acc& acc, std::size_t nnz, bool sorted, IT* gather,
                          IT* out_cols,
                          std::vector<std::pair<IT, IT>>& sort_buf) {
  if (sorted) {
    sort_buf.resize(nnz);
    for (std::size_t t = 0; t < nnz; ++t) {
      const IT slot = acc.touched_slot(t);
      sort_buf[t] = {acc.key_at_slot(slot), slot};
    }
    std::sort(sort_buf.begin(), sort_buf.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (std::size_t t = 0; t < nnz; ++t) {
      out_cols[t] = sort_buf[t].first;
      gather[t] = sort_buf[t].second;
    }
  } else {
    for (std::size_t t = 0; t < nnz; ++t) {
      const IT slot = acc.touched_slot(t);
      out_cols[t] = acc.key_at_slot(slot);
      gather[t] = slot;
    }
  }
}

/// One stanza of the numeric replay: scatter SR::mul(av, bvals[l]) through
/// the tagged slot stream (store when the tag is non-negative, fold into
/// slot ~e otherwise).  `kind` selects the execution tier at runtime:
///
///   kAvx512 — gather/scatter over 8 doubles per round, with
///     _mm256_conflict_epi32 guarding against two stream entries hitting
///     the same slot in one round (conflicting rounds run the scalar loop,
///     preserving the exact left-to-right fold order, so every tier is
///     bit-identical);
///   kAvx2   — 4x-unrolled scalar with the slot target prefetched a few
///     entries ahead (no lane-crossing gather worth its latency at 256
///     bits);
///   kScalar — the classic loop.
///
/// Only PlusTimes over (int32, double) vectorizes; any other semiring or
/// type combination runs the scalar/prefetch tiers.
template <typename SR, IndexType IT, ValueType VT>
inline void replay_stanza(VT* slot_vals, VT av, const VT* bvals,
                          const IT* stream, std::size_t len, ProbeKind kind) {
  const auto scalar_at = [&](std::size_t l) {
    const VT v = SR::mul(av, bvals[l]);
    const IT e = stream[l];
    if (e >= 0) {
      slot_vals[static_cast<std::size_t>(e)] = v;
    } else {
      SR::add_into(slot_vals[static_cast<std::size_t>(~e)], v);
    }
  };
  std::size_t l = 0;
#if defined(__AVX512F__) && defined(__AVX512CD__) && defined(__AVX512VL__)
  if constexpr (std::is_same_v<IT, std::int32_t> &&
                std::is_same_v<VT, double> && std::is_same_v<SR, PlusTimes>) {
    if (kind == ProbeKind::kAvx512) {
      const __m512d av_v = _mm512_set1_pd(av);
      for (; l + 8 <= len; l += 8) {
        const __m256i e = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(stream + l));
        const __m256i sign = _mm256_srai_epi32(e, 31);
        const __m256i slots = _mm256_xor_si256(e, sign);  // e >= 0 ? e : ~e
        const __m256i conf = _mm256_conflict_epi32(slots);
        if (!_mm256_testz_si256(conf, conf)) {
          // Two entries target one slot: the fold order matters, run the
          // round scalar.
          for (std::size_t t = l; t < l + 8; ++t) scalar_at(t);
          continue;
        }
        const __m512d v = _mm512_mul_pd(av_v, _mm512_loadu_pd(bvals + l));
        const __m512d old = _mm512_i32gather_pd(slots, slot_vals, 8);
        const auto tagged = static_cast<__mmask8>(_mm256_movemask_ps(
            _mm256_castsi256_ps(sign)));
        _mm512_i32scatter_pd(slot_vals, slots,
                             _mm512_mask_add_pd(v, tagged, old, v), 8);
      }
    }
  }
#endif
  if (kind == ProbeKind::kAvx2) {
    constexpr std::size_t kDist = 16;
    const auto prefetch_at = [&](std::size_t t) {
      const IT e = stream[t];
      __builtin_prefetch(
          slot_vals + static_cast<std::size_t>(e >= 0 ? e : ~e), 1);
    };
    for (; l + 4 <= len && l + kDist + 4 <= len; l += 4) {
      prefetch_at(l + kDist);
      prefetch_at(l + kDist + 1);
      prefetch_at(l + kDist + 2);
      prefetch_at(l + kDist + 3);
      scalar_at(l);
      scalar_at(l + 1);
      scalar_at(l + 2);
      scalar_at(l + 3);
    }
  }
  for (; l < len; ++l) scalar_at(l);
}

/// Numeric replay of a captured row: one sequential read of the tagged slot
/// stream, values scattered into the accumulator's slot array with zero
/// probing.  Returns the stream length consumed.  `kind` picks the
/// replay_stanza() execution tier; every tier is bit-identical.
template <typename SR, IndexType IT, ValueType VT, typename Acc>
inline std::size_t replay_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b, std::size_t i,
                              const IT* slot_stream,
                              ProbeKind kind = ProbeKind::kScalar) {
  VT* slot_vals = acc.slot_values();
  std::size_t ns = 0;
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    const VT av = a.vals[static_cast<std::size_t>(j)];
    const auto off = static_cast<std::size_t>(b.rpts[k]);
    const auto len = static_cast<std::size_t>(b.rpts[k + 1]) - off;
    replay_stanza<SR, IT, VT>(slot_vals, av, b.vals.data() + off,
                              slot_stream + ns, len, kind);
    ns += len;
  }
  return ns;
}

/// Pull a replayed row out of the slot array through its gather list.
template <IndexType IT, ValueType VT>
inline void gather_values(const VT* slot_vals, const IT* gather,
                          std::size_t nnz, VT* out_vals) {
  for (std::size_t t = 0; t < nnz; ++t) {
    out_vals[t] = slot_vals[static_cast<std::size_t>(gather[t])];
  }
}

/// Numeric replay of a masked capture (capture_row_masked): walks row i's
/// stanzas and multiplies only the recorded products, folding them in
/// traversal order exactly like the masked re-probe.  Returns the stream
/// length consumed.
template <typename SR, IndexType IT, ValueType VT, typename Acc>
inline std::size_t replay_row_masked(Acc& acc, const CsrMatrix<IT, VT>& a,
                                     const CsrMatrix<IT, VT>& b,
                                     std::size_t i, const IT* slot_stream) {
  VT* slot_vals = acc.slot_values();
  const auto kept = static_cast<std::size_t>(slot_stream[0]);
  const IT* pairs = slot_stream + 1;
  std::size_t t = 0;
  Offset base = 0;  // traversal position of the stanza's first product
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1] && t < kept; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    const VT av = a.vals[static_cast<std::size_t>(j)];
    const Offset off = b.rpts[k];
    const Offset end = base + (b.rpts[k + 1] - off);
    for (; t < kept && static_cast<Offset>(pairs[2 * t]) < end; ++t) {
      const VT v = SR::mul(
          av, b.vals[static_cast<std::size_t>(
                  off + static_cast<Offset>(pairs[2 * t]) - base)]);
      const IT e = pairs[2 * t + 1];
      if (e >= 0) {
        slot_vals[static_cast<std::size_t>(e)] = v;
      } else {
        SR::add_into(slot_vals[static_cast<std::size_t>(~e)], v);
      }
    }
    base = end;
  }
  return 1 + 2 * kept;
}

/// Classic re-probing numeric pass over row i (capture fallback); `keep`
/// filters the products by output column.
template <typename SR, IndexType IT, ValueType VT, typename Acc,
          typename Keep = AllColumns>
inline void probe_row(Acc& acc, const CsrMatrix<IT, VT>& a,
                      const CsrMatrix<IT, VT>& b, std::size_t i,
                      Keep keep = {}) {
  for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
    const auto k =
        static_cast<std::size_t>(a.cols[static_cast<std::size_t>(j)]);
    const VT av = a.vals[static_cast<std::size_t>(j)];
    for (Offset l = b.rpts[k]; l < b.rpts[k + 1]; ++l) {
      const IT col = b.cols[static_cast<std::size_t>(l)];
      if (keep(col)) {
        acc.accumulate(col, SR::mul(av, b.vals[static_cast<std::size_t>(l)]),
                       [](VT& fold_acc, VT v) { SR::add_into(fold_acc, v); });
      }
    }
  }
}

// ---- Masks --------------------------------------------------------------
//
// A masked product C = M .* (A * B) tests the mask inside the row bodies:
// the thread scatters mask row i into dense flags, every scalar product
// whose column carries no flag is skipped before it reaches the
// accumulator, and the flags are cleared again.  A row therefore holds at
// most min(flop_i, nnz(M_i)) entries, and the full A*B row never exists.

/// Thread-private dense flags of the current mask row, plus the bounds
/// check of its column indices: the scatter reads every mask column anyway,
/// so an out-of-range one is skipped and remembered here, and the pass
/// throws after its parallel region (KernelPlan::check_mask_columns).
template <IndexType IT>
struct MaskFlags {
  std::vector<std::uint8_t> flags;  ///< all zero between rows
  std::size_t ncols = 0;
  bool out_of_range = false;

  /// Size the flags for a product into `n` columns (grow-only).
  void begin(std::size_t n) {
    ncols = n;
    if (flags.size() < n) flags.assign(n, 0);
  }
  template <ValueType VT>
  void scatter(const CsrMatrix<IT, VT>& mask, std::size_t i,
               std::uint8_t value) {
    for (Offset j = mask.rpts[i]; j < mask.rpts[i + 1]; ++j) {
      const auto col = static_cast<std::size_t>(static_cast<
          std::make_unsigned_t<IT>>(mask.cols[static_cast<std::size_t>(j)]));
      if (col < ncols) {
        flags[col] = value;
      } else {
        out_of_range = true;
      }
    }
  }
  [[nodiscard]] InMask view() const { return InMask{flags.data()}; }
};

// ---- Fused row epilogues ----------------------------------------------------
//
// The epilogue hook runs over each output row right after the numeric pass
// of its tile, while the tile (and the A/B rows that produced it) are still
// cache-hot; KernelPlan::epilogue_tile times one sweep per tile.
// Structural epilogues (kPruneScale, kMaskReduce) compact or consume the row
// in place, so the full intermediate product is never materialized — its
// allocation vanishes from peak RSS.  The spec (EpilogueSpec) rides in
// SpGemmOptions; the typed operands ride here.

/// Typed companions of the untemplated EpilogueSpec: the mask operand and
/// the caller's result sink.  A mask restricts the product to its structure
/// (C = M .* (A * B), tested at probe time); kMaskReduce requires one.
template <IndexType IT, ValueType VT>
struct EpilogueContext {
  const CsrMatrix<IT, VT>* mask = nullptr;  ///< mask matrix, or none
  EpilogueResult* result = nullptr;         ///< optional scalar-output sink
};

/// Per-thread epilogue partial results, folded in thread order after the
/// parallel region.
struct EpilogueState {
  std::vector<double> col_sums;
  double reduce = 0.0;
  std::uint64_t rows = 0;
  double seconds = 0.0;

  void begin_pass(const EpilogueSpec& spec, std::size_t ncols) {
    reduce = 0.0;
    rows = 0;
    seconds = 0.0;
    if (spec.kind == EpilogueKind::kPruneScale && spec.collect_column_sums) {
      col_sums.assign(ncols, 0.0);
    }
  }
};

/// Process-wide mirror of SpGemmStats::epilogue_rows, by epilogue kind.
struct EpilogueTelemetry {
  telemetry::Counter& prune_scale_rows;
  telemetry::Counter& mask_reduce_rows;
  telemetry::Counter& rap_rows;
  static EpilogueTelemetry& get() {
    auto& reg = telemetry::registry();
    static EpilogueTelemetry t{
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "prune_scale"),
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "mask_reduce"),
        reg.counter("spgemm_epilogue_rows_total",
                    "Rows processed by a fused epilogue, by kind.", "kind",
                    "rap")};
    return t;
  }
  telemetry::Counter& for_kind(EpilogueKind k) {
    switch (k) {
      case EpilogueKind::kMaskReduce:
        return mask_reduce_rows;
      case EpilogueKind::kRap:
        return rap_rows;
      default:
        return prune_scale_rows;
    }
  }
};

/// Apply the fused epilogue to one computed row.  Reads `nnz` entries from
/// (cols_src, vals_src) and writes the kept entries to (cols_dst, vals_dst);
/// dst may alias src at a LOWER offset (forward compaction: the t-th source
/// entry is read before the kept-th destination entry is written, and
/// kept <= t always).  Returns the kept count.
///
/// kPruneScale transforms each value by pow(v, inflation) and keeps it iff
/// the transformed value is >= prune_below — the same per-element transform,
/// threshold, and emission order as apps inflate_and_prune, so the fused
/// output is bit-identical to unfused-then-postprocessed.  kMaskReduce rows
/// arrive already filtered by the mask (the product is masked at probe
/// time), so it sums the row into the thread partial and keeps nothing.
template <IndexType IT, ValueType VT>
inline std::size_t apply_row_epilogue(const EpilogueSpec& spec,
                                      EpilogueState& state,
                                      const IT* cols_src, const VT* vals_src,
                                      std::size_t nnz, IT* cols_dst,
                                      VT* vals_dst) {
  ++state.rows;
  switch (spec.kind) {
    case EpilogueKind::kPruneScale: {
      std::size_t kept = 0;
      const bool collect = spec.collect_column_sums;
      for (std::size_t t = 0; t < nnz; ++t) {
        const auto v = static_cast<VT>(
            std::pow(static_cast<double>(vals_src[t]), spec.inflation));
        if (static_cast<double>(v) >= spec.prune_below) {
          const IT col = cols_src[t];
          cols_dst[kept] = col;
          vals_dst[kept] = v;
          if (collect) {
            state.col_sums[static_cast<std::size_t>(col)] +=
                static_cast<double>(v);
          }
          ++kept;
        }
      }
      return kept;
    }
    case EpilogueKind::kMaskReduce: {
      for (std::size_t t = 0; t < nnz; ++t) {
        state.reduce += static_cast<double>(vals_src[t]);
      }
      return 0;
    }
    default: {
      if (cols_dst != cols_src) {
        std::copy_n(cols_src, nnz, cols_dst);
        std::copy_n(vals_src, nnz, vals_dst);
      }
      return nnz;
    }
  }
}

/// Fold per-thread epilogue partials in ascending thread order — under the
/// static partition that is ascending row-range order, so the fold is
/// deterministic for a fixed thread count.  It is NOT bitwise equal to a
/// sequential scan of the output (floating-point addition is not
/// associative); see README "Fused epilogues" for the caveat.  `state_of(t)`
/// returns thread t's EpilogueState.
template <typename GetState>
inline void fold_epilogue_partials(const EpilogueSpec& spec, int nthreads,
                                   std::size_t ncols, GetState&& state_of,
                                   EpilogueResult* result,
                                   std::uint64_t& rows_out,
                                   double& max_seconds_out) {
  rows_out = 0;
  max_seconds_out = 0.0;
  for (int t = 0; t < nthreads; ++t) {
    const EpilogueState& st = state_of(t);
    rows_out += st.rows;
    max_seconds_out = std::max(max_seconds_out, st.seconds);
  }
  if (result == nullptr) return;
  result->reset(spec.kind == EpilogueKind::kPruneScale &&
                        spec.collect_column_sums
                    ? ncols
                    : 0);
  result->rows = rows_out;
  for (int t = 0; t < nthreads; ++t) {
    const EpilogueState& st = state_of(t);
    result->reduce += st.reduce;
    if (!result->col_sums.empty() && !st.col_sums.empty()) {
      for (std::size_t cidx = 0; cidx < result->col_sums.size(); ++cidx) {
        result->col_sums[cidx] += st.col_sums[cidx];
      }
    }
  }
}

/// True when the spec's kind runs through the per-row hook of the two-phase
/// paths (kRap is executed by multiply_rap(), not the hook).
inline bool epilogue_fuses_rows(const EpilogueSpec& spec) {
  return spec.kind == EpilogueKind::kPruneScale ||
         spec.kind == EpilogueKind::kMaskReduce;
}

/// Shared argument validation of the one-shot and planned paths: kMaskReduce
/// needs a mask, and a mask must have the product's shape.
template <IndexType IT, ValueType VT>
inline void validate_epilogue(const EpilogueSpec& spec,
                              const EpilogueContext<IT, VT>& ctx,
                              const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b) {
  if (spec.kind == EpilogueKind::kMaskReduce && ctx.mask == nullptr) {
    throw std::invalid_argument(
        "epilogue: kMaskReduce requires a mask matrix (EpilogueContext::mask "
        "/ SpGemmHandle::set_epilogue_mask)");
  }
  if (ctx.mask != nullptr &&
      (ctx.mask->nrows != a.nrows || ctx.mask->ncols != b.ncols)) {
    throw std::invalid_argument("epilogue: mask dimensions mismatch product");
  }
}

// ---- Shared tiling/capture configuration ----------------------------------

/// Resolved tiling and capture-budget configuration.  One resolution serves
/// one-shot multiplies and SpGemmHandle::plan() alike, so the two paths can
/// never disagree on tile cuts or capture gating.
struct TileConfig {
  std::size_t budget_entries = 0;  ///< capture slots per thread
  bool capture_enabled = false;
  std::size_t tile_rows = 0;     ///< row cap per tile
  Offset tile_flop_target = 0;   ///< flop cut target; 0 = row cap only
};

/// `default_budget_bytes` distinguishes the one-shot (cache-resident) from
/// the persistent-plan capture economics; an explicit
/// opts.reuse_budget_bytes overrides either, and BudgetSource::kMemoryModel
/// derives both the budget and the tile size from the modeled fast tier.
inline TileConfig resolve_tile_config(const parallel::RowPartition& part,
                                      const SpGemmOptions& opts,
                                      std::size_t nrows,
                                      std::size_t default_budget_bytes,
                                      std::size_t bytes_per_slot) {
  TileConfig cfg;
  std::size_t budget_bytes = opts.reuse_budget_bytes;
  std::size_t derived_tile_rows = 0;
  if (opts.budget_source == BudgetSource::kMemoryModel) {
    const model::ScheduleBudgets budgets = model::derive_schedule_budgets(
        opts.fast_tier, part.threads(), part.total_flop(), nrows,
        bytes_per_slot);
    if (budget_bytes == 0) budget_bytes = budgets.capture_budget_bytes;
    derived_tile_rows = budgets.tile_rows;
  } else {
    if (budget_bytes == 0) budget_bytes = default_budget_bytes;
    derived_tile_rows = model::choose_tile_rows(part.total_flop(), nrows,
                                                budget_bytes, bytes_per_slot);
  }
  // kAuto decides before any symbolic pass has run, so it uses the model's
  // a-priori collision factor; plan-driven callers (SpGemmHandle::
  // reuse_pays) substitute the measured value instead.
  cfg.capture_enabled =
      opts.reuse == StructureReuse::kOn ||
      (opts.reuse == StructureReuse::kAuto &&
       model::reuse_pays(model::kDefaultCollisionFactor, budget_bytes));
  cfg.budget_entries = budget_bytes / bytes_per_slot;
  if (opts.tile_rows > 0) {
    // An explicit tile_rows is a user contract: exact row cuts, no flop cut.
    cfg.tile_rows = opts.tile_rows;
  } else {
    cfg.tile_rows = derived_tile_rows;
    // Budget-derived tiles are additionally flop-balanced so one dense row
    // cannot stall a tile's runner for long (the row cap still bounds the
    // bookkeeping of tiles full of empty rows).
    const double avg_row_flop =
        nrows > 0 ? static_cast<double>(part.total_flop()) /
                        static_cast<double>(nrows)
                  : 0.0;
    cfg.tile_flop_target = static_cast<Offset>(std::max(
        1.0, avg_row_flop * static_cast<double>(cfg.tile_rows)));
  }
  return cfg;
}

}  // namespace spgemm::detail
