// ExecutionSchedule — a persistent, locality-aware tile schedule.
//
// One object owns everything the tiled two-phase drivers need to know about
// WHO runs WHICH rows: the flop-balanced tile plan (parallel/tiles.hpp cuts
// inside each thread's RowPartition range, so tile ownership is aligned with
// the Fig. 6 partition) and each thread's accumulator and capture sizing.
// The one tile loop (detail::KernelPlan, core/spgemm_handle.hpp) traverses
// it for one-shot multiplies and plan/execute handles alike, so the two
// paths can never disagree on tile cuts, ownership, or accumulator sizing.
//
// The assignment is static, as in the paper: each thread runs exactly its
// owned tiles, in row order, with no coordination at all.  Row-level work
// is deterministic per row, so the tile cut can never change the numeric
// result — only who computes it.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "parallel/rows_to_threads.hpp"
#include "parallel/tiles.hpp"

namespace spgemm::parallel {

class ExecutionSchedule {
 public:
  ExecutionSchedule() = default;

  /// Cut each thread's partition range into tiles of ~`target_flop` scalar
  /// multiplications (0 = row cap only) and at most `row_cap` rows, and
  /// record ownership.  `row_bound` (optional CSR row pointers, a mask's)
  /// caps each row's accumulator sizing (RowPartition::max_row_flop).
  void build(const RowPartition& part, std::size_t row_cap,
             Offset target_flop, const Offset* row_bound = nullptr) {
    tiles_.clear();
    const int nthreads = part.threads();
    owner_begin_.assign(static_cast<std::size_t>(nthreads) + 1, 0);
    owned_max_row_flop_.assign(static_cast<std::size_t>(nthreads), 0);
    owned_flop_.assign(static_cast<std::size_t>(nthreads), 0);
    for (int t = 0; t < nthreads; ++t) {
      const auto ut = static_cast<std::size_t>(t);
      cut_tiles(part.flop_prefix.data(), part.offsets[ut],
                part.offsets[ut + 1], target_flop, row_cap, tiles_);
      owner_begin_[ut + 1] = tiles_.size();
      owned_max_row_flop_[ut] = part.max_row_flop(t, row_bound);
      owned_flop_[ut] = part.flop_prefix[part.offsets[ut + 1]] -
                        part.flop_prefix[part.offsets[ut]];
    }
  }

  [[nodiscard]] std::size_t tile_count() const { return tiles_.size(); }
  [[nodiscard]] std::size_t owned_count(int tid) const {
    const auto t = static_cast<std::size_t>(tid);
    return owner_begin_[t + 1] - owner_begin_[t];
  }

  /// Worst-case row a thread's accumulator must hold: the largest per-row
  /// flop among its owned rows, capped by the build's row bound.
  [[nodiscard]] Offset sizing_max_row_flop(int tid) const {
    return owned_max_row_flop_[static_cast<std::size_t>(tid)];
  }

  /// Flop bound for sizing a thread's capture scratch: the flop of its
  /// owned rows.  Shared by one-shot and planned products so capture
  /// eligibility can never diverge between the two paths.
  [[nodiscard]] Offset capture_flop_bound(int tid) const {
    return owned_flop_[static_cast<std::size_t>(tid)];
  }

  /// Traverse thread `tid`'s owned tiles in row order.
  /// Visit: void(const TileRange&).
  template <typename Visit>
  void for_each_tile(int tid, Visit&& visit) const {
    const auto t = static_cast<std::size_t>(tid);
    for (std::size_t i = owner_begin_[t]; i < owner_begin_[t + 1]; ++i) {
      visit(tiles_[i]);
    }
  }

  // ---- Pass occupancy (engine execution lanes) ---------------------------
  //
  // The serving engine overlays small products onto the workers a large
  // product's pass is NOT using right now.  Each worker announces the end of
  // its share of a pass via worker_done(); the engine points the exit sink
  // at a counter it polls so the overlay can widen as lane workers drain.
  // Const because the numeric replay traverses a frozen (const) plan; the
  // sink is occupancy state, not schedule shape.

  /// Zero the exit sink ahead of one pass: occupancy is per pass, not per
  /// plan.
  void begin_pass() const {
    if (exit_sink_) exit_sink_->store(0, std::memory_order_relaxed);
  }

  /// Mark the calling worker's share of the current pass finished.  Called
  /// once per worker per pass by the plan/execute drivers.
  void worker_done() const {
    if (exit_sink_) exit_sink_->fetch_add(1, std::memory_order_relaxed);
  }

  /// Mirror worker exits into an engine-owned counter (nullptr detaches).
  /// The sink must outlive every pass run while it is attached.
  void set_exit_sink(std::atomic<int>* sink) { exit_sink_ = sink; }

 private:
  std::vector<TileRange> tiles_;          ///< all tiles, global row order
  std::vector<std::size_t> owner_begin_;  ///< tiles_[b[t]..b[t+1]) owned by t
  std::vector<Offset> owned_max_row_flop_;
  std::vector<Offset> owned_flop_;  ///< flop share of each thread's range
  std::atomic<int>* exit_sink_ = nullptr;  ///< engine lane-occupancy mirror
};

}  // namespace spgemm::parallel
