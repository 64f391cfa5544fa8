// Row-loop scheduling policies.
//
// The paper's Fig. 9 ablates plain OpenMP static/dynamic/guided scheduling
// against the flop-balanced partition of Fig. 6 ("balanced"), with the
// balanced variant further split by whether per-thread temporaries use the
// "single" or "parallel" allocation scheme.  Kernels take a SchedulePolicy
// so that ablation runs through the exact same code.
#pragma once

#include <omp.h>

#include <cstddef>

#include "parallel/rows_to_threads.hpp"

namespace spgemm::parallel {

enum class SchedulePolicy {
  kStatic,            ///< #pragma omp for schedule(static)
  kDynamic,           ///< #pragma omp for schedule(dynamic)
  kGuided,            ///< #pragma omp for schedule(guided)
  kBalanced,          ///< RowsToThreads partition, "single" temp allocation
  kBalancedParallel,  ///< RowsToThreads partition, "parallel" temp allocation
};

inline const char* schedule_policy_name(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kStatic:
      return "static";
    case SchedulePolicy::kDynamic:
      return "dynamic";
    case SchedulePolicy::kGuided:
      return "guided";
    case SchedulePolicy::kBalanced:
      return "balanced single";
    case SchedulePolicy::kBalancedParallel:
      return "balanced parallel";
  }
  return "?";
}

inline bool is_balanced(SchedulePolicy p) {
  return p == SchedulePolicy::kBalanced ||
         p == SchedulePolicy::kBalancedParallel;
}

/// Run `body(row)` over rows [0, nrows) under an OpenMP loop with the given
/// plain policy.  Used by kernels when the policy is not balanced.
template <typename Body>
void omp_for_rows(SchedulePolicy policy, std::size_t nrows, Body&& body) {
  switch (policy) {
    case SchedulePolicy::kStatic:
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < nrows; ++i) body(i);
      break;
    case SchedulePolicy::kDynamic:
#pragma omp parallel for schedule(dynamic)
      for (std::size_t i = 0; i < nrows; ++i) body(i);
      break;
    case SchedulePolicy::kGuided:
#pragma omp parallel for schedule(guided)
      for (std::size_t i = 0; i < nrows; ++i) body(i);
      break;
    default:
      // Balanced policies iterate via RowPartition inside the kernels.
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < nrows; ++i) body(i);
      break;
  }
}

}  // namespace spgemm::parallel
