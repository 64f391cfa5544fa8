// Deterministic synthetic stand-ins for the 26 SuiteSparse matrices of the
// paper's Table 2.
//
// This environment has no access to sparse.tamu.edu, so each matrix is
// replaced by a generator from the structural family that drives its
// SpGEMM behaviour (see README "Stand-in kernels"): banded FEM-like matrices
// for the mesh/stiffness inputs (high compression ratio, uniform rows),
// uniform random matrices for the cage/economics class (low CR), and
// power-law R-MAT for the web/patent/circuit graphs (low CR, skewed rows).
// The registry records the paper's reported n, nnz(A), flop(A^2) and
// nnz(A^2) so EXPERIMENTS.md can put proxy and original side by side.
//
// By default the largest instances are dimension-scaled to fit a laptop
// (cage15's A^2 alone needs ~15 GB); pass full_scale=true for paper sizes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/csr.hpp"

namespace spgemm::proxy {

enum class Family {
  kBanded,    ///< FEM/mesh stiffness-like (regular, high CR)
  kUniform,   ///< uniform random (ER-like, low CR)
  kPowerLaw,  ///< skewed web/patent/circuit graphs (R-MAT G500)
};

struct ProxyEntry {
  std::string name;
  Family family;
  /// Paper-reported statistics (Table 2), all in raw counts.
  std::int64_t n;
  std::int64_t nnz;
  double flop_sq;    ///< flop(A^2)
  double nnz_sq;     ///< nnz(A^2)
  /// Generator parameter: band degree (banded) or edge factor (others).
  int degree;
};

/// The 26 matrices of Table 2, in the paper's (alphabetical) order.
const std::vector<ProxyEntry>& table2();

/// Find an entry by name; throws std::out_of_range when unknown.
const ProxyEntry& find(const std::string& name);

/// Default cap on generated dimension when full_scale == false.
inline constexpr std::int64_t kScaledDimensionCap = 1 << 17;

/// Generate the proxy matrix.  Deterministic in (entry, seed).  When
/// full_scale is false the dimension is capped at kScaledDimensionCap with
/// the entry's density preserved.
CsrMatrix<std::int32_t, double> generate(const ProxyEntry& entry,
                                         bool full_scale = false,
                                         std::uint64_t seed = 42);

/// The dimension generate() will actually use.
std::int64_t effective_dimension(const ProxyEntry& entry, bool full_scale);

const char* family_name(Family family);

}  // namespace spgemm::proxy
