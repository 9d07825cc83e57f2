#pragma once
// AoSoA cell-blocking layer for SIMD-batched kernel execution.
//
// The generated batched kernels (src/kernels/gen/*_batch.cpp) and the
// batched acceleration builder below operate on blocks of B cells in AoSoA
// layout: mode-major, lane-minor, element i of cell (lane) b at
// [i*B + b]. Updaters gather B cells' coefficient vectors into an aligned
// scratch block with packLanes, run the batched kernel over the block,
// and scatter the result back with scatterLanes/scatterAddLanes; cells
// left over when the count is not a multiple of B fall through to the
// scalar path.
//
// Bitwise reproducibility contract: per lane, every executor here
// performs exactly the floating-point operations of its scalar
// counterpart, in the same order and association. Scratch accumulators
// start at zero (0 + x == x in IEEE), and the scatter preserves each
// destination cell's accumulation order, so routing a loop through this
// layer does not change results — tests/test_batch.cpp asserts the
// identity bit-for-bit. This file is compiled with the VDG_KERNEL_SIMD
// flags (wider ISA, -ffp-contract=off) like the batched kernel units.

#include <cstddef>
#include <new>
#include <vector>

#include "grid/grid.hpp"
#include "tensors/vlasov_tensors.hpp"

namespace vdg {

/// Minimal over-aligned allocator so AoSoA scratch blocks start on a
/// cache-line/vector-register boundary.
template <typename T, std::size_t Align = 64>
struct AlignedAlloc {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = AlignedAlloc<U, Align>;
  };
  AlignedAlloc() = default;
  template <typename U>
  AlignedAlloc(const AlignedAlloc<U, Align>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }
  template <typename U>
  bool operator==(const AlignedAlloc<U, Align>&) const {
    return true;
  }
};

/// Aligned scratch vector for AoSoA blocks.
using BatchBuffer = std::vector<double, AlignedAlloc<double>>;

/// dst[i*B + b] = src[b][i] for i < n, b < B (gather B cells into a block).
void packLanes(int B, int n, const double* const* src, double* dst);

/// dst[i*B + b] = 0.
void zeroLanes(int B, int n, double* dst);

/// dst[b][i] = src[i*B + b] (scatter a block back, overwriting).
void scatterLanes(int B, int n, const double* src, double* const* dst);

/// dst[b][i] += src[i*B + b] (scatter-add a block of increments). Lanes
/// are written in ascending order; each dst cell receives one add per
/// element, so per-cell accumulation order is preserved.
void scatterAddLanes(int B, int n, const double* src, double* const* dst);

/// Batched buildAccel (tensors/vlasov_tensors.hpp): assemble
/// alpha_j = (q/m)(E + v x B)_j for the B phase cells laneIdx[0..B)
/// directly in AoSoA layout (alphaBlk has vdim * numPhaseModes * B
/// entries). The workspace expansions are lane-invariant (all lanes share
/// one configuration cell); only the cell-center velocity varies per lane,
/// so the mode loop vectorizes across lanes. Per lane the arithmetic is
/// exactly buildAccel's, in the same order.
void buildAccelBatched(const VlasovKernelSet& ks, const Grid& grid, double qbym,
                       const MultiIndex* laneIdx, int B, const AccelWorkspace& ws,
                       double* alphaBlk);

}  // namespace vdg
