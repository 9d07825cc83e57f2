#pragma once
// Matrix-free, quadrature-free, alias-free DG updater for the Vlasov
// equation
//   df/dt + div_x (v f) + div_v ( (q/m)(E + v x B) f ) = 0
// on a phase-space grid (cdim configuration + vdim velocity dimensions).
//
// The updater executes the pre-generated sparse tapes of
// tensors/vlasov_tensors.hpp cell by cell: the discrete weak form (paper
// Eq. 2/12) becomes
//   df_l/dt = sum_d (2/dxv_d) [ C^d_lmn alpha^d_m f_n  -  surface lifts ],
// with the acceleration expansion rebuilt per configuration cell from the
// EM field coefficients. There is no quadrature loop and no matrix anywhere
// in this path.
//
// For specs with generated kernels (kernels/registry.hpp) and the penalty
// flux, the cell loops call the compiled kernels: runs of B velocity cells
// (volume) or B parallel face lines (surface) go through one B-lane call,
// and what is left over runs through the B = 1 instantiation directly on
// field memory. Otherwise — other specs, the central flux, and the test
// oracle — the tapes are interpreted cell by cell.

#include <span>
#include <string>

#include "dg/flux.hpp"
#include "grid/grid.hpp"
#include "kernels/registry.hpp"
#include "tensors/vlasov_tensors.hpp"

namespace vdg {

class ThreadExec;

struct VlasovParams {
  double charge = -1.0;
  double mass = 1.0;
  FluxType flux = FluxType::Penalty;
};

/// Layout of the EM field used across the library: 8 configuration-space
/// DG expansions per cell (Ex,Ey,Ez,Bx,By,Bz,phi,psi), matching the
/// perfectly-hyperbolic Maxwell system of dg/maxwell.hpp.
inline constexpr int kEmComps = 8;

class VlasovUpdater {
 public:
  /// `phaseGrid` must have spec.ndim() dimensions (config dims first).
  VlasovUpdater(const BasisSpec& spec, const Grid& phaseGrid, const VlasovParams& params);

  /// Compute rhs = L(f). `em` is the configuration-space EM field
  /// (kEmComps * numConfModes components per cell) or nullptr for
  /// free streaming. Ghost layers of `f` must be up to date in the
  /// configuration dimensions (periodic/BC sync is the caller's job);
  /// velocity-space boundaries use zero-flux closure and need no ghosts.
  ///
  /// Returns the maximum CFL frequency max_cell sum_d lambda_d/dx_d
  /// (multiply by (2p+1) and invert for a stable explicit dt).
  double advance(const Field& f, const Field* em, Field& rhs) const;

  /// Split form of advance() for communication/compute overlap. The volume
  /// pass reads only each cell's own coefficients (never a ghost) and by
  /// itself produces the *entire* CFL frequency, so it can run while the
  /// configuration-space halo exchange of `f` is in flight; the surface
  /// pass then needs `f`'s configuration ghosts up to date. advanceVolume
  /// zeroes rhs, adds all volume terms, and fills `alphaScratch` with the
  /// per-cell acceleration expansions ((re)shaped as needed — pass the
  /// same field, untouched, to advanceSurface, which reads it instead of
  /// rebuilding). advanceVolume + advanceSurface is bitwise identical to
  /// advance, which is exactly this pair over a local scratch.
  double advanceVolume(const Field& f, const Field* em, Field& rhs, Field& alphaScratch) const;
  void advanceSurface(const Field& f, const Field* em, Field& rhs,
                      const Field& alphaScratch) const;

  [[nodiscard]] const VlasovKernelSet& kernels() const { return *ks_; }
  [[nodiscard]] const Grid& phaseGrid() const { return grid_; }

  /// True when this updater dispatches to pre-generated compiled kernels
  /// (available for registered specs with the penalty flux, which the
  /// generated surface kernels bake in) instead of interpreting the tapes.
  [[nodiscard]] bool usesCompiledKernels() const { return one_ != nullptr; }

  /// Force tape interpretation even when compiled kernels are registered
  /// (used by tests and the codegen ablation benchmark).
  void disableCompiledKernels();

  /// Lane-count request for the compiled kernels: 0 = auto (the widest
  /// registered lane count, the default), 1 = the B = 1 instantiation on
  /// every cell, or another kKernelLanes entry. Requests the registry
  /// cannot serve fall back to B = 1. Cells and faces that do not fill a
  /// block always run at B = 1. Every lane count is bitwise identical per
  /// cell, so this knob only affects speed; it exists for A/B benchmarking
  /// and bisection.
  void setBatchLanes(int lanes);

  /// The lane count advance() blocks its loops with (1 for the tape path).
  [[nodiscard]] int activeBatchLanes() const { return block_ ? block_->lanes : 1; }

  /// Volume-term-only update (streaming + acceleration), used by the
  /// kernel-cost benchmarks (Fig. 2) and tests.
  void volumeTerm(std::span<const double> f, std::span<const double> alpha,
                  const MultiIndex& cellIdx, std::span<double> out) const;

  /// Pool driving the per-cell loops of advance(). Defaults to
  /// ThreadExec::global(); pass nullptr to force serial execution. The
  /// chunked loops write disjoint cells, so the threaded result is
  /// bit-for-bit identical to the serial one.
  void setExecutor(ThreadExec* exec) { exec_ = exec; }
  [[nodiscard]] ThreadExec* executor() const { return exec_; }

 private:
  const VlasovKernelSet* ks_;
  const CompiledKernels* compiled_ = nullptr;  ///< registry entry (nullptr: tape path)
  const CompiledKernelSet* one_ = nullptr;     ///< B = 1 set (nullptr: tape path)
  const CompiledKernelSet* block_ = nullptr;   ///< set the cell loops block with
  ThreadExec* exec_ = nullptr;
  Grid grid_;
  VlasovParams params_;
  double qbym_;
  std::array<double, kMaxDim> dxv_{};  ///< per-dimension cell sizes
  std::string specName_;               ///< basis spec name (dispatch diagnostics)
};

}  // namespace vdg
