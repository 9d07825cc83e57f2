#pragma once
// Conservative Lenard-Bernstein/Dougherty collision operator (the paper's
// reference [22]; Juno et al. 2017 give the DG formulation reproduced here):
//
//   C[f] = nu d/dv_j ( (v_j - u_j) f + vth^2 df/dv_j )
//
// with primitive moments (u, vth^2) obtained from the discrete moments of f
// by weak division in the configuration basis (dg/moments.hpp,
// PrimitiveMoments). The discretization stays alias-free / matrix-free /
// quadrature-free:
//
//  - The drag term is the Vlasov acceleration operator with the velocity-
//    space "acceleration" alpha_j = u_j - v_j: exact volume integrals plus
//    penalty-flux surface lifts at interior velocity faces.
//  - The diffusion term uses the recovery-based DG treatment: across every
//    interior velocity face the two neighboring 1-D slices are merged into
//    the unique degree-(2p+1) recovery polynomial reproducing both cells'
//    moments, whose interface value and derivative feed the twice-
//    integrated-by-parts weak form (value + flux surface terms plus the
//    second-derivative volume tensor of tensors/dg_tensors.hpp).
//  - Velocity-domain boundaries are zero-flux: drag and diffusion fluxes
//    are dropped there, so the density M0 is conserved by construction
//    (surface fluxes telescope over interior faces).
//  - A final per-configuration-cell correction solves a tiny (2 + vdim)
//    moment system and subtracts a combination of the exactly-projected
//    weight fields {f, v_j f, |v|^2 f} from the increment, so M0, M1 and
//    M2 are conserved to machine precision per step (the momentum/energy
//    errors of the raw discrete operator are O(h^{p+1}); the correction
//    removes them entirely).
//
// Kernel dispatch. For specs with generated kernels (kernels/registry.hpp)
// the drag runs through the compiled Vlasov acceleration kernels (accelVol,
// accelSurf[j]; their sup-bound penalty is the drag's) and the diffusion
// through the generated LBO kernels (volume, interior-face recovery,
// zero-flux boundary), which take the configuration cell's vth^2
// coefficients directly. With a batched kernel set the velocity cells,
// interior faces and boundary cells of one configuration cell are gathered
// into AoSoA blocks of B; batched and scalar results are bitwise equal.
// Specs without generated kernels — and tests, through
// disableCompiledKernels() — interpret the same terms from sparse tapes.
//
// advance() is one pass per configuration cell: M0/M1/M2 of its velocity
// block, the weak division, the increment (volume, interior faces,
// boundaries), the conservation solve on the stack, and rhs += nu * inc.
// The weight-field moments of the correction are read through sparse rows
// built in the constructor. Scratch is per thread and retained, so advance()
// makes no heap allocation after a thread's first call.
//
// Per-cell loops are chunked over configuration cells through ThreadExec
// (velocity faces never straddle configuration cells, so one chunk owns
// every term of its cells) and are bit-for-bit serial-identical, like BGK.

#include <array>
#include <memory>
#include <vector>

#include "dg/moments.hpp"
#include "grid/grid.hpp"
#include "kernels/registry.hpp"
#include "tensors/vlasov_tensors.hpp"

namespace vdg {

class ThreadExec;

struct LboParams {
  /// Species mass. The operator itself acts on vth^2 = T/m directly (its
  /// moments are mass-independent); mass converts between the two where a
  /// temperature is needed — LboUpdater::temperature() returns T = m vth^2.
  /// Simulation::Builder overwrites it with the species mass.
  double mass = 1.0;
  double collisionFreq = 1.0;  ///< nu
  /// Apply the exact per-cell M0/M1/M2 conservation correction. On by
  /// default; tests disable it to measure the raw operator's errors.
  bool momentFix = true;
};

class LboUpdater {
 public:
  LboUpdater(const BasisSpec& spec, const Grid& phaseGrid, const LboParams& params);

  /// rhs += nu d/dv.((v-u)f + vth^2 df/dv) with (u, vth^2) from the weak
  /// division of f's moments. Returns the stiffness frequency
  /// max_cells sum_j nu (|u - v|_max / dv_j + vth^2_max (2p+1) / dv_j^2).
  double advance(const Field& f, Field& rhs) const;

  /// Weak-division primitive moments of f: u (vdim*numConfModes comps) and
  /// vth^2 (numConfModes comps) on the configuration grid.
  void primitiveMoments(const Field& f, Field& u, Field& vtSq) const;

  /// Temperature T = mass * vth^2 (numConfModes comps) — where the species
  /// mass enters the collision layer.
  void temperature(const Field& f, Field& T) const;

  /// Raw operator pieces, accumulated into rhs WITHOUT the collision
  /// frequency and WITHOUT the conservation correction (tests, convergence
  /// studies). `u` / `vtSq` are configuration fields as produced by
  /// primitiveMoments (any prescribed coefficient field works).
  void dragTerm(const Field& f, const Field& u, Field& rhs) const;
  void diffusionTerm(const Field& f, const Field& vtSq, Field& rhs) const;

  [[nodiscard]] const LboParams& params() const { return params_; }
  [[nodiscard]] Grid confGrid() const { return mom_->confGrid(); }
  [[nodiscard]] int numConfModes() const { return npc_; }

  /// Pool driving the per-configuration-cell loops (defaults to
  /// ThreadExec::global(); nullptr forces serial execution). Chunks own
  /// disjoint configuration cells — and with them every velocity face of
  /// those cells — so threading is bit-for-bit serial-identical. Shared
  /// with the weak-division loop of the primitive moments.
  void setExecutor(ThreadExec* exec) {
    exec_ = exec;
    prim_->setExecutor(exec);
  }

  /// True when apply() dispatches to compiled kernels (specs registered
  /// with the acceleration and LBO diffusion kernels) instead of tapes.
  [[nodiscard]] bool usesCompiledKernels() const { return compiled_ != nullptr; }

  /// Force tape interpretation even when compiled kernels are registered
  /// (the test oracle). Also disables the batched path.
  void disableCompiledKernels() {
    compiled_ = nullptr;
    batched_ = nullptr;
    batchLanes_ = 1;
  }

  /// SIMD batch width request: 0 = auto (largest registered batched lane
  /// count, the default), 1 = scalar cell loop, or a kKernelBatchLanes
  /// entry; requests the registry cannot serve fall back to scalar.
  /// Bitwise identical either way — the knob exists for A/B benchmarking
  /// and bisection.
  void setBatchLanes(int lanes);

  /// The lane count apply() actually blocks its loops with (1 = scalar).
  [[nodiscard]] int activeBatchLanes() const { return batched_ ? batched_->lanes : 1; }

 private:
  /// One pass per configuration cell. Null `u` / `vtSq` are computed in
  /// the pass from f's moments; otherwise read from the given fields.
  double apply(const Field& f, const Field* u, const Field* vtSq, Field& rhs, bool drag,
               bool diff, bool correct, double scale) const;

  const VlasovKernelSet* ks_;
  const VlasovCompiledKernels* compiled_ = nullptr;  ///< nullptr: tape path
  const VlasovBatchedKernels* batched_ = nullptr;    ///< nullptr: scalar cell loops
  ThreadExec* exec_ = nullptr;
  Grid grid_;
  LboParams params_;
  int cdim_, vdim_, np_, npc_, polyOrder_;
  std::array<double, kMaxDim> dxv_{};
  std::unique_ptr<MomentUpdater> mom_;
  std::unique_ptr<PrimitiveMoments> prim_;

  // --- tape path (specs without generated kernels, and the test oracle)
  std::vector<Tape3> diffVol_;  ///< per vel dim: int d2w_l/deta^2 w_m w_n
  /// psi'_{a_d}(-1) / psi'_{a_d}(+1) per volume mode, per velocity dim —
  /// the derivative lifts of the recovery value surface term.
  std::vector<std::vector<double>> derivMinus_, derivPlus_;
  /// Volume mode of 1-D slice degree m on face mode k (index k*(p+1)+m),
  /// -1 where the family drops the mode; per velocity dim.
  std::vector<std::vector<int>> sliceMode_;
  /// Recovery functionals: interface value r(0) and derivative r'(0) (in
  /// the two-cell coordinate) as linear maps of the left/right 1-D slice
  /// coefficients g_m, m = 0..p (tensors/dg_tensors.hpp, shared with the
  /// Poisson solver).
  RecoveryWeights rec_;

  // --- conservation correction
  std::vector<Tape2> eta2Mul_;  ///< per vel dim: projection of eta^2 g
  /// Sparse rows of the scalar (conf-mode-0) velocity-cell integrals
  /// s0 = int g, s1_j = int eta_j g, s2_j = int eta_j^2 g (row index
  /// 0, 1+j, 1+vdim+j) applied to the weight fields g = f, P(eta_j f),
  /// P(eta_j^2 f) (input 0, 1+j, 1+vdim+j): row input*(1+2 vdim) + s reads
  /// f's coefficients at rowIdx_/rowCoef_[rowStart_[row] .. rowStart_[row+1]).
  std::vector<int> rowStart_, rowIdx_;
  std::vector<double> rowCoef_;

  std::vector<double> confSup_;  ///< sup |w_k| per conf mode (CFL bound)
  double jacV_ = 1.0;            ///< velocity-cell Jacobian prod dv_j/2
  int batchLanes_ = 0;           ///< requested SIMD batch width (0 = auto)
};

}  // namespace vdg
