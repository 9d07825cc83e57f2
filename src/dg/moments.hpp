#pragma once
// Velocity moments of the distribution function: the coupling from the
// kinetic phase-space grid back to the configuration-space grid (density,
// momentum/current, energy). The velocity integrals reduce, like every
// other integral in the scheme, to exact 1-D tables: a phase mode (a_c, a_v)
// contributes to configuration mode a_c with weight prod_j xmom(a_{v_j}, m_j)
// for the velocity monomial v^m, assembled with the cell's center/width.

#include "basis/basis.hpp"
#include "grid/grid.hpp"
#include "math/multi_index.hpp"
#include "tensors/tape.hpp"

#include <vector>

namespace vdg {

class ThreadExec;

/// Computes M0 = int f dv, M1_i = int v_i f dv (3 components; components
/// beyond vdim are zero), and M2 = int |v|^2 f dv.
class MomentUpdater {
 public:
  MomentUpdater(const BasisSpec& phaseSpec, const Grid& phaseGrid);

  [[nodiscard]] int numConfModes() const { return npc_; }
  [[nodiscard]] Grid confGrid() const;

  /// m0: ncomp = numConfModes; m1: 3*numConfModes; m2: numConfModes.
  /// Pass nullptr to skip a moment.
  void compute(const Field& f, Field* m0, Field* m1, Field* m2) const;

  /// Mode 0 of M0, M1 (vdim components) and M2 at one configuration cell,
  /// from that cell's velocity block alone. Runs compute()'s accumulation
  /// body on the mode-0 tapes in compute()'s velocity-cell order, so the
  /// results are bitwise equal to compute()'s mode-0 coefficients there —
  /// without the three Fields.
  void confMode0(const Field& f, const MultiIndex& confIdx, double& m0, double* m1,
                 double& m2) const;

  /// Every configuration mode of M0 (numConfModes values), M1 (vdim
  /// components, numConfModes apart) and M2 at one configuration cell,
  /// from that cell's velocity block alone: bitwise equal to compute()'s
  /// coefficients there, without the three Fields.
  void confMoments(const Field& f, const MultiIndex& confIdx, double* m0, double* m1,
                   double* m2) const;

  /// current += charge * M1(f): the species' contribution to the plasma
  /// current in Ampere's law (3*numConfModes components).
  void accumulateCurrent(const Field& f, double charge, Field& current) const;

 private:
  /// Sparse map: conf mode k <- phase mode l with constant weight, for a
  /// velocity monomial prod_j eta_j^{m_j} over the reference cell.
  struct MomTape {
    struct Term {
      int k, l;
      double c;
    };
    std::vector<Term> terms;
  };
  [[nodiscard]] MomTape buildTape(const MultiIndex& velMonomial) const;

  struct TapeSet {
    MomTape t0;               // weight 1
    std::vector<MomTape> t1;  // weight eta_j, per velocity dim
    std::vector<MomTape> t2;  // weight eta_j^2, per velocity dim
  };
  /// The one moment-accumulation body: adds phase cell idx (coefficients
  /// fc) to m0/m1/m2 through `tapes`; a null accumulator is skipped, and
  /// m1's vdim components lie m1Stride apart.
  void accumulateCell(const TapeSet& tapes, const MultiIndex& idx, const double* fc, double jacV,
                      double* m0, double* m1, int m1Stride, double* m2) const;
  /// accumulateCell over the velocity block of one configuration cell, in
  /// compute()'s velocity-cell order.
  void accumulateConfCell(const TapeSet& tapes, const Field& f, const MultiIndex& confIdx,
                          double* m0, double* m1, int m1Stride, double* m2) const;

  const Basis* phase_;
  const Basis* conf_;
  Grid grid_;
  int cdim_, vdim_, np_, npc_;
  TapeSet all_;    // every configuration mode
  TapeSet mode0_;  // restricted to configuration mode 0 (confMode0)
};

/// Primitive (fluid) moments by weak division in the configuration basis:
/// the drift u and thermal speed squared vth^2 that parameterize the
/// Lenard-Bernstein/Dougherty collision operator. Per configuration cell,
/// u solves the weak equation  int w_k (M0 u_j) = int w_k M1_j  (the Gaunt
/// product matrix of M0, LU-factored once per cell), and vth^2 solves
/// vdim * int w_k (M0 vth^2) = int w_k (M2 - u . M1)  with the u . M1
/// product projected through the same Gaunt tensor. This is the standard
/// weak-division route (Juno et al. 2017) that keeps the primitive moments
/// consistent with the discrete moments of f.
///
/// Floors (pinned by tests/test_moments.cpp): a cell whose average density
/// is <= kDensityFloor — or whose weak-division matrix is singular — gets
/// u = 0, vth^2 = 1 (matching the BGK vacuum convention); a cell whose
/// divided vth^2 averages below kVtSqFloor gets the constant expansion
/// vth^2 = kVtSqFloor.
class PrimitiveMoments {
 public:
  PrimitiveMoments(const BasisSpec& confSpec, int vdim);

  static constexpr double kDensityFloor = 1e-12;
  static constexpr double kVtSqFloor = 1e-14;

  [[nodiscard]] int numConfModes() const { return npc_; }

  /// m0: npc comps; m1: 3*npc (MomentUpdater layout, components >= vdim
  /// ignored); m2: npc. Outputs: u has vdim*npc comps, vtSq has npc.
  void compute(const Field& m0, const Field& m1, const Field& m2, Field& u, Field& vtSq) const;

  /// compute()'s weak division at one configuration cell: n, en are its M0,
  /// M2 coefficients and mom its M1 (vdim components, numConfModes apart);
  /// writes u (vdim * numConfModes) and vtSq (numConfModes). Allocation-
  /// free once the calling thread has divided a cell of this size.
  void divideCell(const double* n, const double* mom, const double* en, double* uc,
                  double* vc) const;

  /// Pool driving the per-cell weak divisions (defaults to
  /// ThreadExec::global(); nullptr forces serial execution). Cells are
  /// independent and the LU pivoting is deterministic, so threading is
  /// bit-for-bit serial-identical.
  void setExecutor(ThreadExec* exec) { exec_ = exec; }

 private:
  const Basis* conf_;
  ThreadExec* exec_ = nullptr;
  int vdim_, npc_;
  double avgFac_;  ///< cell average per unit mode-0 coefficient, 2^{-cdim/2}
  Tape3 gaunt_;    ///< conf-basis Gaunt tensor int w_k w_m w_n
};

}  // namespace vdg
