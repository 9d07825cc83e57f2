#pragma once
// BGK collision operator C[f] = nu (f_M - f), the simplest conservative
// relaxation model (Gkeyll ships BGK alongside the Dougherty/Fokker-Planck
// operator of the paper's reference [22]; the paper's Section III uses the
// collision operator only to report that collisions roughly double the
// update cost, which this operator reproduces in the Eop benchmark).
//
// The Maxwellian f_M is parameterized by the cell-averaged density n, drift
// u and thermal speed vt^2 of each configuration cell, computed from the
// exact moment tapes. Inside one configuration cell it is therefore constant
// in x and a product of 1-D Gaussians in v, so its projection onto the
// product-Legendre basis factorizes exactly, like every other tensor of the
// scheme: for each velocity dimension j and velocity cell i_j one 1-D table
//
//   g_j[i_j][k] = sum_q w_q exp(-(v_q - u_j)^2 / 2 vt^2) psi_k(eta_q),  k <= p
//
// on a (p+2)-point Gauss rule, and a phase mode a gets c * prod_j
// g_j[i_j][a_{cdim+j}] if its configuration degree is zero and exactly 0
// otherwise. A tensor Gauss rule applied to this product integrand equals
// the product of the 1-D rules, so the result is the full phase-space
// quadrature projection up to summation order — at vdim * N_vj * (p+2)
// exponentials per configuration cell instead of N_v * (p+2)^(cdim+vdim).
//
// The constant c folds the Maxwellian's normalization into the exact-M0
// rescale s = M0[f] / M0[f_M], so collisions conserve the cell density to
// rounding. If that rescale is impossible — vt^2 hit its 1e-14 floor, or
// the Gaussian is narrower than the quadrature nodes and M0[f_M]
// underflows — a cell with positive density instead gets its whole density
// as mode 0 of the velocity cell containing u (clamped to the grid), so the
// density change is still zero.
//
// Each configuration cell is one pass: moments, tables, rescale, and the
// relaxation written straight into rhs. No phase-space or configuration-
// space Field is allocated per call; per-thread scratch keeps advance()
// allocation-free after the first call.

#include <array>
#include <memory>
#include <vector>

#include "dg/moments.hpp"
#include "grid/grid.hpp"

namespace vdg {

class ThreadExec;

struct BgkParams {
  /// Species mass. The relaxation itself parameterizes the Maxwellian by
  /// moments of f directly, so mass only enters the collision layer where
  /// a temperature is needed — see LboParams::mass and
  /// LboUpdater::temperature() (T = m vth^2) for the operator that uses
  /// it. Simulation::Builder overwrites it with the species mass, so
  /// callers of the builder need not set it.
  double mass = 1.0;
  double collisionFreq = 1.0;  ///< nu
};

class BgkUpdater {
 public:
  BgkUpdater(const BasisSpec& spec, const Grid& phaseGrid, const BgkParams& params);

  /// rhs += nu (f_M[f] - f). Returns the stiffness frequency nu. Bitwise
  /// equal to accumulating nu * (projectMaxwellian(f) - f).
  double advance(const Field& f, Field& rhs) const;

  /// Project the Maxwellian matching f's (cell-averaged) moments into out.
  void projectMaxwellian(const Field& f, Field& out) const;

  /// Pool driving the per-configuration-cell passes (defaults to
  /// ThreadExec::global(); nullptr forces serial execution). Chunks own
  /// disjoint configuration cells, so threading is bit-for-bit
  /// serial-identical.
  void setExecutor(ThreadExec* exec) { exec_ = exec; }

 private:
  /// One pass per configuration cell: moments, factor tables, rescale;
  /// then emit(idx, fM) for each of its velocity cells, fM holding the
  /// rescaled Maxwellian's np coefficients there.
  template <typename Emit>
  void forEachMaxwellianCell(const Field& f, const Emit& emit) const;

  /// A phase mode of configuration degree zero and its velocity degrees.
  struct VelMode {
    int l;
    std::array<int, 3> a;
  };

  ThreadExec* exec_ = nullptr;
  Grid grid_;
  BgkParams params_;
  int cdim_, vdim_, np_, nk_;  ///< nk_ = p + 1 table entries per cell
  std::unique_ptr<MomentUpdater> mom_;
  std::vector<double> quadNodes_, quadWeights_;  ///< 1-D (p+2)-point Gauss rule
  std::vector<double> psiAt_;                    ///< psi_k(eta_q) at k * nq + q
  std::vector<VelMode> velModes_;
  std::array<std::size_t, 3> tabOff_{};  ///< start of g_j in the table scratch
  std::size_t tabSize_ = 0;
  double m0Weight_ = 1.0;  ///< M0 mode 0 per unit phase mode 0 in one velocity cell
};

}  // namespace vdg
