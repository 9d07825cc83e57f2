#pragma once
// Gauss-Legendre quadrature rules on [-1,1].
//
// At setup these rules evaluate (exactly, since the integrands are
// polynomials of known degree) the 1-D building-block integrals from which
// every DG tensor is assembled, and project initial conditions. The runtime
// update path of the modal solver performs no phase-space quadrature (see
// tensors/); its one runtime use is the 1-D factor tables of the BGK
// Maxwellian (collisions/bgk.hpp).

#include <cstddef>
#include <vector>

namespace vdg {

/// A 1-D quadrature rule: sum_i weight[i] * g(node[i]) integrates g over
/// [-1,1] exactly when g is a polynomial of degree <= 2*n-1.
struct QuadRule {
  std::vector<double> nodes;
  std::vector<double> weights;

  [[nodiscard]] std::size_t size() const { return nodes.size(); }
};

/// Compute the n-point Gauss-Legendre rule by Newton iteration on the roots
/// of P_n. Accurate to ~1e-15 for n up to several hundred.
[[nodiscard]] QuadRule gauss_legendre(int n);

}  // namespace vdg
