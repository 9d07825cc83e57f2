#include "collisions/bgk.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/gauss_legendre.hpp"
#include "math/legendre.hpp"
#include "par/thread_exec.hpp"

namespace vdg {

namespace {

/// Per-thread scratch for the factor tables and one cell's coefficients.
/// Capacity is retained, so the passes are allocation-free after warm-up
/// (per thread: pool workers run chunks concurrently).
double* threadScratch(std::size_t n) {
  static thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

}  // namespace

BgkUpdater::BgkUpdater(const BasisSpec& spec, const Grid& phaseGrid, const BgkParams& params)
    : exec_(&ThreadExec::global()), grid_(phaseGrid), params_(params), cdim_(spec.cdim),
      vdim_(spec.vdim), np_(basisFor(spec).numModes()), nk_(spec.polyOrder + 1),
      mom_(std::make_unique<MomentUpdater>(spec, phaseGrid)) {
  if (phaseGrid.ndim != spec.ndim())
    throw std::invalid_argument("BgkUpdater: grid/basis dimensionality mismatch");
  if (vdim_ < 1 || vdim_ > 3) throw std::invalid_argument("BgkUpdater: vdim must be in [1, 3]");

  const QuadRule rule = gauss_legendre(spec.polyOrder + 2);
  quadNodes_ = rule.nodes;
  quadWeights_ = rule.weights;
  const std::size_t nq = rule.size();
  psiAt_.resize(static_cast<std::size_t>(nk_) * nq);
  for (int k = 0; k < nk_; ++k)
    for (std::size_t q = 0; q < nq; ++q)
      psiAt_[static_cast<std::size_t>(k) * nq + q] = legendrePsi(k, rule.nodes[q]);

  const Basis& phase = basisFor(spec);
  for (int l = 0; l < np_; ++l) {
    const MultiIndex& a = phase.mode(l);
    if (a.totalDegree(cdim_) != 0) continue;
    VelMode vm{l, {0, 0, 0}};
    for (int j = 0; j < vdim_; ++j) vm.a[static_cast<std::size_t>(j)] = a[cdim_ + j];
    velModes_.push_back(vm);
  }

  const auto& tab = LegendreTables::instance();
  for (int j = 0; j < vdim_; ++j) {
    tabOff_[static_cast<std::size_t>(j)] = tabSize_;
    tabSize_ += static_cast<std::size_t>(grid_.cells[static_cast<std::size_t>(cdim_ + j)]) *
                static_cast<std::size_t>(nk_);
    m0Weight_ *= 0.5 * grid_.dx(cdim_ + j) * tab.xmom(0, 0);
  }
}

template <typename Emit>
void BgkUpdater::forEachMaxwellianCell(const Field& f, const Emit& emit) const {
  int confHi[kMaxDim], velHi[kMaxDim];
  for (int d = 0; d < cdim_; ++d) confHi[d] = grid_.cells[static_cast<std::size_t>(d)];
  for (int j = 0; j < vdim_; ++j) velHi[j] = grid_.cells[static_cast<std::size_t>(cdim_ + j)];
  const std::size_t nvel = boxSize(vdim_, velHi);
  const std::size_t nq = quadNodes_.size();
  const double avgFac = std::pow(2.0, -0.5 * cdim_);

  // Parallel over configuration cells: each one owns all its velocity
  // cells, so chunks write disjoint slabs.
  chunkedFor(exec_, boxSize(cdim_, confHi), [&](std::size_t begin, std::size_t end) {
    double* tab = threadScratch(tabSize_ + static_cast<std::size_t>(np_));
    double* fM = tab + tabSize_;
    std::fill(fM, fM + np_, 0.0);  // modes of nonzero configuration degree stay 0

    forEachIndexInRange(cdim_, confHi, begin, end, [&](const MultiIndex& cidx) {
      // 1. Cell averages n, u, vt^2. The cell average of a DG expansion is
      //    coeff_0 * 2^{-d/2}; vacuum cells (nAvg <= 0) get a zero
      //    Maxwellian via c = 0 below.
      double m0, m1[3], m2;
      mom_->confMode0(f, cidx, m0, m1, m2);
      const double nAvg = m0 * avgFac;
      double uAvg[3] = {0.0, 0.0, 0.0};
      for (int j = 0; j < vdim_; ++j) uAvg[j] = (nAvg > 0.0) ? m1[j] * avgFac / nAvg : 0.0;
      double u2 = 0.0;
      for (int j = 0; j < vdim_; ++j) u2 += uAvg[j] * uAvg[j];
      double vt2 = (nAvg > 0.0) ? (m2 * avgFac / nAvg - u2) / vdim_ : 1.0;
      vt2 = std::max(vt2, 1e-14);

      // 2. The 1-D factor tables g_j[i][k], and M0[f_M] up to the constant
      //    c: den = J_v (sqrt 2)^vdim prod_j sum_i g_j[i][0].
      double den = m0Weight_;
      for (int j = 0; j < vdim_; ++j) {
        const int d = cdim_ + j;
        const double h = 0.5 * grid_.dx(d);
        double* g = tab + tabOff_[static_cast<std::size_t>(j)];
        double g0Sum = 0.0;
        for (int i = 0; i < velHi[j]; ++i, g += nk_) {
          const double vc = grid_.cellCenter(d, i);
          std::fill(g, g + nk_, 0.0);
          for (std::size_t q = 0; q < nq; ++q) {
            const double dv = vc + h * quadNodes_[q] - uAvg[j];
            const double wq = quadWeights_[q] * std::exp(-0.5 * dv * dv / vt2);
            for (int k = 0; k < nk_; ++k) g[k] += wq * psiAt_[static_cast<std::size_t>(k) * nq + q];
          }
          g0Sum += g[0];
        }
        den *= g0Sum;
      }

      // 3-4. c = s * n / (2 pi vt^2)^{vdim/2} * (sqrt 2)^cdim with the
      //    exact-M0 rescale s = M0[f] / M0[f_M]: the normalization cancels.
      //    An underflowed projection deposits the density in the velocity
      //    cell containing u instead (indicator tables, same formula).
      double c = 0.0;
      if (nAvg > 0.0) {
        if (!(den > 1e-300)) {
          std::fill(tab, tab + tabSize_, 0.0);
          for (int j = 0; j < vdim_; ++j) {
            const int d = cdim_ + j;
            const double lo = grid_.cellCenter(d, 0) - 0.5 * grid_.dx(d);
            const double x = std::floor((uAvg[j] - lo) / grid_.dx(d));
            const int i = x >= velHi[j] ? velHi[j] - 1 : (x >= 0.0 ? static_cast<int>(x) : 0);
            tab[tabOff_[static_cast<std::size_t>(j)] + static_cast<std::size_t>(i * nk_)] = 1.0;
          }
          den = m0Weight_;
        }
        c = m0 / den;
      }

      // 5. The rescaled Maxwellian, one velocity cell at a time.
      forEachIndexInRange(vdim_, velHi, 0, nvel, [&](const MultiIndex& vi) {
        MultiIndex idx = cidx;
        const double* gj[3];
        for (int j = 0; j < vdim_; ++j) {
          idx[cdim_ + j] = vi[j];
          gj[j] = tab + tabOff_[static_cast<std::size_t>(j)] +
                  static_cast<std::size_t>(vi[j] * nk_);
        }
        for (const VelMode& vm : velModes_) {
          double v = c;
          for (int j = 0; j < vdim_; ++j) v *= gj[j][vm.a[static_cast<std::size_t>(j)]];
          fM[vm.l] = v;
        }
        emit(idx, fM);
      });
    });
  });
}

void BgkUpdater::projectMaxwellian(const Field& f, Field& out) const {
  forEachMaxwellianCell(f, [&](const MultiIndex& idx, const double* fM) {
    std::copy(fM, fM + np_, out.at(idx));
  });
}

double BgkUpdater::advance(const Field& f, Field& rhs) const {
  const double nu = params_.collisionFreq;
  forEachMaxwellianCell(f, [&](const MultiIndex& idx, const double* fM) {
    const double* fc = f.at(idx);
    double* rc = rhs.at(idx);
    for (int l = 0; l < np_; ++l) rc[l] += nu * (fM[l] - fc[l]);
  });
  return nu;
}

}  // namespace vdg
