#include "dg/moments.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "math/dense_matrix.hpp"
#include "math/legendre.hpp"
#include "par/thread_exec.hpp"
#include "tensors/dg_tensors.hpp"

namespace vdg {

MomentUpdater::MomentUpdater(const BasisSpec& phaseSpec, const Grid& phaseGrid)
    : phase_(&basisFor(phaseSpec)), conf_(&basisFor(phaseSpec.configSpec())), grid_(phaseGrid),
      cdim_(phaseSpec.cdim), vdim_(phaseSpec.vdim), np_(phase_->numModes()),
      npc_(conf_->numModes()) {
  if (phaseGrid.ndim != phaseSpec.ndim())
    throw std::invalid_argument("MomentUpdater: grid/basis dimensionality mismatch");
  all_.t0 = buildTape(MultiIndex{});
  for (int j = 0; j < vdim_; ++j) {
    MultiIndex m1;
    m1[j] = 1;
    all_.t1.push_back(buildTape(m1));
    MultiIndex m2;
    m2[j] = 2;
    all_.t2.push_back(buildTape(m2));
  }
  const auto mode0 = [](const MomTape& t) {
    MomTape z;
    for (const auto& term : t.terms)
      if (term.k == 0) z.terms.push_back(term);
    return z;
  };
  mode0_.t0 = mode0(all_.t0);
  for (int j = 0; j < vdim_; ++j) {
    mode0_.t1.push_back(mode0(all_.t1[static_cast<std::size_t>(j)]));
    mode0_.t2.push_back(mode0(all_.t2[static_cast<std::size_t>(j)]));
  }
}

Grid MomentUpdater::confGrid() const {
  Grid g;
  g.ndim = cdim_;
  for (int d = 0; d < cdim_; ++d) {
    const auto s = static_cast<std::size_t>(d);
    g.cells[s] = grid_.cells[s];
    g.lower[s] = grid_.lower[s];
    g.upper[s] = grid_.upper[s];
    // Preserve subgrid windowing (rank-local grids) so conf-space
    // coordinate arithmetic stays bit-identical to the global grid's.
    g.parentCells[s] = grid_.parentCells[s];
    g.offset[s] = grid_.offset[s];
    g.parentLower[s] = grid_.parentLower[s];
    g.parentUpper[s] = grid_.parentUpper[s];
  }
  return g;
}

MomentUpdater::MomTape MomentUpdater::buildTape(const MultiIndex& velMonomial) const {
  const auto& tab = LegendreTables::instance();
  MomTape tape;
  for (int l = 0; l < np_; ++l) {
    const MultiIndex& a = phase_->mode(l);
    // Configuration part of the phase mode.
    MultiIndex ac;
    for (int d = 0; d < cdim_; ++d) ac[d] = a[d];
    const int k = conf_->indexOf(ac);
    if (k < 0) continue;  // cannot happen for the supported families
    double w = 1.0;
    for (int j = 0; j < vdim_; ++j) w *= tab.xmom(a[cdim_ + j], velMonomial[j]);
    if (std::abs(w) > 1e-14) tape.terms.push_back({k, l, w});
  }
  return tape;
}

void MomentUpdater::accumulateCell(const TapeSet& tapes, const MultiIndex& idx, const double* fc,
                                   double jacV, double* m0, double* m1, int m1Stride,
                                   double* m2) const {
  double wc[kMaxDim], hdv[kMaxDim];
  for (int j = 0; j < vdim_; ++j) {
    wc[j] = grid_.cellCenter(cdim_ + j, idx[cdim_ + j]);
    hdv[j] = 0.5 * grid_.dx(cdim_ + j);
  }

  if (m0) {
    for (const auto& t : tapes.t0.terms) m0[t.k] += jacV * t.c * fc[t.l];
  }
  if (m1) {
    for (int j = 0; j < vdim_; ++j) {
      double* oj = m1 + j * m1Stride;
      for (const auto& t : tapes.t0.terms) oj[t.k] += jacV * wc[j] * t.c * fc[t.l];
      for (const auto& t : tapes.t1[static_cast<std::size_t>(j)].terms)
        oj[t.k] += jacV * hdv[j] * t.c * fc[t.l];
    }
  }
  if (m2) {
    for (int j = 0; j < vdim_; ++j) {
      const double w2 = wc[j] * wc[j];
      for (const auto& t : tapes.t0.terms) m2[t.k] += jacV * w2 * t.c * fc[t.l];
      for (const auto& t : tapes.t1[static_cast<std::size_t>(j)].terms)
        m2[t.k] += jacV * 2.0 * wc[j] * hdv[j] * t.c * fc[t.l];
      for (const auto& t : tapes.t2[static_cast<std::size_t>(j)].terms)
        m2[t.k] += jacV * hdv[j] * hdv[j] * t.c * fc[t.l];
    }
  }
}

void MomentUpdater::compute(const Field& f, Field* m0, Field* m1, Field* m2) const {
  assert(f.ncomp() == np_);
  assert(!m0 || m0->ncomp() == npc_);
  assert(!m1 || m1->ncomp() == 3 * npc_);
  assert(!m2 || m2->ncomp() == npc_);
  if (m0) m0->setZero();
  if (m1) m1->setZero();
  if (m2) m2->setZero();

  // Velocity-cell Jacobian prod_j dv_j/2.
  double jacV = 1.0;
  for (int j = 0; j < vdim_; ++j) jacV *= 0.5 * grid_.dx(cdim_ + j);

  forEachCell(grid_, [&](const MultiIndex& idx) {
    MultiIndex cidx;
    for (int d = 0; d < cdim_; ++d) cidx[d] = idx[d];
    accumulateCell(all_, idx, f.at(idx), jacV, m0 ? m0->at(cidx) : nullptr,
                   m1 ? m1->at(cidx) : nullptr, npc_, m2 ? m2->at(cidx) : nullptr);
  });
}

void MomentUpdater::accumulateConfCell(const TapeSet& tapes, const Field& f,
                                       const MultiIndex& confIdx, double* m0, double* m1,
                                       int m1Stride, double* m2) const {
  assert(f.ncomp() == np_);
  double jacV = 1.0;
  int velHi[kMaxDim];
  for (int j = 0; j < vdim_; ++j) {
    jacV *= 0.5 * grid_.dx(cdim_ + j);
    velHi[j] = grid_.cells[static_cast<std::size_t>(cdim_ + j)];
  }
  // compute()'s velocity-cell order and accumulation body: each
  // accumulator sees the same addends in the same order.
  forEachIndexInRange(vdim_, velHi, 0, boxSize(vdim_, velHi), [&](const MultiIndex& vi) {
    MultiIndex idx = confIdx;
    for (int j = 0; j < vdim_; ++j) idx[cdim_ + j] = vi[j];
    accumulateCell(tapes, idx, f.at(idx), jacV, m0, m1, m1Stride, m2);
  });
}

void MomentUpdater::confMode0(const Field& f, const MultiIndex& confIdx, double& m0, double* m1,
                              double& m2) const {
  m0 = 0.0;
  m2 = 0.0;
  for (int j = 0; j < vdim_; ++j) m1[j] = 0.0;
  accumulateConfCell(mode0_, f, confIdx, &m0, m1, 1, &m2);
}

void MomentUpdater::confMoments(const Field& f, const MultiIndex& confIdx, double* m0, double* m1,
                                double* m2) const {
  std::fill(m0, m0 + npc_, 0.0);
  std::fill(m1, m1 + vdim_ * npc_, 0.0);
  std::fill(m2, m2 + npc_, 0.0);
  accumulateConfCell(all_, f, confIdx, m0, m1, npc_, m2);
}

void MomentUpdater::accumulateCurrent(const Field& f, double charge, Field& current) const {
  assert(f.ncomp() == np_ && current.ncomp() == 3 * npc_);
  double jacV = 1.0;
  for (int j = 0; j < vdim_; ++j) jacV *= 0.5 * grid_.dx(cdim_ + j);

  forEachCell(grid_, [&](const MultiIndex& idx) {
    MultiIndex cidx;
    for (int d = 0; d < cdim_; ++d) cidx[d] = idx[d];
    const double* fc = f.at(idx);
    double* out = current.at(cidx);
    for (int j = 0; j < vdim_; ++j) {
      const double wc = grid_.cellCenter(cdim_ + j, idx[cdim_ + j]);
      const double hdv = 0.5 * grid_.dx(cdim_ + j);
      double* oj = out + j * npc_;
      for (const auto& t : all_.t0.terms) oj[t.k] += charge * jacV * wc * t.c * fc[t.l];
      for (const auto& t : all_.t1[static_cast<std::size_t>(j)].terms)
        oj[t.k] += charge * jacV * hdv * t.c * fc[t.l];
    }
  });
}

// ------------------------------------------------------- PrimitiveMoments

PrimitiveMoments::PrimitiveMoments(const BasisSpec& confSpec, int vdim)
    : conf_(&basisFor(confSpec)), exec_(&ThreadExec::global()), vdim_(vdim),
      npc_(conf_->numModes()), avgFac_(std::pow(2.0, -0.5 * conf_->ndim())),
      gaunt_(buildProductTape(*conf_)) {
  if (confSpec.vdim != 0)
    throw std::invalid_argument("PrimitiveMoments: confSpec must have vdim == 0");
  if (vdim < 1 || vdim > 3)
    throw std::invalid_argument("PrimitiveMoments: vdim must be in [1, 3]");
}

namespace {

/// Per-thread weak-division workspace, kept across calls so divideCell is
/// allocation-free after a thread's first cell of a given size.
struct DivisionScratch {
  DenseMatrix a;
  LuSolver lu;
  std::vector<double> rhs;
};

DivisionScratch& divisionScratch(int n) {
  static thread_local DivisionScratch s;
  if (s.a.rows() != n) {
    s.a = DenseMatrix(n, n);
    s.rhs.assign(static_cast<std::size_t>(n), 0.0);
  }
  return s;
}

}  // namespace

void PrimitiveMoments::compute(const Field& m0, const Field& m1, const Field& m2, Field& u,
                               Field& vtSq) const {
  assert(m0.ncomp() == npc_ && m1.ncomp() == 3 * npc_ && m2.ncomp() == npc_);
  assert(u.ncomp() == vdim_ * npc_ && vtSq.ncomp() == npc_);
  // Parallel over configuration cells (disjoint writes, deterministic LU
  // pivoting: bitwise serial-identical).
  parallelForEachCell(exec_, m0.grid(), [&](const MultiIndex& idx) {
    divideCell(m0.at(idx), m1.at(idx), m2.at(idx), u.at(idx), vtSq.at(idx));
  });
}

void PrimitiveMoments::divideCell(const double* n, const double* mom, const double* en,
                                  double* uc, double* vc) const {
  const double avgFac = avgFac_;
  DivisionScratch& s = divisionScratch(npc_);
  DenseMatrix& a = s.a;
  LuSolver& lu = s.lu;
  std::vector<double>& rhs = s.rhs;

  const double nAvg = n[0] * avgFac;
  const auto setVacuum = [&] {
    for (int c = 0; c < vdim_ * npc_; ++c) uc[c] = 0.0;
    for (int k = 0; k < npc_; ++k) vc[k] = 0.0;
    vc[0] = 1.0 / avgFac;  // constant vth^2 = 1, the BGK vacuum convention
  };
  if (!(nAvg > kDensityFloor)) {
    setVacuum();
    return;
  }

  // Weak-division matrix A_kl = int w_k w_l M0 (Gaunt contraction of the
  // density expansion), LU-factored once and reused for every division of
  // this cell.
  a.setZero();
  for (const Tape3::Term& t : gaunt_.terms) a(t.l, t.n) += t.c * n[t.m];
  lu.factorFrom(a);
  if (lu.singular()) {
    setVacuum();
    return;
  }

  for (int j = 0; j < vdim_; ++j) {
    for (int k = 0; k < npc_; ++k) rhs[static_cast<std::size_t>(k)] = mom[j * npc_ + k];
    lu.solve(rhs);
    for (int k = 0; k < npc_; ++k) uc[j * npc_ + k] = rhs[static_cast<std::size_t>(k)];
  }

  // b_k = int w_k (M2 - u . M1); the product is projected exactly through
  // the Gaunt tensor, then vdim * vth^2 = b / M0 weakly.
  for (int k = 0; k < npc_; ++k) rhs[static_cast<std::size_t>(k)] = en[k];
  for (int j = 0; j < vdim_; ++j)
    for (const Tape3::Term& t : gaunt_.terms)
      rhs[static_cast<std::size_t>(t.l)] -= t.c * uc[j * npc_ + t.m] * mom[j * npc_ + t.n];
  lu.solve(rhs);
  const double vdimInv = 1.0 / vdim_;
  for (int k = 0; k < npc_; ++k) vc[k] = rhs[static_cast<std::size_t>(k)] * vdimInv;

  const double vtAvg = vc[0] * avgFac;
  if (!(vtAvg >= kVtSqFloor)) {
    for (int k = 1; k < npc_; ++k) vc[k] = 0.0;
    vc[0] = kVtSqFloor / avgFac;
  }
}

}  // namespace vdg
