#include "collisions/lbo.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dg/batch.hpp"
#include "math/legendre.hpp"
#include "par/thread_exec.hpp"
#include "tensors/dg_tensors.hpp"

namespace vdg {

namespace {

/// Upper bound on the supported batch lane counts (sizes per-lane queues).
constexpr int kMaxLanes = 8;

/// Largest conservation system: density, vdim <= 3 momenta, energy.
constexpr int kMaxSys = 5;

/// Largest number of sparse correction rows per input: 1 + 2 * vdim.
constexpr int kMaxFun = 7;

/// Per-thread scratch, 64-byte aligned. Capacity is retained, so apply()
/// is allocation-free after a thread's first call (pool workers run chunks
/// concurrently, each on its own buffer).
double* threadScratch(std::size_t n) {
  static thread_local BatchBuffer buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Lays out 64-byte-aligned slices of one scratch buffer.
struct Carver {
  std::size_t used = 0;
  std::size_t take(std::size_t n) {
    const std::size_t at = used;
    used += (n + 7) / 8 * 8;
    return at;
  }
};

/// Queues up to `lanes` work items: a full queue runs as one block, and
/// leftovers (every item, when lanes <= 1) run one at a time, in order.
template <typename Item>
class LaneQueue {
 public:
  explicit LaneQueue(int lanes) : lanes_(lanes) {}

  template <typename Block, typename Single>
  void push(const Item& item, const Block& block, const Single& single) {
    if (lanes_ <= 1) {
      single(item);
      return;
    }
    items_[static_cast<std::size_t>(n_++)] = item;
    if (n_ == lanes_) {
      block(items_.data());
      n_ = 0;
    }
  }

  template <typename Single>
  void finish(const Single& single) {
    for (int i = 0; i < n_; ++i) single(items_[static_cast<std::size_t>(i)]);
    n_ = 0;
  }

 private:
  int lanes_;
  int n_ = 0;
  std::array<Item, kMaxLanes> items_{};
};

/// One velocity cell: its coefficients, its increment slot, its index.
struct VolItem {
  const double* f;
  double* inc;
  std::array<int, 3> v;
};

/// One interior velocity face: both cells' coefficients, increments and
/// drag expansions.
struct FaceItem {
  const double *fl, *fr;
  double *incL, *incR;
  const double *al, *ar;
};

/// One velocity-domain boundary cell.
struct BndItem {
  const double* f;
  double* inc;
};

/// Solve a x = b in place (n <= kMaxSys) by Gaussian elimination with
/// partial pivoting. Deterministic; false when a pivot is zero or not
/// finite (the system is then left unsolved).
bool solveSmall(int n, double (&a)[kMaxSys][kMaxSys], double* b) {
  for (int k = 0; k < n; ++k) {
    int p = k;
    for (int r = k + 1; r < n; ++r)
      if (std::abs(a[r][k]) > std::abs(a[p][k])) p = r;
    if (p != k) {
      std::swap(a[p], a[k]);
      std::swap(b[p], b[k]);
    }
    const double d = a[k][k];
    if (d == 0.0 || !std::isfinite(d)) return false;
    for (int r = k + 1; r < n; ++r) {
      const double m = a[r][k] / d;
      for (int c = k + 1; c < n; ++c) a[r][c] -= m * a[k][c];
      b[r] -= m * b[k];
    }
  }
  for (int k = n - 1; k >= 0; --k) {
    double s = b[k];
    for (int c = k + 1; c < n; ++c) s -= a[k][c] * b[c];
    b[k] = s / a[k][k];
  }
  return true;
}

/// A scalar or batched kernel set carries everything LBO calls: the
/// acceleration kernels (drag) and the LBO diffusion kernels.
template <typename Kernels>
bool lboReady(const Kernels& k, int vdim) {
  if (!k.accelVol || !k.lbo.complete(vdim)) return false;
  for (int j = 0; j < vdim; ++j)
    if (!k.accelSurf[j]) return false;
  return true;
}

}  // namespace

LboUpdater::LboUpdater(const BasisSpec& spec, const Grid& phaseGrid, const LboParams& params)
    : ks_(&vlasovKernels(spec)), exec_(&ThreadExec::global()), grid_(phaseGrid), params_(params),
      cdim_(spec.cdim), vdim_(spec.vdim), np_(ks_->numPhaseModes), npc_(ks_->numConfModes),
      polyOrder_(spec.polyOrder), mom_(std::make_unique<MomentUpdater>(spec, phaseGrid)),
      prim_(std::make_unique<PrimitiveMoments>(spec.configSpec(), spec.vdim)) {
  if (phaseGrid.ndim != spec.ndim())
    throw std::invalid_argument("LboUpdater: grid/basis dimensionality mismatch");
  for (int d = 0; d < grid_.ndim; ++d) dxv_[static_cast<std::size_t>(d)] = grid_.dx(d);
  const VlasovCompiledKernels* ck = findCompiledKernels(spec.name());
  if (ck && ck->numPhaseModes == np_ && lboReady(*ck, vdim_)) compiled_ = ck;
  setBatchLanes(0);

  const Basis& phase = *ks_->phase;
  const auto& tab = LegendreTables::instance();
  const int p = polyOrder_;
  const auto unp = static_cast<std::size_t>(np_);

  for (int j = 0; j < vdim_; ++j) {
    const int d = cdim_ + j;
    diffVol_.push_back(buildVolumeTape2(phase, d));
    eta2Mul_.push_back(buildEta2MulTape(phase, d));

    std::vector<double> dm(unp), dp(unp);
    const FaceMap& fm = ks_->faceMap[static_cast<std::size_t>(d)];
    std::vector<int> slice(static_cast<std::size_t>(fm.numFaceModes) * (p + 1), -1);
    for (int l = 0; l < np_; ++l) {
      const int a = phase.mode(l)[d];
      dm[static_cast<std::size_t>(l)] = legendrePsiDeriv(a, -1.0);
      dp[static_cast<std::size_t>(l)] = legendrePsiDeriv(a, +1.0);
      slice[static_cast<std::size_t>(fm.entries[static_cast<std::size_t>(l)].face) *
                static_cast<std::size_t>(p + 1) +
            static_cast<std::size_t>(a)] = l;
    }
    derivMinus_.push_back(std::move(dm));
    derivPlus_.push_back(std::move(dp));
    sliceMode_.push_back(std::move(slice));
  }

  // --- recovery functionals of the two-cell patch (shared with the Poisson
  // solver's interface traces; see tensors/dg_tensors.hpp).
  rec_ = buildRecoveryWeights(p);

  // --- sparse correction rows. The scalar integrals s0, s1_j, s2_j of one
  // velocity cell (weights 1, eta_j, eta_j^2 on the conf-mode-0 modes),
  // composed with the exact eta / eta^2 multiplication tapes, so every
  // weight-field moment is one sparse dot product with f.
  const int nfun = 1 + 2 * vdim_;
  std::vector<std::vector<double>> fun(static_cast<std::size_t>(nfun), std::vector<double>(unp));
  for (int l = 0; l < np_; ++l) {
    const MultiIndex& a = phase.mode(l);
    if (a.totalDegree(cdim_) != 0) continue;
    const auto weight = [&](int jmom, int power) {
      double w = 1.0;
      for (int j = 0; j < vdim_; ++j) w *= tab.xmom(a[cdim_ + j], j == jmom ? power : 0);
      return std::abs(w) > 1e-14 ? w : 0.0;
    };
    const auto sl = static_cast<std::size_t>(l);
    fun[0][sl] = weight(-1, 0);
    for (int j = 0; j < vdim_; ++j) {
      fun[static_cast<std::size_t>(1 + j)][sl] = weight(j, 1);
      fun[static_cast<std::size_t>(1 + vdim_ + j)][sl] = weight(j, 2);
    }
  }
  rowStart_.push_back(0);
  for (int input = 0; input < nfun; ++input) {
    const Tape2* mul = nullptr;  // input 0 is f itself
    if (input >= 1 + vdim_)
      mul = &eta2Mul_[static_cast<std::size_t>(input - 1 - vdim_)];
    else if (input >= 1)
      mul = &ks_->etaMul[static_cast<std::size_t>(input - 1)];
    for (const std::vector<double>& s : fun) {
      std::vector<double> row = s;
      if (mul) {
        std::fill(row.begin(), row.end(), 0.0);
        for (const Tape2::Term& t : mul->terms)
          row[static_cast<std::size_t>(t.n)] += s[static_cast<std::size_t>(t.l)] * t.c;
      }
      for (int l = 0; l < np_; ++l)
        if (row[static_cast<std::size_t>(l)] != 0.0) {
          rowIdx_.push_back(l);
          rowCoef_.push_back(row[static_cast<std::size_t>(l)]);
        }
      rowStart_.push_back(static_cast<int>(rowIdx_.size()));
    }
  }

  confSup_ = basisSupBounds(*ks_->conf);
  jacV_ = 1.0;
  for (int j = 0; j < vdim_; ++j) jacV_ *= 0.5 * grid_.dx(cdim_ + j);
}

void LboUpdater::setBatchLanes(int lanes) {
  batchLanes_ = lanes;
  batched_ = nullptr;
  if (!compiled_ || lanes == 1) return;
  for (const VlasovBatchedKernels& b : compiled_->batched) {
    if (b.lanes <= 1 || !lboReady(b, vdim_)) continue;
    if (lanes == 0 ? (!batched_ || b.lanes > batched_->lanes) : b.lanes == lanes) batched_ = &b;
  }
}

void LboUpdater::primitiveMoments(const Field& f, Field& u, Field& vtSq) const {
  const Grid cg = mom_->confGrid();
  Field m0(cg, npc_), m1(cg, 3 * npc_), m2(cg, npc_);
  mom_->compute(f, &m0, &m1, &m2);
  prim_->compute(m0, m1, m2, u, vtSq);
}

void LboUpdater::temperature(const Field& f, Field& T) const {
  const Grid cg = mom_->confGrid();
  Field u(cg, vdim_ * npc_);
  primitiveMoments(f, u, T);
  T.scale(params_.mass);
}

double LboUpdater::advance(const Field& f, Field& rhs) const {
  return apply(f, nullptr, nullptr, rhs, true, true, params_.momentFix, params_.collisionFreq);
}

void LboUpdater::dragTerm(const Field& f, const Field& u, Field& rhs) const {
  apply(f, &u, nullptr, rhs, true, false, false, 1.0);
}

void LboUpdater::diffusionTerm(const Field& f, const Field& vtSq, Field& rhs) const {
  apply(f, nullptr, &vtSq, rhs, false, true, false, 1.0);
}

double LboUpdater::apply(const Field& f, const Field* uIn, const Field* vtIn, Field& rhs,
                         bool drag, bool diff, bool correct, double scale) const {
  const VlasovKernelSet& ks = *ks_;
  const VlasovCompiledKernels* ck = compiled_;
  const VlasovBatchedKernels* bk = batched_;
  const int np = np_, npc = npc_, vdim = vdim_, cdim = cdim_;
  const auto unp = static_cast<std::size_t>(np);
  assert(f.ncomp() == np && rhs.ncomp() == np);

  int confHi[kMaxDim];
  for (int d = 0; d < cdim; ++d) confHi[d] = grid_.cells[static_cast<std::size_t>(d)];
  // The velocity box, padded to three dimensions (extent 1 beyond vdim),
  // and element strides along each velocity dimension: in f, in rhs, and
  // in inc, one configuration cell's increment in odometer order.
  std::array<int, 3> nv{1, 1, 1};
  for (int j = 0; j < vdim; ++j)
    nv[static_cast<std::size_t>(j)] = grid_.cells[static_cast<std::size_t>(cdim + j)];
  const std::size_t nvel = static_cast<std::size_t>(nv[0]) * nv[1] * nv[2];
  std::array<std::ptrdiff_t, 3> fs{}, rs{}, is{};
  {
    const MultiIndex z;
    for (int j = 0; j < vdim; ++j) {
      if (nv[static_cast<std::size_t>(j)] == 1) continue;  // never stepped along
      MultiIndex e;
      e[cdim + j] = 1;
      fs[static_cast<std::size_t>(j)] = f.at(e) - f.at(z);
      rs[static_cast<std::size_t>(j)] = rhs.at(e) - rhs.at(z);
    }
    is[0] = np;
    is[1] = static_cast<std::ptrdiff_t>(nv[0]) * np;
    is[2] = static_cast<std::ptrdiff_t>(nv[0]) * nv[1] * np;
  }
  const auto offset = [](const std::array<std::ptrdiff_t, 3>& s, int i0, int i1, int i2) {
    return i0 * s[0] + i1 * s[1] + i2 * s[2];
  };
  // Odometer walk of the velocity block (dimension 0 fastest).
  const auto forEachVel = [&](const auto& fn) {
    std::size_t lin = 0;
    for (int i2 = 0; i2 < nv[2]; ++i2)
      for (int i1 = 0; i1 < nv[1]; ++i1)
        for (int i0 = 0; i0 < nv[0]; ++i0, ++lin) fn(lin, i0, i1, i2);
  };

  // Drag expansion table: alpha_j depends on the velocity index along j
  // only, so one row of np per (j, i_j) serves every cell of the block.
  std::array<std::size_t, 3> tabOff{};
  std::size_t tabRows = 0;
  int nfMax = 0;
  for (int j = 0; j < vdim; ++j) {
    tabOff[static_cast<std::size_t>(j)] = tabRows;
    tabRows += static_cast<std::size_t>(nv[static_cast<std::size_t>(j)]);
    nfMax = std::max(nfMax, ks.faceMap[static_cast<std::size_t>(cdim + j)].numFaceModes);
  }
  const auto nfm = static_cast<std::size_t>(nfMax);
  const int B = bk ? bk->lanes : 1;
  const auto uB = static_cast<std::size_t>(B);
  const int nsys = 2 + vdim;
  const int nfun = 1 + 2 * vdim;
  const double* rowCoef = rowCoef_.data();
  const int* rowIdx = rowIdx_.data();
  const int* rowStart = rowStart_.data();

  // Per-thread scratch layout.
  Carver carve;
  const std::size_t oInc = carve.take(nvel * unp);
  const std::size_t oTab = carve.take(tabRows * unp);
  const std::size_t oCell = carve.take(static_cast<std::size_t>(vdim) * unp);
  const std::size_t oMom = carve.take(static_cast<std::size_t>(3 + 2 * vdim) * npc);
  const std::size_t blk = unp * uB;
  const std::size_t oBlk = carve.take((6 + static_cast<std::size_t>(std::max(vdim, 2))) * blk);
  const std::size_t oTape = carve.take(unp + (static_cast<std::size_t>(vdim) + 8) * nfm);

  double maxFreq = 0.0;
  std::mutex freqMutex;

  const auto chunk = [&](std::size_t begin, std::size_t end) {
    double* const scr = threadScratch(carve.used);
    double* const inc = scr + oInc;
    double* const tab = scr + oTab;
    double* const alphaCell = scr + oCell;
    double* const m0 = scr + oMom;
    double* const m1 = m0 + npc;
    double* const m2 = m1 + static_cast<std::size_t>(vdim) * npc;
    double* const uBuf = m2 + npc;
    double* const vtBuf = uBuf + static_cast<std::size_t>(vdim) * npc;
    // AoSoA blocks (batched path): f of the left/only cells, f of the right
    // cells, the drag expansions (vdim per cell, or left/right per face),
    // and four output blocks so drag and diffusion lifts land separately.
    double* const fBlk = scr + oBlk;
    double* const frBlk = fBlk + blk;
    double* const oL1 = frBlk + blk;
    double* const oR1 = oL1 + blk;
    double* const oL2 = oR1 + blk;
    double* const oR2 = oL2 + blk;
    double* const aBlk = oR2 + blk;
    // Tape-path workspaces: the embedded coefficient and its face traces,
    // and eight face vectors.
    double* const dPhase = scr + oTape;
    double* const dFace = dPhase + unp;
    const auto faceVec = [&](int i) {
      return std::span<double>(dFace + (static_cast<std::size_t>(vdim) + i) * nfm, nfm);
    };
    const std::span<double> fLf = faceVec(0), fRf = faceVec(1), aLf = faceVec(2),
                            aRf = faceVec(3), fhat = faceVec(4), rv = faceVec(5),
                            rd = faceVec(6), prod = faceVec(7);

    std::array<const double*, kMaxLanes> src{}, src2{};
    std::array<double*, kMaxLanes> dst{};
    LaneQueue<VolItem> volQ(B);
    LaneQueue<FaceItem> faceQ(B);
    LaneQueue<BndItem> bndQ(B);
    double chunkFreq = 0.0;

    forEachIndexInRange(cdim, confHi, begin, end, [&](const MultiIndex& ci) {
      MultiIndex base = ci;
      for (int j = 0; j < vdim; ++j) base[cdim + j] = 0;
      const double* const fBase = f.at(base);
      double* const rBase = rhs.at(base);

      // ------------------------------------------- primitive moments
      const double* u = uBuf;
      const double* vt = vtBuf;
      if (uIn || vtIn) {
        u = uIn ? uIn->at(ci) : nullptr;
        vt = vtIn ? vtIn->at(ci) : nullptr;
      } else {
        mom_->confMoments(f, ci, m0, m1, m2);
        prim_->divideCell(m0, m1, m2, uBuf, vtBuf);
      }

      const auto alphaRow = [&](int j, int i) {
        return tab + (tabOff[static_cast<std::size_t>(j)] + static_cast<std::size_t>(i)) * unp;
      };
      double freq = 0.0;
      if (diff) {
        double vtMax = 0.0;
        for (int k = 0; k < npc; ++k)
          vtMax += std::abs(vt[k]) * confSup_[static_cast<std::size_t>(k)];
        for (int j = 0; j < vdim; ++j) {
          const double dv = dxv_[static_cast<std::size_t>(cdim + j)];
          freq += vtMax * (2.0 * polyOrder_ + 1.0) / (dv * dv);
        }
        if (!ck) {
          // Embed vth^2 in the phase basis; its face restriction is the
          // same on both sides of every velocity face of this cell.
          std::fill(dPhase, dPhase + np, 0.0);
          for (int k = 0; k < npc; ++k)
            dPhase[ks.embedIdx[static_cast<std::size_t>(k)]] = ks.embedFac * vt[k];
          for (int j = 0; j < vdim; ++j) {
            const FaceMap& fm = ks.faceMap[static_cast<std::size_t>(cdim + j)];
            fm.restrictTo({dPhase, unp},
                          {dFace + static_cast<std::size_t>(j) * nfm,
                           static_cast<std::size_t>(fm.numFaceModes)},
                          +1);
          }
        }
      }
      if (drag) {
        // alpha_j = u_j - v_j per velocity row, and the CFL bound
        // max_cells sum_j |alpha_j|/dv_j = sum_j max_i |alpha_j(i)|/dv_j.
        double dragFreq = 0.0;
        for (int j = 0; j < vdim; ++j) {
          const int d = cdim + j;
          const double dv = dxv_[static_cast<std::size_t>(d)];
          const double hdv = 0.5 * dv;
          double rowMax = 0.0;
          for (int i = 0; i < nv[static_cast<std::size_t>(j)]; ++i) {
            double* aj = alphaRow(j, i);
            std::fill(aj, aj + np, 0.0);
            for (int k = 0; k < npc; ++k)
              aj[ks.embedIdx[static_cast<std::size_t>(k)]] = ks.embedFac * u[j * npc + k];
            const double wc = grid_.cellCenter(d, i);
            for (const auto& [l, c] : ks.unitProj) aj[l] -= wc * c;
            for (const auto& [l, c] : ks.etaProj[static_cast<std::size_t>(d)]) aj[l] -= hdv * c;
            double amax = 0.0;
            for (int l = 0; l < np; ++l)
              amax += std::abs(aj[l]) * ks.phaseSup[static_cast<std::size_t>(l)];
            rowMax = std::max(rowMax, amax / dv);
          }
          dragFreq += rowMax;
        }
        freq += dragFreq;
      }
      chunkFreq = std::max(chunkFreq, freq);

      // ------------------------------------------------------- volume
      std::fill(inc, inc + nvel * unp, 0.0);
      const auto volSingle = [&](const VolItem& it) {
        if (ck) {
          if (drag) {
            const double* al = alphaRow(0, it.v[0]);
            if (vdim > 1) {
              for (int j = 0; j < vdim; ++j)
                std::copy(alphaRow(j, it.v[static_cast<std::size_t>(j)]),
                          alphaRow(j, it.v[static_cast<std::size_t>(j)]) + np,
                          alphaCell + static_cast<std::size_t>(j) * unp);
              al = alphaCell;
            }
            ck->accelVol(dxv_.data(), al, it.f, it.inc);
          }
          if (diff) ck->lbo.diffVol(dxv_.data(), vt, it.f, it.inc);
          return;
        }
        const std::span<const double> fc(it.f, unp);
        const std::span<double> ic(it.inc, unp);
        for (int j = 0; j < vdim; ++j) {
          const int d = cdim + j;
          const double r2 = 2.0 / dxv_[static_cast<std::size_t>(d)];
          if (drag)
            ks.volume[static_cast<std::size_t>(d)].execute(
                {alphaRow(j, it.v[static_cast<std::size_t>(j)]), unp}, fc, ic, r2);
          if (diff) diffVol_[static_cast<std::size_t>(j)].execute({dPhase, unp}, fc, ic, r2 * r2);
        }
      };
      // Volume terms are the first contribution to each inc slot (zeroed
      // above), so the block scatter overwrites.
      const auto volBlock = [&](const VolItem* items) {
        for (int b = 0; b < B; ++b) {
          src[static_cast<std::size_t>(b)] = items[b].f;
          dst[static_cast<std::size_t>(b)] = items[b].inc;
        }
        packLanes(B, np, src.data(), fBlk);
        zeroLanes(B, np, oL1);
        if (drag) {
          for (int j = 0; j < vdim; ++j)
            for (int b = 0; b < B; ++b) {
              const double* a = alphaRow(j, items[b].v[static_cast<std::size_t>(j)]);
              double* out = aBlk + static_cast<std::size_t>(j) * blk + static_cast<std::size_t>(b);
              for (int l = 0; l < np; ++l) out[static_cast<std::size_t>(l) * uB] = a[l];
            }
          bk->accelVol(dxv_.data(), aBlk, fBlk, oL1);
        }
        if (diff) bk->lbo.diffVol(dxv_.data(), vt, fBlk, oL1);
        scatterLanes(B, np, oL1, dst.data());
      };
      forEachVel([&](std::size_t lin, int i0, int i1, int i2) {
        volQ.push({fBase + offset(fs, i0, i1, i2), inc + lin * unp, {i0, i1, i2}}, volBlock,
                  volSingle);
      });
      volQ.finish(volSingle);

      // ------------------------------------------------------ surface
      for (int j = 0; j < vdim; ++j) {
        const auto sj = static_cast<std::size_t>(j);
        const int d = cdim + j;
        const FaceMap& fm = ks.faceMap[static_cast<std::size_t>(d)];
        const int nf = fm.numFaceModes;
        const double r2 = 2.0 / dxv_[static_cast<std::size_t>(d)];
        const double s2 = r2 * r2;
        const std::span<const double> dFs(dFace + sj * nfm, static_cast<std::size_t>(nf));
        const std::vector<double>& dMin = derivMinus_[sj];
        const std::vector<double>& dPlu = derivPlus_[sj];

        const auto faceSingle = [&](const FaceItem& it) {
          if (ck) {
            if (drag) ck->accelSurf[j](dxv_.data(), it.al, it.ar, it.fl, it.fr, it.incL, it.incR);
            if (diff) ck->lbo.diffSurf[j](dxv_.data(), vt, it.fl, it.fr, it.incL, it.incR);
            return;
          }
          const std::span<double> incL(it.incL, unp), incR(it.incR, unp);
          if (drag) {
            fm.restrictTo({it.fl, unp}, fLf, +1);
            fm.restrictTo({it.fr, unp}, fRf, -1);
            fm.restrictTo({it.al, unp}, aLf, +1);
            fm.restrictTo({it.ar, unp}, aRf, -1);
            std::fill(fhat.begin(), fhat.end(), 0.0);
            ks.faceProduct[static_cast<std::size_t>(d)].execute(aLf, fLf, fhat, 0.5);
            ks.faceProduct[static_cast<std::size_t>(d)].execute(aRf, fRf, fhat, 0.5);
            const std::vector<double>& sup = ks.faceSup[static_cast<std::size_t>(d)];
            double bL = 0.0, bR = 0.0;
            for (int k = 0; k < nf; ++k) {
              const auto sk = static_cast<std::size_t>(k);
              bL += std::abs(aLf[sk]) * sup[sk];
              bR += std::abs(aRf[sk]) * sup[sk];
            }
            const double tau = std::max(bL, bR);
            for (int k = 0; k < nf; ++k) {
              const auto sk = static_cast<std::size_t>(k);
              fhat[sk] -= 0.5 * tau * (fRf[sk] - fLf[sk]);
            }
            fm.lift(fhat, incL, +1, -r2);
            fm.lift(fhat, incR, -1, +r2);
          }
          if (diff) {
            // Recovery value / slope per transverse face mode.
            const int p1 = polyOrder_ + 1;
            for (int k = 0; k < nf; ++k) {
              double v = 0.0, dv = 0.0;
              const int* sl = sliceMode_[sj].data() + static_cast<std::size_t>(k) * p1;
              for (int m = 0; m < p1; ++m) {
                const int l = sl[m];
                if (l < 0) continue;
                const auto sm = static_cast<std::size_t>(m);
                v += rec_.valL[sm] * it.fl[l];
                dv += rec_.derivL[sm] * it.fl[l];
                v += rec_.valR[sm] * it.fr[l];
                dv += rec_.derivR[sm] * it.fr[l];
              }
              rv[static_cast<std::size_t>(k)] = v;
              rd[static_cast<std::size_t>(k)] = dv;
            }
            // Flux term [w D df/deta] with df/deta = r'(0)/2.
            std::fill(prod.begin(), prod.end(), 0.0);
            ks.faceProduct[static_cast<std::size_t>(d)].execute(dFs, rd, prod, 1.0);
            fm.lift(prod, incL, +1, +0.5 * s2);
            fm.lift(prod, incR, -1, -0.5 * s2);
            // Value term -[dw/deta D fhat].
            std::fill(prod.begin(), prod.end(), 0.0);
            ks.faceProduct[static_cast<std::size_t>(d)].execute(dFs, rv, prod, 1.0);
            for (const FaceMap::Entry& e : fm.entries) {
              const auto sv = static_cast<std::size_t>(e.vol);
              incL[sv] -= s2 * dPlu[sv] * prod[static_cast<std::size_t>(e.face)];
              incR[sv] += s2 * dMin[sv] * prod[static_cast<std::size_t>(e.face)];
            }
          }
        };
        // Drag and diffusion lifts land in separate blocks and are added
        // lane by lane in face order, drag before diffusion: each cell sees
        // the scalar path's additions in the scalar path's order.
        const auto faceBlock = [&](const FaceItem* items) {
          for (int b = 0; b < B; ++b) {
            src[static_cast<std::size_t>(b)] = items[b].fl;
            src2[static_cast<std::size_t>(b)] = items[b].fr;
          }
          packLanes(B, np, src.data(), fBlk);
          packLanes(B, np, src2.data(), frBlk);
          if (drag) {
            for (int b = 0; b < B; ++b) {
              src[static_cast<std::size_t>(b)] = items[b].al;
              src2[static_cast<std::size_t>(b)] = items[b].ar;
            }
            packLanes(B, np, src.data(), aBlk);
            packLanes(B, np, src2.data(), aBlk + blk);
            zeroLanes(B, np, oL1);
            zeroLanes(B, np, oR1);
            bk->accelSurf[j](dxv_.data(), aBlk, aBlk + blk, fBlk, frBlk, oL1, oR1);
          }
          if (diff) {
            zeroLanes(B, np, oL2);
            zeroLanes(B, np, oR2);
            bk->lbo.diffSurf[j](dxv_.data(), vt, fBlk, frBlk, oL2, oR2);
          }
          for (int b = 0; b < B; ++b) {
            double* L = items[b].incL;
            double* R = items[b].incR;
            const auto addLane = [&](double* out, const double* blkOut) {
              const double* lane = blkOut + b;
              for (int l = 0; l < np; ++l) out[l] += lane[static_cast<std::size_t>(l) * uB];
            };
            if (drag) {
              addLane(L, oL1);
              addLane(R, oR1);
            }
            if (diff) {
              addLane(L, oL2);
              addLane(R, oR2);
            }
          }
        };

        // Zero-flux domain boundaries: the flux term is dropped; the value
        // term uses the one-sided trace of the boundary cell. side 0 is the
        // lower boundary, side 1 the upper.
        int side = 0;
        const auto bndSingle = [&](const BndItem& it) {
          if (ck) {
            ck->lbo.diffBound[j][side](dxv_.data(), vt, it.f, it.inc);
            return;
          }
          fm.restrictTo({it.f, unp}, fLf, side == 0 ? -1 : +1);
          std::fill(prod.begin(), prod.end(), 0.0);
          ks.faceProduct[static_cast<std::size_t>(d)].execute(dFs, fLf, prod, 1.0);
          for (const FaceMap::Entry& e : fm.entries) {
            const auto sv = static_cast<std::size_t>(e.vol);
            const double w = side == 0 ? dMin[sv] : -dPlu[sv];
            it.inc[sv] += s2 * w * prod[static_cast<std::size_t>(e.face)];
          }
        };
        const auto bndBlock = [&](const BndItem* items) {
          for (int b = 0; b < B; ++b) {
            src[static_cast<std::size_t>(b)] = items[b].f;
            dst[static_cast<std::size_t>(b)] = items[b].inc;
          }
          packLanes(B, np, src.data(), fBlk);
          zeroLanes(B, np, oL2);
          bk->lbo.diffBound[j][side](dxv_.data(), vt, fBlk, oL2);
          scatterAddLanes(B, np, oL2, dst.data());
        };

        // Lines along j: odometer over the other two (padded) dimensions.
        const int a1 = j == 0 ? 1 : 0;
        const int a2 = j == 2 ? 1 : 2;
        const auto forEachLine = [&](const auto& fn) {
          std::array<int, 3> v{0, 0, 0};
          for (int i2 = 0; i2 < nv[static_cast<std::size_t>(a2)]; ++i2)
            for (int i1 = 0; i1 < nv[static_cast<std::size_t>(a1)]; ++i1) {
              v[static_cast<std::size_t>(a1)] = i1;
              v[static_cast<std::size_t>(a2)] = i2;
              fn(fBase + offset(fs, v[0], v[1], v[2]), inc + offset(is, v[0], v[1], v[2]));
            }
        };
        const int n = nv[sj];
        const std::ptrdiff_t fsj = fs[sj], isj = is[sj];
        forEachLine([&](const double* fl, double* il) {
          for (int i = 1; i < n; ++i)
            faceQ.push({fl + (i - 1) * fsj, fl + i * fsj, il + (i - 1) * isj, il + i * isj,
                        alphaRow(j, i - 1), alphaRow(j, i)},
                       faceBlock, faceSingle);
        });
        faceQ.finish(faceSingle);
        if (!diff) continue;
        for (side = 0; side < 2; ++side) {
          const int i = side == 0 ? 0 : n - 1;
          forEachLine([&](const double* fl, double* il) {
            bndQ.push({fl + i * fsj, il + i * isj}, bndBlock, bndSingle);
          });
          bndQ.finish(bndSingle);
        }
      }

      // --------------------------------------------------- correction
      // Solve the (2+vdim) moment system so the increment's density,
      // momentum and energy integrals over this conf cell vanish exactly,
      // subtracting a combination of the exactly-projected weight fields
      // {f, P(v_j f), P(|v|^2 f)}.
      double wc[3] = {}, hdv[3] = {};
      for (int j = 0; j < vdim; ++j) hdv[j] = 0.5 * dxv_[static_cast<std::size_t>(cdim + j)];
      const auto setCenters = [&](int i0, int i1, int i2) {
        const int v[3] = {i0, i1, i2};
        for (int j = 0; j < vdim; ++j) wc[j] = grid_.cellCenter(cdim + j, v[j]);
      };
      double delta[kMaxSys] = {};
      bool corrected = false;
      if (correct) {
        const auto dot = [&](int row, const double* g) {
          double s = 0.0;
          for (int t = rowStart[row]; t < rowStart[row + 1]; ++t) s += rowCoef[t] * g[rowIdx[t]];
          return s;
        };
        // Density, momentum and energy integrals of a field over this
        // velocity cell from its scalar integrals s0, s1_j, s2_j.
        const auto momentsOf = [&](const double* s, double* out) {
          out[0] = jacV_ * s[0];
          double e = 0.0;
          for (int j = 0; j < vdim; ++j) {
            out[1 + j] = jacV_ * (wc[j] * s[0] + hdv[j] * s[1 + j]);
            e += wc[j] * wc[j] * s[0] + 2.0 * wc[j] * hdv[j] * s[1 + j] +
                 hdv[j] * hdv[j] * s[1 + vdim + j];
          }
          out[1 + vdim] = jacV_ * e;
        };

        double A[kMaxSys][kMaxSys] = {};
        forEachVel([&](std::size_t lin, int i0, int i1, int i2) {
          setCenters(i0, i1, i2);
          const double* fc = fBase + offset(fs, i0, i1, i2);
          // mu[input][m]: moments of f (input 0), P(eta_j f) (1+j) and
          // P(eta_j^2 f) (1+vdim+j); mi: moments of the increment.
          double s[kMaxFun] = {}, mu[kMaxFun][kMaxSys] = {}, mi[kMaxSys] = {};
          for (int input = 0; input < nfun; ++input) {
            for (int q = 0; q < nfun; ++q) s[q] = dot(input * nfun + q, fc);
            momentsOf(s, mu[input]);
          }
          for (int q = 0; q < nfun; ++q) s[q] = dot(q, inc + lin * unp);
          momentsOf(s, mi);
          for (int m = 0; m < nsys; ++m) {
            A[m][0] += mu[0][m];
            double e = 0.0;
            for (int j = 0; j < vdim; ++j) {
              A[m][1 + j] += wc[j] * mu[0][m] + hdv[j] * mu[1 + j][m];
              e += wc[j] * wc[j] * mu[0][m] + 2.0 * wc[j] * hdv[j] * mu[1 + j][m] +
                   hdv[j] * hdv[j] * mu[1 + vdim + j][m];
            }
            A[m][1 + vdim] += e;
            delta[m] += mi[m];
          }
        });

        corrected = solveSmall(nsys, A, delta);
      }

      // ------------------------------------- correct and accumulate
      // inc -= delta_0 f + sum_j delta_j P(v_j f) + delta_E P(|v|^2 f),
      // with v_j = wc_j + hdv_j eta_j expanded per velocity cell; then
      // rhs += scale * inc.
      const double dE = delta[1 + vdim];
      forEachVel([&](std::size_t lin, int i0, int i1, int i2) {
        double* ic = inc + lin * unp;
        if (corrected) {
          setCenters(i0, i1, i2);
          const double* fc = fBase + offset(fs, i0, i1, i2);
          double a0 = delta[0];
          for (int j = 0; j < vdim; ++j) a0 += delta[1 + j] * wc[j] + dE * wc[j] * wc[j];
          for (int l = 0; l < np; ++l) ic[l] -= a0 * fc[l];
          for (int j = 0; j < vdim; ++j) {
            const double b1 = delta[1 + j] * hdv[j] + 2.0 * dE * wc[j] * hdv[j];
            for (const Tape2::Term& t : ks.etaMul[static_cast<std::size_t>(j)].terms)
              ic[t.l] -= b1 * t.c * fc[t.n];
            const double b2 = dE * hdv[j] * hdv[j];
            for (const Tape2::Term& t : eta2Mul_[static_cast<std::size_t>(j)].terms)
              ic[t.l] -= b2 * t.c * fc[t.n];
          }
        }
        double* rc = rBase + offset(rs, i0, i1, i2);
        for (int l = 0; l < np; ++l) rc[l] += scale * ic[l];
      });
    });

    std::scoped_lock lock(freqMutex);
    maxFreq = std::max(maxFreq, chunkFreq);
  };
  // The pool takes its job as a std::function; a one-reference closure
  // fits its inline buffer, so handing the job over allocates nothing.
  chunkedFor(exec_, boxSize(cdim, confHi),
             [&chunk](std::size_t begin, std::size_t end) { chunk(begin, end); });

  return scale * maxFreq;
}

}  // namespace vdg
