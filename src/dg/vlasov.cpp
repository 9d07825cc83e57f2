#include "dg/vlasov.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "dg/batch.hpp"
#include "par/thread_exec.hpp"

namespace vdg {

namespace {

/// Odometer iteration over the full box [0, hi[d]) for d < nd (the
/// range-restricted form is the shared math/multi_index.hpp helper).
template <typename Fn>
void forEachIdx(int nd, const int* hi, Fn fn) {
  forEachIndexInRange(nd, hi, 0, boxSize(nd, hi), fn);
}

}  // namespace

VlasovUpdater::VlasovUpdater(const BasisSpec& spec, const Grid& phaseGrid,
                             const VlasovParams& params)
    : ks_(&vlasovKernels(spec)), exec_(&ThreadExec::global()), grid_(phaseGrid), params_(params),
      qbym_(params.charge / params.mass), specName_(spec.name()) {
  if (phaseGrid.ndim != spec.ndim())
    throw std::invalid_argument("VlasovUpdater: grid/basis dimensionality mismatch");
  for (int d = 0; d < grid_.ndim; ++d) dxv_[static_cast<std::size_t>(d)] = grid_.dx(d);
  // Generated surface kernels bake in the penalty flux, so the compiled
  // path is only valid for FluxType::Penalty. It needs the B = 1 set for
  // the cells and faces that do not fill a block.
  if (params.flux == FluxType::Penalty) {
    const CompiledKernels* ck = findCompiledKernels(spec.name());
    if (ck && ck->numPhaseModes == ks_->numPhaseModes && ck->find(1, ks_->cdim, ks_->vdim))
      compiled_ = ck;
  }
  setBatchLanes(0);
}

void VlasovUpdater::setBatchLanes(int lanes) {
  one_ = block_ = nullptr;
  if (compiled_) {
    const int cdim = ks_->cdim, vdim = ks_->vdim;
    one_ = compiled_->find(1, cdim, vdim);
    block_ = compiled_->find(lanes == 0 ? compiled_->maxLanes(cdim, vdim) : lanes, cdim, vdim);
    if (!block_) block_ = one_;
  }
  logKernelDispatch(specName_, one_ != nullptr, activeBatchLanes());
}

void VlasovUpdater::disableCompiledKernels() {
  compiled_ = nullptr;
  setBatchLanes(0);
}

double VlasovUpdater::advance(const Field& f, const Field* em, Field& rhs) const {
  // Local alpha scratch keeps advance() re-entrant; callers that overlap
  // communication hold their own scratch across the volume/surface split.
  Field alpha;
  const double maxFreq = advanceVolume(f, em, rhs, alpha);
  advanceSurface(f, em, rhs, alpha);
  return maxFreq;
}

double VlasovUpdater::advanceVolume(const Field& f, const Field* em, Field& rhs,
                                    Field& alphaScratch) const {
  const VlasovKernelSet& ks = *ks_;
  const int np = ks.numPhaseModes;
  const int cdim = ks.cdim, vdim = ks.vdim, ndim = ks.ndim;
  assert(f.ncomp() == np && rhs.ncomp() == np);
  assert(!em || em->ncomp() == kEmComps * ks.numConfModes);

  rhs.setZero();
  double maxFreq = 0.0;
  std::mutex freqMutex;

  // Acceleration expansion per cell (no ghosts needed: velocity faces never
  // straddle configuration cells, config faces carry only streaming flux).
  // Written here, read back by the surface pass through the same scratch.
  Field& alphaField = alphaScratch;
  if (em &&
      (alphaField.ncomp() != vdim * np || alphaField.grid().numCells() != grid_.numCells()))
    alphaField = Field(grid_, vdim * np, 0);

  int confHi[kMaxDim], velHi[kMaxDim];
  for (int d = 0; d < cdim; ++d) confHi[d] = grid_.cells[static_cast<std::size_t>(d)];
  for (int j = 0; j < vdim; ++j) velHi[j] = grid_.cells[static_cast<std::size_t>(cdim + j)];

  const auto runChunked = [this](std::size_t n, const auto& fn) { chunkedFor(exec_, n, fn); };

  // ---------------------------------------------------------------- volume
  // Parallel over configuration cells: every phase-space cell is written by
  // exactly one chunk, so the decomposition is race-free and bitwise
  // reproducible. Acceleration prep and scratch are per-chunk locals.
  // With compiled kernels, runs of B consecutive velocity cells (in
  // odometer order) are updated by one B-lane call and leftover cells by
  // the B = 1 set. Blocks never span chunk boundaries, so threading stays
  // bitwise serial-identical. A velocity box that cannot fill one block
  // runs at B = 1 throughout.
  const CompiledKernelSet* blk =
      (block_ && boxSize(vdim, velHi) >= static_cast<std::size_t>(block_->lanes)) ? block_ : one_;
  runChunked(boxSize(cdim, confHi), [&, blk](std::size_t begin, std::size_t end) {
    AccelWorkspace ws;
    double chunkFreq = 0.0;

    const int B = blk ? blk->lanes : 1;
    BatchBuffer fBlk, outBlk, alphaBlk;
    if (B > 1) {
      fBlk.resize(static_cast<std::size_t>(np) * B);
      outBlk.resize(static_cast<std::size_t>(np) * B);
      if (em) alphaBlk.resize(static_cast<std::size_t>(vdim) * np * B);
    }
    std::array<double, kMaxDim * kMaxKernelLanes> wBlk{};
    std::array<MultiIndex, kMaxKernelLanes> laneIdx;
    std::array<const double*, kMaxKernelLanes> lanePtr{};
    std::array<double*, kMaxKernelLanes> laneOut{};
    std::array<double*, kMaxKernelLanes> laneOutAlpha{};
    std::array<double, kMaxKernelLanes> laneFreq{};

    forEachIndexInRange(cdim, confHi, begin, end, [&](const MultiIndex& cidx) {
      // Per-configuration-cell preparation shared by all velocity cells.
      if (em) prepareAccel(ks, em->at(cidx), ws);

      // Tape-interpreted volume update of one phase-space cell.
      const auto scalarCell = [&](const MultiIndex& idx) {
        const std::span<const double> fc = f.cell(idx);
        const std::span<double> rc = rhs.cell(idx);

        double freq = 0.0;
        for (int d = 0; d < cdim; ++d) {
          const int vd = cdim + d;
          const double wc = grid_.cellCenter(vd, idx[vd]);
          const double hdv = 0.5 * grid_.dx(vd);
          const double rdx2 = 2.0 / grid_.dx(d);
          ks.streamVol0[static_cast<std::size_t>(d)].execute(fc, rc, rdx2 * wc);
          ks.streamVol1[static_cast<std::size_t>(d)].execute(fc, rc, rdx2 * hdv);
          freq += (std::abs(wc) + hdv) / grid_.dx(d);
        }
        if (em) {
          double* alpha = alphaField.at(idx);
          buildAccel(ks, grid_, qbym_, idx, ws, {alpha, static_cast<std::size_t>(vdim) * np});
          for (int j = 0; j < vdim; ++j) {
            const int d = cdim + j;
            const std::span<const double> aj(alpha + static_cast<std::size_t>(j) * np,
                                             static_cast<std::size_t>(np));
            ks.volume[static_cast<std::size_t>(d)].execute(aj, fc, rc, 2.0 / grid_.dx(d));
            // Speed bound for the CFL frequency: |alpha| <= sum |a_l| sup|w_l|.
            double amax = 0.0;
            for (int l = 0; l < np; ++l)
              amax += std::abs(aj[static_cast<std::size_t>(l)]) *
                      ks.phaseSup[static_cast<std::size_t>(l)];
            freq += amax / grid_.dx(d);
          }
        }
        chunkFreq = std::max(chunkFreq, freq);
      };

      // Compiled volume update of the k.lanes cells idx[0..B) (one
      // configuration cell, so the acceleration workspace is lane-
      // invariant). At B = 1 the block of one lane is the cell's own
      // layout, so the kernels run straight on f, rhs and the alpha
      // scratch; wider blocks are packed into aligned scratch, and the
      // results scattered back. Volume is the first contribution to each
      // rhs cell (rhs was zeroed), so the scatter overwrites — exactly the
      // values the in-place B = 1 call accumulates.
      const auto kernelBlock = [&](const CompiledKernelSet& k, const MultiIndex* idx) {
        const int nb = k.lanes;
        const bool direct = nb == 1;
        const double* fb = f.at(idx[0]);
        double* ob = rhs.at(idx[0]);
        double* ab = em ? alphaField.at(idx[0]) : nullptr;
        if (!direct) {
          for (int b = 0; b < nb; ++b) {
            lanePtr[static_cast<std::size_t>(b)] = f.at(idx[b]);
            laneOut[static_cast<std::size_t>(b)] = rhs.at(idx[b]);
          }
          packLanes(nb, np, lanePtr.data(), fBlk.data());
          zeroLanes(nb, np, outBlk.data());
          fb = fBlk.data();
          ob = outBlk.data();
          ab = alphaBlk.data();
        }
        for (int d = 0; d < ndim; ++d)
          for (int b = 0; b < nb; ++b)
            wBlk[static_cast<std::size_t>(d * nb + b)] = grid_.cellCenter(d, idx[b][d]);
        k.streamVol(wBlk.data(), dxv_.data(), fb, ob);
        for (int b = 0; b < nb; ++b) {
          double freq = 0.0;
          for (int d = 0; d < cdim; ++d) {
            const int vd = cdim + d;
            freq += (std::abs(wBlk[static_cast<std::size_t>(vd * nb + b)]) + 0.5 * grid_.dx(vd)) /
                    grid_.dx(d);
          }
          laneFreq[static_cast<std::size_t>(b)] = freq;
        }
        if (em) {
          // Assemble the nb alpha expansions in block layout, then scatter
          // them to alphaField for the surface pass.
          buildAccelBatched(ks, grid_, qbym_, idx, nb, ws, ab);
          if (!direct) {
            for (int b = 0; b < nb; ++b)
              laneOutAlpha[static_cast<std::size_t>(b)] = alphaField.at(idx[b]);
            scatterLanes(nb, vdim * np, ab, laneOutAlpha.data());
          }
          k.accelVol(dxv_.data(), ab, fb, ob);
          // CFL speed bound per lane, in l order.
          for (int b = 0; b < nb; ++b) {
            for (int j = 0; j < vdim; ++j) {
              const int d = cdim + j;
              const double* aj = ab + static_cast<std::size_t>(j) * np * nb;
              double amax = 0.0;
              for (int l = 0; l < np; ++l)
                amax += std::abs(aj[l * nb + b]) * ks.phaseSup[static_cast<std::size_t>(l)];
              laneFreq[static_cast<std::size_t>(b)] += amax / grid_.dx(d);
            }
          }
        }
        if (!direct) scatterLanes(nb, np, ob, laneOut.data());
        for (int b = 0; b < nb; ++b)
          chunkFreq = std::max(chunkFreq, laneFreq[static_cast<std::size_t>(b)]);
      };

      if (!blk) {
        forEachIdx(vdim, velHi, [&](const MultiIndex& vidx) {
          MultiIndex idx = cidx;
          for (int j = 0; j < vdim; ++j) idx[cdim + j] = vidx[j];
          scalarCell(idx);
        });
        return;
      }
      int lane = 0;
      forEachIdx(vdim, velHi, [&](const MultiIndex& vidx) {
        MultiIndex& idx = laneIdx[static_cast<std::size_t>(lane++)];
        idx = cidx;
        for (int j = 0; j < vdim; ++j) idx[cdim + j] = vidx[j];
        if (lane == B) {
          kernelBlock(*blk, laneIdx.data());
          lane = 0;
        }
      });
      for (int b = 0; b < lane; ++b) kernelBlock(*one_, &laneIdx[static_cast<std::size_t>(b)]);
    });
    std::scoped_lock lock(freqMutex);
    maxFreq = std::max(maxFreq, chunkFreq);
  });

  return maxFreq;
}

void VlasovUpdater::advanceSurface(const Field& f, const Field* em, Field& rhs,
                                   const Field& alphaScratch) const {
  const VlasovKernelSet& ks = *ks_;
  const int np = ks.numPhaseModes;
  const int cdim = ks.cdim, ndim = ks.ndim;
  assert(f.ncomp() == np && rhs.ncomp() == np);
  const Field& alphaField = alphaScratch;

  const auto runChunked = [this](std::size_t n, const auto& fn) { chunkedFor(exec_, n, fn); };

  // --------------------------------------------------------------- surface
  // Parallel per direction over the transverse "lines" of faces: the faces
  // of one line (all face-normal positions i at a fixed transverse index)
  // touch only the cells of that line, so lines decompose race-free, and
  // each cell still receives its lower-face then upper-face lift in the
  // serial order — the threaded result stays bit-for-bit serial-identical.
  // With compiled kernels, B parallel lines are swept in lockstep (every
  // lane at the same face position i, so boundary handling is uniform
  // across the block); leftover lines are swept by the B = 1 set.
  const bool penalty = params_.flux == FluxType::Penalty;
  for (int d = 0; d < ndim; ++d) {
    const auto ds = static_cast<std::size_t>(d);
    const bool isConfDir = d < cdim;
    if (!em && !isConfDir) continue;  // no acceleration flux

    // Transverse box: all dims except d (hi[d] collapsed to one slot).
    int transHi[kMaxDim];
    int nt = 0;
    for (int i = 0; i < ndim; ++i)
      if (i != d) transHi[nt++] = grid_.cells[static_cast<std::size_t>(i)];

    // As in the volume pass: B = 1 throughout when there are fewer
    // transverse lines than one block's worth.
    const CompiledKernelSet* blk =
        (block_ && boxSize(nt, transHi) >= static_cast<std::size_t>(block_->lanes)) ? block_
                                                                                    : one_;
    runChunked(boxSize(nt, transHi), [&, d, ds, isConfDir, blk](std::size_t begin,
                                                                std::size_t end) {
      const FaceMap& fm = ks.faceMap[ds];
      const int nf = fm.numFaceModes;
      const double rdx2 = 2.0 / grid_.dx(d);

      std::vector<double> fL(static_cast<std::size_t>(nf)), fR(static_cast<std::size_t>(nf));
      std::vector<double> favg(static_cast<std::size_t>(nf)), fhat(static_cast<std::size_t>(nf));
      std::vector<double> aL(static_cast<std::size_t>(nf)), aR(static_cast<std::size_t>(nf));
      std::vector<double> scratch(static_cast<std::size_t>(np));  // discarded ghost-side output

      const int B = blk ? blk->lanes : 1;
      BatchBuffer faceBlkA, faceBlkB, outlBlk, outrBlk, alphaBlkA, alphaBlkB;
      if (B > 1) {
        faceBlkA.resize(static_cast<std::size_t>(np) * B);
        faceBlkB.resize(static_cast<std::size_t>(np) * B);
        outlBlk.resize(static_cast<std::size_t>(np) * B);
        outrBlk.resize(static_cast<std::size_t>(np) * B);
        if (!isConfDir) {
          alphaBlkA.resize(static_cast<std::size_t>(np) * B);
          alphaBlkB.resize(static_cast<std::size_t>(np) * B);
        }
      }
      double* const fBuf[2] = {faceBlkA.data(), faceBlkB.data()};
      double* const aBuf[2] = {alphaBlkA.data(), alphaBlkB.data()};
      std::array<double, kMaxDim * kMaxKernelLanes> wBlk{};
      std::array<MultiIndex, kMaxKernelLanes> lineIdx;
      std::array<const double*, kMaxKernelLanes> srcPtr{};
      std::array<const double*, kMaxKernelLanes> alphaPtr{};
      std::array<double*, kMaxKernelLanes> dstPtr{};

      // Tape-interpreted face sweep of one line. `fidx` has the line's
      // transverse components set; fidx[d] is scratch.
      const auto scalarLine = [&](MultiIndex fidx) {
        // Iterate the line's faces: positions i in [0, N_d] (the idx[d] face
        // is the lower face of cell idx). Velocity-space domain boundaries
        // use the zero-flux closure (skip).
        const int nd = grid_.cells[ds];
        for (int i = isConfDir ? 0 : 1, iEnd = isConfDir ? nd : nd - 1; i <= iEnd; ++i) {
          fidx[d] = i;
          MultiIndex lidx = fidx, ridx = fidx;
          lidx[d] = i - 1;
          const bool lInterior = i > 0;
          const bool rInterior = i < nd;

          fm.restrictTo(f.cell(lidx), fL, +1);
          fm.restrictTo(f.cell(ridx), fR, -1);

          double tau = 0.0;
          for (int k = 0; k < nf; ++k)
            fhat[static_cast<std::size_t>(k)] = 0.0;

          if (isConfDir) {
            // Streaming flux v_d: single-valued on the face.
            const int vd = cdim + d;
            const double wc = grid_.cellCenter(vd, fidx[vd]);
            const double hdv = 0.5 * grid_.dx(vd);
            for (int k = 0; k < nf; ++k)
              favg[static_cast<std::size_t>(k)] =
                  0.5 * (fL[static_cast<std::size_t>(k)] + fR[static_cast<std::size_t>(k)]);
            ks.streamFace0[ds].execute(favg, fhat, wc);
            ks.streamFace1[ds].execute(favg, fhat, hdv);
            if (penalty) tau = std::max(std::abs(wc - hdv), std::abs(wc + hdv));
          } else {
            // Acceleration flux: expansion may differ between the two cells
            // (basis projection is per cell), use the paper's Eq. 5 form.
            const int j = d - cdim;
            const int off = j * np;
            fm.restrictTo({alphaField.at(lidx) + off, static_cast<std::size_t>(np)}, aL, +1);
            fm.restrictTo({alphaField.at(ridx) + off, static_cast<std::size_t>(np)}, aR, -1);
            ks.faceProduct[ds].execute(aL, fL, fhat, 0.5);
            ks.faceProduct[ds].execute(aR, fR, fhat, 0.5);
            if (penalty) {
              const std::vector<double>& sup = ks.faceSup[ds];
              double bL = 0.0, bR = 0.0;
              for (int k = 0; k < nf; ++k) {
                bL += std::abs(aL[static_cast<std::size_t>(k)]) * sup[static_cast<std::size_t>(k)];
                bR += std::abs(aR[static_cast<std::size_t>(k)]) * sup[static_cast<std::size_t>(k)];
              }
              tau = std::max(bL, bR);
            }
          }
          if (penalty && tau > 0.0)
            for (int k = 0; k < nf; ++k)
              fhat[static_cast<std::size_t>(k)] -=
                  0.5 * tau *
                  (fR[static_cast<std::size_t>(k)] - fL[static_cast<std::size_t>(k)]);

          if (lInterior) fm.lift(fhat, rhs.cell(lidx), +1, -rdx2);
          if (rInterior) fm.lift(fhat, rhs.cell(ridx), -1, +rdx2);
        }
      };

      // Compiled face sweep of the k.lanes parallel lines lines[0..B).
      // Per-lane pointer cursors advance by one cell stride in d per face,
      // so the sweep does no per-face index arithmetic. At B = 1 the
      // kernels run straight on f, alpha and rhs (ghost-side output goes to
      // scratch). Wider blocks pack only the right side of each face (the
      // left block of face i+1 is the right block of face i) and
      // scatter-add the lifts in face order: a cell's lower-face lift
      // (outr of face i) lands before its upper-face lift (outl of face
      // i+1), the per-cell accumulation order of the B = 1 sweep.
      const auto kernelLines = [&](const CompiledKernelSet& k, const MultiIndex* lines) {
        const int nb = k.lanes;
        const bool direct = nb == 1;
        const int nd = grid_.cells[ds];
        const int iBegin = isConfDir ? 0 : 1;
        const int iEnd = isConfDir ? nd : nd - 1;
        const int j = isConfDir ? -1 : d - cdim;
        const int off = isConfDir ? 0 : j * np;

        if (isConfDir) {
          // Face-normal speed v_d per lane: a transverse (velocity)
          // coordinate of the line, constant along the whole sweep.
          const int vd = cdim + d;
          for (int b = 0; b < nb; ++b)
            wBlk[static_cast<std::size_t>(vd * nb + b)] = grid_.cellCenter(vd, lines[b][vd]);
        }

        // One-cell strides in d (uniform across lanes) and per-lane
        // cursors: srcPtr/alphaPtr at position i (advanced at the top of
        // each face step), dstPtr at position i - 1 (the outl destination).
        std::ptrdiff_t fStep, rStep, aStep = 0;
        {
          MultiIndex p0 = lines[0], p1 = lines[0];
          p0[d] = iBegin - 1;
          p1[d] = iBegin;
          fStep = f.at(p1) - f.at(p0);
          rStep = rhs.at(p1) - rhs.at(p0);
          if (!isConfDir) aStep = alphaField.at(p1) - alphaField.at(p0);
        }
        for (int b = 0; b < nb; ++b) {
          MultiIndex li = lines[b];
          li[d] = iBegin - 1;
          srcPtr[static_cast<std::size_t>(b)] = f.at(li);
          dstPtr[static_cast<std::size_t>(b)] = rhs.at(li);
          if (!isConfDir) alphaPtr[static_cast<std::size_t>(b)] = alphaField.at(li) + off;
        }
        const double* fl = srcPtr[0];
        const double* al = alphaPtr[0];
        if (!direct) {
          packLanes(nb, np, srcPtr.data(), fBuf[0]);
          fl = fBuf[0];
          if (!isConfDir) {
            packLanes(nb, np, alphaPtr.data(), aBuf[0]);
            al = aBuf[0];
          }
        }
        int spare = 1;  // block buffer the next right side is packed into

        for (int i = iBegin; i <= iEnd; ++i) {
          for (int b = 0; b < nb; ++b) srcPtr[static_cast<std::size_t>(b)] += fStep;
          if (!isConfDir)
            for (int b = 0; b < nb; ++b) alphaPtr[static_cast<std::size_t>(b)] += aStep;
          const double* fr = srcPtr[0];
          const double* ar = alphaPtr[0];
          double* outl = i > 0 ? dstPtr[0] : scratch.data();
          double* outr = i < nd ? dstPtr[0] + rStep : scratch.data();
          if (!direct) {
            packLanes(nb, np, srcPtr.data(), fBuf[spare]);
            fr = fBuf[spare];
            if (!isConfDir) {
              packLanes(nb, np, alphaPtr.data(), aBuf[spare]);
              ar = aBuf[spare];
            }
            spare ^= 1;
            outl = outlBlk.data();
            outr = outrBlk.data();
            zeroLanes(nb, np, outl);
            zeroLanes(nb, np, outr);
          }
          if (isConfDir)
            k.streamSurf[d](wBlk.data(), dxv_.data(), fl, fr, outl, outr);
          else
            k.accelSurf[j](dxv_.data(), al, ar, fl, fr, outl, outr);
          // Ghost-side outputs are dropped.
          if (!direct && i > 0) scatterAddLanes(nb, np, outl, dstPtr.data());
          for (int b = 0; b < nb; ++b) dstPtr[static_cast<std::size_t>(b)] += rStep;
          if (!direct && i < nd) scatterAddLanes(nb, np, outr, dstPtr.data());
          fl = fr;
          al = ar;
        }
      };

      // The line of transverse index tidx (fidx[d] = 0).
      const auto lineOf = [&](const MultiIndex& tidx) {
        MultiIndex fidx;
        int jt = 0;
        for (int i = 0; i < ndim; ++i)
          if (i != d) fidx[i] = tidx[jt++];
        return fidx;
      };
      if (!blk) {
        forEachIndexInRange(nt, transHi, begin, end,
                            [&](const MultiIndex& tidx) { scalarLine(lineOf(tidx)); });
        return;
      }
      int lane = 0;
      forEachIndexInRange(nt, transHi, begin, end, [&](const MultiIndex& tidx) {
        lineIdx[static_cast<std::size_t>(lane++)] = lineOf(tidx);
        if (lane == B) {
          kernelLines(*blk, lineIdx.data());
          lane = 0;
        }
      });
      for (int b = 0; b < lane; ++b) kernelLines(*one_, &lineIdx[static_cast<std::size_t>(b)]);
    });
  }
}

void VlasovUpdater::volumeTerm(std::span<const double> f, std::span<const double> alpha,
                               const MultiIndex& cellIdx, std::span<double> out) const {
  const VlasovKernelSet& ks = *ks_;
  const int np = ks.numPhaseModes;
  const int cdim = ks.cdim, vdim = ks.vdim;
  for (double& v : out) v = 0.0;
  for (int d = 0; d < cdim; ++d) {
    const int vd = cdim + d;
    const double wc = grid_.cellCenter(vd, cellIdx[vd]);
    const double hdv = 0.5 * grid_.dx(vd);
    const double rdx2 = 2.0 / grid_.dx(d);
    ks.streamVol0[static_cast<std::size_t>(d)].execute(f, out, rdx2 * wc);
    ks.streamVol1[static_cast<std::size_t>(d)].execute(f, out, rdx2 * hdv);
  }
  if (!alpha.empty()) {
    for (int j = 0; j < vdim; ++j) {
      const int d = cdim + j;
      const std::span<const double> aj(alpha.data() + static_cast<std::size_t>(j) * np,
                                       static_cast<std::size_t>(np));
      ks.volume[static_cast<std::size_t>(d)].execute(aj, f, out, 2.0 / grid_.dx(d));
    }
  }
}

}  // namespace vdg
