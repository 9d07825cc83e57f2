#include "dg/batch.hpp"

namespace vdg {

// Every entry point dispatches the lane count to a compile-time template
// instantiation for the block lane counts (4, 8) so the inner lane loops
// have constant trip counts the compiler fully vectorizes; other counts
// take the runtime-B fallback. buildAccelBatched also instantiates B = 1,
// which the updaters call on the alpha scratch in place.

namespace {

template <int B>
void packImpl(int n, const double* const* __restrict src, double* __restrict dst) {
  for (int i = 0; i < n; ++i)
    for (int b = 0; b < B; ++b) dst[i * B + b] = src[b][i];
}

template <int B>
void scatterImpl(int n, const double* __restrict src, double* const* __restrict dst) {
  for (int b = 0; b < B; ++b) {
    double* __restrict d = dst[b];
    for (int i = 0; i < n; ++i) d[i] = src[i * B + b];
  }
}

template <int B>
void scatterAddImpl(int n, const double* __restrict src, double* const* __restrict dst) {
  for (int b = 0; b < B; ++b) {
    double* __restrict d = dst[b];
    for (int i = 0; i < n; ++i) d[i] += src[i * B + b];
  }
}

/// Levi-Civita symbol on {0,1,2} (mirrors the helper in
/// tensors/vlasov_tensors.cpp — the two must agree for bitwise identity
/// of buildAccelBatched vs buildAccel).
constexpr int levi3(int i, int j, int k) {
  if (i == j || j == k || i == k) return 0;
  return ((j - i + 3) % 3 == 1) ? 1 : -1;
}

template <int B>
void buildAccelImpl(const VlasovKernelSet& ks, const Grid& grid, double qbym,
                    const MultiIndex* laneIdx, const AccelWorkspace& ws,
                    double* __restrict alphaBlk) {
  const int np = ks.numPhaseModes;
  const int cdim = ks.cdim, vdim = ks.vdim;
  double wc[B];
  for (int j = 0; j < vdim; ++j) {
    double* __restrict aj = alphaBlk + static_cast<std::size_t>(j) * np * B;
    const double* __restrict ej = ws.embE.data() + static_cast<std::size_t>(j) * np;
    for (int l = 0; l < np; ++l)
      for (int b = 0; b < B; ++b) aj[l * B + b] = ej[l];
    for (int k = 0; k < vdim; ++k) {
      const int vk = cdim + k;
      for (int b = 0; b < B; ++b) wc[b] = grid.cellCenter(vk, laneIdx[b][vk]);
      const double hdv = 0.5 * grid.dx(vk);
      for (int bc = 0; bc < 3; ++bc) {
        const int s = levi3(j, k, bc);
        if (s == 0) continue;
        const double* __restrict bb = ws.embB.data() + static_cast<std::size_t>(bc) * np;
        const double* __restrict mb =
            ws.mulB.data() + (static_cast<std::size_t>(k) * 3 + static_cast<std::size_t>(bc)) * np;
        // Exactly buildAccel's update per lane: aj += s * (wc*bb + hdv*mb).
        for (int l = 0; l < np; ++l)
          for (int b = 0; b < B; ++b) aj[l * B + b] += s * (wc[b] * bb[l] + hdv * mb[l]);
      }
    }
    const std::size_t total = static_cast<std::size_t>(np) * B;
    for (std::size_t i = 0; i < total; ++i) aj[i] *= qbym;
  }
}

}  // namespace

void packLanes(int B, int n, const double* const* src, double* dst) {
  switch (B) {
    case 4: packImpl<4>(n, src, dst); return;
    case 8: packImpl<8>(n, src, dst); return;
    default:
      for (int i = 0; i < n; ++i)
        for (int b = 0; b < B; ++b) dst[i * B + b] = src[b][i];
  }
}

void zeroLanes(int B, int n, double* dst) {
  const std::size_t total = static_cast<std::size_t>(B) * static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < total; ++i) dst[i] = 0.0;
}

void scatterLanes(int B, int n, const double* src, double* const* dst) {
  switch (B) {
    case 4: scatterImpl<4>(n, src, dst); return;
    case 8: scatterImpl<8>(n, src, dst); return;
    default:
      for (int b = 0; b < B; ++b)
        for (int i = 0; i < n; ++i) dst[b][i] = src[i * B + b];
  }
}

void scatterAddLanes(int B, int n, const double* src, double* const* dst) {
  switch (B) {
    case 4: scatterAddImpl<4>(n, src, dst); return;
    case 8: scatterAddImpl<8>(n, src, dst); return;
    default:
      for (int b = 0; b < B; ++b)
        for (int i = 0; i < n; ++i) dst[b][i] += src[i * B + b];
  }
}

void buildAccelBatched(const VlasovKernelSet& ks, const Grid& grid, double qbym,
                       const MultiIndex* laneIdx, int B, const AccelWorkspace& ws,
                       double* alphaBlk) {
  switch (B) {
    case 1: buildAccelImpl<1>(ks, grid, qbym, laneIdx, ws, alphaBlk); return;
    case 4: buildAccelImpl<4>(ks, grid, qbym, laneIdx, ws, alphaBlk); return;
    case 8: buildAccelImpl<8>(ks, grid, qbym, laneIdx, ws, alphaBlk); return;
    default:
      // Runtime-B fallback: same arithmetic, lane loop not unrolled.
      for (int b = 0; b < B; ++b) {
        std::vector<double> alpha(static_cast<std::size_t>(ks.vdim) * ks.numPhaseModes);
        buildAccel(ks, grid, qbym, laneIdx[b], ws, alpha);
        for (std::size_t i = 0; i < alpha.size(); ++i)
          alphaBlk[i * static_cast<std::size_t>(B) + static_cast<std::size_t>(b)] = alpha[i];
      }
  }
}

}  // namespace vdg
