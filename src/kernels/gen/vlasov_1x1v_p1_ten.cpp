// ============================================================================
// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Exact (alias-free) modal DG Vlasov and LBO-diffusion kernels for the
// 1x1v_p1_ten basis, rendered from the symbolically integrated sparse
// tensors with all constants folded to double precision (the paper's
// Maxima-CAS workflow).
// Each kernel updates an AoSoA block of B cells (mode-major, lane-minor:
// element i of lane b at [i*B+b]) in an inner lane loop the compiler
// autovectorizes; at B = 1 the block is one cell in its plain layout. The
// kernels are instantiated for B in {1,4,8}, and per lane the FP operation
// order does not depend on B (tests/test_batch.cpp). This translation unit
// is compiled with the VDG_KERNEL_SIMD flags (wider ISA + -ffp-contract=off).
// Regenerate with: gen_kernels <output-dir>
// ============================================================================
// clang-format off
#include <cmath>

#include "kernels/registry.hpp"

namespace vdg::gen_1x1v_p1_ten {
namespace {

// Volume streaming kernel (exact DG volume integral of div_x (v f)),
// auto-generated for the 1x1v_p1_ten basis (4 DOF/cell).
// Inputs: cell centers w, cell size dxv, distribution coefficients f;
// out is incremented with the forward-Euler volume contribution.
template <int B>
void vlasov_1x1v_p1_ten_stream_vol(const double* __restrict w, const double* __restrict dxv, const double* __restrict f, double* __restrict out) {
  const double rdx2_0 = 2.0/dxv[0];
  const double hdv_0 = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv_0 = w[1*B+b];
    out[1*B+b] += rdx2_0*((1.7320508075688785*wv_0)*f[0*B+b] + (1.0000000000000004*hdv_0)*f[2*B+b]);
    out[3*B+b] += rdx2_0*((1.0000000000000004*hdv_0)*f[0*B+b] + (1.7320508075688779*wv_0)*f[2*B+b]);
  }
}

// Volume acceleration kernel (exact DG volume integral of div_v (alpha f));
// alpha is the per-cell phase-space flux expansion, vdim x 4 coefficients.
template <int B>
void vlasov_1x1v_p1_ten_accel_vol(const double* __restrict dxv, const double* __restrict alpha, const double* __restrict f, double* __restrict out) {
  const double rdv2_0 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    out[2*B+b] += rdv2_0*(0.86602540378443926*alpha[0*B+b]*f[0*B+b] + 0.86602540378443893*alpha[1*B+b]*f[1*B+b] + 0.86602540378443893*alpha[2*B+b]*f[2*B+b] + 0.8660254037844386*alpha[3*B+b]*f[3*B+b]);
    out[3*B+b] += rdv2_0*(0.86602540378443893*alpha[0*B+b]*f[1*B+b] + 0.86602540378443893*alpha[1*B+b]*f[0*B+b] + 0.8660254037844386*alpha[2*B+b]*f[3*B+b] + 0.8660254037844386*alpha[3*B+b]*f[2*B+b]);
  }
}

// Surface streaming kernel, configuration direction 0:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
template <int B>
void vlasov_1x1v_p1_ten_stream_surf0(const double* __restrict w, const double* __restrict dxv, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[0];
  const double hdv = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv = w[1*B+b];
    const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[1*B+b];
    const double fL1 = 0.70710678118654757*fl[2*B+b] + 1.2247448713915889*fl[3*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[1*B+b];
    const double fR1 = 0.70710678118654757*fr[2*B+b] - 1.2247448713915889*fr[3*B+b];
    const double favg0 = 0.5*(fL0 + fR0);
    const double favg1 = 0.5*(fL1 + fR1);
    const double fhat0 = wv*(1.0000000000000004*favg0) + hdv*(0.57735026918962584*favg1) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = wv*(1.0000000000000002*favg1) + hdv*(0.57735026918962584*favg0) - 0.5*tau*(fR1 - fL1);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[1*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[3*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[3*B+b] += rdx2*-1.2247448713915889*fhat1;
  }
}

// Surface acceleration kernel, velocity direction 0:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_1x1v_p1_ten_accel_surf0(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[2*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b] + 1.2247448713915889*fl[3*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[2*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b] - 1.2247448713915889*fr[3*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[2*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b] + 1.2247448713915889*al[3*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[2*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b] - 1.2247448713915889*ar[3*B+b];
    const double tau = std::fmax(0.0 + 0.70710678118654757*std::fabs(aL0) + 1.2247448713915889*std::fabs(aL1), 0.0 + 0.70710678118654757*std::fabs(aR0) + 1.2247448713915889*std::fabs(aR1));
    const double fhat0 = 0.5*(0.70710678118654779*(aL0*fL0 + aR0*fR0) + 0.70710678118654757*(aL1*fL1 + aR1*fR1)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.70710678118654757*(aL0*fL1 + aR0*fR1) + 0.70710678118654757*(aL1*fL0 + aR1*fR0)) - 0.5*tau*(fR1 - fL1);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[2*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[3*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[3*B+b] += rdx2*-1.2247448713915889*fhat1;
  }
}

// LBO diffusion volume kernel: exact DG volume integral of the twice
// integrated-by-parts diffusion term, sum_j (2/dv_j)^2 int d2w_l/deta_j^2 D f,
// with D = vtSq the configuration-space vth^2 expansion (2 coefficients).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x1v_p1_ten_lbo_diff_vol(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  (void)dxv; (void)vtSq; (void)f; (void)out;
}

// LBO diffusion surface kernel, velocity direction 0: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x1v_p1_ten_lbo_diff_surf0(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.0000000000000002*vtSq[0];
  const double dF1 = 1.0000000000000002*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327373*fl[0*B+b] + 0.35355339059327356*fr[0*B+b] + 0.40824829046386302*fl[2*B+b] - 0.40824829046386268*fr[2*B+b];
    const double rd0 = -1.5909902576697319*fl[0*B+b] + 1.5909902576697319*fr[0*B+b] - 1.5309310892394858*fl[2*B+b] - 1.5309310892394858*fr[2*B+b];
    const double rv1 = 0.35355339059327373*fl[1*B+b] + 0.35355339059327356*fr[1*B+b] + 0.40824829046386302*fl[3*B+b] - 0.40824829046386268*fr[3*B+b];
    const double rd1 = -1.5909902576697319*fl[1*B+b] + 1.5909902576697319*fr[1*B+b] - 1.5309310892394858*fl[3*B+b] - 1.5309310892394858*fr[3*B+b];
    const double pD0 = 0.70710678118654779*dF0*rd0 + 0.70710678118654757*dF1*rd1;
    const double pD1 = 0.70710678118654757*dF0*rd1 + 0.70710678118654757*dF1*rd0;
    const double pV0 = 0.70710678118654779*dF0*rv0 + 0.70710678118654757*dF1*rv1;
    const double pV1 = 0.70710678118654757*dF0*rv1 + 0.70710678118654757*dF1*rv0;
    outl[0*B+b] += s2*(0.35355339059327379*pD0);
    outr[0*B+b] += s2*(-0.35355339059327379*pD0);
    outl[1*B+b] += s2*(0.35355339059327379*pD1);
    outr[1*B+b] += s2*(-0.35355339059327379*pD1);
    outl[2*B+b] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
    outr[2*B+b] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
    outl[3*B+b] += s2*(0.61237243569579447*pD1 - 1.2247448713915889*pV1);
    outr[3*B+b] += s2*(0.61237243569579447*pD1 + 1.2247448713915889*pV1);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x1v_p1_ten_lbo_diff_bnd0_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.0000000000000002*vtSq[0];
  const double dF1 = 1.0000000000000002*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[2*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] - 1.2247448713915889*f[3*B+b];
    const double pV0 = 0.70710678118654779*dF0*tr0 + 0.70710678118654757*dF1*tr1;
    const double pV1 = 0.70710678118654757*dF0*tr1 + 0.70710678118654757*dF1*tr0;
    out[2*B+b] += s2*(1.2247448713915889*pV0);
    out[3*B+b] += s2*(1.2247448713915889*pV1);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x1v_p1_ten_lbo_diff_bnd0_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.0000000000000002*vtSq[0];
  const double dF1 = 1.0000000000000002*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[2*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] + 1.2247448713915889*f[3*B+b];
    const double pV0 = 0.70710678118654779*dF0*tr0 + 0.70710678118654757*dF1*tr1;
    const double pV1 = 0.70710678118654757*dF0*tr1 + 0.70710678118654757*dF1*tr0;
    out[2*B+b] += s2*(-1.2247448713915889*pV0);
    out[3*B+b] += s2*(-1.2247448713915889*pV1);
  }
}

template <int B>
CompiledKernelSet kernelSet() {
  CompiledKernelSet k;
  k.lanes = B;
  k.streamVol = vlasov_1x1v_p1_ten_stream_vol<B>;
  k.accelVol = vlasov_1x1v_p1_ten_accel_vol<B>;
  k.streamSurf[0] = vlasov_1x1v_p1_ten_stream_surf0<B>;
  k.accelSurf[0] = vlasov_1x1v_p1_ten_accel_surf0<B>;
  k.lbo.diffVol = vlasov_1x1v_p1_ten_lbo_diff_vol<B>;
  k.lbo.diffSurf[0] = vlasov_1x1v_p1_ten_lbo_diff_surf0<B>;
  k.lbo.diffBound[0][0] = vlasov_1x1v_p1_ten_lbo_diff_bnd0_lo<B>;
  k.lbo.diffBound[0][1] = vlasov_1x1v_p1_ten_lbo_diff_bnd0_up<B>;
  return k;
}

}  // namespace

__attribute__((cold)) void registerKernels() {
  CompiledKernels k;
  k.numPhaseModes = 4;
  k.sets[0] = kernelSet<1>();
  k.sets[1] = kernelSet<4>();
  k.sets[2] = kernelSet<8>();
  registerCompiledKernels("1x1v_p1_ten", k);
}

}  // namespace vdg::gen_1x1v_p1_ten
