// ============================================================================
// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Exact (alias-free) modal DG Vlasov and LBO-diffusion kernels for the
// 1x1v_p2_ser basis, rendered from the symbolically integrated sparse
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

namespace vdg::gen_1x1v_p2_ser {
namespace {

// Volume streaming kernel (exact DG volume integral of div_x (v f)),
// auto-generated for the 1x1v_p2_ser basis (8 DOF/cell).
// Inputs: cell centers w, cell size dxv, distribution coefficients f;
// out is incremented with the forward-Euler volume contribution.
template <int B>
void vlasov_1x1v_p2_ser_stream_vol(const double* __restrict w, const double* __restrict dxv, const double* __restrict f, double* __restrict out) {
  const double rdx2_0 = 2.0/dxv[0];
  const double hdv_0 = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv_0 = w[1*B+b];
    out[1*B+b] += rdx2_0*((1.7320508075688785*wv_0)*f[0*B+b] + (1.0000000000000004*hdv_0)*f[2*B+b]);
    out[3*B+b] += rdx2_0*((3.8729833462074179*wv_0)*f[1*B+b] + (2.2360679774997898*hdv_0)*f[4*B+b]);
    out[4*B+b] += rdx2_0*((1.0000000000000004*hdv_0)*f[0*B+b] + (1.7320508075688779*wv_0)*f[2*B+b] + (0.89442719099991685*hdv_0)*f[5*B+b]);
    out[6*B+b] += rdx2_0*((2.2360679774997898*hdv_0)*f[1*B+b] + (3.8729833462074166*wv_0)*f[4*B+b] + (2.0000000000000013*hdv_0)*f[7*B+b]);
    out[7*B+b] += rdx2_0*((0.89442719099991685*hdv_0)*f[2*B+b] + (1.7320508075688792*wv_0)*f[5*B+b]);
  }
}

// Volume acceleration kernel (exact DG volume integral of div_v (alpha f));
// alpha is the per-cell phase-space flux expansion, vdim x 8 coefficients.
template <int B>
void vlasov_1x1v_p2_ser_accel_vol(const double* __restrict dxv, const double* __restrict alpha, const double* __restrict f, double* __restrict out) {
  const double rdv2_0 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    out[2*B+b] += rdv2_0*(0.86602540378443926*alpha[0*B+b]*f[0*B+b] + 0.86602540378443893*alpha[1*B+b]*f[1*B+b] + 0.86602540378443893*alpha[2*B+b]*f[2*B+b] + 0.86602540378443971*alpha[3*B+b]*f[3*B+b] + 0.8660254037844386*alpha[4*B+b]*f[4*B+b] + 0.86602540378443971*alpha[5*B+b]*f[5*B+b] + 0.86602540378443948*alpha[6*B+b]*f[6*B+b] + 0.86602540378443937*alpha[7*B+b]*f[7*B+b]);
    out[4*B+b] += rdv2_0*(0.86602540378443893*alpha[0*B+b]*f[1*B+b] + 0.86602540378443893*alpha[1*B+b]*f[0*B+b] + 0.77459666924148407*alpha[1*B+b]*f[3*B+b] + 0.8660254037844386*alpha[2*B+b]*f[4*B+b] + 0.77459666924148407*alpha[3*B+b]*f[1*B+b] + 0.8660254037844386*alpha[4*B+b]*f[2*B+b] + 0.77459666924148374*alpha[4*B+b]*f[6*B+b] + 0.86602540378443937*alpha[5*B+b]*f[7*B+b] + 0.77459666924148374*alpha[6*B+b]*f[4*B+b] + 0.86602540378443937*alpha[7*B+b]*f[5*B+b]);
    out[5*B+b] += rdv2_0*(1.936491673103709*alpha[0*B+b]*f[2*B+b] + 1.9364916731037083*alpha[1*B+b]*f[4*B+b] + 1.936491673103709*alpha[2*B+b]*f[0*B+b] + 1.7320508075688785*alpha[2*B+b]*f[5*B+b] + 1.9364916731037101*alpha[3*B+b]*f[6*B+b] + 1.9364916731037083*alpha[4*B+b]*f[1*B+b] + 1.7320508075688779*alpha[4*B+b]*f[7*B+b] + 1.7320508075688785*alpha[5*B+b]*f[2*B+b] + 1.9364916731037101*alpha[6*B+b]*f[3*B+b] + 1.7320508075688779*alpha[7*B+b]*f[4*B+b]);
    out[6*B+b] += rdv2_0*(0.8660254037844396*alpha[0*B+b]*f[3*B+b] + 0.77459666924148407*alpha[1*B+b]*f[1*B+b] + 0.86602540378443926*alpha[2*B+b]*f[6*B+b] + 0.8660254037844396*alpha[3*B+b]*f[0*B+b] + 0.55328333517248951*alpha[3*B+b]*f[3*B+b] + 0.77459666924148374*alpha[4*B+b]*f[4*B+b] + 0.86602540378443926*alpha[6*B+b]*f[2*B+b] + 0.55328333517248929*alpha[6*B+b]*f[6*B+b] + 0.7745966692414844*alpha[7*B+b]*f[7*B+b]);
    out[7*B+b] += rdv2_0*(1.9364916731037083*alpha[0*B+b]*f[4*B+b] + 1.9364916731037083*alpha[1*B+b]*f[2*B+b] + 1.7320508075688781*alpha[1*B+b]*f[6*B+b] + 1.9364916731037083*alpha[2*B+b]*f[1*B+b] + 1.7320508075688779*alpha[2*B+b]*f[7*B+b] + 1.7320508075688781*alpha[3*B+b]*f[4*B+b] + 1.9364916731037083*alpha[4*B+b]*f[0*B+b] + 1.7320508075688781*alpha[4*B+b]*f[3*B+b] + 1.7320508075688779*alpha[4*B+b]*f[5*B+b] + 1.7320508075688779*alpha[5*B+b]*f[4*B+b] + 1.7320508075688781*alpha[6*B+b]*f[1*B+b] + 1.5491933384829681*alpha[6*B+b]*f[7*B+b] + 1.7320508075688779*alpha[7*B+b]*f[2*B+b] + 1.5491933384829681*alpha[7*B+b]*f[6*B+b]);
  }
}

// Surface streaming kernel, configuration direction 0:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
template <int B>
void vlasov_1x1v_p2_ser_stream_surf0(const double* __restrict w, const double* __restrict dxv, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[0];
  const double hdv = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv = w[1*B+b];
    const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[1*B+b] + 1.5811388300841898*fl[3*B+b];
    const double fL1 = 0.70710678118654757*fl[2*B+b] + 1.2247448713915889*fl[4*B+b] + 1.5811388300841898*fl[6*B+b];
    const double fL2 = 0.70710678118654757*fl[5*B+b] + 1.2247448713915889*fl[7*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[1*B+b] + 1.5811388300841898*fr[3*B+b];
    const double fR1 = 0.70710678118654757*fr[2*B+b] - 1.2247448713915889*fr[4*B+b] + 1.5811388300841898*fr[6*B+b];
    const double fR2 = 0.70710678118654757*fr[5*B+b] - 1.2247448713915889*fr[7*B+b];
    const double favg0 = 0.5*(fL0 + fR0);
    const double favg1 = 0.5*(fL1 + fR1);
    const double favg2 = 0.5*(fL2 + fR2);
    const double fhat0 = wv*(1.0000000000000004*favg0) + hdv*(0.57735026918962584*favg1) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = wv*(1.0000000000000002*favg1) + hdv*(0.57735026918962584*favg0 + 0.51639777949432253*favg2) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = wv*(1.0000000000000009*favg2) + hdv*(0.51639777949432253*favg1) - 0.5*tau*(fR2 - fL2);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[1*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[3*B+b] -= rdx2*1.5811388300841898*fhat0;
    outr[3*B+b] += rdx2*1.5811388300841898*fhat0;
    outl[4*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[4*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[6*B+b] -= rdx2*1.5811388300841898*fhat1;
    outr[6*B+b] += rdx2*1.5811388300841898*fhat1;
    outl[7*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[7*B+b] += rdx2*-1.2247448713915889*fhat2;
  }
}

// Surface acceleration kernel, velocity direction 0:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_1x1v_p2_ser_accel_surf0(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[2*B+b] + 1.5811388300841898*fl[5*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b] + 1.2247448713915889*fl[4*B+b] + 1.5811388300841898*fl[7*B+b];
    const double fL2 = 0.70710678118654757*fl[3*B+b] + 1.2247448713915889*fl[6*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[2*B+b] + 1.5811388300841898*fr[5*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b] - 1.2247448713915889*fr[4*B+b] + 1.5811388300841898*fr[7*B+b];
    const double fR2 = 0.70710678118654757*fr[3*B+b] - 1.2247448713915889*fr[6*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[2*B+b] + 1.5811388300841898*al[5*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b] + 1.2247448713915889*al[4*B+b] + 1.5811388300841898*al[7*B+b];
    const double aL2 = 0.70710678118654757*al[3*B+b] + 1.2247448713915889*al[6*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[2*B+b] + 1.5811388300841898*ar[5*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b] - 1.2247448713915889*ar[4*B+b] + 1.5811388300841898*ar[7*B+b];
    const double aR2 = 0.70710678118654757*ar[3*B+b] - 1.2247448713915889*ar[6*B+b];
    const double tau = std::fmax(0.0 + 0.70710678118654757*std::fabs(aL0) + 1.2247448713915889*std::fabs(aL1) + 1.5811388300841898*std::fabs(aL2), 0.0 + 0.70710678118654757*std::fabs(aR0) + 1.2247448713915889*std::fabs(aR1) + 1.5811388300841898*std::fabs(aR2));
    const double fhat0 = 0.5*(0.70710678118654779*(aL0*fL0 + aR0*fR0) + 0.70710678118654757*(aL1*fL1 + aR1*fR1) + 0.70710678118654824*(aL2*fL2 + aR2*fR2)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.70710678118654757*(aL0*fL1 + aR0*fR1) + 0.70710678118654757*(aL1*fL0 + aR1*fR0) + 0.63245553203367622*(aL1*fL2 + aR1*fR2) + 0.63245553203367622*(aL2*fL1 + aR2*fR1)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.70710678118654813*(aL0*fL2 + aR0*fR2) + 0.63245553203367622*(aL1*fL1 + aR1*fR1) + 0.70710678118654813*(aL2*fL0 + aR2*fR0) + 0.45175395145262659*(aL2*fL2 + aR2*fR2)) - 0.5*tau*(fR2 - fL2);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[2*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[4*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[4*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[5*B+b] -= rdx2*1.5811388300841898*fhat0;
    outr[5*B+b] += rdx2*1.5811388300841898*fhat0;
    outl[6*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[6*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[7*B+b] -= rdx2*1.5811388300841898*fhat1;
    outr[7*B+b] += rdx2*1.5811388300841898*fhat1;
  }
}

// LBO diffusion volume kernel: exact DG volume integral of the twice
// integrated-by-parts diffusion term, sum_j (2/dv_j)^2 int d2w_l/deta_j^2 D f,
// with D = vtSq the configuration-space vth^2 expansion (3 coefficients).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x1v_p2_ser_lbo_diff_vol(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdv2_0 = 2.0/dxv[1];
  const double s2_0 = rdv2_0*rdv2_0;
  for (int b = 0; b < B; ++b) {
    out[5*B+b] += s2_0*((4.7434164902525744*vtSq[0])*f[0*B+b] + (4.7434164902525735*vtSq[1])*f[1*B+b] + (4.7434164902525779*vtSq[2])*f[3*B+b]);
    out[7*B+b] += s2_0*((4.7434164902525735*vtSq[1])*f[0*B+b] + (4.7434164902525735*vtSq[0] + 4.242640687119291*vtSq[2])*f[1*B+b] + (4.242640687119291*vtSq[1])*f[3*B+b]);
  }
}

// LBO diffusion surface kernel, velocity direction 0: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x1v_p2_ser_lbo_diff_surf0(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.0000000000000002*vtSq[0];
  const double dF1 = 1.0000000000000002*vtSq[1];
  const double dF2 = 1.0000000000000002*vtSq[2];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327356*fl[0*B+b] + 0.35355339059327295*fr[0*B+b] + 0.49755260400283352*fl[2*B+b] - 0.49755260400283163*fr[2*B+b] + 0.3458741190809167*fl[5*B+b] + 0.34587411908091609*fr[5*B+b];
    const double rd0 = -2.651650429449556*fl[0*B+b] + 2.651650429449556*fr[0*B+b] - 3.3680483963268748*fl[2*B+b] - 3.3680483963268757*fr[2*B+b] - 1.8973665961010318*fl[5*B+b] + 1.8973665961010329*fr[5*B+b];
    const double rv1 = 0.35355339059327356*fl[1*B+b] + 0.35355339059327295*fr[1*B+b] + 0.49755260400283352*fl[4*B+b] - 0.49755260400283163*fr[4*B+b] + 0.3458741190809167*fl[7*B+b] + 0.34587411908091609*fr[7*B+b];
    const double rd1 = -2.651650429449556*fl[1*B+b] + 2.651650429449556*fr[1*B+b] - 3.3680483963268748*fl[4*B+b] - 3.3680483963268757*fr[4*B+b] - 1.8973665961010318*fl[7*B+b] + 1.8973665961010329*fr[7*B+b];
    const double rv2 = 0.35355339059327356*fl[3*B+b] + 0.35355339059327295*fr[3*B+b] + 0.49755260400283352*fl[6*B+b] - 0.49755260400283163*fr[6*B+b];
    const double rd2 = -2.651650429449556*fl[3*B+b] + 2.651650429449556*fr[3*B+b] - 3.3680483963268748*fl[6*B+b] - 3.3680483963268757*fr[6*B+b];
    const double pD0 = 0.70710678118654779*dF0*rd0 + 0.70710678118654757*dF1*rd1 + 0.70710678118654824*dF2*rd2;
    const double pD1 = 0.70710678118654757*dF0*rd1 + 0.70710678118654757*dF1*rd0 + 0.63245553203367622*dF1*rd2 + 0.63245553203367622*dF2*rd1;
    const double pD2 = 0.70710678118654813*dF0*rd2 + 0.63245553203367622*dF1*rd1 + 0.70710678118654813*dF2*rd0 + 0.45175395145262659*dF2*rd2;
    const double pV0 = 0.70710678118654779*dF0*rv0 + 0.70710678118654757*dF1*rv1 + 0.70710678118654824*dF2*rv2;
    const double pV1 = 0.70710678118654757*dF0*rv1 + 0.70710678118654757*dF1*rv0 + 0.63245553203367622*dF1*rv2 + 0.63245553203367622*dF2*rv1;
    const double pV2 = 0.70710678118654813*dF0*rv2 + 0.63245553203367622*dF1*rv1 + 0.70710678118654813*dF2*rv0 + 0.45175395145262659*dF2*rv2;
    outl[0*B+b] += s2*(0.35355339059327379*pD0);
    outr[0*B+b] += s2*(-0.35355339059327379*pD0);
    outl[1*B+b] += s2*(0.35355339059327379*pD1);
    outr[1*B+b] += s2*(-0.35355339059327379*pD1);
    outl[2*B+b] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
    outr[2*B+b] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
    outl[3*B+b] += s2*(0.35355339059327379*pD2);
    outr[3*B+b] += s2*(-0.35355339059327379*pD2);
    outl[4*B+b] += s2*(0.61237243569579447*pD1 - 1.2247448713915889*pV1);
    outr[4*B+b] += s2*(0.61237243569579447*pD1 + 1.2247448713915889*pV1);
    outl[5*B+b] += s2*(0.79056941504209488*pD0 - 4.7434164902525691*pV0);
    outr[5*B+b] += s2*(-0.79056941504209488*pD0 - 4.7434164902525691*pV0);
    outl[6*B+b] += s2*(0.61237243569579447*pD2 - 1.2247448713915889*pV2);
    outr[6*B+b] += s2*(0.61237243569579447*pD2 + 1.2247448713915889*pV2);
    outl[7*B+b] += s2*(0.79056941504209488*pD1 - 4.7434164902525691*pV1);
    outr[7*B+b] += s2*(-0.79056941504209488*pD1 - 4.7434164902525691*pV1);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x1v_p2_ser_lbo_diff_bnd0_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.0000000000000002*vtSq[0];
  const double dF1 = 1.0000000000000002*vtSq[1];
  const double dF2 = 1.0000000000000002*vtSq[2];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[2*B+b] + 1.5811388300841898*f[5*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] - 1.2247448713915889*f[4*B+b] + 1.5811388300841898*f[7*B+b];
    const double tr2 = 0.70710678118654757*f[3*B+b] - 1.2247448713915889*f[6*B+b];
    const double pV0 = 0.70710678118654779*dF0*tr0 + 0.70710678118654757*dF1*tr1 + 0.70710678118654824*dF2*tr2;
    const double pV1 = 0.70710678118654757*dF0*tr1 + 0.70710678118654757*dF1*tr0 + 0.63245553203367622*dF1*tr2 + 0.63245553203367622*dF2*tr1;
    const double pV2 = 0.70710678118654813*dF0*tr2 + 0.63245553203367622*dF1*tr1 + 0.70710678118654813*dF2*tr0 + 0.45175395145262659*dF2*tr2;
    out[2*B+b] += s2*(1.2247448713915889*pV0);
    out[4*B+b] += s2*(1.2247448713915889*pV1);
    out[5*B+b] += s2*(-4.7434164902525691*pV0);
    out[6*B+b] += s2*(1.2247448713915889*pV2);
    out[7*B+b] += s2*(-4.7434164902525691*pV1);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x1v_p2_ser_lbo_diff_bnd0_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.0000000000000002*vtSq[0];
  const double dF1 = 1.0000000000000002*vtSq[1];
  const double dF2 = 1.0000000000000002*vtSq[2];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[2*B+b] + 1.5811388300841898*f[5*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] + 1.2247448713915889*f[4*B+b] + 1.5811388300841898*f[7*B+b];
    const double tr2 = 0.70710678118654757*f[3*B+b] + 1.2247448713915889*f[6*B+b];
    const double pV0 = 0.70710678118654779*dF0*tr0 + 0.70710678118654757*dF1*tr1 + 0.70710678118654824*dF2*tr2;
    const double pV1 = 0.70710678118654757*dF0*tr1 + 0.70710678118654757*dF1*tr0 + 0.63245553203367622*dF1*tr2 + 0.63245553203367622*dF2*tr1;
    const double pV2 = 0.70710678118654813*dF0*tr2 + 0.63245553203367622*dF1*tr1 + 0.70710678118654813*dF2*tr0 + 0.45175395145262659*dF2*tr2;
    out[2*B+b] += s2*(-1.2247448713915889*pV0);
    out[4*B+b] += s2*(-1.2247448713915889*pV1);
    out[5*B+b] += s2*(-4.7434164902525691*pV0);
    out[6*B+b] += s2*(-1.2247448713915889*pV2);
    out[7*B+b] += s2*(-4.7434164902525691*pV1);
  }
}

template <int B>
CompiledKernelSet kernelSet() {
  CompiledKernelSet k;
  k.lanes = B;
  k.streamVol = vlasov_1x1v_p2_ser_stream_vol<B>;
  k.accelVol = vlasov_1x1v_p2_ser_accel_vol<B>;
  k.streamSurf[0] = vlasov_1x1v_p2_ser_stream_surf0<B>;
  k.accelSurf[0] = vlasov_1x1v_p2_ser_accel_surf0<B>;
  k.lbo.diffVol = vlasov_1x1v_p2_ser_lbo_diff_vol<B>;
  k.lbo.diffSurf[0] = vlasov_1x1v_p2_ser_lbo_diff_surf0<B>;
  k.lbo.diffBound[0][0] = vlasov_1x1v_p2_ser_lbo_diff_bnd0_lo<B>;
  k.lbo.diffBound[0][1] = vlasov_1x1v_p2_ser_lbo_diff_bnd0_up<B>;
  return k;
}

}  // namespace

__attribute__((cold)) void registerKernels() {
  CompiledKernels k;
  k.numPhaseModes = 8;
  k.sets[0] = kernelSet<1>();
  k.sets[1] = kernelSet<4>();
  k.sets[2] = kernelSet<8>();
  registerCompiledKernels("1x1v_p2_ser", k);
}

}  // namespace vdg::gen_1x1v_p2_ser
