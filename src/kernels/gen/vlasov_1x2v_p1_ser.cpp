// ============================================================================
// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Exact (alias-free) modal DG Vlasov and LBO-diffusion kernels for the
// 1x2v_p1_ser basis, rendered from the symbolically integrated sparse
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

namespace vdg::gen_1x2v_p1_ser {
namespace {

// Volume streaming kernel (exact DG volume integral of div_x (v f)),
// auto-generated for the 1x2v_p1_ser basis (8 DOF/cell).
// Inputs: cell centers w, cell size dxv, distribution coefficients f;
// out is incremented with the forward-Euler volume contribution.
template <int B>
void vlasov_1x2v_p1_ser_stream_vol(const double* __restrict w, const double* __restrict dxv, const double* __restrict f, double* __restrict out) {
  const double rdx2_0 = 2.0/dxv[0];
  const double hdv_0 = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv_0 = w[1*B+b];
    out[1*B+b] += rdx2_0*((1.7320508075688794*wv_0)*f[0*B+b] + (1.0000000000000007*hdv_0)*f[2*B+b]);
    out[4*B+b] += rdx2_0*((1.0000000000000007*hdv_0)*f[0*B+b] + (1.7320508075688785*wv_0)*f[2*B+b]);
    out[5*B+b] += rdx2_0*((1.7320508075688787*wv_0)*f[3*B+b] + (1.0000000000000004*hdv_0)*f[6*B+b]);
    out[7*B+b] += rdx2_0*((1.0000000000000004*hdv_0)*f[3*B+b] + (1.7320508075688783*wv_0)*f[6*B+b]);
  }
}

// Volume acceleration kernel (exact DG volume integral of div_v (alpha f));
// alpha is the per-cell phase-space flux expansion, vdim x 8 coefficients.
template <int B>
void vlasov_1x2v_p1_ser_accel_vol(const double* __restrict dxv, const double* __restrict alpha, const double* __restrict f, double* __restrict out) {
  const double rdv2_0 = 2.0/dxv[1];
  const double rdv2_1 = 2.0/dxv[2];
  for (int b = 0; b < B; ++b) {
    out[2*B+b] += rdv2_0*(0.61237243569579525*alpha[0*B+b]*f[0*B+b] + 0.61237243569579491*alpha[1*B+b]*f[1*B+b] + 0.61237243569579491*alpha[2*B+b]*f[2*B+b] + 0.61237243569579503*alpha[3*B+b]*f[3*B+b] + 0.61237243569579469*alpha[4*B+b]*f[4*B+b] + 0.6123724356957948*alpha[5*B+b]*f[5*B+b] + 0.6123724356957948*alpha[6*B+b]*f[6*B+b] + 0.61237243569579458*alpha[7*B+b]*f[7*B+b]);
    out[4*B+b] += rdv2_0*(0.61237243569579491*alpha[0*B+b]*f[1*B+b] + 0.61237243569579491*alpha[1*B+b]*f[0*B+b] + 0.61237243569579469*alpha[2*B+b]*f[4*B+b] + 0.6123724356957948*alpha[3*B+b]*f[5*B+b] + 0.61237243569579469*alpha[4*B+b]*f[2*B+b] + 0.6123724356957948*alpha[5*B+b]*f[3*B+b] + 0.61237243569579458*alpha[6*B+b]*f[7*B+b] + 0.61237243569579458*alpha[7*B+b]*f[6*B+b]);
    out[6*B+b] += rdv2_0*(0.61237243569579503*alpha[0*B+b]*f[3*B+b] + 0.6123724356957948*alpha[1*B+b]*f[5*B+b] + 0.6123724356957948*alpha[2*B+b]*f[6*B+b] + 0.61237243569579503*alpha[3*B+b]*f[0*B+b] + 0.61237243569579458*alpha[4*B+b]*f[7*B+b] + 0.6123724356957948*alpha[5*B+b]*f[1*B+b] + 0.6123724356957948*alpha[6*B+b]*f[2*B+b] + 0.61237243569579458*alpha[7*B+b]*f[4*B+b]);
    out[7*B+b] += rdv2_0*(0.6123724356957948*alpha[0*B+b]*f[5*B+b] + 0.6123724356957948*alpha[1*B+b]*f[3*B+b] + 0.61237243569579458*alpha[2*B+b]*f[7*B+b] + 0.6123724356957948*alpha[3*B+b]*f[1*B+b] + 0.61237243569579458*alpha[4*B+b]*f[6*B+b] + 0.6123724356957948*alpha[5*B+b]*f[0*B+b] + 0.61237243569579458*alpha[6*B+b]*f[4*B+b] + 0.61237243569579458*alpha[7*B+b]*f[2*B+b]);
    out[3*B+b] += rdv2_1*(0.61237243569579514*alpha[8*B+b]*f[0*B+b] + 0.61237243569579491*alpha[9*B+b]*f[1*B+b] + 0.61237243569579491*alpha[10*B+b]*f[2*B+b] + 0.61237243569579491*alpha[11*B+b]*f[3*B+b] + 0.6123724356957948*alpha[12*B+b]*f[4*B+b] + 0.61237243569579469*alpha[13*B+b]*f[5*B+b] + 0.61237243569579469*alpha[14*B+b]*f[6*B+b] + 0.61237243569579458*alpha[15*B+b]*f[7*B+b]);
    out[5*B+b] += rdv2_1*(0.61237243569579491*alpha[8*B+b]*f[1*B+b] + 0.61237243569579491*alpha[9*B+b]*f[0*B+b] + 0.6123724356957948*alpha[10*B+b]*f[4*B+b] + 0.61237243569579469*alpha[11*B+b]*f[5*B+b] + 0.6123724356957948*alpha[12*B+b]*f[2*B+b] + 0.61237243569579469*alpha[13*B+b]*f[3*B+b] + 0.61237243569579458*alpha[14*B+b]*f[7*B+b] + 0.61237243569579458*alpha[15*B+b]*f[6*B+b]);
    out[6*B+b] += rdv2_1*(0.61237243569579491*alpha[8*B+b]*f[2*B+b] + 0.6123724356957948*alpha[9*B+b]*f[4*B+b] + 0.61237243569579491*alpha[10*B+b]*f[0*B+b] + 0.61237243569579469*alpha[11*B+b]*f[6*B+b] + 0.6123724356957948*alpha[12*B+b]*f[1*B+b] + 0.61237243569579458*alpha[13*B+b]*f[7*B+b] + 0.61237243569579469*alpha[14*B+b]*f[3*B+b] + 0.61237243569579458*alpha[15*B+b]*f[5*B+b]);
    out[7*B+b] += rdv2_1*(0.6123724356957948*alpha[8*B+b]*f[4*B+b] + 0.6123724356957948*alpha[9*B+b]*f[2*B+b] + 0.6123724356957948*alpha[10*B+b]*f[1*B+b] + 0.61237243569579458*alpha[11*B+b]*f[7*B+b] + 0.6123724356957948*alpha[12*B+b]*f[0*B+b] + 0.61237243569579458*alpha[13*B+b]*f[6*B+b] + 0.61237243569579458*alpha[14*B+b]*f[5*B+b] + 0.61237243569579458*alpha[15*B+b]*f[3*B+b]);
  }
}

// Surface streaming kernel, configuration direction 0:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
template <int B>
void vlasov_1x2v_p1_ser_stream_surf0(const double* __restrict w, const double* __restrict dxv, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[0];
  const double hdv = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv = w[1*B+b];
    const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[1*B+b];
    const double fL1 = 0.70710678118654757*fl[2*B+b] + 1.2247448713915889*fl[4*B+b];
    const double fL2 = 0.70710678118654757*fl[3*B+b] + 1.2247448713915889*fl[5*B+b];
    const double fL3 = 0.70710678118654757*fl[6*B+b] + 1.2247448713915889*fl[7*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[1*B+b];
    const double fR1 = 0.70710678118654757*fr[2*B+b] - 1.2247448713915889*fr[4*B+b];
    const double fR2 = 0.70710678118654757*fr[3*B+b] - 1.2247448713915889*fr[5*B+b];
    const double fR3 = 0.70710678118654757*fr[6*B+b] - 1.2247448713915889*fr[7*B+b];
    const double favg0 = 0.5*(fL0 + fR0);
    const double favg1 = 0.5*(fL1 + fR1);
    const double favg2 = 0.5*(fL2 + fR2);
    const double favg3 = 0.5*(fL3 + fR3);
    const double fhat0 = wv*(1.0000000000000007*favg0) + hdv*(0.57735026918962606*favg1) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = wv*(1.0000000000000004*favg1) + hdv*(0.57735026918962606*favg0) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = wv*(1.0000000000000004*favg2) + hdv*(0.57735026918962595*favg3) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = wv*(1.0000000000000002*favg3) + hdv*(0.57735026918962595*favg2) - 0.5*tau*(fR3 - fL3);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[1*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[4*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[4*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[5*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[5*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[6*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[6*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[7*B+b] -= rdx2*1.2247448713915889*fhat3;
    outr[7*B+b] += rdx2*-1.2247448713915889*fhat3;
  }
}

// Surface acceleration kernel, velocity direction 0:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_1x2v_p1_ser_accel_surf0(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[2*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b] + 1.2247448713915889*fl[4*B+b];
    const double fL2 = 0.70710678118654757*fl[3*B+b] + 1.2247448713915889*fl[6*B+b];
    const double fL3 = 0.70710678118654757*fl[5*B+b] + 1.2247448713915889*fl[7*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[2*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b] - 1.2247448713915889*fr[4*B+b];
    const double fR2 = 0.70710678118654757*fr[3*B+b] - 1.2247448713915889*fr[6*B+b];
    const double fR3 = 0.70710678118654757*fr[5*B+b] - 1.2247448713915889*fr[7*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[2*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b] + 1.2247448713915889*al[4*B+b];
    const double aL2 = 0.70710678118654757*al[3*B+b] + 1.2247448713915889*al[6*B+b];
    const double aL3 = 0.70710678118654757*al[5*B+b] + 1.2247448713915889*al[7*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[2*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b] - 1.2247448713915889*ar[4*B+b];
    const double aR2 = 0.70710678118654757*ar[3*B+b] - 1.2247448713915889*ar[6*B+b];
    const double aR3 = 0.70710678118654757*ar[5*B+b] - 1.2247448713915889*ar[7*B+b];
    const double tau = std::fmax(0.0 + 0.50000000000000011*std::fabs(aL0) + 0.8660254037844386*std::fabs(aL1) + 0.8660254037844386*std::fabs(aL2) + 1.4999999999999998*std::fabs(aL3), 0.0 + 0.50000000000000011*std::fabs(aR0) + 0.8660254037844386*std::fabs(aR1) + 0.8660254037844386*std::fabs(aR2) + 1.4999999999999998*std::fabs(aR3));
    const double fhat0 = 0.5*(0.50000000000000033*(aL0*fL0 + aR0*fR0) + 0.50000000000000022*(aL1*fL1 + aR1*fR1) + 0.50000000000000022*(aL2*fL2 + aR2*fR2) + 0.50000000000000011*(aL3*fL3 + aR3*fR3)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.50000000000000022*(aL0*fL1 + aR0*fR1) + 0.50000000000000022*(aL1*fL0 + aR1*fR0) + 0.50000000000000011*(aL2*fL3 + aR2*fR3) + 0.50000000000000011*(aL3*fL2 + aR3*fR2)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.50000000000000022*(aL0*fL2 + aR0*fR2) + 0.50000000000000011*(aL1*fL3 + aR1*fR3) + 0.50000000000000022*(aL2*fL0 + aR2*fR0) + 0.50000000000000011*(aL3*fL1 + aR3*fR1)) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = 0.5*(0.50000000000000011*(aL0*fL3 + aR0*fR3) + 0.50000000000000011*(aL1*fL2 + aR1*fR2) + 0.50000000000000011*(aL2*fL1 + aR2*fR1) + 0.50000000000000011*(aL3*fL0 + aR3*fR0)) - 0.5*tau*(fR3 - fL3);
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
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[6*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[6*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[7*B+b] -= rdx2*1.2247448713915889*fhat3;
    outr[7*B+b] += rdx2*-1.2247448713915889*fhat3;
  }
}

// Surface acceleration kernel, velocity direction 1:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_1x2v_p1_ser_accel_surf1(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[2];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[3*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b] + 1.2247448713915889*fl[5*B+b];
    const double fL2 = 0.70710678118654757*fl[2*B+b] + 1.2247448713915889*fl[6*B+b];
    const double fL3 = 0.70710678118654757*fl[4*B+b] + 1.2247448713915889*fl[7*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[3*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b] - 1.2247448713915889*fr[5*B+b];
    const double fR2 = 0.70710678118654757*fr[2*B+b] - 1.2247448713915889*fr[6*B+b];
    const double fR3 = 0.70710678118654757*fr[4*B+b] - 1.2247448713915889*fr[7*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[3*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b] + 1.2247448713915889*al[5*B+b];
    const double aL2 = 0.70710678118654757*al[2*B+b] + 1.2247448713915889*al[6*B+b];
    const double aL3 = 0.70710678118654757*al[4*B+b] + 1.2247448713915889*al[7*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[3*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b] - 1.2247448713915889*ar[5*B+b];
    const double aR2 = 0.70710678118654757*ar[2*B+b] - 1.2247448713915889*ar[6*B+b];
    const double aR3 = 0.70710678118654757*ar[4*B+b] - 1.2247448713915889*ar[7*B+b];
    const double tau = std::fmax(0.0 + 0.50000000000000011*std::fabs(aL0) + 0.8660254037844386*std::fabs(aL1) + 0.8660254037844386*std::fabs(aL2) + 1.4999999999999998*std::fabs(aL3), 0.0 + 0.50000000000000011*std::fabs(aR0) + 0.8660254037844386*std::fabs(aR1) + 0.8660254037844386*std::fabs(aR2) + 1.4999999999999998*std::fabs(aR3));
    const double fhat0 = 0.5*(0.50000000000000033*(aL0*fL0 + aR0*fR0) + 0.50000000000000022*(aL1*fL1 + aR1*fR1) + 0.50000000000000022*(aL2*fL2 + aR2*fR2) + 0.50000000000000011*(aL3*fL3 + aR3*fR3)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.50000000000000022*(aL0*fL1 + aR0*fR1) + 0.50000000000000022*(aL1*fL0 + aR1*fR0) + 0.50000000000000011*(aL2*fL3 + aR2*fR3) + 0.50000000000000011*(aL3*fL2 + aR3*fR2)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.50000000000000022*(aL0*fL2 + aR0*fR2) + 0.50000000000000011*(aL1*fL3 + aR1*fR3) + 0.50000000000000022*(aL2*fL0 + aR2*fR0) + 0.50000000000000011*(aL3*fL1 + aR3*fR1)) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = 0.5*(0.50000000000000011*(aL0*fL3 + aR0*fR3) + 0.50000000000000011*(aL1*fL2 + aR1*fR2) + 0.50000000000000011*(aL2*fL1 + aR2*fR1) + 0.50000000000000011*(aL3*fL0 + aR3*fR0)) - 0.5*tau*(fR3 - fL3);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[3*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[3*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[4*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[4*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[5*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[5*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[6*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[6*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[7*B+b] -= rdx2*1.2247448713915889*fhat3;
    outr[7*B+b] += rdx2*-1.2247448713915889*fhat3;
  }
}

// LBO diffusion volume kernel: exact DG volume integral of the twice
// integrated-by-parts diffusion term, sum_j (2/dv_j)^2 int d2w_l/deta_j^2 D f,
// with D = vtSq the configuration-space vth^2 expansion (2 coefficients).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x2v_p1_ser_lbo_diff_vol(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  (void)dxv; (void)vtSq; (void)f; (void)out;
}

// LBO diffusion surface kernel, velocity direction 0: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x2v_p1_ser_lbo_diff_surf0(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.4142135623730951*vtSq[0];
  const double dF1 = 1.4142135623730951*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327373*fl[0*B+b] + 0.35355339059327356*fr[0*B+b] + 0.40824829046386302*fl[2*B+b] - 0.40824829046386268*fr[2*B+b];
    const double rd0 = -1.5909902576697319*fl[0*B+b] + 1.5909902576697319*fr[0*B+b] - 1.5309310892394858*fl[2*B+b] - 1.5309310892394858*fr[2*B+b];
    const double rv1 = 0.35355339059327373*fl[1*B+b] + 0.35355339059327356*fr[1*B+b] + 0.40824829046386302*fl[4*B+b] - 0.40824829046386268*fr[4*B+b];
    const double rd1 = -1.5909902576697319*fl[1*B+b] + 1.5909902576697319*fr[1*B+b] - 1.5309310892394858*fl[4*B+b] - 1.5309310892394858*fr[4*B+b];
    const double rv2 = 0.35355339059327373*fl[3*B+b] + 0.35355339059327356*fr[3*B+b] + 0.40824829046386302*fl[6*B+b] - 0.40824829046386268*fr[6*B+b];
    const double rd2 = -1.5909902576697319*fl[3*B+b] + 1.5909902576697319*fr[3*B+b] - 1.5309310892394858*fl[6*B+b] - 1.5309310892394858*fr[6*B+b];
    const double rv3 = 0.35355339059327373*fl[5*B+b] + 0.35355339059327356*fr[5*B+b] + 0.40824829046386302*fl[7*B+b] - 0.40824829046386268*fr[7*B+b];
    const double rd3 = -1.5909902576697319*fl[5*B+b] + 1.5909902576697319*fr[5*B+b] - 1.5309310892394858*fl[7*B+b] - 1.5309310892394858*fr[7*B+b];
    const double pD0 = 0.50000000000000033*dF0*rd0 + 0.50000000000000022*dF1*rd1;
    const double pD1 = 0.50000000000000022*dF0*rd1 + 0.50000000000000022*dF1*rd0;
    const double pD2 = 0.50000000000000022*dF0*rd2 + 0.50000000000000011*dF1*rd3;
    const double pD3 = 0.50000000000000011*dF0*rd3 + 0.50000000000000011*dF1*rd2;
    const double pV0 = 0.50000000000000033*dF0*rv0 + 0.50000000000000022*dF1*rv1;
    const double pV1 = 0.50000000000000022*dF0*rv1 + 0.50000000000000022*dF1*rv0;
    const double pV2 = 0.50000000000000022*dF0*rv2 + 0.50000000000000011*dF1*rv3;
    const double pV3 = 0.50000000000000011*dF0*rv3 + 0.50000000000000011*dF1*rv2;
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
    outl[5*B+b] += s2*(0.35355339059327379*pD3);
    outr[5*B+b] += s2*(-0.35355339059327379*pD3);
    outl[6*B+b] += s2*(0.61237243569579447*pD2 - 1.2247448713915889*pV2);
    outr[6*B+b] += s2*(0.61237243569579447*pD2 + 1.2247448713915889*pV2);
    outl[7*B+b] += s2*(0.61237243569579447*pD3 - 1.2247448713915889*pV3);
    outr[7*B+b] += s2*(0.61237243569579447*pD3 + 1.2247448713915889*pV3);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x2v_p1_ser_lbo_diff_bnd0_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.4142135623730951*vtSq[0];
  const double dF1 = 1.4142135623730951*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[2*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] - 1.2247448713915889*f[4*B+b];
    const double tr2 = 0.70710678118654757*f[3*B+b] - 1.2247448713915889*f[6*B+b];
    const double tr3 = 0.70710678118654757*f[5*B+b] - 1.2247448713915889*f[7*B+b];
    const double pV0 = 0.50000000000000033*dF0*tr0 + 0.50000000000000022*dF1*tr1;
    const double pV1 = 0.50000000000000022*dF0*tr1 + 0.50000000000000022*dF1*tr0;
    const double pV2 = 0.50000000000000022*dF0*tr2 + 0.50000000000000011*dF1*tr3;
    const double pV3 = 0.50000000000000011*dF0*tr3 + 0.50000000000000011*dF1*tr2;
    out[2*B+b] += s2*(1.2247448713915889*pV0);
    out[4*B+b] += s2*(1.2247448713915889*pV1);
    out[6*B+b] += s2*(1.2247448713915889*pV2);
    out[7*B+b] += s2*(1.2247448713915889*pV3);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x2v_p1_ser_lbo_diff_bnd0_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.4142135623730951*vtSq[0];
  const double dF1 = 1.4142135623730951*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[2*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] + 1.2247448713915889*f[4*B+b];
    const double tr2 = 0.70710678118654757*f[3*B+b] + 1.2247448713915889*f[6*B+b];
    const double tr3 = 0.70710678118654757*f[5*B+b] + 1.2247448713915889*f[7*B+b];
    const double pV0 = 0.50000000000000033*dF0*tr0 + 0.50000000000000022*dF1*tr1;
    const double pV1 = 0.50000000000000022*dF0*tr1 + 0.50000000000000022*dF1*tr0;
    const double pV2 = 0.50000000000000022*dF0*tr2 + 0.50000000000000011*dF1*tr3;
    const double pV3 = 0.50000000000000011*dF0*tr3 + 0.50000000000000011*dF1*tr2;
    out[2*B+b] += s2*(-1.2247448713915889*pV0);
    out[4*B+b] += s2*(-1.2247448713915889*pV1);
    out[6*B+b] += s2*(-1.2247448713915889*pV2);
    out[7*B+b] += s2*(-1.2247448713915889*pV3);
  }
}

// LBO diffusion surface kernel, velocity direction 1: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x2v_p1_ser_lbo_diff_surf1(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[2];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.4142135623730951*vtSq[0];
  const double dF1 = 1.4142135623730951*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327373*fl[0*B+b] + 0.35355339059327356*fr[0*B+b] + 0.40824829046386302*fl[3*B+b] - 0.40824829046386268*fr[3*B+b];
    const double rd0 = -1.5909902576697319*fl[0*B+b] + 1.5909902576697319*fr[0*B+b] - 1.5309310892394858*fl[3*B+b] - 1.5309310892394858*fr[3*B+b];
    const double rv1 = 0.35355339059327373*fl[1*B+b] + 0.35355339059327356*fr[1*B+b] + 0.40824829046386302*fl[5*B+b] - 0.40824829046386268*fr[5*B+b];
    const double rd1 = -1.5909902576697319*fl[1*B+b] + 1.5909902576697319*fr[1*B+b] - 1.5309310892394858*fl[5*B+b] - 1.5309310892394858*fr[5*B+b];
    const double rv2 = 0.35355339059327373*fl[2*B+b] + 0.35355339059327356*fr[2*B+b] + 0.40824829046386302*fl[6*B+b] - 0.40824829046386268*fr[6*B+b];
    const double rd2 = -1.5909902576697319*fl[2*B+b] + 1.5909902576697319*fr[2*B+b] - 1.5309310892394858*fl[6*B+b] - 1.5309310892394858*fr[6*B+b];
    const double rv3 = 0.35355339059327373*fl[4*B+b] + 0.35355339059327356*fr[4*B+b] + 0.40824829046386302*fl[7*B+b] - 0.40824829046386268*fr[7*B+b];
    const double rd3 = -1.5909902576697319*fl[4*B+b] + 1.5909902576697319*fr[4*B+b] - 1.5309310892394858*fl[7*B+b] - 1.5309310892394858*fr[7*B+b];
    const double pD0 = 0.50000000000000033*dF0*rd0 + 0.50000000000000022*dF1*rd1;
    const double pD1 = 0.50000000000000022*dF0*rd1 + 0.50000000000000022*dF1*rd0;
    const double pD2 = 0.50000000000000022*dF0*rd2 + 0.50000000000000011*dF1*rd3;
    const double pD3 = 0.50000000000000011*dF0*rd3 + 0.50000000000000011*dF1*rd2;
    const double pV0 = 0.50000000000000033*dF0*rv0 + 0.50000000000000022*dF1*rv1;
    const double pV1 = 0.50000000000000022*dF0*rv1 + 0.50000000000000022*dF1*rv0;
    const double pV2 = 0.50000000000000022*dF0*rv2 + 0.50000000000000011*dF1*rv3;
    const double pV3 = 0.50000000000000011*dF0*rv3 + 0.50000000000000011*dF1*rv2;
    outl[0*B+b] += s2*(0.35355339059327379*pD0);
    outr[0*B+b] += s2*(-0.35355339059327379*pD0);
    outl[1*B+b] += s2*(0.35355339059327379*pD1);
    outr[1*B+b] += s2*(-0.35355339059327379*pD1);
    outl[2*B+b] += s2*(0.35355339059327379*pD2);
    outr[2*B+b] += s2*(-0.35355339059327379*pD2);
    outl[3*B+b] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
    outr[3*B+b] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
    outl[4*B+b] += s2*(0.35355339059327379*pD3);
    outr[4*B+b] += s2*(-0.35355339059327379*pD3);
    outl[5*B+b] += s2*(0.61237243569579447*pD1 - 1.2247448713915889*pV1);
    outr[5*B+b] += s2*(0.61237243569579447*pD1 + 1.2247448713915889*pV1);
    outl[6*B+b] += s2*(0.61237243569579447*pD2 - 1.2247448713915889*pV2);
    outr[6*B+b] += s2*(0.61237243569579447*pD2 + 1.2247448713915889*pV2);
    outl[7*B+b] += s2*(0.61237243569579447*pD3 - 1.2247448713915889*pV3);
    outr[7*B+b] += s2*(0.61237243569579447*pD3 + 1.2247448713915889*pV3);
  }
}

// LBO diffusion boundary kernel, velocity direction 1, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x2v_p1_ser_lbo_diff_bnd1_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[2];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.4142135623730951*vtSq[0];
  const double dF1 = 1.4142135623730951*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[3*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] - 1.2247448713915889*f[5*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b] - 1.2247448713915889*f[6*B+b];
    const double tr3 = 0.70710678118654757*f[4*B+b] - 1.2247448713915889*f[7*B+b];
    const double pV0 = 0.50000000000000033*dF0*tr0 + 0.50000000000000022*dF1*tr1;
    const double pV1 = 0.50000000000000022*dF0*tr1 + 0.50000000000000022*dF1*tr0;
    const double pV2 = 0.50000000000000022*dF0*tr2 + 0.50000000000000011*dF1*tr3;
    const double pV3 = 0.50000000000000011*dF0*tr3 + 0.50000000000000011*dF1*tr2;
    out[3*B+b] += s2*(1.2247448713915889*pV0);
    out[5*B+b] += s2*(1.2247448713915889*pV1);
    out[6*B+b] += s2*(1.2247448713915889*pV2);
    out[7*B+b] += s2*(1.2247448713915889*pV3);
  }
}

// LBO diffusion boundary kernel, velocity direction 1, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x2v_p1_ser_lbo_diff_bnd1_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[2];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.4142135623730951*vtSq[0];
  const double dF1 = 1.4142135623730951*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[3*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] + 1.2247448713915889*f[5*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b] + 1.2247448713915889*f[6*B+b];
    const double tr3 = 0.70710678118654757*f[4*B+b] + 1.2247448713915889*f[7*B+b];
    const double pV0 = 0.50000000000000033*dF0*tr0 + 0.50000000000000022*dF1*tr1;
    const double pV1 = 0.50000000000000022*dF0*tr1 + 0.50000000000000022*dF1*tr0;
    const double pV2 = 0.50000000000000022*dF0*tr2 + 0.50000000000000011*dF1*tr3;
    const double pV3 = 0.50000000000000011*dF0*tr3 + 0.50000000000000011*dF1*tr2;
    out[3*B+b] += s2*(-1.2247448713915889*pV0);
    out[5*B+b] += s2*(-1.2247448713915889*pV1);
    out[6*B+b] += s2*(-1.2247448713915889*pV2);
    out[7*B+b] += s2*(-1.2247448713915889*pV3);
  }
}

template <int B>
CompiledKernelSet kernelSet() {
  CompiledKernelSet k;
  k.lanes = B;
  k.streamVol = vlasov_1x2v_p1_ser_stream_vol<B>;
  k.accelVol = vlasov_1x2v_p1_ser_accel_vol<B>;
  k.streamSurf[0] = vlasov_1x2v_p1_ser_stream_surf0<B>;
  k.accelSurf[0] = vlasov_1x2v_p1_ser_accel_surf0<B>;
  k.accelSurf[1] = vlasov_1x2v_p1_ser_accel_surf1<B>;
  k.lbo.diffVol = vlasov_1x2v_p1_ser_lbo_diff_vol<B>;
  k.lbo.diffSurf[0] = vlasov_1x2v_p1_ser_lbo_diff_surf0<B>;
  k.lbo.diffBound[0][0] = vlasov_1x2v_p1_ser_lbo_diff_bnd0_lo<B>;
  k.lbo.diffBound[0][1] = vlasov_1x2v_p1_ser_lbo_diff_bnd0_up<B>;
  k.lbo.diffSurf[1] = vlasov_1x2v_p1_ser_lbo_diff_surf1<B>;
  k.lbo.diffBound[1][0] = vlasov_1x2v_p1_ser_lbo_diff_bnd1_lo<B>;
  k.lbo.diffBound[1][1] = vlasov_1x2v_p1_ser_lbo_diff_bnd1_up<B>;
  return k;
}

}  // namespace

__attribute__((cold)) void registerKernels() {
  CompiledKernels k;
  k.numPhaseModes = 8;
  k.sets[0] = kernelSet<1>();
  k.sets[1] = kernelSet<4>();
  k.sets[2] = kernelSet<8>();
  registerCompiledKernels("1x2v_p1_ser", k);
}

}  // namespace vdg::gen_1x2v_p1_ser
