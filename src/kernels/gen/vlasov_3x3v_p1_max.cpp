// ============================================================================
// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Exact (alias-free) modal DG Vlasov and LBO-diffusion kernels for the
// 3x3v_p1_max basis, rendered from the symbolically integrated sparse
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

namespace vdg::gen_3x3v_p1_max {
namespace {

// Volume streaming kernel (exact DG volume integral of div_x (v f)),
// auto-generated for the 3x3v_p1_max basis (7 DOF/cell).
// Inputs: cell centers w, cell size dxv, distribution coefficients f;
// out is incremented with the forward-Euler volume contribution.
template <int B>
void vlasov_3x3v_p1_max_stream_vol(const double* __restrict w, const double* __restrict dxv, const double* __restrict f, double* __restrict out) {
  const double rdx2_0 = 2.0/dxv[0];
  const double hdv_0 = 0.5*dxv[3];
  const double rdx2_1 = 2.0/dxv[1];
  const double hdv_1 = 0.5*dxv[4];
  const double rdx2_2 = 2.0/dxv[2];
  const double hdv_2 = 0.5*dxv[5];
  for (int b = 0; b < B; ++b) {
    const double wv_0 = w[3*B+b];
    const double wv_1 = w[4*B+b];
    const double wv_2 = w[5*B+b];
    out[1*B+b] += rdx2_0*((1.7320508075688812*wv_0)*f[0*B+b] + (1.000000000000002*hdv_0)*f[4*B+b]);
    out[2*B+b] += rdx2_1*((1.7320508075688812*wv_1)*f[0*B+b] + (1.0000000000000022*hdv_1)*f[5*B+b]);
    out[3*B+b] += rdx2_2*((1.732050807568881*wv_2)*f[0*B+b] + (1.0000000000000018*hdv_2)*f[6*B+b]);
  }
}

// Volume acceleration kernel (exact DG volume integral of div_v (alpha f));
// alpha is the per-cell phase-space flux expansion, vdim x 7 coefficients.
template <int B>
void vlasov_3x3v_p1_max_accel_vol(const double* __restrict dxv, const double* __restrict alpha, const double* __restrict f, double* __restrict out) {
  const double rdv2_0 = 2.0/dxv[3];
  const double rdv2_1 = 2.0/dxv[4];
  const double rdv2_2 = 2.0/dxv[5];
  for (int b = 0; b < B; ++b) {
    out[4*B+b] += rdv2_0*(0.21650635094611007*alpha[0*B+b]*f[0*B+b] + 0.21650635094611007*alpha[1*B+b]*f[1*B+b] + 0.21650635094611007*alpha[2*B+b]*f[2*B+b] + 0.21650635094611004*alpha[3*B+b]*f[3*B+b] + 0.21650635094611004*alpha[4*B+b]*f[4*B+b] + 0.21650635094611004*alpha[5*B+b]*f[5*B+b] + 0.21650635094611001*alpha[6*B+b]*f[6*B+b]);
    out[5*B+b] += rdv2_1*(0.21650635094611007*alpha[7*B+b]*f[0*B+b] + 0.21650635094611007*alpha[8*B+b]*f[1*B+b] + 0.21650635094611007*alpha[9*B+b]*f[2*B+b] + 0.21650635094611004*alpha[10*B+b]*f[3*B+b] + 0.21650635094611004*alpha[11*B+b]*f[4*B+b] + 0.21650635094611001*alpha[12*B+b]*f[5*B+b] + 0.21650635094611001*alpha[13*B+b]*f[6*B+b]);
    out[6*B+b] += rdv2_2*(0.21650635094611007*alpha[14*B+b]*f[0*B+b] + 0.21650635094611007*alpha[15*B+b]*f[1*B+b] + 0.21650635094611007*alpha[16*B+b]*f[2*B+b] + 0.21650635094611004*alpha[17*B+b]*f[3*B+b] + 0.21650635094611004*alpha[18*B+b]*f[4*B+b] + 0.21650635094611001*alpha[19*B+b]*f[5*B+b] + 0.21650635094611001*alpha[20*B+b]*f[6*B+b]);
  }
}

// Surface streaming kernel, configuration direction 0:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
template <int B>
void vlasov_3x3v_p1_max_stream_surf0(const double* __restrict w, const double* __restrict dxv, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[0];
  const double hdv = 0.5*dxv[3];
  for (int b = 0; b < B; ++b) {
    const double wv = w[3*B+b];
    const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[1*B+b];
    const double fL1 = 0.70710678118654757*fl[2*B+b];
    const double fL2 = 0.70710678118654757*fl[3*B+b];
    const double fL3 = 0.70710678118654757*fl[4*B+b];
    const double fL4 = 0.70710678118654757*fl[5*B+b];
    const double fL5 = 0.70710678118654757*fl[6*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[1*B+b];
    const double fR1 = 0.70710678118654757*fr[2*B+b];
    const double fR2 = 0.70710678118654757*fr[3*B+b];
    const double fR3 = 0.70710678118654757*fr[4*B+b];
    const double fR4 = 0.70710678118654757*fr[5*B+b];
    const double fR5 = 0.70710678118654757*fr[6*B+b];
    const double favg0 = 0.5*(fL0 + fR0);
    const double favg1 = 0.5*(fL1 + fR1);
    const double favg2 = 0.5*(fL2 + fR2);
    const double favg3 = 0.5*(fL3 + fR3);
    const double favg4 = 0.5*(fL4 + fR4);
    const double favg5 = 0.5*(fL5 + fR5);
    const double fhat0 = wv*(1.0000000000000018*favg0) + hdv*(0.57735026918962662*favg3) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = wv*(1.0000000000000018*favg1) + hdv*(0.0) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = wv*(1.0000000000000018*favg2) + hdv*(0.0) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = wv*(1.0000000000000016*favg3) + hdv*(0.57735026918962662*favg0) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = wv*(1.0000000000000016*favg4) + hdv*(0.0) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = wv*(1.0000000000000013*favg5) + hdv*(0.0) - 0.5*tau*(fR5 - fL5);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[1*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[4*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[4*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[6*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[6*B+b] += rdx2*0.70710678118654757*fhat5;
  }
}

// Surface streaming kernel, configuration direction 1:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
template <int B>
void vlasov_3x3v_p1_max_stream_surf1(const double* __restrict w, const double* __restrict dxv, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  const double hdv = 0.5*dxv[4];
  for (int b = 0; b < B; ++b) {
    const double wv = w[4*B+b];
    const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[2*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b];
    const double fL2 = 0.70710678118654757*fl[3*B+b];
    const double fL3 = 0.70710678118654757*fl[4*B+b];
    const double fL4 = 0.70710678118654757*fl[5*B+b];
    const double fL5 = 0.70710678118654757*fl[6*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[2*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b];
    const double fR2 = 0.70710678118654757*fr[3*B+b];
    const double fR3 = 0.70710678118654757*fr[4*B+b];
    const double fR4 = 0.70710678118654757*fr[5*B+b];
    const double fR5 = 0.70710678118654757*fr[6*B+b];
    const double favg0 = 0.5*(fL0 + fR0);
    const double favg1 = 0.5*(fL1 + fR1);
    const double favg2 = 0.5*(fL2 + fR2);
    const double favg3 = 0.5*(fL3 + fR3);
    const double favg4 = 0.5*(fL4 + fR4);
    const double favg5 = 0.5*(fL5 + fR5);
    const double fhat0 = wv*(1.0000000000000018*favg0) + hdv*(0.57735026918962662*favg4) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = wv*(1.0000000000000018*favg1) + hdv*(0.0) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = wv*(1.0000000000000018*favg2) + hdv*(0.0) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = wv*(1.0000000000000016*favg3) + hdv*(0.0) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = wv*(1.0000000000000016*favg4) + hdv*(0.57735026918962662*favg0) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = wv*(1.0000000000000013*favg5) + hdv*(0.0) - 0.5*tau*(fR5 - fL5);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[2*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[4*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[4*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[6*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[6*B+b] += rdx2*0.70710678118654757*fhat5;
  }
}

// Surface streaming kernel, configuration direction 2:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
template <int B>
void vlasov_3x3v_p1_max_stream_surf2(const double* __restrict w, const double* __restrict dxv, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[2];
  const double hdv = 0.5*dxv[5];
  for (int b = 0; b < B; ++b) {
    const double wv = w[5*B+b];
    const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[3*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b];
    const double fL2 = 0.70710678118654757*fl[2*B+b];
    const double fL3 = 0.70710678118654757*fl[4*B+b];
    const double fL4 = 0.70710678118654757*fl[5*B+b];
    const double fL5 = 0.70710678118654757*fl[6*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[3*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b];
    const double fR2 = 0.70710678118654757*fr[2*B+b];
    const double fR3 = 0.70710678118654757*fr[4*B+b];
    const double fR4 = 0.70710678118654757*fr[5*B+b];
    const double fR5 = 0.70710678118654757*fr[6*B+b];
    const double favg0 = 0.5*(fL0 + fR0);
    const double favg1 = 0.5*(fL1 + fR1);
    const double favg2 = 0.5*(fL2 + fR2);
    const double favg3 = 0.5*(fL3 + fR3);
    const double favg4 = 0.5*(fL4 + fR4);
    const double favg5 = 0.5*(fL5 + fR5);
    const double fhat0 = wv*(1.0000000000000018*favg0) + hdv*(0.57735026918962651*favg5) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = wv*(1.0000000000000018*favg1) + hdv*(0.0) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = wv*(1.0000000000000018*favg2) + hdv*(0.0) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = wv*(1.0000000000000016*favg3) + hdv*(0.0) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = wv*(1.0000000000000016*favg4) + hdv*(0.0) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = wv*(1.0000000000000013*favg5) + hdv*(0.57735026918962651*favg0) - 0.5*tau*(fR5 - fL5);
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
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[6*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[6*B+b] += rdx2*0.70710678118654757*fhat5;
  }
}

// Surface acceleration kernel, velocity direction 0:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_3x3v_p1_max_accel_surf0(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[3];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[4*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b];
    const double fL2 = 0.70710678118654757*fl[2*B+b];
    const double fL3 = 0.70710678118654757*fl[3*B+b];
    const double fL4 = 0.70710678118654757*fl[5*B+b];
    const double fL5 = 0.70710678118654757*fl[6*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[4*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b];
    const double fR2 = 0.70710678118654757*fr[2*B+b];
    const double fR3 = 0.70710678118654757*fr[3*B+b];
    const double fR4 = 0.70710678118654757*fr[5*B+b];
    const double fR5 = 0.70710678118654757*fr[6*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[4*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b];
    const double aL2 = 0.70710678118654757*al[2*B+b];
    const double aL3 = 0.70710678118654757*al[3*B+b];
    const double aL4 = 0.70710678118654757*al[5*B+b];
    const double aL5 = 0.70710678118654757*al[6*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[4*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b];
    const double aR2 = 0.70710678118654757*ar[2*B+b];
    const double aR3 = 0.70710678118654757*ar[3*B+b];
    const double aR4 = 0.70710678118654757*ar[5*B+b];
    const double aR5 = 0.70710678118654757*ar[6*B+b];
    const double tau = std::fmax(0.0 + 0.17677669529663692*std::fabs(aL0) + 0.30618621784789735*std::fabs(aL1) + 0.30618621784789735*std::fabs(aL2) + 0.30618621784789735*std::fabs(aL3) + 0.30618621784789735*std::fabs(aL4) + 0.30618621784789729*std::fabs(aL5), 0.0 + 0.17677669529663692*std::fabs(aR0) + 0.30618621784789735*std::fabs(aR1) + 0.30618621784789735*std::fabs(aR2) + 0.30618621784789735*std::fabs(aR3) + 0.30618621784789735*std::fabs(aR4) + 0.30618621784789729*std::fabs(aR5));
    const double fhat0 = 0.5*(0.17677669529663717*(aL0*fL0 + aR0*fR0) + 0.17677669529663717*(aL1*fL1 + aR1*fR1) + 0.17677669529663717*(aL2*fL2 + aR2*fR2) + 0.17677669529663714*(aL3*fL3 + aR3*fR3) + 0.17677669529663714*(aL4*fL4 + aR4*fR4) + 0.17677669529663712*(aL5*fL5 + aR5*fR5)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.17677669529663717*(aL0*fL1 + aR0*fR1) + 0.17677669529663717*(aL1*fL0 + aR1*fR0)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.17677669529663717*(aL0*fL2 + aR0*fR2) + 0.17677669529663717*(aL2*fL0 + aR2*fR0)) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = 0.5*(0.17677669529663714*(aL0*fL3 + aR0*fR3) + 0.17677669529663714*(aL3*fL0 + aR3*fR0)) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = 0.5*(0.17677669529663714*(aL0*fL4 + aR0*fR4) + 0.17677669529663714*(aL4*fL0 + aR4*fR0)) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = 0.5*(0.17677669529663712*(aL0*fL5 + aR0*fR5) + 0.17677669529663712*(aL5*fL0 + aR5*fR0)) - 0.5*tau*(fR5 - fL5);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[4*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[4*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[6*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[6*B+b] += rdx2*0.70710678118654757*fhat5;
  }
}

// Surface acceleration kernel, velocity direction 1:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_3x3v_p1_max_accel_surf1(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[4];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[5*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b];
    const double fL2 = 0.70710678118654757*fl[2*B+b];
    const double fL3 = 0.70710678118654757*fl[3*B+b];
    const double fL4 = 0.70710678118654757*fl[4*B+b];
    const double fL5 = 0.70710678118654757*fl[6*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[5*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b];
    const double fR2 = 0.70710678118654757*fr[2*B+b];
    const double fR3 = 0.70710678118654757*fr[3*B+b];
    const double fR4 = 0.70710678118654757*fr[4*B+b];
    const double fR5 = 0.70710678118654757*fr[6*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[5*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b];
    const double aL2 = 0.70710678118654757*al[2*B+b];
    const double aL3 = 0.70710678118654757*al[3*B+b];
    const double aL4 = 0.70710678118654757*al[4*B+b];
    const double aL5 = 0.70710678118654757*al[6*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[5*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b];
    const double aR2 = 0.70710678118654757*ar[2*B+b];
    const double aR3 = 0.70710678118654757*ar[3*B+b];
    const double aR4 = 0.70710678118654757*ar[4*B+b];
    const double aR5 = 0.70710678118654757*ar[6*B+b];
    const double tau = std::fmax(0.0 + 0.17677669529663692*std::fabs(aL0) + 0.30618621784789735*std::fabs(aL1) + 0.30618621784789735*std::fabs(aL2) + 0.30618621784789735*std::fabs(aL3) + 0.30618621784789735*std::fabs(aL4) + 0.30618621784789729*std::fabs(aL5), 0.0 + 0.17677669529663692*std::fabs(aR0) + 0.30618621784789735*std::fabs(aR1) + 0.30618621784789735*std::fabs(aR2) + 0.30618621784789735*std::fabs(aR3) + 0.30618621784789735*std::fabs(aR4) + 0.30618621784789729*std::fabs(aR5));
    const double fhat0 = 0.5*(0.17677669529663717*(aL0*fL0 + aR0*fR0) + 0.17677669529663717*(aL1*fL1 + aR1*fR1) + 0.17677669529663717*(aL2*fL2 + aR2*fR2) + 0.17677669529663714*(aL3*fL3 + aR3*fR3) + 0.17677669529663714*(aL4*fL4 + aR4*fR4) + 0.17677669529663712*(aL5*fL5 + aR5*fR5)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.17677669529663717*(aL0*fL1 + aR0*fR1) + 0.17677669529663717*(aL1*fL0 + aR1*fR0)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.17677669529663717*(aL0*fL2 + aR0*fR2) + 0.17677669529663717*(aL2*fL0 + aR2*fR0)) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = 0.5*(0.17677669529663714*(aL0*fL3 + aR0*fR3) + 0.17677669529663714*(aL3*fL0 + aR3*fR0)) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = 0.5*(0.17677669529663714*(aL0*fL4 + aR0*fR4) + 0.17677669529663714*(aL4*fL0 + aR4*fR0)) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = 0.5*(0.17677669529663712*(aL0*fL5 + aR0*fR5) + 0.17677669529663712*(aL5*fL0 + aR5*fR0)) - 0.5*tau*(fR5 - fL5);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[4*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[4*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[5*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[5*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[6*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[6*B+b] += rdx2*0.70710678118654757*fhat5;
  }
}

// Surface acceleration kernel, velocity direction 2:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_3x3v_p1_max_accel_surf2(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[5];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[6*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b];
    const double fL2 = 0.70710678118654757*fl[2*B+b];
    const double fL3 = 0.70710678118654757*fl[3*B+b];
    const double fL4 = 0.70710678118654757*fl[4*B+b];
    const double fL5 = 0.70710678118654757*fl[5*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[6*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b];
    const double fR2 = 0.70710678118654757*fr[2*B+b];
    const double fR3 = 0.70710678118654757*fr[3*B+b];
    const double fR4 = 0.70710678118654757*fr[4*B+b];
    const double fR5 = 0.70710678118654757*fr[5*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[6*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b];
    const double aL2 = 0.70710678118654757*al[2*B+b];
    const double aL3 = 0.70710678118654757*al[3*B+b];
    const double aL4 = 0.70710678118654757*al[4*B+b];
    const double aL5 = 0.70710678118654757*al[5*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[6*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b];
    const double aR2 = 0.70710678118654757*ar[2*B+b];
    const double aR3 = 0.70710678118654757*ar[3*B+b];
    const double aR4 = 0.70710678118654757*ar[4*B+b];
    const double aR5 = 0.70710678118654757*ar[5*B+b];
    const double tau = std::fmax(0.0 + 0.17677669529663692*std::fabs(aL0) + 0.30618621784789735*std::fabs(aL1) + 0.30618621784789735*std::fabs(aL2) + 0.30618621784789735*std::fabs(aL3) + 0.30618621784789735*std::fabs(aL4) + 0.30618621784789729*std::fabs(aL5), 0.0 + 0.17677669529663692*std::fabs(aR0) + 0.30618621784789735*std::fabs(aR1) + 0.30618621784789735*std::fabs(aR2) + 0.30618621784789735*std::fabs(aR3) + 0.30618621784789735*std::fabs(aR4) + 0.30618621784789729*std::fabs(aR5));
    const double fhat0 = 0.5*(0.17677669529663717*(aL0*fL0 + aR0*fR0) + 0.17677669529663717*(aL1*fL1 + aR1*fR1) + 0.17677669529663717*(aL2*fL2 + aR2*fR2) + 0.17677669529663714*(aL3*fL3 + aR3*fR3) + 0.17677669529663714*(aL4*fL4 + aR4*fR4) + 0.17677669529663712*(aL5*fL5 + aR5*fR5)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.17677669529663717*(aL0*fL1 + aR0*fR1) + 0.17677669529663717*(aL1*fL0 + aR1*fR0)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.17677669529663717*(aL0*fL2 + aR0*fR2) + 0.17677669529663717*(aL2*fL0 + aR2*fR0)) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = 0.5*(0.17677669529663714*(aL0*fL3 + aR0*fR3) + 0.17677669529663714*(aL3*fL0 + aR3*fR0)) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = 0.5*(0.17677669529663714*(aL0*fL4 + aR0*fR4) + 0.17677669529663714*(aL4*fL0 + aR4*fR0)) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = 0.5*(0.17677669529663712*(aL0*fL5 + aR0*fR5) + 0.17677669529663712*(aL5*fL0 + aR5*fR0)) - 0.5*tau*(fR5 - fL5);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[4*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[4*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat5;
    outl[6*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[6*B+b] += rdx2*-1.2247448713915889*fhat0;
  }
}

// LBO diffusion volume kernel: exact DG volume integral of the twice
// integrated-by-parts diffusion term, sum_j (2/dv_j)^2 int d2w_l/deta_j^2 D f,
// with D = vtSq the configuration-space vth^2 expansion (4 coefficients).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_vol(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  (void)dxv; (void)vtSq; (void)f; (void)out;
}

// LBO diffusion surface kernel, velocity direction 0: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_surf0(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[3];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327373*fl[0*B+b] + 0.35355339059327356*fr[0*B+b] + 0.40824829046386302*fl[4*B+b] - 0.40824829046386268*fr[4*B+b];
    const double rd0 = -1.5909902576697319*fl[0*B+b] + 1.5909902576697319*fr[0*B+b] - 1.5309310892394858*fl[4*B+b] - 1.5309310892394858*fr[4*B+b];
    const double rv1 = 0.35355339059327373*fl[1*B+b] + 0.35355339059327356*fr[1*B+b];
    const double rd1 = -1.5909902576697319*fl[1*B+b] + 1.5909902576697319*fr[1*B+b];
    const double rv2 = 0.35355339059327373*fl[2*B+b] + 0.35355339059327356*fr[2*B+b];
    const double rd2 = -1.5909902576697319*fl[2*B+b] + 1.5909902576697319*fr[2*B+b];
    const double rv3 = 0.35355339059327373*fl[3*B+b] + 0.35355339059327356*fr[3*B+b];
    const double rd3 = -1.5909902576697319*fl[3*B+b] + 1.5909902576697319*fr[3*B+b];
    const double rd4 = -1.5909902576697319*fl[5*B+b] + 1.5909902576697319*fr[5*B+b];
    const double rd5 = -1.5909902576697319*fl[6*B+b] + 1.5909902576697319*fr[6*B+b];
    const double pD0 = 0.17677669529663717*dF0*rd0 + 0.17677669529663717*dF1*rd1 + 0.17677669529663717*dF2*rd2 + 0.17677669529663714*dF3*rd3;
    const double pD1 = 0.17677669529663717*dF0*rd1 + 0.17677669529663717*dF1*rd0;
    const double pD2 = 0.17677669529663717*dF0*rd2 + 0.17677669529663717*dF2*rd0;
    const double pD3 = 0.17677669529663714*dF0*rd3 + 0.17677669529663714*dF3*rd0;
    const double pD4 = 0.17677669529663714*dF0*rd4;
    const double pD5 = 0.17677669529663712*dF0*rd5;
    const double pV0 = 0.17677669529663717*dF0*rv0 + 0.17677669529663717*dF1*rv1 + 0.17677669529663717*dF2*rv2 + 0.17677669529663714*dF3*rv3;
    outl[0*B+b] += s2*(0.35355339059327379*pD0);
    outr[0*B+b] += s2*(-0.35355339059327379*pD0);
    outl[1*B+b] += s2*(0.35355339059327379*pD1);
    outr[1*B+b] += s2*(-0.35355339059327379*pD1);
    outl[2*B+b] += s2*(0.35355339059327379*pD2);
    outr[2*B+b] += s2*(-0.35355339059327379*pD2);
    outl[3*B+b] += s2*(0.35355339059327379*pD3);
    outr[3*B+b] += s2*(-0.35355339059327379*pD3);
    outl[4*B+b] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
    outr[4*B+b] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
    outl[5*B+b] += s2*(0.35355339059327379*pD4);
    outr[5*B+b] += s2*(-0.35355339059327379*pD4);
    outl[6*B+b] += s2*(0.35355339059327379*pD5);
    outr[6*B+b] += s2*(-0.35355339059327379*pD5);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_bnd0_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[3];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[4*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b];
    const double tr3 = 0.70710678118654757*f[3*B+b];
    const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
    out[4*B+b] += s2*(1.2247448713915889*pV0);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_bnd0_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[3];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[4*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b];
    const double tr3 = 0.70710678118654757*f[3*B+b];
    const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
    out[4*B+b] += s2*(-1.2247448713915889*pV0);
  }
}

// LBO diffusion surface kernel, velocity direction 1: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_surf1(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[4];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327373*fl[0*B+b] + 0.35355339059327356*fr[0*B+b] + 0.40824829046386302*fl[5*B+b] - 0.40824829046386268*fr[5*B+b];
    const double rd0 = -1.5909902576697319*fl[0*B+b] + 1.5909902576697319*fr[0*B+b] - 1.5309310892394858*fl[5*B+b] - 1.5309310892394858*fr[5*B+b];
    const double rv1 = 0.35355339059327373*fl[1*B+b] + 0.35355339059327356*fr[1*B+b];
    const double rd1 = -1.5909902576697319*fl[1*B+b] + 1.5909902576697319*fr[1*B+b];
    const double rv2 = 0.35355339059327373*fl[2*B+b] + 0.35355339059327356*fr[2*B+b];
    const double rd2 = -1.5909902576697319*fl[2*B+b] + 1.5909902576697319*fr[2*B+b];
    const double rv3 = 0.35355339059327373*fl[3*B+b] + 0.35355339059327356*fr[3*B+b];
    const double rd3 = -1.5909902576697319*fl[3*B+b] + 1.5909902576697319*fr[3*B+b];
    const double rd4 = -1.5909902576697319*fl[4*B+b] + 1.5909902576697319*fr[4*B+b];
    const double rd5 = -1.5909902576697319*fl[6*B+b] + 1.5909902576697319*fr[6*B+b];
    const double pD0 = 0.17677669529663717*dF0*rd0 + 0.17677669529663717*dF1*rd1 + 0.17677669529663717*dF2*rd2 + 0.17677669529663714*dF3*rd3;
    const double pD1 = 0.17677669529663717*dF0*rd1 + 0.17677669529663717*dF1*rd0;
    const double pD2 = 0.17677669529663717*dF0*rd2 + 0.17677669529663717*dF2*rd0;
    const double pD3 = 0.17677669529663714*dF0*rd3 + 0.17677669529663714*dF3*rd0;
    const double pD4 = 0.17677669529663714*dF0*rd4;
    const double pD5 = 0.17677669529663712*dF0*rd5;
    const double pV0 = 0.17677669529663717*dF0*rv0 + 0.17677669529663717*dF1*rv1 + 0.17677669529663717*dF2*rv2 + 0.17677669529663714*dF3*rv3;
    outl[0*B+b] += s2*(0.35355339059327379*pD0);
    outr[0*B+b] += s2*(-0.35355339059327379*pD0);
    outl[1*B+b] += s2*(0.35355339059327379*pD1);
    outr[1*B+b] += s2*(-0.35355339059327379*pD1);
    outl[2*B+b] += s2*(0.35355339059327379*pD2);
    outr[2*B+b] += s2*(-0.35355339059327379*pD2);
    outl[3*B+b] += s2*(0.35355339059327379*pD3);
    outr[3*B+b] += s2*(-0.35355339059327379*pD3);
    outl[4*B+b] += s2*(0.35355339059327379*pD4);
    outr[4*B+b] += s2*(-0.35355339059327379*pD4);
    outl[5*B+b] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
    outr[5*B+b] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
    outl[6*B+b] += s2*(0.35355339059327379*pD5);
    outr[6*B+b] += s2*(-0.35355339059327379*pD5);
  }
}

// LBO diffusion boundary kernel, velocity direction 1, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_bnd1_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[4];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[5*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b];
    const double tr3 = 0.70710678118654757*f[3*B+b];
    const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
    out[5*B+b] += s2*(1.2247448713915889*pV0);
  }
}

// LBO diffusion boundary kernel, velocity direction 1, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_bnd1_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[4];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[5*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b];
    const double tr3 = 0.70710678118654757*f[3*B+b];
    const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
    out[5*B+b] += s2*(-1.2247448713915889*pV0);
  }
}

// LBO diffusion surface kernel, velocity direction 2: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_surf2(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[5];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327373*fl[0*B+b] + 0.35355339059327356*fr[0*B+b] + 0.40824829046386302*fl[6*B+b] - 0.40824829046386268*fr[6*B+b];
    const double rd0 = -1.5909902576697319*fl[0*B+b] + 1.5909902576697319*fr[0*B+b] - 1.5309310892394858*fl[6*B+b] - 1.5309310892394858*fr[6*B+b];
    const double rv1 = 0.35355339059327373*fl[1*B+b] + 0.35355339059327356*fr[1*B+b];
    const double rd1 = -1.5909902576697319*fl[1*B+b] + 1.5909902576697319*fr[1*B+b];
    const double rv2 = 0.35355339059327373*fl[2*B+b] + 0.35355339059327356*fr[2*B+b];
    const double rd2 = -1.5909902576697319*fl[2*B+b] + 1.5909902576697319*fr[2*B+b];
    const double rv3 = 0.35355339059327373*fl[3*B+b] + 0.35355339059327356*fr[3*B+b];
    const double rd3 = -1.5909902576697319*fl[3*B+b] + 1.5909902576697319*fr[3*B+b];
    const double rd4 = -1.5909902576697319*fl[4*B+b] + 1.5909902576697319*fr[4*B+b];
    const double rd5 = -1.5909902576697319*fl[5*B+b] + 1.5909902576697319*fr[5*B+b];
    const double pD0 = 0.17677669529663717*dF0*rd0 + 0.17677669529663717*dF1*rd1 + 0.17677669529663717*dF2*rd2 + 0.17677669529663714*dF3*rd3;
    const double pD1 = 0.17677669529663717*dF0*rd1 + 0.17677669529663717*dF1*rd0;
    const double pD2 = 0.17677669529663717*dF0*rd2 + 0.17677669529663717*dF2*rd0;
    const double pD3 = 0.17677669529663714*dF0*rd3 + 0.17677669529663714*dF3*rd0;
    const double pD4 = 0.17677669529663714*dF0*rd4;
    const double pD5 = 0.17677669529663712*dF0*rd5;
    const double pV0 = 0.17677669529663717*dF0*rv0 + 0.17677669529663717*dF1*rv1 + 0.17677669529663717*dF2*rv2 + 0.17677669529663714*dF3*rv3;
    outl[0*B+b] += s2*(0.35355339059327379*pD0);
    outr[0*B+b] += s2*(-0.35355339059327379*pD0);
    outl[1*B+b] += s2*(0.35355339059327379*pD1);
    outr[1*B+b] += s2*(-0.35355339059327379*pD1);
    outl[2*B+b] += s2*(0.35355339059327379*pD2);
    outr[2*B+b] += s2*(-0.35355339059327379*pD2);
    outl[3*B+b] += s2*(0.35355339059327379*pD3);
    outr[3*B+b] += s2*(-0.35355339059327379*pD3);
    outl[4*B+b] += s2*(0.35355339059327379*pD4);
    outr[4*B+b] += s2*(-0.35355339059327379*pD4);
    outl[5*B+b] += s2*(0.35355339059327379*pD5);
    outr[5*B+b] += s2*(-0.35355339059327379*pD5);
    outl[6*B+b] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
    outr[6*B+b] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
  }
}

// LBO diffusion boundary kernel, velocity direction 2, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_bnd2_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[5];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[6*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b];
    const double tr3 = 0.70710678118654757*f[3*B+b];
    const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
    out[6*B+b] += s2*(1.2247448713915889*pV0);
  }
}

// LBO diffusion boundary kernel, velocity direction 2, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_3x3v_p1_max_lbo_diff_bnd2_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[5];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[6*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b];
    const double tr3 = 0.70710678118654757*f[3*B+b];
    const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
    out[6*B+b] += s2*(-1.2247448713915889*pV0);
  }
}

template <int B>
CompiledKernelSet kernelSet() {
  CompiledKernelSet k;
  k.lanes = B;
  k.streamVol = vlasov_3x3v_p1_max_stream_vol<B>;
  k.accelVol = vlasov_3x3v_p1_max_accel_vol<B>;
  k.streamSurf[0] = vlasov_3x3v_p1_max_stream_surf0<B>;
  k.streamSurf[1] = vlasov_3x3v_p1_max_stream_surf1<B>;
  k.streamSurf[2] = vlasov_3x3v_p1_max_stream_surf2<B>;
  k.accelSurf[0] = vlasov_3x3v_p1_max_accel_surf0<B>;
  k.accelSurf[1] = vlasov_3x3v_p1_max_accel_surf1<B>;
  k.accelSurf[2] = vlasov_3x3v_p1_max_accel_surf2<B>;
  k.lbo.diffVol = vlasov_3x3v_p1_max_lbo_diff_vol<B>;
  k.lbo.diffSurf[0] = vlasov_3x3v_p1_max_lbo_diff_surf0<B>;
  k.lbo.diffBound[0][0] = vlasov_3x3v_p1_max_lbo_diff_bnd0_lo<B>;
  k.lbo.diffBound[0][1] = vlasov_3x3v_p1_max_lbo_diff_bnd0_up<B>;
  k.lbo.diffSurf[1] = vlasov_3x3v_p1_max_lbo_diff_surf1<B>;
  k.lbo.diffBound[1][0] = vlasov_3x3v_p1_max_lbo_diff_bnd1_lo<B>;
  k.lbo.diffBound[1][1] = vlasov_3x3v_p1_max_lbo_diff_bnd1_up<B>;
  k.lbo.diffSurf[2] = vlasov_3x3v_p1_max_lbo_diff_surf2<B>;
  k.lbo.diffBound[2][0] = vlasov_3x3v_p1_max_lbo_diff_bnd2_lo<B>;
  k.lbo.diffBound[2][1] = vlasov_3x3v_p1_max_lbo_diff_bnd2_up<B>;
  return k;
}

}  // namespace

__attribute__((cold)) void registerKernels() {
  CompiledKernels k;
  k.numPhaseModes = 7;
  k.sets[0] = kernelSet<1>();
  k.sets[1] = kernelSet<4>();
  k.sets[2] = kernelSet<8>();
  registerCompiledKernels("3x3v_p1_max", k);
}

}  // namespace vdg::gen_3x3v_p1_max
