// ============================================================================
// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Exact (alias-free) modal DG Vlasov and LBO-diffusion kernels for the
// 3x3v_p1_max basis, rendered from the symbolically integrated sparse
// tensors with all constants folded to double precision (the paper's
// Maxima-CAS workflow).
// Regenerate with: gen_kernels <output-dir>
// ============================================================================
// clang-format off
#include <cmath>

#include "kernels/registry.hpp"

namespace vdg::gen_3x3v_p1_max {

static // Volume streaming kernel (exact DG volume integral of div_x (v f)),
// auto-generated for the 3x3v_p1_max basis (7 DOF/cell).
// Inputs: cell center w, cell size dxv, distribution coefficients f;
// out is incremented with the forward-Euler volume contribution.
void vlasov_3x3v_p1_max_stream_vol(const double* w, const double* dxv, const double* f, double* out) {
  const double rdx2_0 = 2.0/dxv[0];
  const double wv_0 = w[3];
  const double hdv_0 = 0.5*dxv[3];
  const double rdx2_1 = 2.0/dxv[1];
  const double wv_1 = w[4];
  const double hdv_1 = 0.5*dxv[4];
  const double rdx2_2 = 2.0/dxv[2];
  const double wv_2 = w[5];
  const double hdv_2 = 0.5*dxv[5];
  out[1] += rdx2_0*((1.7320508075688812*wv_0)*f[0] + (1.000000000000002*hdv_0)*f[4]);
  out[2] += rdx2_1*((1.7320508075688812*wv_1)*f[0] + (1.0000000000000022*hdv_1)*f[5]);
  out[3] += rdx2_2*((1.732050807568881*wv_2)*f[0] + (1.0000000000000018*hdv_2)*f[6]);
}

static // Volume acceleration kernel (exact DG volume integral of div_v (alpha f));
// alpha is the per-cell phase-space flux expansion, vdim x 7 coefficients.
void vlasov_3x3v_p1_max_accel_vol(const double* dxv, const double* alpha, const double* f, double* out) {
  const double rdv2_0 = 2.0/dxv[3];
  const double rdv2_1 = 2.0/dxv[4];
  const double rdv2_2 = 2.0/dxv[5];
  out[4] += rdv2_0*(0.21650635094611007*alpha[0]*f[0] + 0.21650635094611007*alpha[1]*f[1] + 0.21650635094611007*alpha[2]*f[2] + 0.21650635094611004*alpha[3]*f[3] + 0.21650635094611004*alpha[4]*f[4] + 0.21650635094611004*alpha[5]*f[5] + 0.21650635094611001*alpha[6]*f[6]);
  out[5] += rdv2_1*(0.21650635094611007*alpha[7]*f[0] + 0.21650635094611007*alpha[8]*f[1] + 0.21650635094611007*alpha[9]*f[2] + 0.21650635094611004*alpha[10]*f[3] + 0.21650635094611004*alpha[11]*f[4] + 0.21650635094611001*alpha[12]*f[5] + 0.21650635094611001*alpha[13]*f[6]);
  out[6] += rdv2_2*(0.21650635094611007*alpha[14]*f[0] + 0.21650635094611007*alpha[15]*f[1] + 0.21650635094611007*alpha[16]*f[2] + 0.21650635094611004*alpha[17]*f[3] + 0.21650635094611004*alpha[18]*f[4] + 0.21650635094611001*alpha[19]*f[5] + 0.21650635094611001*alpha[20]*f[6]);
}

static // Surface streaming kernel, configuration direction 0:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
void vlasov_3x3v_p1_max_stream_surf0(const double* w, const double* dxv, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[0];
  const double wv = w[3];
  const double hdv = 0.5*dxv[3];
  const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
  const double fL0 = 0.70710678118654757*fl[0] + 1.2247448713915889*fl[1];
  const double fL1 = 0.70710678118654757*fl[2];
  const double fL2 = 0.70710678118654757*fl[3];
  const double fL3 = 0.70710678118654757*fl[4];
  const double fL4 = 0.70710678118654757*fl[5];
  const double fL5 = 0.70710678118654757*fl[6];
  const double fR0 = 0.70710678118654757*fr[0] - 1.2247448713915889*fr[1];
  const double fR1 = 0.70710678118654757*fr[2];
  const double fR2 = 0.70710678118654757*fr[3];
  const double fR3 = 0.70710678118654757*fr[4];
  const double fR4 = 0.70710678118654757*fr[5];
  const double fR5 = 0.70710678118654757*fr[6];
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
  outl[0] -= rdx2*0.70710678118654757*fhat0;
  outr[0] += rdx2*0.70710678118654757*fhat0;
  outl[1] -= rdx2*1.2247448713915889*fhat0;
  outr[1] += rdx2*-1.2247448713915889*fhat0;
  outl[2] -= rdx2*0.70710678118654757*fhat1;
  outr[2] += rdx2*0.70710678118654757*fhat1;
  outl[3] -= rdx2*0.70710678118654757*fhat2;
  outr[3] += rdx2*0.70710678118654757*fhat2;
  outl[4] -= rdx2*0.70710678118654757*fhat3;
  outr[4] += rdx2*0.70710678118654757*fhat3;
  outl[5] -= rdx2*0.70710678118654757*fhat4;
  outr[5] += rdx2*0.70710678118654757*fhat4;
  outl[6] -= rdx2*0.70710678118654757*fhat5;
  outr[6] += rdx2*0.70710678118654757*fhat5;
}

static // Surface streaming kernel, configuration direction 1:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
void vlasov_3x3v_p1_max_stream_surf1(const double* w, const double* dxv, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[1];
  const double wv = w[4];
  const double hdv = 0.5*dxv[4];
  const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
  const double fL0 = 0.70710678118654757*fl[0] + 1.2247448713915889*fl[2];
  const double fL1 = 0.70710678118654757*fl[1];
  const double fL2 = 0.70710678118654757*fl[3];
  const double fL3 = 0.70710678118654757*fl[4];
  const double fL4 = 0.70710678118654757*fl[5];
  const double fL5 = 0.70710678118654757*fl[6];
  const double fR0 = 0.70710678118654757*fr[0] - 1.2247448713915889*fr[2];
  const double fR1 = 0.70710678118654757*fr[1];
  const double fR2 = 0.70710678118654757*fr[3];
  const double fR3 = 0.70710678118654757*fr[4];
  const double fR4 = 0.70710678118654757*fr[5];
  const double fR5 = 0.70710678118654757*fr[6];
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
  outl[0] -= rdx2*0.70710678118654757*fhat0;
  outr[0] += rdx2*0.70710678118654757*fhat0;
  outl[1] -= rdx2*0.70710678118654757*fhat1;
  outr[1] += rdx2*0.70710678118654757*fhat1;
  outl[2] -= rdx2*1.2247448713915889*fhat0;
  outr[2] += rdx2*-1.2247448713915889*fhat0;
  outl[3] -= rdx2*0.70710678118654757*fhat2;
  outr[3] += rdx2*0.70710678118654757*fhat2;
  outl[4] -= rdx2*0.70710678118654757*fhat3;
  outr[4] += rdx2*0.70710678118654757*fhat3;
  outl[5] -= rdx2*0.70710678118654757*fhat4;
  outr[5] += rdx2*0.70710678118654757*fhat4;
  outl[6] -= rdx2*0.70710678118654757*fhat5;
  outr[6] += rdx2*0.70710678118654757*fhat5;
}

static // Surface streaming kernel, configuration direction 2:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
void vlasov_3x3v_p1_max_stream_surf2(const double* w, const double* dxv, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[2];
  const double wv = w[5];
  const double hdv = 0.5*dxv[5];
  const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
  const double fL0 = 0.70710678118654757*fl[0] + 1.2247448713915889*fl[3];
  const double fL1 = 0.70710678118654757*fl[1];
  const double fL2 = 0.70710678118654757*fl[2];
  const double fL3 = 0.70710678118654757*fl[4];
  const double fL4 = 0.70710678118654757*fl[5];
  const double fL5 = 0.70710678118654757*fl[6];
  const double fR0 = 0.70710678118654757*fr[0] - 1.2247448713915889*fr[3];
  const double fR1 = 0.70710678118654757*fr[1];
  const double fR2 = 0.70710678118654757*fr[2];
  const double fR3 = 0.70710678118654757*fr[4];
  const double fR4 = 0.70710678118654757*fr[5];
  const double fR5 = 0.70710678118654757*fr[6];
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
  outl[0] -= rdx2*0.70710678118654757*fhat0;
  outr[0] += rdx2*0.70710678118654757*fhat0;
  outl[1] -= rdx2*0.70710678118654757*fhat1;
  outr[1] += rdx2*0.70710678118654757*fhat1;
  outl[2] -= rdx2*0.70710678118654757*fhat2;
  outr[2] += rdx2*0.70710678118654757*fhat2;
  outl[3] -= rdx2*1.2247448713915889*fhat0;
  outr[3] += rdx2*-1.2247448713915889*fhat0;
  outl[4] -= rdx2*0.70710678118654757*fhat3;
  outr[4] += rdx2*0.70710678118654757*fhat3;
  outl[5] -= rdx2*0.70710678118654757*fhat4;
  outr[5] += rdx2*0.70710678118654757*fhat4;
  outl[6] -= rdx2*0.70710678118654757*fhat5;
  outr[6] += rdx2*0.70710678118654757*fhat5;
}

static // Surface acceleration kernel, velocity direction 0:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
void vlasov_3x3v_p1_max_accel_surf0(const double* dxv, const double* al, const double* ar, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[3];
  const double fL0 = 0.70710678118654757*fl[0] + 1.2247448713915889*fl[4];
  const double fL1 = 0.70710678118654757*fl[1];
  const double fL2 = 0.70710678118654757*fl[2];
  const double fL3 = 0.70710678118654757*fl[3];
  const double fL4 = 0.70710678118654757*fl[5];
  const double fL5 = 0.70710678118654757*fl[6];
  const double fR0 = 0.70710678118654757*fr[0] - 1.2247448713915889*fr[4];
  const double fR1 = 0.70710678118654757*fr[1];
  const double fR2 = 0.70710678118654757*fr[2];
  const double fR3 = 0.70710678118654757*fr[3];
  const double fR4 = 0.70710678118654757*fr[5];
  const double fR5 = 0.70710678118654757*fr[6];
  const double aL0 = 0.70710678118654757*al[0] + 1.2247448713915889*al[4];
  const double aL1 = 0.70710678118654757*al[1];
  const double aL2 = 0.70710678118654757*al[2];
  const double aL3 = 0.70710678118654757*al[3];
  const double aL4 = 0.70710678118654757*al[5];
  const double aL5 = 0.70710678118654757*al[6];
  const double aR0 = 0.70710678118654757*ar[0] - 1.2247448713915889*ar[4];
  const double aR1 = 0.70710678118654757*ar[1];
  const double aR2 = 0.70710678118654757*ar[2];
  const double aR3 = 0.70710678118654757*ar[3];
  const double aR4 = 0.70710678118654757*ar[5];
  const double aR5 = 0.70710678118654757*ar[6];
  const double tau = std::fmax(0.0 + 0.17677669529663692*std::fabs(aL0) + 0.30618621784789735*std::fabs(aL1) + 0.30618621784789735*std::fabs(aL2) + 0.30618621784789735*std::fabs(aL3) + 0.30618621784789735*std::fabs(aL4) + 0.30618621784789729*std::fabs(aL5), 0.0 + 0.17677669529663692*std::fabs(aR0) + 0.30618621784789735*std::fabs(aR1) + 0.30618621784789735*std::fabs(aR2) + 0.30618621784789735*std::fabs(aR3) + 0.30618621784789735*std::fabs(aR4) + 0.30618621784789729*std::fabs(aR5));
  const double fhat0 = 0.5*(0.17677669529663717*(aL0*fL0 + aR0*fR0) + 0.17677669529663717*(aL1*fL1 + aR1*fR1) + 0.17677669529663717*(aL2*fL2 + aR2*fR2) + 0.17677669529663714*(aL3*fL3 + aR3*fR3) + 0.17677669529663714*(aL4*fL4 + aR4*fR4) + 0.17677669529663712*(aL5*fL5 + aR5*fR5)) - 0.5*tau*(fR0 - fL0);
  const double fhat1 = 0.5*(0.17677669529663717*(aL0*fL1 + aR0*fR1) + 0.17677669529663717*(aL1*fL0 + aR1*fR0)) - 0.5*tau*(fR1 - fL1);
  const double fhat2 = 0.5*(0.17677669529663717*(aL0*fL2 + aR0*fR2) + 0.17677669529663717*(aL2*fL0 + aR2*fR0)) - 0.5*tau*(fR2 - fL2);
  const double fhat3 = 0.5*(0.17677669529663714*(aL0*fL3 + aR0*fR3) + 0.17677669529663714*(aL3*fL0 + aR3*fR0)) - 0.5*tau*(fR3 - fL3);
  const double fhat4 = 0.5*(0.17677669529663714*(aL0*fL4 + aR0*fR4) + 0.17677669529663714*(aL4*fL0 + aR4*fR0)) - 0.5*tau*(fR4 - fL4);
  const double fhat5 = 0.5*(0.17677669529663712*(aL0*fL5 + aR0*fR5) + 0.17677669529663712*(aL5*fL0 + aR5*fR0)) - 0.5*tau*(fR5 - fL5);
  outl[0] -= rdx2*0.70710678118654757*fhat0;
  outr[0] += rdx2*0.70710678118654757*fhat0;
  outl[1] -= rdx2*0.70710678118654757*fhat1;
  outr[1] += rdx2*0.70710678118654757*fhat1;
  outl[2] -= rdx2*0.70710678118654757*fhat2;
  outr[2] += rdx2*0.70710678118654757*fhat2;
  outl[3] -= rdx2*0.70710678118654757*fhat3;
  outr[3] += rdx2*0.70710678118654757*fhat3;
  outl[4] -= rdx2*1.2247448713915889*fhat0;
  outr[4] += rdx2*-1.2247448713915889*fhat0;
  outl[5] -= rdx2*0.70710678118654757*fhat4;
  outr[5] += rdx2*0.70710678118654757*fhat4;
  outl[6] -= rdx2*0.70710678118654757*fhat5;
  outr[6] += rdx2*0.70710678118654757*fhat5;
}

static // Surface acceleration kernel, velocity direction 1:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
void vlasov_3x3v_p1_max_accel_surf1(const double* dxv, const double* al, const double* ar, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[4];
  const double fL0 = 0.70710678118654757*fl[0] + 1.2247448713915889*fl[5];
  const double fL1 = 0.70710678118654757*fl[1];
  const double fL2 = 0.70710678118654757*fl[2];
  const double fL3 = 0.70710678118654757*fl[3];
  const double fL4 = 0.70710678118654757*fl[4];
  const double fL5 = 0.70710678118654757*fl[6];
  const double fR0 = 0.70710678118654757*fr[0] - 1.2247448713915889*fr[5];
  const double fR1 = 0.70710678118654757*fr[1];
  const double fR2 = 0.70710678118654757*fr[2];
  const double fR3 = 0.70710678118654757*fr[3];
  const double fR4 = 0.70710678118654757*fr[4];
  const double fR5 = 0.70710678118654757*fr[6];
  const double aL0 = 0.70710678118654757*al[0] + 1.2247448713915889*al[5];
  const double aL1 = 0.70710678118654757*al[1];
  const double aL2 = 0.70710678118654757*al[2];
  const double aL3 = 0.70710678118654757*al[3];
  const double aL4 = 0.70710678118654757*al[4];
  const double aL5 = 0.70710678118654757*al[6];
  const double aR0 = 0.70710678118654757*ar[0] - 1.2247448713915889*ar[5];
  const double aR1 = 0.70710678118654757*ar[1];
  const double aR2 = 0.70710678118654757*ar[2];
  const double aR3 = 0.70710678118654757*ar[3];
  const double aR4 = 0.70710678118654757*ar[4];
  const double aR5 = 0.70710678118654757*ar[6];
  const double tau = std::fmax(0.0 + 0.17677669529663692*std::fabs(aL0) + 0.30618621784789735*std::fabs(aL1) + 0.30618621784789735*std::fabs(aL2) + 0.30618621784789735*std::fabs(aL3) + 0.30618621784789735*std::fabs(aL4) + 0.30618621784789729*std::fabs(aL5), 0.0 + 0.17677669529663692*std::fabs(aR0) + 0.30618621784789735*std::fabs(aR1) + 0.30618621784789735*std::fabs(aR2) + 0.30618621784789735*std::fabs(aR3) + 0.30618621784789735*std::fabs(aR4) + 0.30618621784789729*std::fabs(aR5));
  const double fhat0 = 0.5*(0.17677669529663717*(aL0*fL0 + aR0*fR0) + 0.17677669529663717*(aL1*fL1 + aR1*fR1) + 0.17677669529663717*(aL2*fL2 + aR2*fR2) + 0.17677669529663714*(aL3*fL3 + aR3*fR3) + 0.17677669529663714*(aL4*fL4 + aR4*fR4) + 0.17677669529663712*(aL5*fL5 + aR5*fR5)) - 0.5*tau*(fR0 - fL0);
  const double fhat1 = 0.5*(0.17677669529663717*(aL0*fL1 + aR0*fR1) + 0.17677669529663717*(aL1*fL0 + aR1*fR0)) - 0.5*tau*(fR1 - fL1);
  const double fhat2 = 0.5*(0.17677669529663717*(aL0*fL2 + aR0*fR2) + 0.17677669529663717*(aL2*fL0 + aR2*fR0)) - 0.5*tau*(fR2 - fL2);
  const double fhat3 = 0.5*(0.17677669529663714*(aL0*fL3 + aR0*fR3) + 0.17677669529663714*(aL3*fL0 + aR3*fR0)) - 0.5*tau*(fR3 - fL3);
  const double fhat4 = 0.5*(0.17677669529663714*(aL0*fL4 + aR0*fR4) + 0.17677669529663714*(aL4*fL0 + aR4*fR0)) - 0.5*tau*(fR4 - fL4);
  const double fhat5 = 0.5*(0.17677669529663712*(aL0*fL5 + aR0*fR5) + 0.17677669529663712*(aL5*fL0 + aR5*fR0)) - 0.5*tau*(fR5 - fL5);
  outl[0] -= rdx2*0.70710678118654757*fhat0;
  outr[0] += rdx2*0.70710678118654757*fhat0;
  outl[1] -= rdx2*0.70710678118654757*fhat1;
  outr[1] += rdx2*0.70710678118654757*fhat1;
  outl[2] -= rdx2*0.70710678118654757*fhat2;
  outr[2] += rdx2*0.70710678118654757*fhat2;
  outl[3] -= rdx2*0.70710678118654757*fhat3;
  outr[3] += rdx2*0.70710678118654757*fhat3;
  outl[4] -= rdx2*0.70710678118654757*fhat4;
  outr[4] += rdx2*0.70710678118654757*fhat4;
  outl[5] -= rdx2*1.2247448713915889*fhat0;
  outr[5] += rdx2*-1.2247448713915889*fhat0;
  outl[6] -= rdx2*0.70710678118654757*fhat5;
  outr[6] += rdx2*0.70710678118654757*fhat5;
}

static // Surface acceleration kernel, velocity direction 2:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
void vlasov_3x3v_p1_max_accel_surf2(const double* dxv, const double* al, const double* ar, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[5];
  const double fL0 = 0.70710678118654757*fl[0] + 1.2247448713915889*fl[6];
  const double fL1 = 0.70710678118654757*fl[1];
  const double fL2 = 0.70710678118654757*fl[2];
  const double fL3 = 0.70710678118654757*fl[3];
  const double fL4 = 0.70710678118654757*fl[4];
  const double fL5 = 0.70710678118654757*fl[5];
  const double fR0 = 0.70710678118654757*fr[0] - 1.2247448713915889*fr[6];
  const double fR1 = 0.70710678118654757*fr[1];
  const double fR2 = 0.70710678118654757*fr[2];
  const double fR3 = 0.70710678118654757*fr[3];
  const double fR4 = 0.70710678118654757*fr[4];
  const double fR5 = 0.70710678118654757*fr[5];
  const double aL0 = 0.70710678118654757*al[0] + 1.2247448713915889*al[6];
  const double aL1 = 0.70710678118654757*al[1];
  const double aL2 = 0.70710678118654757*al[2];
  const double aL3 = 0.70710678118654757*al[3];
  const double aL4 = 0.70710678118654757*al[4];
  const double aL5 = 0.70710678118654757*al[5];
  const double aR0 = 0.70710678118654757*ar[0] - 1.2247448713915889*ar[6];
  const double aR1 = 0.70710678118654757*ar[1];
  const double aR2 = 0.70710678118654757*ar[2];
  const double aR3 = 0.70710678118654757*ar[3];
  const double aR4 = 0.70710678118654757*ar[4];
  const double aR5 = 0.70710678118654757*ar[5];
  const double tau = std::fmax(0.0 + 0.17677669529663692*std::fabs(aL0) + 0.30618621784789735*std::fabs(aL1) + 0.30618621784789735*std::fabs(aL2) + 0.30618621784789735*std::fabs(aL3) + 0.30618621784789735*std::fabs(aL4) + 0.30618621784789729*std::fabs(aL5), 0.0 + 0.17677669529663692*std::fabs(aR0) + 0.30618621784789735*std::fabs(aR1) + 0.30618621784789735*std::fabs(aR2) + 0.30618621784789735*std::fabs(aR3) + 0.30618621784789735*std::fabs(aR4) + 0.30618621784789729*std::fabs(aR5));
  const double fhat0 = 0.5*(0.17677669529663717*(aL0*fL0 + aR0*fR0) + 0.17677669529663717*(aL1*fL1 + aR1*fR1) + 0.17677669529663717*(aL2*fL2 + aR2*fR2) + 0.17677669529663714*(aL3*fL3 + aR3*fR3) + 0.17677669529663714*(aL4*fL4 + aR4*fR4) + 0.17677669529663712*(aL5*fL5 + aR5*fR5)) - 0.5*tau*(fR0 - fL0);
  const double fhat1 = 0.5*(0.17677669529663717*(aL0*fL1 + aR0*fR1) + 0.17677669529663717*(aL1*fL0 + aR1*fR0)) - 0.5*tau*(fR1 - fL1);
  const double fhat2 = 0.5*(0.17677669529663717*(aL0*fL2 + aR0*fR2) + 0.17677669529663717*(aL2*fL0 + aR2*fR0)) - 0.5*tau*(fR2 - fL2);
  const double fhat3 = 0.5*(0.17677669529663714*(aL0*fL3 + aR0*fR3) + 0.17677669529663714*(aL3*fL0 + aR3*fR0)) - 0.5*tau*(fR3 - fL3);
  const double fhat4 = 0.5*(0.17677669529663714*(aL0*fL4 + aR0*fR4) + 0.17677669529663714*(aL4*fL0 + aR4*fR0)) - 0.5*tau*(fR4 - fL4);
  const double fhat5 = 0.5*(0.17677669529663712*(aL0*fL5 + aR0*fR5) + 0.17677669529663712*(aL5*fL0 + aR5*fR0)) - 0.5*tau*(fR5 - fL5);
  outl[0] -= rdx2*0.70710678118654757*fhat0;
  outr[0] += rdx2*0.70710678118654757*fhat0;
  outl[1] -= rdx2*0.70710678118654757*fhat1;
  outr[1] += rdx2*0.70710678118654757*fhat1;
  outl[2] -= rdx2*0.70710678118654757*fhat2;
  outr[2] += rdx2*0.70710678118654757*fhat2;
  outl[3] -= rdx2*0.70710678118654757*fhat3;
  outr[3] += rdx2*0.70710678118654757*fhat3;
  outl[4] -= rdx2*0.70710678118654757*fhat4;
  outr[4] += rdx2*0.70710678118654757*fhat4;
  outl[5] -= rdx2*0.70710678118654757*fhat5;
  outr[5] += rdx2*0.70710678118654757*fhat5;
  outl[6] -= rdx2*1.2247448713915889*fhat0;
  outr[6] += rdx2*-1.2247448713915889*fhat0;
}

static // LBO diffusion volume kernel: exact DG volume integral of the twice
// integrated-by-parts diffusion term, sum_j (2/dv_j)^2 int d2w_l/deta_j^2 D f,
// with D = vtSq the configuration-space vth^2 expansion (4 coefficients).
void vlasov_3x3v_p1_max_lbo_diff_vol(const double* dxv, const double* vtSq, const double* f, double* out) {
  (void)dxv; (void)vtSq; (void)f; (void)out;
}

static // LBO diffusion surface kernel, velocity direction 0: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
void vlasov_3x3v_p1_max_lbo_diff_surf0(const double* dxv, const double* vtSq, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[3];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  const double rv0 = 0.35355339059327373*fl[0] + 0.35355339059327356*fr[0] + 0.40824829046386302*fl[4] - 0.40824829046386268*fr[4];
  const double rd0 = -1.5909902576697319*fl[0] + 1.5909902576697319*fr[0] - 1.5309310892394858*fl[4] - 1.5309310892394858*fr[4];
  const double rv1 = 0.35355339059327373*fl[1] + 0.35355339059327356*fr[1];
  const double rd1 = -1.5909902576697319*fl[1] + 1.5909902576697319*fr[1];
  const double rv2 = 0.35355339059327373*fl[2] + 0.35355339059327356*fr[2];
  const double rd2 = -1.5909902576697319*fl[2] + 1.5909902576697319*fr[2];
  const double rv3 = 0.35355339059327373*fl[3] + 0.35355339059327356*fr[3];
  const double rd3 = -1.5909902576697319*fl[3] + 1.5909902576697319*fr[3];
  const double rd4 = -1.5909902576697319*fl[5] + 1.5909902576697319*fr[5];
  const double rd5 = -1.5909902576697319*fl[6] + 1.5909902576697319*fr[6];
  const double pD0 = 0.17677669529663717*dF0*rd0 + 0.17677669529663717*dF1*rd1 + 0.17677669529663717*dF2*rd2 + 0.17677669529663714*dF3*rd3;
  const double pD1 = 0.17677669529663717*dF0*rd1 + 0.17677669529663717*dF1*rd0;
  const double pD2 = 0.17677669529663717*dF0*rd2 + 0.17677669529663717*dF2*rd0;
  const double pD3 = 0.17677669529663714*dF0*rd3 + 0.17677669529663714*dF3*rd0;
  const double pD4 = 0.17677669529663714*dF0*rd4;
  const double pD5 = 0.17677669529663712*dF0*rd5;
  const double pV0 = 0.17677669529663717*dF0*rv0 + 0.17677669529663717*dF1*rv1 + 0.17677669529663717*dF2*rv2 + 0.17677669529663714*dF3*rv3;
  outl[0] += s2*(0.35355339059327379*pD0);
  outr[0] += s2*(-0.35355339059327379*pD0);
  outl[1] += s2*(0.35355339059327379*pD1);
  outr[1] += s2*(-0.35355339059327379*pD1);
  outl[2] += s2*(0.35355339059327379*pD2);
  outr[2] += s2*(-0.35355339059327379*pD2);
  outl[3] += s2*(0.35355339059327379*pD3);
  outr[3] += s2*(-0.35355339059327379*pD3);
  outl[4] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
  outr[4] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
  outl[5] += s2*(0.35355339059327379*pD4);
  outr[5] += s2*(-0.35355339059327379*pD4);
  outl[6] += s2*(0.35355339059327379*pD5);
  outr[6] += s2*(-0.35355339059327379*pD5);
}

static // LBO diffusion boundary kernel, velocity direction 0, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
void vlasov_3x3v_p1_max_lbo_diff_bnd0_lo(const double* dxv, const double* vtSq, const double* f, double* out) {
  const double rdx2 = 2.0/dxv[3];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  const double tr0 = 0.70710678118654757*f[0] - 1.2247448713915889*f[4];
  const double tr1 = 0.70710678118654757*f[1];
  const double tr2 = 0.70710678118654757*f[2];
  const double tr3 = 0.70710678118654757*f[3];
  const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
  out[4] += s2*(1.2247448713915889*pV0);
}

static // LBO diffusion boundary kernel, velocity direction 0, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
void vlasov_3x3v_p1_max_lbo_diff_bnd0_up(const double* dxv, const double* vtSq, const double* f, double* out) {
  const double rdx2 = 2.0/dxv[3];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  const double tr0 = 0.70710678118654757*f[0] + 1.2247448713915889*f[4];
  const double tr1 = 0.70710678118654757*f[1];
  const double tr2 = 0.70710678118654757*f[2];
  const double tr3 = 0.70710678118654757*f[3];
  const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
  out[4] += s2*(-1.2247448713915889*pV0);
}

static // LBO diffusion surface kernel, velocity direction 1: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
void vlasov_3x3v_p1_max_lbo_diff_surf1(const double* dxv, const double* vtSq, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[4];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  const double rv0 = 0.35355339059327373*fl[0] + 0.35355339059327356*fr[0] + 0.40824829046386302*fl[5] - 0.40824829046386268*fr[5];
  const double rd0 = -1.5909902576697319*fl[0] + 1.5909902576697319*fr[0] - 1.5309310892394858*fl[5] - 1.5309310892394858*fr[5];
  const double rv1 = 0.35355339059327373*fl[1] + 0.35355339059327356*fr[1];
  const double rd1 = -1.5909902576697319*fl[1] + 1.5909902576697319*fr[1];
  const double rv2 = 0.35355339059327373*fl[2] + 0.35355339059327356*fr[2];
  const double rd2 = -1.5909902576697319*fl[2] + 1.5909902576697319*fr[2];
  const double rv3 = 0.35355339059327373*fl[3] + 0.35355339059327356*fr[3];
  const double rd3 = -1.5909902576697319*fl[3] + 1.5909902576697319*fr[3];
  const double rd4 = -1.5909902576697319*fl[4] + 1.5909902576697319*fr[4];
  const double rd5 = -1.5909902576697319*fl[6] + 1.5909902576697319*fr[6];
  const double pD0 = 0.17677669529663717*dF0*rd0 + 0.17677669529663717*dF1*rd1 + 0.17677669529663717*dF2*rd2 + 0.17677669529663714*dF3*rd3;
  const double pD1 = 0.17677669529663717*dF0*rd1 + 0.17677669529663717*dF1*rd0;
  const double pD2 = 0.17677669529663717*dF0*rd2 + 0.17677669529663717*dF2*rd0;
  const double pD3 = 0.17677669529663714*dF0*rd3 + 0.17677669529663714*dF3*rd0;
  const double pD4 = 0.17677669529663714*dF0*rd4;
  const double pD5 = 0.17677669529663712*dF0*rd5;
  const double pV0 = 0.17677669529663717*dF0*rv0 + 0.17677669529663717*dF1*rv1 + 0.17677669529663717*dF2*rv2 + 0.17677669529663714*dF3*rv3;
  outl[0] += s2*(0.35355339059327379*pD0);
  outr[0] += s2*(-0.35355339059327379*pD0);
  outl[1] += s2*(0.35355339059327379*pD1);
  outr[1] += s2*(-0.35355339059327379*pD1);
  outl[2] += s2*(0.35355339059327379*pD2);
  outr[2] += s2*(-0.35355339059327379*pD2);
  outl[3] += s2*(0.35355339059327379*pD3);
  outr[3] += s2*(-0.35355339059327379*pD3);
  outl[4] += s2*(0.35355339059327379*pD4);
  outr[4] += s2*(-0.35355339059327379*pD4);
  outl[5] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
  outr[5] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
  outl[6] += s2*(0.35355339059327379*pD5);
  outr[6] += s2*(-0.35355339059327379*pD5);
}

static // LBO diffusion boundary kernel, velocity direction 1, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
void vlasov_3x3v_p1_max_lbo_diff_bnd1_lo(const double* dxv, const double* vtSq, const double* f, double* out) {
  const double rdx2 = 2.0/dxv[4];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  const double tr0 = 0.70710678118654757*f[0] - 1.2247448713915889*f[5];
  const double tr1 = 0.70710678118654757*f[1];
  const double tr2 = 0.70710678118654757*f[2];
  const double tr3 = 0.70710678118654757*f[3];
  const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
  out[5] += s2*(1.2247448713915889*pV0);
}

static // LBO diffusion boundary kernel, velocity direction 1, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
void vlasov_3x3v_p1_max_lbo_diff_bnd1_up(const double* dxv, const double* vtSq, const double* f, double* out) {
  const double rdx2 = 2.0/dxv[4];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  const double tr0 = 0.70710678118654757*f[0] + 1.2247448713915889*f[5];
  const double tr1 = 0.70710678118654757*f[1];
  const double tr2 = 0.70710678118654757*f[2];
  const double tr3 = 0.70710678118654757*f[3];
  const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
  out[5] += s2*(-1.2247448713915889*pV0);
}

static // LBO diffusion surface kernel, velocity direction 2: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
void vlasov_3x3v_p1_max_lbo_diff_surf2(const double* dxv, const double* vtSq, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[5];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  const double rv0 = 0.35355339059327373*fl[0] + 0.35355339059327356*fr[0] + 0.40824829046386302*fl[6] - 0.40824829046386268*fr[6];
  const double rd0 = -1.5909902576697319*fl[0] + 1.5909902576697319*fr[0] - 1.5309310892394858*fl[6] - 1.5309310892394858*fr[6];
  const double rv1 = 0.35355339059327373*fl[1] + 0.35355339059327356*fr[1];
  const double rd1 = -1.5909902576697319*fl[1] + 1.5909902576697319*fr[1];
  const double rv2 = 0.35355339059327373*fl[2] + 0.35355339059327356*fr[2];
  const double rd2 = -1.5909902576697319*fl[2] + 1.5909902576697319*fr[2];
  const double rv3 = 0.35355339059327373*fl[3] + 0.35355339059327356*fr[3];
  const double rd3 = -1.5909902576697319*fl[3] + 1.5909902576697319*fr[3];
  const double rd4 = -1.5909902576697319*fl[4] + 1.5909902576697319*fr[4];
  const double rd5 = -1.5909902576697319*fl[5] + 1.5909902576697319*fr[5];
  const double pD0 = 0.17677669529663717*dF0*rd0 + 0.17677669529663717*dF1*rd1 + 0.17677669529663717*dF2*rd2 + 0.17677669529663714*dF3*rd3;
  const double pD1 = 0.17677669529663717*dF0*rd1 + 0.17677669529663717*dF1*rd0;
  const double pD2 = 0.17677669529663717*dF0*rd2 + 0.17677669529663717*dF2*rd0;
  const double pD3 = 0.17677669529663714*dF0*rd3 + 0.17677669529663714*dF3*rd0;
  const double pD4 = 0.17677669529663714*dF0*rd4;
  const double pD5 = 0.17677669529663712*dF0*rd5;
  const double pV0 = 0.17677669529663717*dF0*rv0 + 0.17677669529663717*dF1*rv1 + 0.17677669529663717*dF2*rv2 + 0.17677669529663714*dF3*rv3;
  outl[0] += s2*(0.35355339059327379*pD0);
  outr[0] += s2*(-0.35355339059327379*pD0);
  outl[1] += s2*(0.35355339059327379*pD1);
  outr[1] += s2*(-0.35355339059327379*pD1);
  outl[2] += s2*(0.35355339059327379*pD2);
  outr[2] += s2*(-0.35355339059327379*pD2);
  outl[3] += s2*(0.35355339059327379*pD3);
  outr[3] += s2*(-0.35355339059327379*pD3);
  outl[4] += s2*(0.35355339059327379*pD4);
  outr[4] += s2*(-0.35355339059327379*pD4);
  outl[5] += s2*(0.35355339059327379*pD5);
  outr[5] += s2*(-0.35355339059327379*pD5);
  outl[6] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
  outr[6] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
}

static // LBO diffusion boundary kernel, velocity direction 2, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
void vlasov_3x3v_p1_max_lbo_diff_bnd2_lo(const double* dxv, const double* vtSq, const double* f, double* out) {
  const double rdx2 = 2.0/dxv[5];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  const double tr0 = 0.70710678118654757*f[0] - 1.2247448713915889*f[6];
  const double tr1 = 0.70710678118654757*f[1];
  const double tr2 = 0.70710678118654757*f[2];
  const double tr3 = 0.70710678118654757*f[3];
  const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
  out[6] += s2*(1.2247448713915889*pV0);
}

static // LBO diffusion boundary kernel, velocity direction 2, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
void vlasov_3x3v_p1_max_lbo_diff_bnd2_up(const double* dxv, const double* vtSq, const double* f, double* out) {
  const double rdx2 = 2.0/dxv[5];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  const double dF2 = 2.0000000000000004*vtSq[2];
  const double dF3 = 2.0000000000000004*vtSq[3];
  const double tr0 = 0.70710678118654757*f[0] + 1.2247448713915889*f[6];
  const double tr1 = 0.70710678118654757*f[1];
  const double tr2 = 0.70710678118654757*f[2];
  const double tr3 = 0.70710678118654757*f[3];
  const double pV0 = 0.17677669529663717*dF0*tr0 + 0.17677669529663717*dF1*tr1 + 0.17677669529663717*dF2*tr2 + 0.17677669529663714*dF3*tr3;
  out[6] += s2*(-1.2247448713915889*pV0);
}

__attribute__((cold)) void registerKernels() {
  VlasovCompiledKernels k;
  k.numPhaseModes = 7;
  k.streamVol = vlasov_3x3v_p1_max_stream_vol;
  k.accelVol = vlasov_3x3v_p1_max_accel_vol;
  k.streamSurf[0] = vlasov_3x3v_p1_max_stream_surf0;
  k.streamSurf[1] = vlasov_3x3v_p1_max_stream_surf1;
  k.streamSurf[2] = vlasov_3x3v_p1_max_stream_surf2;
  k.accelSurf[0] = vlasov_3x3v_p1_max_accel_surf0;
  k.accelSurf[1] = vlasov_3x3v_p1_max_accel_surf1;
  k.accelSurf[2] = vlasov_3x3v_p1_max_accel_surf2;
  k.lbo.diffVol = vlasov_3x3v_p1_max_lbo_diff_vol;
  k.lbo.diffSurf[0] = vlasov_3x3v_p1_max_lbo_diff_surf0;
  k.lbo.diffBound[0][0] = vlasov_3x3v_p1_max_lbo_diff_bnd0_lo;
  k.lbo.diffBound[0][1] = vlasov_3x3v_p1_max_lbo_diff_bnd0_up;
  k.lbo.diffSurf[1] = vlasov_3x3v_p1_max_lbo_diff_surf1;
  k.lbo.diffBound[1][0] = vlasov_3x3v_p1_max_lbo_diff_bnd1_lo;
  k.lbo.diffBound[1][1] = vlasov_3x3v_p1_max_lbo_diff_bnd1_up;
  k.lbo.diffSurf[2] = vlasov_3x3v_p1_max_lbo_diff_surf2;
  k.lbo.diffBound[2][0] = vlasov_3x3v_p1_max_lbo_diff_bnd2_lo;
  k.lbo.diffBound[2][1] = vlasov_3x3v_p1_max_lbo_diff_bnd2_up;
  registerCompiledKernels("3x3v_p1_max", k);
}

}  // namespace vdg::gen_3x3v_p1_max
