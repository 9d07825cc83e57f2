// ============================================================================
// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Exact (alias-free) modal DG Vlasov and LBO-diffusion kernels for the
// 1x1v_p1_ten basis, rendered from the symbolically integrated sparse
// tensors with all constants folded to double precision (the paper's
// Maxima-CAS workflow).
// Regenerate with: gen_kernels <output-dir>
// ============================================================================
// clang-format off
#include <cmath>

#include "kernels/registry.hpp"

namespace vdg::gen_1x1v_p1_ten {

static // Volume streaming kernel (exact DG volume integral of div_x (v f)),
// auto-generated for the 1x1v_p1_ten basis (4 DOF/cell).
// Inputs: cell center w, cell size dxv, distribution coefficients f;
// out is incremented with the forward-Euler volume contribution.
void vlasov_1x1v_p1_ten_stream_vol(const double* w, const double* dxv, const double* f, double* out) {
  const double rdx2_0 = 2.0/dxv[0];
  const double wv_0 = w[1];
  const double hdv_0 = 0.5*dxv[1];
  out[1] += rdx2_0*((1.7320508075688785*wv_0)*f[0] + (1.0000000000000004*hdv_0)*f[2]);
  out[3] += rdx2_0*((1.0000000000000004*hdv_0)*f[0] + (1.7320508075688779*wv_0)*f[2]);
}

static // Volume acceleration kernel (exact DG volume integral of div_v (alpha f));
// alpha is the per-cell phase-space flux expansion, vdim x 4 coefficients.
void vlasov_1x1v_p1_ten_accel_vol(const double* dxv, const double* alpha, const double* f, double* out) {
  const double rdv2_0 = 2.0/dxv[1];
  out[2] += rdv2_0*(0.86602540378443926*alpha[0]*f[0] + 0.86602540378443893*alpha[1]*f[1] + 0.86602540378443893*alpha[2]*f[2] + 0.8660254037844386*alpha[3]*f[3]);
  out[3] += rdv2_0*(0.86602540378443893*alpha[0]*f[1] + 0.86602540378443893*alpha[1]*f[0] + 0.8660254037844386*alpha[2]*f[3] + 0.8660254037844386*alpha[3]*f[2]);
}

static // Surface streaming kernel, configuration direction 0:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
void vlasov_1x1v_p1_ten_stream_surf0(const double* w, const double* dxv, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[0];
  const double wv = w[1];
  const double hdv = 0.5*dxv[1];
  const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
  const double fL0 = 0.70710678118654757*fl[0] + 1.2247448713915889*fl[1];
  const double fL1 = 0.70710678118654757*fl[2] + 1.2247448713915889*fl[3];
  const double fR0 = 0.70710678118654757*fr[0] - 1.2247448713915889*fr[1];
  const double fR1 = 0.70710678118654757*fr[2] - 1.2247448713915889*fr[3];
  const double favg0 = 0.5*(fL0 + fR0);
  const double favg1 = 0.5*(fL1 + fR1);
  const double fhat0 = wv*(1.0000000000000004*favg0) + hdv*(0.57735026918962584*favg1) - 0.5*tau*(fR0 - fL0);
  const double fhat1 = wv*(1.0000000000000002*favg1) + hdv*(0.57735026918962584*favg0) - 0.5*tau*(fR1 - fL1);
  outl[0] -= rdx2*0.70710678118654757*fhat0;
  outr[0] += rdx2*0.70710678118654757*fhat0;
  outl[1] -= rdx2*1.2247448713915889*fhat0;
  outr[1] += rdx2*-1.2247448713915889*fhat0;
  outl[2] -= rdx2*0.70710678118654757*fhat1;
  outr[2] += rdx2*0.70710678118654757*fhat1;
  outl[3] -= rdx2*1.2247448713915889*fhat1;
  outr[3] += rdx2*-1.2247448713915889*fhat1;
}

static // Surface acceleration kernel, velocity direction 0:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
void vlasov_1x1v_p1_ten_accel_surf0(const double* dxv, const double* al, const double* ar, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[1];
  const double fL0 = 0.70710678118654757*fl[0] + 1.2247448713915889*fl[2];
  const double fL1 = 0.70710678118654757*fl[1] + 1.2247448713915889*fl[3];
  const double fR0 = 0.70710678118654757*fr[0] - 1.2247448713915889*fr[2];
  const double fR1 = 0.70710678118654757*fr[1] - 1.2247448713915889*fr[3];
  const double aL0 = 0.70710678118654757*al[0] + 1.2247448713915889*al[2];
  const double aL1 = 0.70710678118654757*al[1] + 1.2247448713915889*al[3];
  const double aR0 = 0.70710678118654757*ar[0] - 1.2247448713915889*ar[2];
  const double aR1 = 0.70710678118654757*ar[1] - 1.2247448713915889*ar[3];
  const double tau = std::fmax(0.0 + 0.70710678118654757*std::fabs(aL0) + 1.2247448713915889*std::fabs(aL1), 0.0 + 0.70710678118654757*std::fabs(aR0) + 1.2247448713915889*std::fabs(aR1));
  const double fhat0 = 0.5*(0.70710678118654779*(aL0*fL0 + aR0*fR0) + 0.70710678118654757*(aL1*fL1 + aR1*fR1)) - 0.5*tau*(fR0 - fL0);
  const double fhat1 = 0.5*(0.70710678118654757*(aL0*fL1 + aR0*fR1) + 0.70710678118654757*(aL1*fL0 + aR1*fR0)) - 0.5*tau*(fR1 - fL1);
  outl[0] -= rdx2*0.70710678118654757*fhat0;
  outr[0] += rdx2*0.70710678118654757*fhat0;
  outl[1] -= rdx2*0.70710678118654757*fhat1;
  outr[1] += rdx2*0.70710678118654757*fhat1;
  outl[2] -= rdx2*1.2247448713915889*fhat0;
  outr[2] += rdx2*-1.2247448713915889*fhat0;
  outl[3] -= rdx2*1.2247448713915889*fhat1;
  outr[3] += rdx2*-1.2247448713915889*fhat1;
}

static // LBO diffusion volume kernel: exact DG volume integral of the twice
// integrated-by-parts diffusion term, sum_j (2/dv_j)^2 int d2w_l/deta_j^2 D f,
// with D = vtSq the configuration-space vth^2 expansion (2 coefficients).
void vlasov_1x1v_p1_ten_lbo_diff_vol(const double* dxv, const double* vtSq, const double* f, double* out) {
  (void)dxv; (void)vtSq; (void)f; (void)out;
}

static // LBO diffusion surface kernel, velocity direction 0: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
void vlasov_1x1v_p1_ten_lbo_diff_surf0(const double* dxv, const double* vtSq, const double* fl, const double* fr, double* outl, double* outr) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.0000000000000002*vtSq[0];
  const double dF1 = 1.0000000000000002*vtSq[1];
  const double rv0 = 0.35355339059327373*fl[0] + 0.35355339059327356*fr[0] + 0.40824829046386302*fl[2] - 0.40824829046386268*fr[2];
  const double rd0 = -1.5909902576697319*fl[0] + 1.5909902576697319*fr[0] - 1.5309310892394858*fl[2] - 1.5309310892394858*fr[2];
  const double rv1 = 0.35355339059327373*fl[1] + 0.35355339059327356*fr[1] + 0.40824829046386302*fl[3] - 0.40824829046386268*fr[3];
  const double rd1 = -1.5909902576697319*fl[1] + 1.5909902576697319*fr[1] - 1.5309310892394858*fl[3] - 1.5309310892394858*fr[3];
  const double pD0 = 0.70710678118654779*dF0*rd0 + 0.70710678118654757*dF1*rd1;
  const double pD1 = 0.70710678118654757*dF0*rd1 + 0.70710678118654757*dF1*rd0;
  const double pV0 = 0.70710678118654779*dF0*rv0 + 0.70710678118654757*dF1*rv1;
  const double pV1 = 0.70710678118654757*dF0*rv1 + 0.70710678118654757*dF1*rv0;
  outl[0] += s2*(0.35355339059327379*pD0);
  outr[0] += s2*(-0.35355339059327379*pD0);
  outl[1] += s2*(0.35355339059327379*pD1);
  outr[1] += s2*(-0.35355339059327379*pD1);
  outl[2] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
  outr[2] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
  outl[3] += s2*(0.61237243569579447*pD1 - 1.2247448713915889*pV1);
  outr[3] += s2*(0.61237243569579447*pD1 + 1.2247448713915889*pV1);
}

static // LBO diffusion boundary kernel, velocity direction 0, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
void vlasov_1x1v_p1_ten_lbo_diff_bnd0_lo(const double* dxv, const double* vtSq, const double* f, double* out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.0000000000000002*vtSq[0];
  const double dF1 = 1.0000000000000002*vtSq[1];
  const double tr0 = 0.70710678118654757*f[0] - 1.2247448713915889*f[2];
  const double tr1 = 0.70710678118654757*f[1] - 1.2247448713915889*f[3];
  const double pV0 = 0.70710678118654779*dF0*tr0 + 0.70710678118654757*dF1*tr1;
  const double pV1 = 0.70710678118654757*dF0*tr1 + 0.70710678118654757*dF1*tr0;
  out[2] += s2*(1.2247448713915889*pV0);
  out[3] += s2*(1.2247448713915889*pV1);
}

static // LBO diffusion boundary kernel, velocity direction 0, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
void vlasov_1x1v_p1_ten_lbo_diff_bnd0_up(const double* dxv, const double* vtSq, const double* f, double* out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 1.0000000000000002*vtSq[0];
  const double dF1 = 1.0000000000000002*vtSq[1];
  const double tr0 = 0.70710678118654757*f[0] + 1.2247448713915889*f[2];
  const double tr1 = 0.70710678118654757*f[1] + 1.2247448713915889*f[3];
  const double pV0 = 0.70710678118654779*dF0*tr0 + 0.70710678118654757*dF1*tr1;
  const double pV1 = 0.70710678118654757*dF0*tr1 + 0.70710678118654757*dF1*tr0;
  out[2] += s2*(-1.2247448713915889*pV0);
  out[3] += s2*(-1.2247448713915889*pV1);
}

__attribute__((cold)) void registerKernels() {
  VlasovCompiledKernels k;
  k.numPhaseModes = 4;
  k.streamVol = vlasov_1x1v_p1_ten_stream_vol;
  k.accelVol = vlasov_1x1v_p1_ten_accel_vol;
  k.streamSurf[0] = vlasov_1x1v_p1_ten_stream_surf0;
  k.accelSurf[0] = vlasov_1x1v_p1_ten_accel_surf0;
  k.lbo.diffVol = vlasov_1x1v_p1_ten_lbo_diff_vol;
  k.lbo.diffSurf[0] = vlasov_1x1v_p1_ten_lbo_diff_surf0;
  k.lbo.diffBound[0][0] = vlasov_1x1v_p1_ten_lbo_diff_bnd0_lo;
  k.lbo.diffBound[0][1] = vlasov_1x1v_p1_ten_lbo_diff_bnd0_up;
  registerCompiledKernels("1x1v_p1_ten", k);
}

}  // namespace vdg::gen_1x1v_p1_ten
